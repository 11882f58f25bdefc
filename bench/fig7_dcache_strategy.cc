/**
 * @file
 * Regenerates Figure 7: static vs dynamic resizing of a 2-way 32K
 * selective-sets d-cache, on (a) the in-order/blocking-d-cache
 * processor and (b) the out-of-order/non-blocking base processor.
 *
 * Paper shape to verify: dynamic beats static where d-miss latency is
 * exposed (in-order) and the working set varies; with out-of-order
 * issue, static downsizes aggressively and matches dynamic.
 *
 * The design space lives in scenarios/fig7.scn (core x strategy
 * axes); its cells are evaluated through the same CellBatch path as
 * `rcache-sim sweep --scenario scenarios/fig7.scn`, so the table is
 * identical for any RCACHE_JOBS value.
 */

#include "bench/common.hh"

using namespace rcache;

int
main()
{
    const bench::ScenarioResult res = bench::evaluateScenario("fig7.scn");
    rc_assert(res.spec.search.side == SweepSide::DCache);
    bench::banner(
        "Figure 7: d-cache resizing strategy",
        "Fig 7 (static vs dynamic selective-sets, 2-way d-cache)",
        res.spec.insts, res.spec.engine);
    bench::strategyPanels(res);
    std::cout << "paper: (a) static 5%, dynamic 9%; "
                 "(b) static 9%, dynamic 11% (averages).\n";
    return 0;
}
