/**
 * @file
 * Regenerates Figure 8: static vs dynamic resizing of a 2-way 32K
 * selective-sets i-cache on both processor configurations.
 *
 * Paper shape to verify: i-cache resizing saves more on the in-order
 * processor (larger i-cache energy share); dynamic's advantage grows
 * with out-of-order issue, where i-misses are more exposed.
 *
 * The design space lives in scenarios/fig8.scn (core x strategy
 * axes); its cells are evaluated through the same CellBatch path as
 * `rcache-sim sweep --scenario scenarios/fig8.scn`, so the table is
 * identical for any RCACHE_JOBS value.
 */

#include "bench/common.hh"

using namespace rcache;

int
main()
{
    const bench::ScenarioResult res = bench::evaluateScenario("fig8.scn");
    rc_assert(res.spec.search.side == SweepSide::ICache);
    bench::banner(
        "Figure 8: i-cache resizing strategy",
        "Fig 8 (static vs dynamic selective-sets, 2-way i-cache)",
        res.spec.insts, res.spec.engine);
    bench::strategyPanels(res);
    std::cout << "paper: (a) static 16%, dynamic 18%; "
                 "(b) static 11%, dynamic 15% (averages).\n";
    return 0;
}
