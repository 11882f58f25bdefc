/**
 * @file
 * Regenerates Figure 9: resizing the d-cache alone, the i-cache
 * alone, and both together (static selective-sets, base system) —
 * demonstrating the additivity of the two caches' savings.
 *
 * Paper shape to verify: combined reduction ~= sum of individual
 * reductions; overall processor energy-delay saving ~20% on average.
 *
 * The design space lives in scenarios/fig9.scn (the side axis:
 * dcache, icache, both); this bench renders its three coordinates as
 * the paper's per-app additivity table. `rcache-sim sweep --scenario
 * scenarios/fig9.scn` reports the same cells as CSV rows.
 *
 * The cells are evaluated through the same CellBatch path as the
 * sweep: each side=both cell profiles both sides, then reruns both
 * caches together at the two profiled levels (phase 2). RCACHE_JOBS>1
 * overlaps the runs without changing the table.
 */

#include "bench/common.hh"

using namespace rcache;

int
main()
{
    const bench::ScenarioResult res = bench::evaluateScenario("fig9.scn");
    const ScenarioSpec &spec = res.spec;
    bench::banner("Figure 9: resizing both d-cache and i-cache",
                  "Fig 9 (decoupled resizings, static "
                  "selective-sets, base system)",
                  spec.insts, spec.engine);

    rc_assert(spec.search.strategy == Strategy::Static);
    rc_assert(spec.axes.size() == 1 && spec.axes[0].name == "side" &&
              spec.axes[0].values ==
                  (std::vector<std::string>{"dcache", "icache", "both"}));

    TextTable t({"app", "d alone E*D", "i alone E*D", "d+i sum",
                 "both E*D", "both size-red", "both perf"});
    double dsum = 0, isum = 0, bsum = 0, szsum = 0;
    for (std::size_t a = 0; a < res.apps(); ++a) {
        const SweepRecord &d = res.at(a, 0);
        const SweepRecord &i = res.at(a, 1);
        const SweepRecord &both = res.at(a, 2);
        dsum += d.edReductionPct;
        isum += i.edReductionPct;
        bsum += both.edReductionPct;
        szsum += both.sizeReductionPct;
        t.addRow({d.app, TextTable::pct(d.edReductionPct),
                  TextTable::pct(i.edReductionPct),
                  TextTable::pct(d.edReductionPct + i.edReductionPct),
                  TextTable::pct(both.edReductionPct),
                  TextTable::pct(both.sizeReductionPct),
                  TextTable::pct(both.perfDegradationPct)});
    }
    const double n = static_cast<double>(res.apps());
    t.addRow({"AVG", TextTable::pct(dsum / n),
              TextTable::pct(isum / n),
              TextTable::pct((dsum + isum) / n),
              TextTable::pct(bsum / n), TextTable::pct(szsum / n),
              "-"});
    t.print(std::cout);

    std::cout << "\npaper: combined savings are additive; overall "
                 "average ~20% energy-delay reduction (32K 2-way "
                 "static selective-sets L1s).\n";
    return 0;
}
