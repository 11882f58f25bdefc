/**
 * @file
 * Regenerates Figure 5: per-application comparison of static
 * selective-ways vs selective-sets for 32K 4-way d- and i-caches —
 * average cache-size reduction and processor energy-delay reduction.
 *
 * The design space lives in scenarios/fig5.scn (side x org axes over
 * a 4-way base system); this bench renders it as the paper's two
 * per-side panels. The cells are evaluated through the same CellBatch
 * path as `rcache-sim sweep --scenario scenarios/fig5.scn`, so the
 * table is identical for any RCACHE_JOBS value.
 */

#include "bench/common.hh"

using namespace rcache;

int
main()
{
    const bench::ScenarioResult res = bench::evaluateScenario("fig5.scn");
    const ScenarioSpec &spec = res.spec;
    bench::banner(
        "Figure 5: selective-ways vs selective-sets, 4-way 32K",
        "Fig 5 (per-application size & energy-delay reductions)",
        spec.insts, spec.engine);

    // Points are row-major over side x org, org innermost.
    rc_assert(spec.search.strategy == Strategy::Static);
    rc_assert(spec.axes.size() == 2 && spec.axes[0].name == "side" &&
              spec.axes[1].name == "org" &&
              spec.axes[1].values ==
                  (std::vector<std::string>{"ways", "sets"}));
    const std::vector<std::string> &sides = spec.axes[0].values;

    for (std::size_t s = 0; s < sides.size(); ++s) {
        std::cout << (*parseSweepSideToken(sides[s]) == SweepSide::DCache
                          ? "(a) D-Cache"
                          : "(b) I-Cache")
                  << "\n\n";
        TextTable t({"app", "ways size-red", "sets size-red",
                     "ways E*D-red", "sets E*D-red", "ways perf",
                     "sets perf"});
        double wsz = 0, ssz = 0, wed = 0, sed = 0;
        for (std::size_t app = 0; app < res.apps(); ++app) {
            const SweepRecord &w = res.at(app, s * 2);
            const SweepRecord &st = res.at(app, s * 2 + 1);
            wsz += w.sizeReductionPct;
            ssz += st.sizeReductionPct;
            wed += w.edReductionPct;
            sed += st.edReductionPct;
            t.addRow({w.app, TextTable::pct(w.sizeReductionPct),
                      TextTable::pct(st.sizeReductionPct),
                      TextTable::pct(w.edReductionPct),
                      TextTable::pct(st.edReductionPct),
                      TextTable::pct(w.perfDegradationPct),
                      TextTable::pct(st.perfDegradationPct)});
        }
        const double n = static_cast<double>(res.apps());
        t.addRow({"AVG", TextTable::pct(wsz / n),
                  TextTable::pct(ssz / n), TextTable::pct(wed / n),
                  TextTable::pct(sed / n), "-", "-"});
        t.print(std::cout);
        std::cout << '\n';
    }
    return 0;
}
