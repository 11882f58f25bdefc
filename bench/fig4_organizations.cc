/**
 * @file
 * Regenerates Figure 4: average processor energy-delay reduction of
 * static selective-ways vs static selective-sets for 32K d- and
 * i-caches at 2/4/8/16-way set-associativity, on the base
 * out-of-order processor.
 *
 * Paper shape to verify: selective-sets wins at <= 4-way (peaking at
 * 4-way), selective-ways wins at >= 8-way and grows with
 * associativity.
 *
 * The design space lives in scenarios/fig4.scn (side x assoc x org
 * axes); this bench renders it as the paper's two per-side panels,
 * averaging over the suite. `rcache-sim sweep --scenario
 * scenarios/fig4.scn` reports the same cells as CSV rows.
 *
 * The cells are evaluated through the same CellBatch path as the
 * sweep (one batch, RCACHE_JOBS workers, baselines shared across the
 * panels), so the table is identical for any RCACHE_JOBS value.
 */

#include "bench/common.hh"

using namespace rcache;

int
main()
{
    const bench::ScenarioResult res = bench::evaluateScenario("fig4.scn");
    const ScenarioSpec &spec = res.spec;
    bench::banner(
        "Figure 4: resizable cache organizations",
        "Fig 4 (static selective-ways vs selective-sets, 2..16-way)",
        spec.insts, spec.engine);

    // Points are row-major over side x assoc x org, org innermost.
    rc_assert(spec.search.strategy == Strategy::Static);
    rc_assert(spec.axes.size() == 3 && spec.axes[0].name == "side" &&
              spec.axes[1].name == "assoc" &&
              spec.axes[2].name == "org");
    rc_assert(spec.axes[2].values ==
              (std::vector<std::string>{"ways", "sets"}));
    const std::vector<std::string> &sides = spec.axes[0].values;
    const std::vector<std::string> &assocs = spec.axes[1].values;

    for (std::size_t s = 0; s < sides.size(); ++s) {
        std::cout << (*parseSweepSideToken(sides[s]) == SweepSide::DCache
                          ? "(a) D-Cache"
                          : "(b) I-Cache")
                  << " — avg reduction (%) in processor "
                     "energy-delay\n\n";
        TextTable t({"assoc", "selective-ways", "selective-sets"});
        for (std::size_t a = 0; a < assocs.size(); ++a) {
            const std::size_t ways_point = (s * assocs.size() + a) * 2;
            double ways = 0, sets = 0;
            for (std::size_t app = 0; app < res.apps(); ++app) {
                ways += res.at(app, ways_point).edReductionPct;
                sets += res.at(app, ways_point + 1).edReductionPct;
            }
            const double n = static_cast<double>(res.apps());
            t.addRow({assocs[a] + "-way", TextTable::pct(ways / n),
                      TextTable::pct(sets / n)});
        }
        t.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "paper: d$ ways 5/8/11/15, sets 9/11/9/6; "
                 "i$ ways 6/10/13/17, sets 11/12/11/8.\n";
    return 0;
}
