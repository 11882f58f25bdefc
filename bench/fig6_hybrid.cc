/**
 * @file
 * Regenerates Figure 6: average processor energy-delay reduction of
 * the hybrid selective-sets-and-ways organization against both pure
 * organizations, 2..16-way 32K caches.
 *
 * Paper shape to verify: hybrid >= max(selective-ways,
 * selective-sets) at every associativity.
 *
 * The design space lives in scenarios/fig6.scn (side x assoc x org
 * axes); this bench renders it as the paper's two per-side panels,
 * averaging over the suite. The cells are evaluated through the same
 * CellBatch path as `rcache-sim sweep --scenario scenarios/fig6.scn`,
 * so the table is identical for any RCACHE_JOBS value.
 */

#include "bench/common.hh"

using namespace rcache;

int
main()
{
    const bench::ScenarioResult res = bench::evaluateScenario("fig6.scn");
    const ScenarioSpec &spec = res.spec;
    bench::banner("Figure 6: hybrid organization effectiveness",
                  "Fig 6 (hybrid vs selective-ways/sets, 2..16-way)",
                  spec.insts, spec.engine);

    // Points are row-major over side x assoc x org, org innermost.
    rc_assert(spec.search.strategy == Strategy::Static);
    rc_assert(spec.axes.size() == 3 && spec.axes[0].name == "side" &&
              spec.axes[1].name == "assoc" &&
              spec.axes[2].name == "org");
    rc_assert(spec.axes[2].values ==
              (std::vector<std::string>{"hybrid", "ways", "sets"}));
    const std::vector<std::string> &sides = spec.axes[0].values;
    const std::vector<std::string> &assocs = spec.axes[1].values;
    const double n = static_cast<double>(res.apps());

    for (std::size_t s = 0; s < sides.size(); ++s) {
        std::cout << (*parseSweepSideToken(sides[s]) == SweepSide::DCache
                          ? "(a) D-Cache"
                          : "(b) I-Cache")
                  << " — avg reduction (%) in processor "
                     "energy-delay\n\n";
        TextTable t({"assoc", "hybrid", "selective-ways",
                     "selective-sets", "hybrid>=both?"});
        for (std::size_t a = 0; a < assocs.size(); ++a) {
            const std::size_t hybrid_point = (s * assocs.size() + a) * 3;
            double hyb = 0, ways = 0, sets = 0;
            for (std::size_t app = 0; app < res.apps(); ++app) {
                hyb += res.at(app, hybrid_point).edReductionPct;
                ways += res.at(app, hybrid_point + 1).edReductionPct;
                sets += res.at(app, hybrid_point + 2).edReductionPct;
            }
            const bool dominates =
                hyb >= ways - 0.05 * n && hyb >= sets - 0.05 * n;
            t.addRow({assocs[a] + "-way", TextTable::pct(hyb / n),
                      TextTable::pct(ways / n),
                      TextTable::pct(sets / n),
                      dominates ? "yes" : "NO"});
        }
        t.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "paper: hybrid d$ 9/12/13/15, i$ 11/13/14/17.\n";
    return 0;
}
