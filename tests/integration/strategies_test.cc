/** @file
 * Cross-module integration tests for the strategy comparison
 * (paper Section 4.2) on a reduced scale.
 */

#include <gtest/gtest.h>

#include "tests/scenario/scenario_rows.hh"

namespace rcache
{

namespace
{
// Long enough for several periods of the phased profiles; the
// dynamic-vs-static contrast needs the adaptation to amortize.
constexpr std::uint64_t kInsts = 1200000;

/**
 * Selective-sets cells at kInsts over @p apps x the @p axes lines
 * (e.g. "strategy = static,dynamic"), resizing @p side.
 */
ScenarioRows
setsCells(const std::string &apps, const std::string &axes,
          const std::string &side = "dcache")
{
    return scenarioRows("[scenario]\ninsts = " + std::to_string(kInsts) +
                        "\n[workloads]\napps = " + apps +
                        "\n[axes]\n" + axes +
                        "\n[search]\norg = sets\nside = " + side +
                        "\n");
}
} // namespace

TEST(StrategiesIntegration, StaticMatchesDynamicOnConstantApps)
{
    // ammp's working set never changes: static captures everything
    // and dynamic converges to the same size (paper Sec 4.2.1 type 1).
    const ScenarioRows res =
        setsCells("ammp", "strategy = static,dynamic");
    ASSERT_EQ(res.rows.size(), 2u);
    const SweepRecord &st = res.rows[0];
    const SweepRecord &dy = res.rows[1];
    EXPECT_NEAR(st.edReductionPct, dy.edReductionPct, 2.0);
    EXPECT_GT(dy.sizeReductionPct, 50.0);
}

TEST(StrategiesIntegration, DynamicCompetitiveOnPeriodicAppInOrder)
{
    // su2cor + blocking d-cache: the exposed-miss scenario the paper
    // highlights for dynamic resizing. With our synthetic streams and
    // the faithful end-of-interval controller, dynamic matches static
    // within a small margin (the controller's hi-phase detection lag
    // costs roughly what the low-phase dips save; see
    // EXPERIMENTS.md); it must never be catastrophically worse.
    const ScenarioRows res = setsCells(
        "su2cor", "core = inorder\nstrategy = static,dynamic");
    ASSERT_EQ(res.rows.size(), 2u);
    const SweepRecord &st = res.rows[0];
    const SweepRecord &dy = res.rows[1];
    EXPECT_GE(dy.edReductionPct, st.edReductionPct - 1.0);
    EXPECT_GE(dy.edReductionPct, -0.5);
}

TEST(StrategiesIntegration, OoOHidesMissLatencyForStatic)
{
    // With out-of-order issue the same app allows aggressive static
    // downsizing (paper Sec 4.2.1: "static resizing possibly performs
    // as good as dynamic").
    const ScenarioRows res =
        setsCells("su2cor", "core = ooo,inorder\nstrategy = static");
    ASSERT_EQ(res.rows.size(), 2u);
    EXPECT_GT(res.rows[0].edReductionPct, res.rows[1].edReductionPct);
}

TEST(StrategiesIntegration, DynamicTracksPeriodicPhases)
{
    // The controller's level trace must actually move for a
    // periodic workload.
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;
    SyntheticWorkload wl(profileByName("su2cor"));
    System sys(cfg);
    DynamicParams dyn;
    dyn.intervalAccesses = 1024;
    dyn.missBound = 51; // 5%
    dyn.sizeBoundBytes = 8 * 1024;
    RunResult r = sys.run(wl, kInsts, {},
                          ResizeSetup{Strategy::Dynamic, 0, dyn});
    unsigned lo = 99, hi = 0;
    for (unsigned lvl : r.dl1LevelTrace) {
        lo = std::min(lo, lvl);
        hi = std::max(hi, lvl);
    }
    EXPECT_EQ(lo, 0u);  // reaches full size in the hi phase
    EXPECT_GE(hi, 1u);  // and shrinks in the lo phase
    EXPECT_GT(r.dl1Resizes, 2u);
}

TEST(StrategiesIntegration, ICacheSavesMoreOnInOrder)
{
    // Paper Sec 4.2.2: i-cache resizing achieves larger reductions on
    // the in-order processor (larger i-cache energy share).
    const ScenarioRows res =
        setsCells("ammp,compress,m88ksim",
                  "core = ooo,inorder\nstrategy = static", "icache");
    ASSERT_EQ(res.rows.size(), 6u);
    double ooo_sum = 0, inord_sum = 0;
    for (std::size_t app = 0; app < res.apps(); ++app) {
        ooo_sum += res.at(app, 0).edReductionPct;
        inord_sum += res.at(app, 1).edReductionPct;
    }
    EXPECT_GT(inord_sum, ooo_sum);
}

TEST(StrategiesIntegration, PerfDegradationWithinPaperBounds)
{
    // The paper reports all best-E*D points within 6% performance
    // degradation; check ours on the base config.
    const ScenarioRows res = setsCells("ammp,gcc,su2cor,compress",
                                       "strategy = static,dynamic");
    ASSERT_EQ(res.rows.size(), 8u);
    for (const SweepRecord &out : res.rows)
        EXPECT_LT(out.perfDegradationPct, 6.0)
            << out.app << ' ' << out.strategy;
}

} // namespace rcache
