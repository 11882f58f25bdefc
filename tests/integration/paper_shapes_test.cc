/** @file
 * End-to-end checks of the paper's headline results at reduced
 * scale: Fig 9's additivity and ~20% combined saving, and the Fig 4
 * organization crossover.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/experiment.hh"
#include "tests/scenario/scenario_rows.hh"

namespace rcache
{

namespace
{

/** Static selective-sets cells at 250k insts over @p apps x the
 *  @p axes lines. */
ScenarioRows
setsCells(const std::string &apps, const std::string &axes)
{
    return scenarioRows("[scenario]\ninsts = 250000\n"
                        "[workloads]\napps = " +
                        apps + "\n[axes]\n" + axes +
                        "\n[search]\norg = sets\nstrategy = static\n");
}

} // namespace

TEST(PaperShapesTest, Fig9AdditivityOnFavourableApps)
{
    const ScenarioRows res =
        setsCells("ammp,m88ksim,ijpeg", "side = dcache,icache,both");
    ASSERT_EQ(res.rows.size(), 9u);
    for (std::size_t app = 0; app < res.apps(); ++app) {
        const SweepRecord &d = res.at(app, 0);
        const SweepRecord &i = res.at(app, 1);
        const SweepRecord &both = res.at(app, 2);
        // Combined savings within 4 points of the sum (paper: "the
        // overall reductions ... are close to the summation").
        EXPECT_NEAR(both.edReductionPct,
                    d.edReductionPct + i.edReductionPct, 4.0)
            << both.app;
    }
}

TEST(PaperShapesTest, Fig9CombinedSavingsSubstantial)
{
    // Paper: ~20% average combined saving. Small-WS apps should
    // individually exceed 15% here.
    const ScenarioRows res = setsCells("ammp,m88ksim", "side = both");
    ASSERT_EQ(res.rows.size(), 2u);
    for (const SweepRecord &both : res.rows)
        EXPECT_GT(both.edReductionPct, 15.0) << both.app;
}

TEST(PaperShapesTest, Fig4CrossoverDcache)
{
    // selective-sets ahead at 4-way, selective-ways ahead at 16-way,
    // averaged over a representative app subset.
    const ScenarioRows res = setsCells(
        "ammp,compress,vpr,su2cor", "assoc = 4,16\norg = sets,ways");
    ASSERT_EQ(res.rows.size(), 16u);
    // Points: (4, sets), (4, ways), (16, sets), (16, ways).
    double sum[4] = {};
    for (std::size_t app = 0; app < res.apps(); ++app)
        for (std::size_t point = 0; point < 4; ++point)
            sum[point] += res.at(app, point).edReductionPct;
    EXPECT_GT(sum[0], sum[1]);
    EXPECT_GT(sum[3], sum[2]);
}

TEST(PaperShapesTest, EnergyDelayAlwaysPositiveAndFinite)
{
    const Experiment exp(SystemConfig::base(), 50000);
    const auto suite = spec2000Suite();
    std::vector<RunJob> jobs;
    for (const auto &p : suite)
        jobs.push_back(exp.baselineJob(p));
    const std::vector<RunResult> results = SweepRunner::runSerial(jobs);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const RunResult &r = results[i];
        EXPECT_GT(r.edp(), 0.0) << suite[i].name;
        EXPECT_TRUE(std::isfinite(r.edp())) << suite[i].name;
        EXPECT_GT(r.ipc(), 0.1) << suite[i].name;
        EXPECT_LT(r.ipc(), 4.0) << suite[i].name;
    }
}

} // namespace rcache
