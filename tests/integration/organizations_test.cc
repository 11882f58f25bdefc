/** @file
 * Cross-module integration tests for the organization comparison
 * (paper Section 4.1) on a reduced scale: full System runs with
 * real profiles, checking the qualitative claims.
 */

#include <gtest/gtest.h>

#include "tests/scenario/scenario_rows.hh"

namespace rcache
{

namespace
{

/**
 * Static d- or i-cache cells at 150k insts: @p apps x the @p orgs
 * axis, on the base system with both L1s at @p assoc ways.
 */
ScenarioRows
staticCells(const std::string &apps, const std::string &orgs,
            unsigned assoc = 2, const std::string &side = "dcache")
{
    return scenarioRows("[scenario]\ninsts = 150000\n"
                        "[system]\nil1.assoc = " +
                        std::to_string(assoc) +
                        "\ndl1.assoc = " + std::to_string(assoc) +
                        "\n[workloads]\napps = " + apps +
                        "\n[axes]\norg = " + orgs +
                        "\n[search]\nstrategy = static\nside = " +
                        side + "\n");
}

/** Sum of the rows' E.D reductions at design point @p point. */
double
sumEd(const ScenarioRows &res, std::size_t point)
{
    double sum = 0;
    for (std::size_t app = 0; app < res.apps(); ++app)
        sum += res.at(app, point).edReductionPct;
    return sum;
}

} // namespace

TEST(OrganizationsIntegration, SmallWsAppsPreferSelectiveSetsMinimum)
{
    // ammp (4-way): selective-sets reaches 4K, selective-ways stops
    // at one 8K way -> sets shrink further (paper Fig 5a).
    const ScenarioRows res = staticCells("ammp", "sets,ways", 4);
    ASSERT_EQ(res.rows.size(), 2u);
    const SweepRecord &sets = res.rows[0];
    const SweepRecord &ways = res.rows[1];
    EXPECT_LT(sets.avgDl1Bytes, ways.avgDl1Bytes);
    EXPECT_GE(sets.edReductionPct, ways.edReductionPct);
}

TEST(OrganizationsIntegration, ConflictAppsNeedAssociativity)
{
    // vpr carries a 4-block alias set: selective-sets (keeps 4 ways)
    // must beat selective-ways (drops ways) at 4-way (paper Fig 5a).
    const ScenarioRows res = staticCells("vpr", "sets,ways", 4);
    ASSERT_EQ(res.rows.size(), 2u);
    EXPECT_GT(res.rows[0].edReductionPct, res.rows[1].edReductionPct);
}

TEST(OrganizationsIntegration, LargeWsAppDoesNotDownsize)
{
    // swim's d-side streams through ~28K: downsizing thrashes, so
    // the profiling search keeps the full size (paper Fig 5a).
    const ScenarioRows res = staticCells("swim", "sets,ways", 4);
    ASSERT_EQ(res.rows.size(), 2u);
    for (const SweepRecord &out : res.rows)
        EXPECT_EQ(out.bestLevel, 0u) << out.org;
}

TEST(OrganizationsIntegration, HybridAtLeastAsGoodAsBoth4Way)
{
    // Paper Fig 6 at the Table 1 design point, on three contrasting
    // apps (small-WS, conflict-heavy, between-sizes).
    const ScenarioRows res =
        staticCells("ammp,vpr,compress", "hybrid,sets,ways", 4);
    ASSERT_EQ(res.rows.size(), 9u);
    for (std::size_t app = 0; app < res.apps(); ++app) {
        const SweepRecord &hyb = res.at(app, 0);
        EXPECT_GE(hyb.edReductionPct,
                  res.at(app, 1).edReductionPct - 0.3)
            << hyb.app;
        EXPECT_GE(hyb.edReductionPct,
                  res.at(app, 2).edReductionPct - 0.3)
            << hyb.app;
    }
}

TEST(OrganizationsIntegration, SelectiveWaysWinsAtHighAssoc)
{
    // 16-way: selective-ways' 2K-grain full-range spectrum dominates
    // selective-sets' coarse top (paper Fig 4, averaged here over a
    // few apps for speed).
    const ScenarioRows res =
        staticCells("ammp,compress,gcc,su2cor", "ways,sets", 16);
    ASSERT_EQ(res.rows.size(), 8u);
    EXPECT_GT(sumEd(res, 0), sumEd(res, 1));
}

TEST(OrganizationsIntegration, SelectiveSetsWinsAtLowAssocICache)
{
    // 2-way i-cache: selective-sets' smaller minimum size wins on
    // small-footprint apps (paper Fig 4b).
    const ScenarioRows res = staticCells(
        "ammp,compress,m88ksim,swim", "ways,sets", 2, "icache");
    ASSERT_EQ(res.rows.size(), 8u);
    EXPECT_GT(sumEd(res, 1), sumEd(res, 0));
}

TEST(OrganizationsIntegration, ResizingTagOverheadVisibleAtFullSize)
{
    // A selective-sets cache left at full size pays only the
    // resizing tag bits vs a non-resizable baseline: a small but
    // non-zero energy-delay penalty.
    const ScenarioRows res = staticCells("swim", "sets");
    ASSERT_EQ(res.rows.size(), 1u);
    const SweepRecord &out = res.rows[0];
    if (out.bestLevel == 0) {
        EXPECT_LT(out.edReductionPct, 0.0);
        EXPECT_GT(out.edReductionPct, -1.0);
    }
}

} // namespace rcache
