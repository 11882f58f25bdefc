/** @file Tests for the profiling searches: Experiment's job layout
 *  and reductions, and the rows the cell-evaluation path builds from
 *  them. */

#include <gtest/gtest.h>

#include "runner/sweep_runner.hh"
#include "sim/experiment.hh"
#include "tests/scenario/scenario_rows.hh"

namespace rcache
{

namespace
{

/** One static selective-sets d-cache cell of ammp. */
const char *const kAmmpStatic = R"([scenario]
insts = 120000

[workloads]
apps = ammp

[search]
org = sets
strategy = static
side = dcache
)";

} // namespace

TEST(ExperimentTest, StaticSearchPicksMinimumED)
{
    const ScenarioRows res = scenarioRows(kAmmpStatic);
    ASSERT_EQ(res.rows.size(), 1u);
    const SweepRecord &out = res.rows[0];
    // ammp has a tiny working set: a much smaller cache must win.
    EXPECT_GT(out.bestLevel, 0u);
    EXPECT_GT(out.edReductionPct, 5.0);
    EXPECT_LT(out.avgDl1Bytes, 32 * 1024.0);
    // And the best point cannot be worse than the full-size point.
    EXPECT_LE(out.bestEdp, out.baselineEdp * 1.01);
}

TEST(ExperimentTest, StaticSearchOnlyTouchesRequestedSide)
{
    const ScenarioRows res = scenarioRows(R"([scenario]
insts = 120000

[workloads]
apps = ammp

[axes]
side = dcache,icache

[search]
org = sets
strategy = static
)");
    ASSERT_EQ(res.rows.size(), 2u);
    EXPECT_DOUBLE_EQ(res.rows[0].avgIl1Bytes, 32 * 1024.0);
    EXPECT_DOUBLE_EQ(res.rows[1].avgDl1Bytes, 32 * 1024.0);
}

TEST(ExperimentTest, DynamicSearchNeverMuchWorseThanBaseline)
{
    // The grid includes a size-bound equal to the full size, so the
    // profiled dynamic point can only lose the resizing-tag-bit
    // overhead.
    const ScenarioRows res = scenarioRows(R"([scenario]
insts = 120000

[workloads]
apps = swim,gcc

[search]
org = sets
strategy = dynamic
side = dcache
)");
    ASSERT_EQ(res.rows.size(), 2u);
    for (const SweepRecord &out : res.rows)
        EXPECT_GT(out.edReductionPct, -1.0) << out.app;
}

TEST(ExperimentTest, DynamicSearchShrinksSmallWorkingSet)
{
    const ScenarioRows res = scenarioRows(R"([scenario]
insts = 120000

[workloads]
apps = ammp

[search]
org = sets
strategy = dynamic
side = dcache
)");
    ASSERT_EQ(res.rows.size(), 1u);
    EXPECT_GT(res.rows[0].sizeReductionPct, 30.0);
    EXPECT_GT(res.rows[0].edReductionPct, 3.0);
}

TEST(ExperimentTest, BothSidesOutcomeCombines)
{
    const ScenarioRows res = scenarioRows(R"([scenario]
insts = 120000

[workloads]
apps = m88ksim

[axes]
side = dcache,icache,both

[search]
org = sets
strategy = static
)");
    ASSERT_EQ(res.rows.size(), 3u);
    const SweepRecord &d = res.rows[0];
    const SweepRecord &i = res.rows[1];
    const SweepRecord &both = res.rows[2];
    EXPECT_LT(both.avgDl1Bytes, 32 * 1024.0);
    EXPECT_LT(both.avgIl1Bytes, 32 * 1024.0);
    // Additivity within slack (paper Fig 9).
    EXPECT_NEAR(both.edReductionPct,
                d.edReductionPct + i.edReductionPct, 4.0);
}

TEST(ExperimentTest, RunPointHonorsExplicitSetups)
{
    RunJob job;
    job.label = "ammp/point";
    job.profile = profileByName("ammp");
    job.cfg.il1Org = Organization::SelectiveSets;
    job.cfg.dl1Org = Organization::SelectiveWays;
    job.insts = 120000;
    job.il1 = ResizeSetup{Strategy::Static, 1, {}};
    job.dl1 = ResizeSetup{Strategy::Static, 1, {}};
    const RunResult r = executeRunJob(job);
    EXPECT_DOUBLE_EQ(r.avgIl1Bytes, 16 * 1024.0); // sets level 1
    EXPECT_DOUBLE_EQ(r.avgDl1Bytes, 16 * 1024.0); // ways level 1 (1w)
}

TEST(ExperimentTest, SearchGridsExposed)
{
    const SearchGrid grid;
    EXPECT_FALSE(grid.missFractions.empty());
    EXPECT_FALSE(grid.intervals.empty());
    for (double f : grid.missFractions) {
        EXPECT_GT(f, 0.0);
        EXPECT_LT(f, 1.0);
    }
}

TEST(ExperimentTest, TieBreakPrefersLargerCacheLowerIndex)
{
    // Equal-E.D candidates: the documented strict-< contract keeps
    // the first minimum, i.e. the lower index / larger cache.
    RunResult base;
    base.insts = 1000;
    base.cycles = 100;
    base.energy.core = 10.0;

    auto point = [](double energy, std::uint64_t cycles) {
        RunResult r;
        r.insts = 1000;
        r.cycles = cycles;
        r.energy.core = energy;
        return r;
    };
    // Levels 1 and 2 have exactly equal E.D (8*100 == 4*200);
    // level 3 is strictly worse.
    const std::vector<RunResult> results = {
        point(10.0, 100), point(8.0, 100), point(4.0, 200),
        point(12.0, 100)};
    const SearchOutcome out =
        Experiment::reduceStatic(base, results);
    EXPECT_EQ(out.bestLevel, 1u);
    EXPECT_DOUBLE_EQ(out.best.edp(), 800.0);

    // Same contract over dynamic candidates.
    std::vector<SearchCandidate> grid(results.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        grid[i].setup.strategy = Strategy::Dynamic;
        grid[i].setup.dyn.intervalAccesses = 1024 * (i + 1);
    }
    const SearchOutcome dyn =
        Experiment::reduceSearch(base, grid, results);
    EXPECT_EQ(dyn.bestParams.intervalAccesses, 2 * 1024u);
}

TEST(ExperimentTest, ZeroBaselineGuardsReturnZero)
{
    // Degenerate baselines (zero E.D / zero enabled bytes) must not
    // divide by zero; the accessors warn and return 0.
    SearchOutcome out;
    out.best.cycles = 100;
    out.best.energy.core = 5.0;
    out.best.avgDl1Bytes = 1024;
    EXPECT_EQ(out.baseline.edp(), 0.0);
    EXPECT_DOUBLE_EQ(out.relativeED(), 0.0);
    EXPECT_DOUBLE_EQ(out.edReductionPct(), 0.0);
    EXPECT_DOUBLE_EQ(out.perfDegradationPct(), 0.0);
    EXPECT_DOUBLE_EQ(out.sizeReductionPct(CacheSide::DCache), 0.0);
    EXPECT_DOUBLE_EQ(out.sizeReductionPct(CacheSide::ICache), 0.0);
}

TEST(ExperimentTest, SearchGridOverrideShrinksDynamicGrid)
{
    Experiment exp(SystemConfig::base(), 120000);
    const std::size_t full_size =
        exp.dynamicGrid(CacheSide::DCache,
                        Organization::SelectiveSets)
            .size();
    EXPECT_EQ(full_size, 2u * 4u * 4u);

    SearchGrid grid;
    grid.intervals = {4096};
    grid.missFractions = {0.01};
    grid.sizeFractions = {0, 1.0};
    exp.setSearchGrid(grid);
    const auto small = exp.dynamicGrid(CacheSide::DCache,
                                       Organization::SelectiveSets);
    ASSERT_EQ(small.size(), 2u);
    EXPECT_EQ(small[0].intervalAccesses, 4096u);
    EXPECT_EQ(small[0].missBound, 40u);
    EXPECT_EQ(small[0].sizeBoundBytes, 0u);
    EXPECT_EQ(small[1].sizeBoundBytes, 32u * 1024u);
}

TEST(ExperimentTest, GenericSearchMatchesWrappers)
{
    // The generic layout (searchJobs over searchCandidates, reduced by
    // reduceSearch) of a static cell picks what the static wrappers
    // (staticSearchJobs, reduced by reduceStatic) pick.
    const Experiment exp(SystemConfig::base(), 120000);
    const auto p = profileByName("ammp");
    const RunResult base = executeRunJob(exp.baselineJob(p));
    const SearchOutcome wrapped = Experiment::reduceStatic(
        base, SweepRunner::runSerial(exp.staticSearchJobs(
                  p, CacheSide::DCache, Organization::SelectiveSets)));
    const SearchOutcome generic = Experiment::reduceSearch(
        base,
        exp.searchCandidates(CacheSide::DCache,
                             Organization::SelectiveSets,
                             Strategy::Static),
        SweepRunner::runSerial(exp.searchJobs(
            p, CacheSide::DCache, Organization::SelectiveSets,
            Strategy::Static)));
    EXPECT_EQ(wrapped.bestLevel, generic.bestLevel);
    EXPECT_DOUBLE_EQ(wrapped.best.edp(), generic.best.edp());
}

TEST(ExperimentTest, PerfDegradationSignConvention)
{
    const ScenarioRows res = scenarioRows(kAmmpStatic);
    ASSERT_EQ(res.rows.size(), 1u);
    // Downsizing can only slow the run down (or leave it equal).
    EXPECT_GE(res.rows[0].perfDegradationPct, -0.5);
}

} // namespace rcache
