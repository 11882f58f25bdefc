/**
 * @file
 * plannedCoreJobs (scenario/cell_eval.hh) against a real layout. The
 * tuner prices every round by that count, so it must equal what a
 * CellBatch of the same cells, added at one engine, lays out: its
 * phase-1 jobs plus one combined rerun per side=both cell, each
 * counted once per core. (Times EngineSpec::detailedInstsFor(insts),
 * a factor common to every job, that is the tuner's detailed
 * instruction count.) Checked on every scenario under scenarios/,
 * tests/golden/ and perfbench/scenarios/, on scenarios with a mix
 * axis and with repeated apps, and on seeded random subsets of each.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "scenario/cell_eval.hh"
#include "util/random.hh"

namespace rcache
{

namespace
{

/**
 * What a CellBatch of @p cells lays out, each job counted once per
 * core. A job runs on its design point's cores, and baselines of two
 * core counts never share a key, so one batch per core count lays out
 * the same jobs as one batch of all the cells.
 */
std::uint64_t
laidOutCoreJobs(const ParamSpace &space, const std::vector<AppEntry> &apps,
                const std::vector<std::size_t> &cells)
{
    std::map<unsigned, std::vector<std::size_t>> by_cores;
    std::map<unsigned, std::size_t> both_cells;
    for (const std::size_t cell : cells) {
        const DesignPoint p = space.point(cell % space.numPoints());
        by_cores[p.cfg.cores].push_back(cell);
        both_cells[p.cfg.cores] += p.side == SweepSide::Both;
    }
    std::uint64_t n = 0;
    for (const auto &[cores, group] : by_cores) {
        CellBatch batch(space, apps);
        for (const std::size_t cell : group)
            batch.add(cell, {}, &space.spec().engine);
        n += std::uint64_t{cores} *
             (batch.phase1Jobs() + both_cells[cores]);
    }
    return n;
}

/** Compare the count with the layout on every cell of @p spec and on
 *  seeded random subsets in random order. */
void
checkScenario(const ScenarioSpec &spec)
{
    std::string err;
    const auto space = ParamSpace::build(spec, &err);
    ASSERT_TRUE(space) << err;
    const std::vector<AppEntry> apps = resolveApps(spec, &err);
    ASSERT_FALSE(apps.empty()) << err;
    std::vector<std::size_t> all(apps.size() * space->numPoints());
    std::iota(all.begin(), all.end(), 0);
    const std::uint64_t whole = plannedCoreJobs(*space, apps, all);
    EXPECT_GT(whole, 0u);
    EXPECT_EQ(whole, laidOutCoreJobs(*space, apps, all));

    Rng rng(0x9a7c0b5 + all.size());
    for (int round = 0; round < 6; ++round) {
        std::vector<std::size_t> some;
        const std::uint64_t keep = 1 + rng.nextBelow(4);
        for (const std::size_t cell : all)
            if (rng.nextBelow(4) < keep)
                some.push_back(cell);
        for (std::size_t i = some.size(); i > 1; --i)
            std::swap(some[i - 1], some[rng.nextBelow(i)]);
        SCOPED_TRACE(std::to_string(some.size()) + " cells");
        EXPECT_EQ(plannedCoreJobs(*space, apps, some),
                  laidOutCoreJobs(*space, apps, some));
    }
    EXPECT_EQ(plannedCoreJobs(*space, apps, {}), 0u);
}

} // namespace

TEST(PlannedCoreJobsTest, MatchesTheLayoutOfEveryCheckedInScenario)
{
    const std::filesystem::path scenarios = RCACHE_SCENARIO_SOURCE_DIR;
    const std::filesystem::path root = scenarios.parent_path();
    std::vector<std::filesystem::path> files;
    for (const auto &dir : {scenarios, root / "tests" / "golden",
                            root / "perfbench" / "scenarios"})
        for (const auto &e : std::filesystem::directory_iterator(dir))
            if (e.path().extension() == ".scn")
                files.push_back(e.path());
    std::sort(files.begin(), files.end());
    ASSERT_GE(files.size(), 20u);
    for (const auto &file : files) {
        SCOPED_TRACE(file.string());
        std::string err;
        const auto spec = ScenarioSpec::parseFile(file.string(), &err);
        ASSERT_TRUE(spec) << err;
        checkScenario(*spec);
    }
}

TEST(PlannedCoreJobsTest, MatchesTheLayoutAcrossMixesAndRepeatedApps)
{
    // A mix axis names each cell's workload itself, so cells share
    // baselines by mix whatever their app; a repeated app shares its
    // baselines with its first appearance. Both carry a cores axis or
    // count and side=both cells.
    for (const char *text : {R"([scenario]
name = plan-mix
insts = 20000

[workloads]
apps = gcc

[axes]
mix = gcc+swim,ammp+vpr
cores = 2,4
side = dcache,both
assoc = 2,4

[search]
org = sets
strategy = static
)",
                              R"([scenario]
name = plan-repeated
insts = 20000

[cores]
count = 2

[workloads]
apps = gcc,swim,gcc,gcc+swim

[axes]
side = dcache,icache,both
assoc = 2,4

[search]
org = sets
strategy = static
)"}) {
        std::string err;
        const auto spec = ScenarioSpec::parseText(text, "plan.scn", &err);
        ASSERT_TRUE(spec) << err;
        SCOPED_TRACE(spec->name);
        checkScenario(*spec);
    }
}

} // namespace rcache
