/** @file Tests for the sweep runner: ordering, determinism,
 *  progress, cancellation, and row identity across worker counts. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "runner/sweep_runner.hh"
#include "sim/experiment.hh"
#include "tests/scenario/scenario_rows.hh"

namespace rcache
{

namespace
{

constexpr std::uint64_t kInsts = 60000;

/** Bit-identical comparison of everything a run reports. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.energy.total(), b.energy.total());
    EXPECT_EQ(a.avgIl1Bytes, b.avgIl1Bytes);
    EXPECT_EQ(a.avgDl1Bytes, b.avgDl1Bytes);
    EXPECT_EQ(a.il1MissRatio, b.il1MissRatio);
    EXPECT_EQ(a.dl1MissRatio, b.dl1MissRatio);
    EXPECT_EQ(a.l2MissRatio, b.l2MissRatio);
    EXPECT_EQ(a.il1Resizes, b.il1Resizes);
    EXPECT_EQ(a.dl1Resizes, b.dl1Resizes);
    EXPECT_EQ(a.il1LevelTrace, b.il1LevelTrace);
    EXPECT_EQ(a.dl1LevelTrace, b.dl1LevelTrace);
}

/** A mixed batch: static levels of two apps plus a few dynamic
 *  points, all through the public job enumeration. */
std::vector<RunJob>
mixedBatch(const Experiment &exp)
{
    std::vector<RunJob> jobs;
    for (const char *name : {"ammp", "gcc"}) {
        auto s = exp.staticSearchJobs(profileByName(name),
                                      CacheSide::DCache,
                                      Organization::SelectiveSets);
        jobs.insert(jobs.end(), s.begin(), s.end());
    }
    auto d = exp.searchJobs(profileByName("swim"), CacheSide::DCache,
                            Organization::SelectiveSets,
                            Strategy::Dynamic);
    jobs.insert(jobs.end(), d.begin(), d.begin() + 6);
    return jobs;
}

/** Evaluate inline scenario @p text on one worker and on four and
 *  require byte-identical CSV rows. */
void
expectRowsIdenticalAtOneAndFourJobs(const char *text)
{
    const auto csv = [](const ScenarioRows &res) {
        std::ostringstream os;
        writeSweepCsv(os, res.rows);
        return os.str();
    };
    const ScenarioRows serial = scenarioRows(text, 1);
    ASSERT_FALSE(serial.rows.empty());
    EXPECT_EQ(csv(serial), csv(scenarioRows(text, 4)));
}

} // namespace

TEST(SweepRunnerTest, ParallelResultsBitIdenticalToSerial)
{
    Experiment exp(SystemConfig::base(), kInsts);
    const auto jobs = mixedBatch(exp);

    const auto serial = SweepRunner::runSerial(jobs);
    SweepRunner parallel(4);
    const auto par = parallel.run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(par.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdentical(serial[i], par[i]);
}

TEST(SweepRunnerTest, ResultsAreInJobOrder)
{
    Experiment exp(SystemConfig::base(), kInsts);
    std::vector<RunJob> jobs;
    for (const char *name : {"ammp", "gcc", "swim", "vpr"})
        jobs.push_back(exp.baselineJob(profileByName(name)));

    SweepRunner runner(4);
    const auto results = runner.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(results[i].workload, jobs[i].profile.name);
}

TEST(SweepRunnerTest, ProgressReachesTotalExactlyOnce)
{
    Experiment exp(SystemConfig::base(), kInsts);
    std::vector<RunJob> jobs;
    for (const char *name : {"ammp", "gcc", "swim"})
        jobs.push_back(exp.baselineJob(profileByName(name)));

    SweepRunner runner(2);
    std::vector<std::size_t> seen;
    std::size_t total_seen = 0;
    runner.setProgress([&](std::size_t done, std::size_t total,
                           const RunJob &) {
        seen.push_back(done);
        total_seen = total;
    });
    runner.run(jobs);
    EXPECT_EQ(seen.size(), jobs.size());
    EXPECT_EQ(total_seen, jobs.size());
    // Every count 1..N reported exactly once (order may vary).
    std::sort(seen.begin(), seen.end());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i + 1);
}

TEST(SweepRunnerTest, ExperimentSearchesIdenticalWithAndWithoutRunner)
{
    // A static cell and a side=both cell (whose combined phase-2 run
    // depends on both sides' reductions) must report byte-identical
    // rows whether the batch runs serially on one worker or on four.
    // side=both is static-only, so it is a spec of its own.
    const char *const per_side = R"([scenario]
insts = 60000

[workloads]
apps = ammp,swim

[search]
org = sets
strategy = static
side = dcache
)";
    const char *const both = R"([scenario]
insts = 60000

[workloads]
apps = ammp

[search]
org = sets
strategy = static
side = both
)";
    for (const char *text : {per_side, both})
        expectRowsIdenticalAtOneAndFourJobs(text);
}

TEST(SweepRunnerTest, DynamicSearchIdenticalWithAndWithoutRunner)
{
    expectRowsIdenticalAtOneAndFourJobs(R"([scenario]
insts = 60000

[workloads]
apps = ammp,swim

[search]
org = sets
strategy = dynamic
side = dcache
)");
}

TEST(SweepRunnerTest, ExecuteRunJobIsPure)
{
    Experiment exp(SystemConfig::base(), kInsts);
    const RunJob job = exp.baselineJob(profileByName("gcc"));
    expectIdentical(executeRunJob(job), executeRunJob(job));
}

} // namespace rcache
