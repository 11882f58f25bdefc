/** @file Tests for the sweep runner: worker count, ordering,
 *  determinism, progress, and row identity across worker counts. */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <thread>

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

/** One baseline job per app in @p names, @p insts each. */
std::vector<RunJob>
baselineBatch(std::initializer_list<const char *> names,
              std::uint64_t insts = kInsts)
{
    Experiment exp(SystemConfig::base(), insts);
    std::vector<RunJob> jobs;
    for (const char *name : names)
        jobs.push_back(exp.baselineJob(profileByName(name)));
    return jobs;
}

void
expectAllIdentical(const std::vector<RunResult> &want,
                   const std::vector<RunResult> &got)
{
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        expectIdentical(want[i], got[i]);
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

TEST(SweepRunnerTest, ZeroSelectsHardwareConcurrency)
{
    EXPECT_EQ(SweepRunner(0).parallelism(),
              std::max(1u, std::thread::hardware_concurrency()));
    EXPECT_EQ(SweepRunner(1).parallelism(), 1u);
    EXPECT_EQ(SweepRunner(3).parallelism(), 3u);
}

TEST(SweepRunnerTest, HugeWorkerCountIsCapped)
{
    // A wrapped "-1" must not ask for billions of threads.
    EXPECT_EQ(SweepRunner::maxWorkers, 256u);
    EXPECT_EQ(SweepRunner(std::numeric_limits<unsigned>::max())
                  .parallelism(),
              SweepRunner::maxWorkers);
    EXPECT_EQ(SweepRunner(257).parallelism(), SweepRunner::maxWorkers);
}

TEST(SweepRunnerTest, RunnerIsReusableAcrossBatches)
{
    const auto jobs =
        baselineBatch({"ammp", "gcc", "swim", "vpr"}, 20000);
    const auto serial = SweepRunner::runSerial(jobs);
    SweepRunner runner(3);
    for (int batch = 0; batch < 5; ++batch) {
        SCOPED_TRACE(batch);
        expectAllIdentical(serial, runner.run(jobs));
    }
}

TEST(SweepRunnerTest, FewerJobsThanWorkers)
{
    SweepRunner runner(4);
    for (const auto &jobs : {baselineBatch({"gcc"}, 20000),
                             baselineBatch({"ammp", "swim"}, 20000)}) {
        SCOPED_TRACE(jobs.size());
        expectAllIdentical(SweepRunner::runSerial(jobs),
                           runner.run(jobs));
    }
    EXPECT_TRUE(runner.run({}).empty());
}

TEST(SweepRunnerTest, ParallelResultsBitIdenticalToSerial)
{
    Experiment exp(SystemConfig::base(), kInsts);
    const auto jobs = mixedBatch(exp);

    const auto serial = SweepRunner::runSerial(jobs);
    ASSERT_EQ(serial.size(), jobs.size());
    expectAllIdentical(serial, SweepRunner(4).run(jobs));
}

TEST(SweepRunnerTest, ResultsAreInJobOrder)
{
    const auto jobs = baselineBatch({"ammp", "gcc", "swim", "vpr"});
    SweepRunner runner(4);
    const auto results = runner.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(results[i].workload, jobs[i].profile.name);
}

TEST(SweepRunnerTest, ProgressReachesTotalExactlyOnce)
{
    const auto jobs = baselineBatch({"ammp", "gcc", "swim"});
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

TEST(SweepRunnerTest, DrainRunsEachReleaseNextAndMatchesSerial)
{
    // Three apps' static d-cache sweeps, one schedule each. When a
    // group finishes it releases one dependent job (its app's
    // baseline), as a side=both cell releases its combined rerun.
    Experiment exp(SystemConfig::base(), 20000);
    std::vector<RunJob> jobs;
    for (const char *name : {"ammp", "gcc", "swim"}) {
        auto s = exp.staticSearchJobs(profileByName(name),
                                      CacheSide::DCache,
                                      Organization::SelectiveSets);
        jobs.insert(jobs.end(), s.begin(), s.end());
    }
    const auto drain = [&](unsigned workers, std::vector<RunJob> &released,
                           std::vector<std::string> &order) {
        return SweepRunner(workers).drain(
            jobs, [&](const std::vector<std::size_t> &group,
                      const std::vector<RunResult> &results,
                      std::vector<RunJob> &release) {
                const std::size_t first = group.front();
                EXPECT_EQ(results[first].workload,
                          first < jobs.size()
                              ? jobs[first].profile.name
                              : released[first - jobs.size()].profile.name);
                order.push_back(first < jobs.size()
                                    ? jobs[first].profile.name
                                    : "released " +
                                          released[first - jobs.size()]
                                              .profile.name);
                if (first < jobs.size()) {
                    release.push_back(
                        exp.baselineJob(jobs[first].profile));
                    released.push_back(release.back());
                }
                return true;
            });
    };

    // One worker: each app is one group, the groups start in job
    // order, and each release runs right after the group that freed
    // it.
    std::vector<RunJob> released;
    std::vector<std::string> order;
    const std::vector<RunResult> one = drain(1, released, order);
    EXPECT_EQ(order, (std::vector<std::string>{
                         "ammp", "released ammp", "gcc", "released gcc",
                         "swim", "released swim"}));

    // Any worker count (more workers cut each app into more groups):
    // every result equals its job's solo run, the released jobs' in
    // release order.
    for (const unsigned workers : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        released.clear();
        order.clear();
        const std::vector<RunResult> got = drain(workers, released, order);
        std::vector<RunJob> all = jobs;
        all.insert(all.end(), released.begin(), released.end());
        ASSERT_EQ(released.size(),
                  SweepRunner::laneGroups(jobs, workers).size());
        expectAllIdentical(SweepRunner::runSerial(all), got);
    }

    // An analytic batch: each app's static sweep is one group, one
    // pass. Each initial group releases its app's side=both rerun, of
    // the same stream key and geometry, which prices from the pass of
    // the group that released it; that group releases the app's
    // baseline at another associativity, which the pass has no
    // baseline context for, so it streams a fresh pass.
    exp.setEngine(EngineSpec::makeAnalytic());
    std::vector<RunJob> ajobs;
    for (const char *name : {"ammp", "gcc", "swim"}) {
        auto s = exp.staticSearchJobs(profileByName(name),
                                      CacheSide::DCache,
                                      Organization::SelectiveSets);
        ajobs.insert(ajobs.end(), s.begin(), s.end());
    }
    for (const unsigned workers : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " analytic workers");
        std::vector<RunJob> all = ajobs;
        const std::vector<RunResult> got = SweepRunner(workers).drain(
            ajobs, [&](const std::vector<std::size_t> &group,
                       const std::vector<RunResult> &,
                       std::vector<RunJob> &release) {
                const RunJob &lead = all[group.front()];
                if (group.front() < ajobs.size()) {
                    release.push_back(exp.bothStaticJob(
                        lead.profile, Organization::SelectiveSets, 1, 2));
                } else if (lead.cfg.dl1.assoc == 2) {
                    release.push_back(exp.baselineJob(lead.profile));
                    release.back().cfg.il1.assoc = 4;
                    release.back().cfg.dl1.assoc = 4;
                }
                all.insert(all.end(), release.begin(), release.end());
                return true;
            });
        ASSERT_EQ(all.size(), ajobs.size() + 6);
        ASSERT_EQ(got.size(), all.size());
        for (std::size_t i = 0; i < all.size(); ++i)
            EXPECT_EQ(got[i], executeRunJob(all[i])) << all[i].label;
    }
}

TEST(SweepRunnerTest, DrainStartsNoGroupAfterAStop)
{
    // Six single-job groups; the caller stops the drain at the first
    // finished group. One worker runs nothing more; with two, only
    // the group already running finishes after the stop.
    const auto jobs = baselineBatch(
        {"ammp", "gcc", "swim", "vpr", "compress", "m88ksim"}, 20000);
    for (const unsigned workers : {1u, 2u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        std::size_t told = 0;
        const std::vector<RunResult> got = SweepRunner(workers).drain(
            jobs, [&](const std::vector<std::size_t> &,
                      const std::vector<RunResult> &,
                      std::vector<RunJob> &) {
                ++told;
                return false;
            });
        EXPECT_GE(told, 1u);
        EXPECT_LE(told, workers);
        std::size_t ran = 0;
        for (const RunResult &r : got)
            ran += r.insts > 0;
        EXPECT_EQ(ran, told);
    }
}

} // namespace rcache
