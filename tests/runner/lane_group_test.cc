/**
 * @file
 * Lane groups (runner/sweep_runner.hh): SweepRunner::run, which runs
 * the jobs of one stream schedule as lanes of lockstep groups, equals
 * runSerial, one solo run per job, field by field, timeline rows and
 * resize events included. Covered: full and sampled engines, one and
 * two cores, a synthetic profile and a checked-in trace, out-of-order
 * and in-order cores, static and dynamic d-caches; at 1, 2 and 4
 * workers, with 1, 2 and 9 members per schedule. Also pins how a
 * batch is cut into groups, a tune rung's and a trace's included.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "runner/sweep_runner.hh"
#include "telemetry/run_telemetry.hh"
#include "workload/profiles.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

namespace
{

constexpr std::uint64_t kInsts = 20000;

/** The schedule-fixing half of a job: profile, cores and engine. */
struct Schedule
{
    BenchmarkProfile profile;
    unsigned cores = 1;
    EngineSpec engine;
};

std::vector<Schedule>
schedules()
{
    BenchmarkProfile trace;
    std::string err;
    EXPECT_TRUE(traceProfileFromSpec(
        "trace:" + std::string(RCACHE_TEST_DATA_DIR) + "/mini.trace",
        &trace, &err))
        << err;
    std::vector<Schedule> out;
    for (const BenchmarkProfile &p : {profileByName("gcc"), trace})
        for (const unsigned cores : {1u, 2u})
            for (const EngineSpec &e :
                 {EngineSpec{},
                  EngineSpec::makeSampled(10000, 1000, 2000)})
                out.push_back({p, cores, e});
    return out;
}

/**
 * Member @p k of schedule @p s: the core model and the d-cache
 * strategy cycle with s + k, and a static level with k, so a
 * schedule's members differ in configuration.
 */
RunJob
member(const Schedule &s, std::size_t index, std::size_t k)
{
    RunJob job;
    job.profile = s.profile;
    job.cfg.cores = s.cores;
    job.cfg.quantumInsts = 7000; // several turns per core
    job.insts = kInsts;
    job.engine = s.engine;
    const std::size_t variant = index + k;
    job.cfg.coreModel = variant % 2 ? CoreModel::InOrder
                                    : CoreModel::OutOfOrder;
    job.cfg.dl1Org = Organization::SelectiveSets;
    if ((variant / 2) % 2) {
        DynamicParams dyn;
        dyn.intervalAccesses = 1024;
        dyn.missBound = 32;
        job.dl1 = ResizeSetup{Strategy::Dynamic, 0, dyn};
    } else {
        job.dl1 = ResizeSetup{Strategy::Static,
                              static_cast<unsigned>(k % 4), {}};
    }
    job.label = s.profile.name + "/" + std::to_string(index) + "/" +
                std::to_string(k);
    return job;
}

/** @p members members of every schedule, schedule by schedule. */
std::vector<RunJob>
batchOf(std::size_t members)
{
    const std::vector<Schedule> all = schedules();
    std::vector<RunJob> jobs;
    for (std::size_t s = 0; s < all.size(); ++s)
        for (std::size_t k = 0; k < members; ++k)
            jobs.push_back(member(all[s], s, k));
    return jobs;
}

/** Every job's result and serialized telemetry. */
struct Outputs
{
    std::vector<RunResult> results;
    std::vector<std::string> telemetry;
};

/** Run @p jobs through @p run with a fresh telemetry bundle each. */
template <typename Run>
Outputs
runWithTelemetry(std::vector<RunJob> jobs, Run &&run)
{
    std::vector<std::unique_ptr<RunTelemetry>> bundles;
    for (RunJob &job : jobs) {
        bundles.push_back(std::make_unique<RunTelemetry>());
        bundles.back()->timelineInterval = 2500;
        bundles.back()->resizeEvents = true;
        job.telemetry = bundles.back().get();
    }
    Outputs out;
    out.results = run(jobs);
    for (const auto &t : bundles) {
        std::ostringstream os;
        writeTimelineJsonl(os, t->timeline, "job");
        writeResizeEventsJsonl(os, t->events.events(), "job");
        out.telemetry.push_back(os.str());
    }
    return out;
}

} // namespace

TEST(LaneGroupTest, LanesEqualSoloRunsInEveryMode)
{
    for (const std::size_t members : {1u, 2u, 9u}) {
        SCOPED_TRACE(std::to_string(members) + " members per schedule");
        const std::vector<RunJob> jobs = batchOf(members);
        const Outputs solo = runWithTelemetry(jobs, SweepRunner::runSerial);
        for (const unsigned workers : {1u, 2u, 4u}) {
            SCOPED_TRACE(std::to_string(workers) + " workers");
            const SweepRunner runner(workers);
            const Outputs lanes = runWithTelemetry(
                jobs, [&](const std::vector<RunJob> &js) {
                    return runner.run(js);
                });
            ASSERT_EQ(lanes.results.size(), jobs.size());
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                EXPECT_EQ(lanes.results[i], solo.results[i])
                    << jobs[i].label;
                EXPECT_EQ(lanes.telemetry[i], solo.telemetry[i])
                    << jobs[i].label;
            }
        }
    }
}

TEST(LaneGroupTest, GroupsSplitSchedulesEvenlyUpToMaxLanes)
{
    // Schedules of 9, 2 and 1 members, and an analytic job, which
    // reads no stream and runs alone.
    std::vector<RunJob> jobs = batchOf(9);
    jobs.resize(9);
    const std::vector<RunJob> pair = batchOf(2);
    jobs.insert(jobs.end(), pair.begin() + 2, pair.begin() + 4);
    jobs.push_back(batchOf(1)[5]);
    RunJob analytic = jobs.front();
    analytic.cfg.coreModel = CoreModel::OutOfOrder;
    analytic.engine = EngineSpec::makeAnalytic();
    jobs.push_back(analytic);

    const auto sizes = [&](unsigned workers) {
        const auto groups = SweepRunner::laneGroups(jobs, workers);
        std::set<std::size_t> seen;
        std::vector<std::size_t> out;
        for (std::size_t g = 0; g < groups.size(); ++g) {
            EXPECT_FALSE(groups[g].empty());
            EXPECT_LE(groups[g].size(), SweepRunner::maxLanes);
            if (g > 0)
                EXPECT_LT(groups[g - 1].front(), groups[g].front());
            for (const std::size_t i : groups[g]) {
                EXPECT_TRUE(seen.insert(i).second) << i;
                // One schedule per group.
                EXPECT_EQ(jobs[i].engine, jobs[groups[g][0]].engine);
                EXPECT_EQ(jobs[i].cfg.cores,
                          jobs[groups[g][0]].cfg.cores);
                EXPECT_EQ(jobs[i].profile.name,
                          jobs[groups[g][0]].profile.name);
            }
            out.push_back(groups[g].size());
        }
        EXPECT_EQ(seen.size(), jobs.size());
        return out;
    };
    // One worker: 13 / 2 = 6 lanes at most, so the 9 split 5 + 4.
    EXPECT_EQ(sizes(1), (std::vector<std::size_t>{5, 4, 2, 1, 1}));
    // Two workers: at most 3 lanes, four groups or more.
    EXPECT_EQ(sizes(2), (std::vector<std::size_t>{3, 3, 3, 2, 1, 1}));
    // More workers than pairs of jobs: every job alone.
    EXPECT_EQ(sizes(8), std::vector<std::size_t>(jobs.size(), 1));

    // One schedule of 70 on one worker: 35 lanes by the balance rule,
    // capped at maxLanes, so three near-equal groups; a schedule that
    // reads only a trace is capped at maxTraceLanes.
    static_assert(SweepRunner::maxLanes == 32);
    static_assert(SweepRunner::maxTraceLanes == 8);
    jobs.clear();
    for (std::size_t k = 0; k < 70; ++k)
        jobs.push_back(member(schedules()[0], 0, k));
    ASSERT_EQ(jobs.front().profile.name, "gcc");
    EXPECT_EQ(sizes(1), (std::vector<std::size_t>{24, 23, 23}));
    jobs.clear();
    for (std::size_t k = 0; k < 70; ++k)
        jobs.push_back(member(schedules()[4], 4, k));
    ASSERT_TRUE(isTraceProfile(jobs.front().profile));
    EXPECT_EQ(sizes(1),
              (std::vector<std::size_t>{8, 8, 8, 8, 8, 8, 8, 7, 7}));
}

TEST(LaneGroupTest, TuneRungSchedulesStayWholeUpToMaxLanes)
{
    // The shape of a tune rung: 363 jobs of 12 apps at 2 workers, each
    // app one schedule of 17 to 47 jobs. The balance rule allows 90
    // lanes, so maxLanes binds: a schedule of 32 or fewer is one group
    // (one pass over its stream), a longer one splits in two.
    const std::vector<std::size_t> counts{17, 20, 24, 28, 30, 32,
                                          33, 35, 36, 40, 21, 47};
    const std::vector<BenchmarkProfile> apps = spec2000Suite();
    ASSERT_EQ(apps.size(), counts.size());
    std::vector<RunJob> jobs;
    for (std::size_t s = 0; s < apps.size(); ++s)
        for (std::size_t k = 0; k < counts[s]; ++k)
            jobs.push_back(member({apps[s], 1, EngineSpec::makeSampled(
                                                   100000, 1000, 2000)},
                                  s, k));
    ASSERT_EQ(jobs.size(), 363u);

    const auto groups = SweepRunner::laneGroups(jobs, 2);
    std::vector<std::size_t> sizes;
    for (const auto &g : groups) {
        EXPECT_LE(g.size(), SweepRunner::maxLanes);
        sizes.push_back(g.size());
    }
    EXPECT_EQ(sizes, (std::vector<std::size_t>{17, 20, 24, 28, 30, 32,
                                               17, 16, 18, 17, 18, 18,
                                               20, 20, 21, 24, 23}));
}

} // namespace rcache
