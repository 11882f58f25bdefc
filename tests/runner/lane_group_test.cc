/**
 * @file
 * Lane groups (runner/sweep_runner.hh): SweepRunner::run, which runs
 * the jobs of one stream schedule as lanes of lockstep groups, equals
 * runSerial, one solo run per job, field by field, timeline rows and
 * resize events included. Covered: full and sampled engines, one and
 * two cores, a synthetic profile and a checked-in trace, out-of-order
 * and in-order cores, static and dynamic d-caches, and lru, slru and
 * wtlfu L1s reading one FrontEnd's marks, and analytic jobs priced by
 * one pass per stream key; at 1, 2 and 4 workers, with 1, 2 and 9
 * members per schedule. Also pins how a batch is cut into groups, a
 * tune rung's, a trace's, a sweep window's, front-end shapes' and
 * analytic stream keys' included.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "runner/sweep_runner.hh"
#include "scenario/cell_eval.hh"
#include "scenario/scenario_sweep.hh"
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
 * Member @p k of schedule @p s: the core model, the d-cache strategy
 * and the L1 replacement policy cycle with s + k, and a static level
 * with k, so a schedule's members differ in configuration.
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
    job.cfg.policy = std::vector<std::string>{"lru", "slru",
                                              "wtlfu"}[variant % 3];
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

/**
 * Analytic member @p k reading @p profile: the associativity, both
 * organizations and both static levels cycle with k, so the members
 * of one stream key need different profiles and baseline contexts.
 */
RunJob
analyticMember(const BenchmarkProfile &profile, std::size_t k)
{
    RunJob job;
    job.profile = profile;
    job.insts = kInsts;
    job.engine = EngineSpec::makeAnalytic();
    job.cfg.il1.assoc = job.cfg.dl1.assoc = k % 3 ? 2 : 4;
    job.cfg.il1Org = k % 2 ? Organization::SelectiveWays
                           : Organization::SelectiveSets;
    job.cfg.dl1Org = k % 4 < 2 ? Organization::SelectiveSets
                               : Organization::SelectiveWays;
    job.il1 = ResizeSetup{Strategy::Static,
                          static_cast<unsigned>(k / 2 % 2), {}};
    if (k % 5)
        job.dl1 = ResizeSetup{Strategy::Static,
                              static_cast<unsigned>(k % 2), {}};
    job.label = profile.name + "/analytic/" + std::to_string(k);
    return job;
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
        std::vector<RunJob> jobs = batchOf(members);
        // Two analytic stream keys, one pass each.
        for (const char *app : {"gcc", "vpr"})
            for (std::size_t k = 0; k < members; ++k)
                jobs.push_back(analyticMember(profileByName(app), k));
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
    // Schedules of 9, 2 and 1 members.
    std::vector<RunJob> jobs = batchOf(9);
    jobs.resize(9);
    const std::vector<RunJob> pair = batchOf(2);
    jobs.insert(jobs.end(), pair.begin() + 2, pair.begin() + 4);
    jobs.push_back(batchOf(1)[5]);

    const auto sizes = [&](unsigned workers) {
        const auto groups = SweepRunner::laneGroups(jobs, workers);
        std::set<std::size_t> seen;
        std::vector<std::size_t> out;
        for (std::size_t g = 0; g < groups.size(); ++g) {
            EXPECT_FALSE(groups[g].empty());
            const RunJob &lead = jobs[groups[g][0]];
            if (!lead.engine.analytic()) {
                EXPECT_LE(groups[g].size(), SweepRunner::maxLanes);
            }
            if (g > 0)
                EXPECT_LT(groups[g - 1].front(), groups[g].front());
            for (const std::size_t i : groups[g]) {
                EXPECT_TRUE(seen.insert(i).second) << i;
                // One schedule per group.
                EXPECT_EQ(jobs[i].engine, lead.engine);
                EXPECT_EQ(jobs[i].cfg.cores, lead.cfg.cores);
                EXPECT_EQ(jobs[i].profile.name, lead.profile.name);
                EXPECT_EQ(jobs[i].cfg.dl1.blockSize,
                          lead.cfg.dl1.blockSize);
            }
            out.push_back(groups[g].size());
        }
        EXPECT_EQ(seen.size(), jobs.size());
        return out;
    };
    // One worker: 12 / 2 = 6 lanes at most, so the 9 split 5 + 4.
    EXPECT_EQ(sizes(1), (std::vector<std::size_t>{5, 4, 2, 1}));
    // Two workers: at most 3 lanes, four groups or more.
    EXPECT_EQ(sizes(2), (std::vector<std::size_t>{3, 3, 3, 2, 1}));
    // More workers than pairs of jobs: every job alone.
    EXPECT_EQ(sizes(8), std::vector<std::size_t>(jobs.size(), 1));

    // Analytic jobs of one stream key, more than maxLanes of them, form
    // one group at any worker count, since one pass prices them all,
    // and never share it with the timed jobs of the same stream. A
    // d-cache block size is part of the stream key, so the job that
    // differs in it forms a group of its own.
    jobs = batchOf(9);
    jobs.resize(9);
    for (std::size_t k = 0; k < SweepRunner::maxLanes + 8; ++k)
        jobs.push_back(analyticMember(profileByName("gcc"), k));
    jobs.push_back(analyticMember(profileByName("gcc"), 1));
    jobs.back().cfg.dl1.blockSize = 64;
    // The 9 timed jobs split by the balance rule alone: 50 / 2 lanes
    // at most on one worker, 50 / 16 on eight.
    EXPECT_EQ(sizes(1), (std::vector<std::size_t>{9, 40, 1}));
    EXPECT_EQ(sizes(8), (std::vector<std::size_t>{3, 3, 3, 40, 1}));

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

TEST(LaneGroupTest, FrontEndShapesNeverShareAGroup)
{
    // One stream schedule, but members whose fetch width, i-cache
    // block size or predictor tables differ read different marks, so
    // each front-end shape forms its own groups.
    std::vector<RunJob> jobs;
    for (std::size_t k = 0; k < 8; ++k)
        jobs.push_back(member(schedules()[1], 1, k));
    jobs[1].cfg.core.fetchWidth = 8;
    jobs[3].cfg.il1.blockSize = 64;
    jobs[5].cfg.core.bpred.gshareEntries = 4096;
    jobs[7].cfg.core.bpred.historyBits = 10;
    EXPECT_EQ(SweepRunner::laneGroups(jobs, 1),
              (std::vector<std::vector<std::size_t>>{
                  {0, 2, 4, 6}, {1}, {3}, {5}, {7}}));
    EXPECT_EQ(SweepRunner(1).run(jobs), SweepRunner::runSerial(jobs));
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

TEST(LaneGroupTest, Fig9WindowFormsOneGroupPerApp)
{
    // A sweep lays fig9.scn out as one window: its 252 phase-1 jobs
    // execute 132 distinct ones, 11 per app (the baseline and five
    // static levels per side; the side=both cells reuse them). The
    // balance rule sees the whole window, so each app's stream feeds
    // one group of 11 lanes.
    std::string err;
    const auto spec = ScenarioSpec::parseFile(
        std::string(RCACHE_SCENARIO_SOURCE_DIR) + "/fig9.scn", &err);
    ASSERT_TRUE(spec) << err;
    const auto space = ParamSpace::build(*spec, &err);
    ASSERT_TRUE(space) << err;
    const std::vector<AppEntry> apps = resolveApps(*spec, &err);
    ASSERT_EQ(apps.size(), 12u) << err;

    JobMemo memo;
    CellBatch window(*space, apps);
    for (std::size_t cell = 0; cell < apps.size() * space->numPoints();
         ++cell)
        window.add(cell, memo);
    EXPECT_LE(window.phase1Jobs(), kSweepWindowJobs);
    // The drain a window starts with, taken without running it.
    std::vector<RunJob> jobs;
    window.run(
        [&](const std::vector<RunJob> &start, const SweepRunner::Finished &) {
            jobs = start;
            return std::vector<RunResult>{};
        },
        memo);
    ASSERT_EQ(jobs.size(), 132u);
    for (const unsigned workers : {2u, 4u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        const auto groups = SweepRunner::laneGroups(jobs, workers);
        EXPECT_EQ(groups.size(), 12u);
        for (const auto &g : groups)
            EXPECT_EQ(g.size(), 11u);
    }
}

} // namespace rcache
