/**
 * @file
 * Taped runs equal live runs (runner/sweep_runner.hh, TapeDeck): in
 * every run mode (one core or two, full detail or sampled) and for a
 * synthetic profile and a checked-in trace, a job that replays its
 * batch's tape returns a RunResult equal (operator==) to the live run,
 * with equal telemetry rows. Also pins which streams get a tape and
 * that each tape is freed after its last job.
 */

#include <gtest/gtest.h>

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

constexpr std::uint64_t kInsts = 30000;

struct Mode
{
    const char *name;
    unsigned cores;
    EngineSpec engine;
};

std::vector<Mode>
runModes()
{
    const EngineSpec sampled = EngineSpec::makeSampled(10000, 1000, 2000);
    return {{"1-core full", 1, {}},
            {"1-core sampled", 1, sampled},
            {"2-core full", 2, {}},
            {"2-core sampled", 2, sampled}};
}

std::vector<BenchmarkProfile>
profiles()
{
    BenchmarkProfile trace;
    std::string err;
    EXPECT_TRUE(traceProfileFromSpec(
        "trace:" + std::string(RCACHE_TEST_DATA_DIR) + "/mini.trace",
        &trace, &err))
        << err;
    return {profileByName("gcc"), trace};
}

/** A dynamic d-cache job, so resize events are recorded too. */
RunJob
jobFor(const BenchmarkProfile &p, const Mode &mode)
{
    RunJob job;
    job.label = p.name + "/" + mode.name;
    job.profile = p;
    job.cfg.dl1Org = Organization::SelectiveSets;
    job.cfg.cores = mode.cores;
    job.cfg.quantumInsts = 7000; // several turns per core
    job.insts = kInsts;
    job.engine = mode.engine;
    DynamicParams dyn;
    dyn.intervalAccesses = 1024;
    dyn.missBound = 32;
    job.dl1 = ResizeSetup{Strategy::Dynamic, 0, dyn};
    return job;
}

/** The run's telemetry, serialized. */
std::string
rowsOf(const RunTelemetry &t)
{
    std::ostringstream os;
    writeTimelineJsonl(os, t.timeline, "job");
    writeResizeEventsJsonl(os, t.events.events(), "job");
    return os.str();
}

RunTelemetry
request()
{
    RunTelemetry t;
    t.timelineInterval = 2500;
    t.resizeEvents = true;
    return t;
}

} // namespace

TEST(TapeDeckTest, TapedRunsEqualLiveRunsInEveryMode)
{
    for (const BenchmarkProfile &p : profiles()) {
        for (const Mode &mode : runModes()) {
            SCOPED_TRACE(p.name + " " + mode.name);
            RunJob job = jobFor(p, mode);
            RunTelemetry live_t = request();
            job.telemetry = &live_t;
            const RunResult live = executeRunJob(job);
            ASSERT_GT(live.insts, 0u);

            // Two jobs read the stream: the first records the tape
            // and replays it, the second replays it.
            TapeDeck deck({job, job});
            EXPECT_EQ(deck.tapedStreams(), 1u);
            job.tapes = &deck;
            for (int pass = 0; pass < 2; ++pass) {
                RunTelemetry taped_t = request();
                job.telemetry = &taped_t;
                EXPECT_EQ(executeRunJob(job), live) << "pass " << pass;
                EXPECT_EQ(rowsOf(taped_t), rowsOf(live_t));
            }
            EXPECT_EQ(deck.liveTapes(), 0u);
        }
    }
}

TEST(TapeDeckTest, OnlySharedStreamsGetTapesAndEachIsFreedAfterItsLastJob)
{
    const Mode full = runModes()[0];
    RunJob gcc = jobFor(profileByName("gcc"), full);
    RunJob swim = jobFor(profileByName("swim"), full);
    RunJob gcc_longer = gcc;
    gcc_longer.insts = kInsts + 1;
    RunJob gcc_sampled = jobFor(profileByName("gcc"), runModes()[1]);
    RunJob analytic = gcc;
    analytic.engine = EngineSpec::makeAnalytic();
    analytic.dl1 = {};
    // Two gcc jobs share a stream; swim, a longer gcc run, a sampled
    // gcc run and an analytic job (which reads no stream here) each
    // stand alone.
    const std::vector<RunJob> jobs = {gcc, swim, gcc_longer, gcc,
                                      gcc_sampled, analytic};
    TapeDeck deck(jobs);
    EXPECT_EQ(deck.tapedStreams(), 1u);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        RunJob job = jobs[i];
        job.tapes = &deck;
        executeRunJob(job);
        // The gcc tape lives from its first job to its last.
        EXPECT_EQ(deck.liveTapes(), i == 0 || i == 1 || i == 2 ? 1u : 0u)
            << "after job " << i;
    }

    // A two-core job whose cores both run gcc reads the stream twice.
    RunJob pair = jobFor(profileByName("gcc"), runModes()[2]);
    EXPECT_EQ(TapeDeck({pair}).tapedStreams(), 1u);
    pair.mixProfiles = {profileByName("gcc"), profileByName("swim")};
    EXPECT_EQ(TapeDeck({pair}).tapedStreams(), 0u);
}

TEST(TapeDeckTest, ConcurrentBatchMatchesLiveRuns)
{
    // Four workers race to open each stream: one records, the others
    // run live until the tape exists, and every result still equals
    // the serial live run.
    std::vector<RunJob> live_jobs;
    for (const char *app : {"gcc", "swim"}) {
        for (unsigned level = 0; level < 4; ++level) {
            RunJob job = jobFor(profileByName(app), runModes()[0]);
            job.dl1 = ResizeSetup{Strategy::Static, level, {}};
            live_jobs.push_back(job);
        }
    }
    const std::vector<RunResult> want = SweepRunner::runSerial(live_jobs);

    TapeDeck deck(live_jobs);
    EXPECT_EQ(deck.tapedStreams(), 2u);
    std::vector<RunJob> taped = live_jobs;
    for (RunJob &job : taped)
        job.tapes = &deck;
    EXPECT_EQ(SweepRunner(4).run(taped), want);
    EXPECT_EQ(deck.liveTapes(), 0u);
}

} // namespace rcache
