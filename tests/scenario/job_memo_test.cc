/**
 * @file
 * The job memo (scenario/cell_eval.hh): its key tells apart any two
 * jobs that differ in anything executeRunJob reads, and a sweep runs
 * each distinct job once while every laid-out job still reports its
 * telemetry rows and a trace mark.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "runner/sweep_runner.hh"
#include "scenario/cell_eval.hh"
#include "scenario/scenario_sweep.hh"
#include "telemetry/run_telemetry.hh"
#include "workload/profiles.hh"

namespace rcache
{

namespace
{

RunJob
baseJob()
{
    RunJob job;
    job.label = "gcc/selective-sets/dcache/static/L1";
    job.profile = profileByName("gcc");
    job.cfg.dl1Org = Organization::SelectiveSets;
    job.insts = 20000;
    job.dl1 = ResizeSetup{Strategy::Static, 1, {}};
    return job;
}

std::size_t
count(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

} // namespace

TEST(JobMemoTest, KeyCoversEveryFieldExecuteRunJobReads)
{
    using Edit = std::function<void(RunJob &)>;
    const std::vector<std::pair<const char *, Edit>> differ = {
        {"profile.name", [](RunJob &j) { j.profile.name = "gcc2"; }},
        {"profile.seed", [](RunJob &j) { ++j.profile.seed; }},
        {"profile.loadFrac", [](RunJob &j) { j.profile.loadFrac += 1e-9; }},
        {"profile.regions",
         [](RunJob &j) { j.profile.regions[0].bytes += 8; }},
        {"profile.codePhase",
         [](RunJob &j) { ++j.profile.codePhase.periodInsts; }},
        {"profile.dataPhase",
         [](RunJob &j) { j.profile.dataPhase.dutyHi += 0.125; }},
        {"profile.fpLatency", [](RunJob &j) { ++j.profile.fpLatency; }},
        {"profile.traceSpec",
         [](RunJob &j) { j.profile.traceSpec = "trace:x.trace"; }},
        {"cfg.dl1.size", [](RunJob &j) { j.cfg.dl1.size /= 2; }},
        {"cfg.l2.assoc", [](RunJob &j) { j.cfg.l2.assoc *= 2; }},
        {"cfg.lat", [](RunJob &j) { ++j.cfg.lat.l2Latency; }},
        {"cfg.core.robSize", [](RunJob &j) { ++j.cfg.core.robSize; }},
        {"cfg.core.frontendDepth",
         [](RunJob &j) { ++j.cfg.core.frontendDepth; }},
        {"cfg.core.wbDrainLatency",
         [](RunJob &j) { ++j.cfg.core.wbDrainLatency; }},
        {"cfg.core.bpred",
         [](RunJob &j) { ++j.cfg.core.bpred.historyBits; }},
        {"cfg.energy", [](RunJob &j) { j.cfg.energy.clockPerCycle *= 2; }},
        {"cfg.il1Org",
         [](RunJob &j) { j.cfg.il1Org = Organization::SelectiveWays; }},
        {"cfg.policy", [](RunJob &j) { j.cfg.policy = "fifo"; }},
        {"cfg.coreModel",
         [](RunJob &j) { j.cfg.coreModel = CoreModel::InOrder; }},
        {"cfg.cores", [](RunJob &j) { j.cfg.cores = 2; }},
        {"cfg.quantumInsts", [](RunJob &j) { ++j.cfg.quantumInsts; }},
        {"cfg.coreModels",
         [](RunJob &j) { j.cfg.coreModels = {CoreModel::OutOfOrder}; }},
        {"insts", [](RunJob &j) { ++j.insts; }},
        {"il1.strategy",
         [](RunJob &j) { j.il1.strategy = Strategy::Static; }},
        {"dl1.staticLevel", [](RunJob &j) { ++j.dl1.staticLevel; }},
        {"dl1.dyn.missBound", [](RunJob &j) { ++j.dl1.dyn.missBound; }},
        {"dl1.dyn.downsizeFraction",
         [](RunJob &j) { j.dl1.dyn.downsizeFraction = 0.5; }},
        {"engine.mode",
         [](RunJob &j) { j.engine = EngineSpec::makeSampled(10000, 1000,
                                                             2000); }},
        {"mixProfiles",
         [](RunJob &j) {
             j.mixProfiles = {profileByName("gcc"),
                              profileByName("swim")};
         }},
    };
    const RunJob base = baseJob();
    const std::string key = jobKey(base);
    for (const auto &[field, edit] : differ) {
        RunJob job = base;
        edit(job);
        EXPECT_NE(jobKey(job), key) << field << " is not in the key";
    }

    // A sampled job's key carries its period shape.
    RunJob sampled = base;
    sampled.engine = EngineSpec::makeSampled(10000, 1000, 2000);
    RunJob other_shape = sampled;
    other_shape.engine = EngineSpec::makeSampled(10000, 1000, 3000);
    EXPECT_NE(jobKey(sampled), jobKey(other_shape));

    // What a run never reads: the label, the telemetry request and
    // the trace point.
    RunJob same = base;
    same.label = "another/label";
    RunTelemetry telemetry;
    same.telemetry = &telemetry;
    same.tracePoint = "cell=7";
    EXPECT_EQ(jobKey(same), key);
}

TEST(JobMemoTest, SweepRunsEachJobOnceAndReportsEveryJob)
{
    // The memo_micro golden scenario: each side=both cell lays out
    // both per-side sweeps again (40 of the 88 laid-out jobs), and at
    // two workers m88ksim's both cell lands in the second chunk.
    std::string err;
    const auto spec = ScenarioSpec::parseText(R"([scenario]
name = memo
insts = 20000

[workloads]
apps = ammp,swim,gcc,m88ksim

[axes]
side = dcache,icache,both

[search]
org = sets
strategy = static
)",
                                              "memo.scn", &err);
    ASSERT_TRUE(spec) << err;
    const std::string dir = testing::TempDir();
    SweepOptions opt;
    opt.jobs = 2;
    opt.quiet = true;
    opt.outPath = dir + "/memo.csv";
    opt.timelinePath = dir + "/memo.timeline.jsonl";
    opt.traceEventsPath = dir + "/memo.trace.json";
    opt.timelineInterval = 5000;
    ASSERT_EQ(runScenarioSweep(*spec, opt), 0);

    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    // One span per lane group, whose lanes are the 48 executed jobs.
    const std::string trace = slurp(opt.traceEventsPath);
    std::size_t lanes = 0;
    for (std::size_t at = 0;
         (at = trace.find("\"lanes\":\"", at)) != std::string::npos;)
        lanes += std::stoul(trace.substr(at += 9));
    EXPECT_EQ(lanes, 48u);
    EXPECT_LT(count(trace, "\"ph\":\"X\""), 48u);
    EXPECT_EQ(count(trace, "\"name\":\"job-memo\""), 40u);
    EXPECT_EQ(count(trace, "\"name\":\"chunk-flush\""), 2u);
    // Every laid-out job wrote its 4 timeline rows.
    EXPECT_EQ(count(slurp(opt.timelinePath), "\n"), 88u * 4);
}

} // namespace rcache
