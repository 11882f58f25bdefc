/** @file
 * Tests for the sampled-simulation engine: coverage accounting,
 * determinism (repeat and parallel-vs-serial), tail handling, and the
 * accuracy gate required of sampled profiling sweeps — sampled
 * static-search must pick the same best size as full detail on almost
 * every profile with the relative-E.D error bounded, while simulating
 * at most a fifth of the stream in detail.
 */

#include <gtest/gtest.h>

#include "runner/sweep_runner.hh"
#include "scenario/cell_eval.hh"
#include "sim/experiment.hh"
#include "workload/profiles.hh"
#include "workload/synthetic.hh"

namespace rcache
{

namespace
{

/** The sampling shape the accuracy gate (and CI smoke) runs: 5% of
 *  each period measured, 10% functionally warmed, 85% skipped. */
EngineSpec
gateEngine()
{
    return EngineSpec::makeSampled(200000, 10000, 20000);
}

/** The static d-cache search of @p profile under @p exp: its
 *  baseline and every level, run serially and reduced. */
SearchOutcome
staticOutcome(const Experiment &exp, const BenchmarkProfile &profile,
              Organization org)
{
    std::vector<RunJob> jobs{exp.baselineJob(profile)};
    const auto levels =
        exp.staticSearchJobs(profile, CacheSide::DCache, org);
    jobs.insert(jobs.end(), levels.begin(), levels.end());
    const std::vector<RunResult> results = SweepRunner::runSerial(jobs);
    return Experiment::reduceStatic(
        results.front(), {results.begin() + 1, results.end()});
}

RunJob
sampledBaselineJob(const std::string &app, std::uint64_t insts,
                   const EngineSpec &engine)
{
    RunJob job;
    job.label = app + "/sampled";
    job.profile = profileByName(app);
    job.cfg = SystemConfig::base();
    job.insts = insts;
    job.engine = engine;
    return job;
}

} // namespace

TEST(SamplingConfigTest, DefaultEngineIsFullDetail)
{
    EngineSpec spec;
    EXPECT_EQ(spec.mode, EngineMode::Full);
    EXPECT_FALSE(spec.sampled());
    spec.sampling.validate(); // default shape is well-formed
}

TEST(SamplingConfigTest, ValidateRejectsMalformedShapes)
{
    SamplingConfig zero_detail =
        SamplingConfig::sampled(10000, 0, 100);
    EXPECT_DEATH(zero_detail.validate(), "detail must be > 0");

    SamplingConfig overfull =
        SamplingConfig::sampled(10000, 8000, 4000);
    EXPECT_DEATH(overfull.validate(), "must fit in the sample");
}

TEST(SamplingConfigTest, ShapeCheckIsOverflowSafe)
{
    const std::uint64_t huge = ~std::uint64_t{0};
    // detail + warmup would wrap to a small number; the check must
    // still reject (a pass would hand FunctionalCore a ~2^64-inst
    // warmup — an effectively infinite hang).
    EXPECT_NE(SamplingConfig::shapeError(1000, 100, huge), nullptr);
    EXPECT_NE(SamplingConfig::shapeError(1000, huge, 100), nullptr);
    EXPECT_NE(SamplingConfig::shapeError(1000, huge, huge), nullptr);
    EXPECT_EQ(SamplingConfig::shapeError(1000, 100, 900), nullptr);
    EXPECT_EQ(SamplingConfig::shapeError(huge, huge - 1, 1), nullptr);
}

TEST(SampledRunTest, CoversWholeStreamAndReportsCoverage)
{
    const RunJob job = sampledBaselineJob(
        "ammp", 400000,
        EngineSpec::makeSampled(100000, 10000, 20000));
    const RunResult res = executeRunJob(job);

    EXPECT_EQ(res.engine, EngineMode::Sampled);
    EXPECT_EQ(res.insts, 400000u);
    // 4 periods x 10k measured, 4 x 20k warmed.
    EXPECT_EQ(res.measuredInsts, 40000u);
    EXPECT_EQ(res.warmupInsts, 80000u);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.edp(), 0.0);
    EXPECT_GT(res.ipc(), 0.1);
    EXPECT_LT(res.ipc(), 4.0);
    EXPECT_GT(res.avgDl1Bytes, 0.0);
}

TEST(SampledRunTest, FullDetailRunsReportFullCoverage)
{
    RunJob job = sampledBaselineJob("ammp", 50000, EngineSpec{});
    const RunResult res = executeRunJob(job);
    EXPECT_EQ(res.engine, EngineMode::Full);
    EXPECT_EQ(res.measuredInsts, res.insts);
    EXPECT_EQ(res.warmupInsts, 0u);
}

TEST(SampledRunTest, OneWindowSampledEqualsFullDetail)
{
    // A sampled period with no fast-forward and no warmup is one
    // measured window over the whole stream: exactly a full-detail
    // run. Both go through the same lane loop, so every field but the
    // engine provenance must match bit for bit, doubles included.
    constexpr std::uint64_t kRunInsts = 60000;
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;
    ResizeSetup dyn;
    dyn.strategy = Strategy::Dynamic;
    dyn.dyn.intervalAccesses = 2000;
    dyn.dyn.missBound = 200;
    const auto run = [&](const EngineSpec &engine) {
        SyntheticWorkload wl(profileByName("gcc"));
        System sys(cfg);
        return sys.run(wl, kRunInsts, {}, dyn, engine);
    };
    const RunResult full = run({});
    RunResult sampled =
        run(EngineSpec::makeSampled(kRunInsts, kRunInsts, 0));

    EXPECT_EQ(sampled.engine, EngineMode::Sampled);
    EXPECT_GT(full.dl1Resizes, 0u); // the controller did act
    sampled.engine = full.engine;
    EXPECT_TRUE(sampled == full)
        << "cycles " << sampled.cycles << " vs " << full.cycles
        << ", energy " << sampled.energy.total() << " vs "
        << full.energy.total() << ", dl1 resizes "
        << sampled.dl1Resizes << " vs " << full.dl1Resizes;
}

TEST(SampledRunTest, TailShorterThanPeriodStaysMeasured)
{
    const RunJob job = sampledBaselineJob(
        "gcc", 130000,
        EngineSpec::makeSampled(100000, 10000, 20000));
    const RunResult res = executeRunJob(job);
    // Period 1 is a full 100k; the 30k tail keeps its full detail
    // window and warmup and gives up fast-forward.
    EXPECT_EQ(res.measuredInsts, 20000u);
    EXPECT_EQ(res.warmupInsts, 40000u);
    EXPECT_EQ(res.insts, 130000u);
}

TEST(SampledRunTest, RunShorterThanDetailIsAllMeasured)
{
    const RunJob job = sampledBaselineJob(
        "gcc", 6000, EngineSpec::makeSampled(100000, 10000, 20000));
    const RunResult res = executeRunJob(job);
    EXPECT_EQ(res.measuredInsts, 6000u);
    EXPECT_EQ(res.warmupInsts, 0u);
}

TEST(SampledRunTest, DeterministicAcrossRepeats)
{
    const RunJob job =
        sampledBaselineJob("vpr", 300000, gateEngine());
    const RunResult a = executeRunJob(job);
    const RunResult b = executeRunJob(job);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.activity.mispredicts, b.activity.mispredicts);
    EXPECT_EQ(a.energy.total(), b.energy.total());
    EXPECT_EQ(a.dl1MissRatio, b.dl1MissRatio);
}

TEST(SampledRunTest, ParallelMatchesSerialBitExactly)
{
    Experiment exp(SystemConfig::base(), 200000);
    exp.setEngine(gateEngine());
    std::vector<RunJob> jobs;
    for (const auto &app : {"ammp", "gcc", "swim", "vortex"}) {
        jobs.push_back(exp.baselineJob(profileByName(app)));
    }
    auto d_jobs = exp.staticSearchJobs(
        profileByName("gcc"), CacheSide::DCache,
        Organization::SelectiveSets);
    jobs.insert(jobs.end(), d_jobs.begin(), d_jobs.end());

    const auto serial = SweepRunner::runSerial(jobs);
    SweepRunner pool(3);
    const auto parallel = pool.run(jobs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << i;
        EXPECT_EQ(serial[i].energy.total(),
                  parallel[i].energy.total())
            << i;
        EXPECT_EQ(serial[i].measuredInsts, parallel[i].measuredInsts)
            << i;
    }
}

TEST(SampledRunTest, SampledSweepJobsCarryTheConfig)
{
    Experiment exp(SystemConfig::base(), 200000);
    exp.setEngine(gateEngine());
    const auto jobs = exp.staticSearchJobs(
        profileByName("ammp"), CacheSide::DCache,
        Organization::SelectiveWays);
    ASSERT_FALSE(jobs.empty());
    for (const auto &job : jobs)
        EXPECT_TRUE(job.engine.sampled());
    EXPECT_TRUE(exp.baselineJob(profileByName("ammp"))
                    .engine.sampled());
}

TEST(SampledRunTest, SettingEngineClearsBaselineMemo)
{
    // A baseline laid out after setEngine runs at the new engine, and
    // the memo keys (baselineKey, and the job memo's jobKey) carry the
    // engine, so a memoized full-detail baseline never serves a
    // sampled cell.
    Experiment exp(SystemConfig::base(), 60000);
    const RunResult full =
        executeRunJob(exp.baselineJob(profileByName("ammp")));
    EXPECT_EQ(full.engine, EngineMode::Full);
    exp.setEngine(gateEngine());
    const RunResult sampled =
        executeRunJob(exp.baselineJob(profileByName("ammp")));
    EXPECT_EQ(sampled.engine, EngineMode::Sampled);
    EXPECT_NE(baselineKey(exp.config(), EngineSpec{}, "ammp"),
              baselineKey(exp.config(), exp.engine(), "ammp"));
}

/**
 * The accuracy gate (ISSUE 2): sampled static-search must agree with
 * full detail on the chosen best size for at least 10 of the 12
 * profiles, the relative-E.D estimate (the paper's metric) must stay
 * within 0.08 of the full-detail value on every profile, and the
 * sampled runs may simulate at most a fifth of the stream (which is
 * what makes sampled sweeps >= 5x cheaper in detailed-simulation
 * work).
 */
TEST(SamplingAccuracyGate, StaticSearchMatchesFullDetail)
{
    const std::uint64_t insts = 400000;
    const Organization org = Organization::SelectiveSets;

    Experiment full(SystemConfig::base(), insts);
    Experiment sampled(SystemConfig::base(), insts);
    sampled.setEngine(gateEngine());

    unsigned agree = 0;
    double max_rel_ed_err = 0;
    for (const auto &profile : spec2000Suite()) {
        const SearchOutcome f = staticOutcome(full, profile, org);
        const SearchOutcome s = staticOutcome(sampled, profile, org);

        if (f.bestLevel == s.bestLevel)
            ++agree;
        const double err =
            std::abs(s.relativeED() - f.relativeED());
        max_rel_ed_err = std::max(max_rel_ed_err, err);
        EXPECT_LT(err, 0.08) << profile.name;

        // Detailed+warmed instructions bound the sampled cost.
        EXPECT_LE((s.best.measuredInsts + s.best.warmupInsts) * 5,
                  s.best.insts)
            << profile.name;
        EXPECT_EQ(s.best.engine, EngineMode::Sampled);
        EXPECT_EQ(f.best.engine, EngineMode::Full);
    }
    EXPECT_GE(agree, 10u)
        << "sampled search diverged; max relative-E.D error "
        << max_rel_ed_err;
}

} // namespace rcache
