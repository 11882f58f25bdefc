/** @file Tests for the System wiring. */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runner/sweep_runner.hh"
#include "sim/system.hh"
#include "telemetry/run_telemetry.hh"
#include "workload/profiles.hh"

namespace rcache
{

namespace
{

/** This process's VmRSS in KB, or -1 if /proc/self/status cannot be
 *  read. */
long
residentKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stol(line.substr(6));
    return -1;
}

/** The [start, end) of this process's mapping that holds @p at, from
 *  /proc/self/maps; {0, 0} when none does or the file is
 *  unreadable. */
std::pair<std::uintptr_t, std::uintptr_t>
mappingOf(std::uintptr_t at)
{
    std::ifstream maps("/proc/self/maps");
    std::string line;
    while (std::getline(maps, line)) {
        const std::size_t dash = line.find('-');
        const std::size_t space = line.find(' ', dash);
        const std::uintptr_t lo =
            std::stoull(line.substr(0, dash), nullptr, 16);
        const std::uintptr_t hi = std::stoull(
            line.substr(dash + 1, space - dash - 1), nullptr, 16);
        if (lo <= at && at < hi)
            return {lo, hi};
    }
    return {0, 0};
}

std::uintptr_t
framesOf(const Cache &cache)
{
    return reinterpret_cast<std::uintptr_t>(cache.frames());
}

} // namespace

TEST(SystemTest, BaseConfigMatchesTable2)
{
    SystemConfig cfg = SystemConfig::base();
    EXPECT_EQ(cfg.core.dispatchWidth, 4u);
    EXPECT_EQ(cfg.core.robSize, 64u);
    EXPECT_EQ(cfg.core.lsqSize, 32u);
    EXPECT_EQ(cfg.core.mshrs, 8u);
    EXPECT_EQ(cfg.core.wbEntries, 8u);
    EXPECT_EQ(cfg.il1.size, 32 * 1024u);
    EXPECT_EQ(cfg.il1.assoc, 2u);
    EXPECT_EQ(cfg.dl1.size, 32 * 1024u);
    EXPECT_EQ(cfg.l2.size, 512 * 1024u);
    EXPECT_EQ(cfg.l2.assoc, 4u);
    EXPECT_EQ(cfg.lat.l2Latency, 12u);
    EXPECT_EQ(cfg.lat.memBaseLatency, 80u);
    EXPECT_EQ(cfg.coreModel, CoreModel::OutOfOrder);
}

TEST(SystemTest, RunProducesConsistentResult)
{
    SyntheticWorkload wl(profileByName("ammp"));
    System sys(SystemConfig::base());
    RunResult r = sys.run(wl, 50000);
    EXPECT_EQ(r.insts, 50000u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_GT(r.edp(), 0.0);
    EXPECT_EQ(r.workload, "ammp");
    // Full-size caches for the whole run.
    EXPECT_DOUBLE_EQ(r.avgDl1Bytes, 32 * 1024.0);
    EXPECT_DOUBLE_EQ(r.avgIl1Bytes, 32 * 1024.0);
}

TEST(SystemTest, DeterministicAcrossRuns)
{
    SyntheticWorkload w1(profileByName("gcc"));
    SyntheticWorkload w2(profileByName("gcc"));
    System s1(SystemConfig::base()), s2(SystemConfig::base());
    RunResult a = s1.run(w1, 50000);
    RunResult b = s2.run(w2, 50000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TEST(SystemTest, StaticSetupShrinksCache)
{
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;
    SyntheticWorkload wl(profileByName("ammp"));
    System sys(cfg);
    RunResult r =
        sys.run(wl, 50000, {}, ResizeSetup{Strategy::Static, 2, {}});
    // The level is set once, before the run, and holds throughout: the
    // average size is the level's, with one resize and no controller.
    EXPECT_DOUBLE_EQ(r.avgDl1Bytes, 8 * 1024.0);
    EXPECT_DOUBLE_EQ(r.avgIl1Bytes, 32 * 1024.0);
    EXPECT_EQ(r.dl1Resizes, 1u);
    EXPECT_EQ(r.il1Resizes, 0u);
    EXPECT_TRUE(r.dl1LevelTrace.empty());
    EXPECT_TRUE(r.il1LevelTrace.empty());
}

TEST(SystemTest, DynamicSetupRecordsTrace)
{
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;
    SyntheticWorkload wl(profileByName("ammp"));
    System sys(cfg);
    DynamicParams dyn;
    dyn.intervalAccesses = 1024;
    dyn.missBound = 32;
    RunResult r =
        sys.run(wl, 100000, {}, ResizeSetup{Strategy::Dynamic, 0, dyn});
    EXPECT_FALSE(r.dl1LevelTrace.empty());
    EXPECT_TRUE(r.il1LevelTrace.empty());
    EXPECT_GT(r.dl1Resizes, 0u);
    EXPECT_LT(r.avgDl1Bytes, 32 * 1024.0); // ammp shrinks
}

TEST(SystemTest, InOrderSlowerThanOoO)
{
    SystemConfig ooo = SystemConfig::base();
    SystemConfig inord = ooo;
    inord.coreModel = CoreModel::InOrder;
    SyntheticWorkload w1(profileByName("compress"));
    SyntheticWorkload w2(profileByName("compress"));
    System so(ooo), si(inord);
    EXPECT_LT(so.run(w1, 50000).cycles, si.run(w2, 50000).cycles);
}

TEST(SystemTest, EnergySharesNonTrivial)
{
    SyntheticWorkload wl(profileByName("vortex"));
    System sys(SystemConfig::base());
    RunResult r = sys.run(wl, 100000);
    EXPECT_GT(r.energy.icache, 0.0);
    EXPECT_GT(r.energy.dcache, 0.0);
    EXPECT_GT(r.energy.l2, 0.0);
    EXPECT_GT(r.energy.core, 0.0);
    EXPECT_GT(r.energy.clock, 0.0);
}

TEST(SystemTest, CoreModelNames)
{
    EXPECT_EQ(coreModelName(CoreModel::OutOfOrder),
              "out-of-order/non-blocking");
    EXPECT_EQ(coreModelName(CoreModel::InOrder),
              "in-order/blocking");
}

TEST(SystemTest, StartedSystemsHoldOnlyTheFramesTheyTouch)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer builds allocate their own way";
#endif
    const long before = residentKb();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/status is unreadable";
    // Each System's L2 alone has 256 KB of frames (16384 x 16 bytes);
    // starting a System writes almost none of them, so each may grow
    // the process by at most a quarter of that.
    constexpr long systems = 64;
    std::vector<std::unique_ptr<System>> started;
    for (long i = 0; i < systems; ++i) {
        started.push_back(std::make_unique<System>(SystemConfig::base()));
        started.back()->start({}, {}, EngineSpec{}, nullptr);
    }
    const long grown = residentKb() - before;
    EXPECT_LT(grown, systems * 256 / 4)
        << grown << " KB resident for " << systems << " started Systems";
}

TEST(SystemTest, StartedSystemTakesItsFramesFromOneMapping)
{
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "AddressSanitizer builds take each frame array "
                    "from the heap";
#endif
    // A System's il1, dl1 and L2 frames are carved back to back, in
    // that order, from one mapping, so one munmap releases them all.
    const SystemConfig cfg = SystemConfig::base();
    System sys(cfg);
    sys.start({}, {}, EngineSpec{}, nullptr);
    const std::uintptr_t il1 = framesOf(sys.il1().cache());
    const std::uintptr_t dl1 = framesOf(sys.dl1().cache());
    const std::uintptr_t l2 = framesOf(sys.hierarchy().l2());
    EXPECT_EQ(dl1, il1 + FrameMapping::bytesFor(cfg.il1));
    EXPECT_EQ(l2, dl1 + FrameMapping::bytesFor(cfg.dl1));
    const auto [lo, hi] = mappingOf(il1);
    EXPECT_LE(lo, il1);
    EXPECT_GE(hi, l2 + FrameMapping::bytesFor(cfg.l2));

    // A multi-core system's shared L2 comes first, then each core's
    // L1s, all from the system's one mapping.
    SystemConfig mc = cfg;
    mc.cores = 2;
    System multi(mc);
    const std::vector<CoreLane *> lanes =
        multi.start({}, {}, EngineSpec{}, nullptr);
    std::uintptr_t at = framesOf(multi.sharedL2()->cache());
    const std::uintptr_t first = at;
    at += FrameMapping::bytesFor(mc.l2);
    for (const CoreLane *lane : lanes) {
        EXPECT_EQ(framesOf(lane->il1().cache()), at);
        at += FrameMapping::bytesFor(mc.il1);
        EXPECT_EQ(framesOf(lane->dl1().cache()), at);
        at += FrameMapping::bytesFor(mc.dl1);
    }
    const auto [mlo, mhi] = mappingOf(first);
    EXPECT_LE(mlo, first);
    EXPECT_GE(mhi, at);
}

TEST(SystemTest, OneCoreMixRunEqualsWorkloadRunAndRunJob)
{
    // A one-core System run over a mix of one is its lane's own
    // result, with no shared L2, whichever way it is asked for.
    constexpr std::uint64_t kInsts = 40000;
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;
    ResizeSetup dyn;
    dyn.strategy = Strategy::Dynamic;
    dyn.dyn.intervalAccesses = 2000;
    dyn.dyn.missBound = 200;
    for (const EngineSpec &engine :
         {EngineSpec{}, EngineSpec::makeSampled(20000, 5000, 5000)}) {
        const auto telemetry = [] {
            RunTelemetry t;
            t.timelineInterval = 3000;
            return t;
        };
        RunTelemetry mix_tl = telemetry();
        System sys(cfg);
        const SystemResult r = sys.run({profileByName("gcc")}, kInsts,
                                       {}, dyn, engine, &mix_tl);
        ASSERT_EQ(r.perCore.size(), 1u);
        EXPECT_TRUE(r.perCore.front() == r.aggregate);
        EXPECT_TRUE(r.l2PerCore.empty());
        EXPECT_EQ(sys.sharedL2(), nullptr);
        EXPECT_GT(r.aggregate.dl1Resizes, 0u);
        EXPECT_FALSE(mix_tl.timeline.empty());

        RunTelemetry wl_tl = telemetry();
        SyntheticWorkload wl(profileByName("gcc"));
        const RunResult solo =
            System(cfg).run(wl, kInsts, {}, dyn, engine, &wl_tl);
        EXPECT_TRUE(solo == r.aggregate) << engineArg(engine);
        EXPECT_TRUE(wl_tl.timeline == mix_tl.timeline);

        RunTelemetry job_tl = telemetry();
        RunJob job;
        job.profile = profileByName("gcc");
        job.cfg = cfg;
        job.insts = kInsts;
        job.dl1 = dyn;
        job.engine = engine;
        job.telemetry = &job_tl;
        EXPECT_TRUE(executeRunJob(job) == r.aggregate) << engineArg(engine);
        EXPECT_TRUE(job_tl.timeline == mix_tl.timeline);
    }
}

TEST(SystemDeathTest, SecondRunPanics)
{
    SyntheticWorkload wl(profileByName("ammp"));
    System sys(SystemConfig::base());
    sys.run(wl, 1000);
    EXPECT_DEATH(sys.run(wl, 1000), "assertion");
}

TEST(SystemDeathTest, DynamicOnNonResizableCachePanics)
{
    SyntheticWorkload wl(profileByName("ammp"));
    System sys(SystemConfig::base()); // dl1Org == None
    DynamicParams dyn;
    EXPECT_DEATH(
        sys.run(wl, 1000, {}, ResizeSetup{Strategy::Dynamic, 0, dyn}),
        "assertion");
}

} // namespace rcache
