/** @file Tests for the System wiring. */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/system.hh"
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
    EXPECT_DOUBLE_EQ(r.avgDl1Bytes, 8 * 1024.0);
    EXPECT_DOUBLE_EQ(r.avgIl1Bytes, 32 * 1024.0);
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
