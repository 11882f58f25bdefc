/** @file
 * Cross-model property tests: relationships that must hold between
 * the two cores, across organizations, and between energy and timing
 * for every profile.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/experiment.hh"

namespace rcache
{

namespace
{
constexpr std::uint64_t kInsts = 60000;
} // namespace

/** Per-profile property sweep over the whole suite. */
class SuitePropertyTest : public testing::TestWithParam<std::string>
{
  protected:
    BenchmarkProfile profile() const
    {
        return profileByName(GetParam());
    }
};

TEST_P(SuitePropertyTest, InOrderNeverFasterThanOoO)
{
    SystemConfig ooo = SystemConfig::base();
    SystemConfig inord = ooo;
    inord.coreModel = CoreModel::InOrder;
    SyntheticWorkload w1(profile()), w2(profile());
    System so(ooo), si(inord);
    RunResult ro = so.run(w1, kInsts);
    RunResult ri = si.run(w2, kInsts);
    EXPECT_GE(ri.cycles, ro.cycles) << GetParam();
}

TEST_P(SuitePropertyTest, SmallerStaticSizeNeverFewerCycles)
{
    // Downsizing can only add misses: cycles are monotone in level.
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;
    std::uint64_t prev = 0;
    for (unsigned lvl : {0u, 2u, 4u}) {
        SyntheticWorkload wl(profile());
        System sys(cfg);
        RunResult r = sys.run(wl, kInsts, {},
                              ResizeSetup{Strategy::Static, lvl, {}});
        EXPECT_GE(r.cycles + 5, prev) << GetParam() << " L" << lvl;
        prev = r.cycles;
    }
}

TEST_P(SuitePropertyTest, CacheEnergyShrinksWithStaticSize)
{
    // The d-cache's own energy must drop when it is downsized, even
    // when total E*D does not improve.
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;
    SyntheticWorkload w1(profile()), w2(profile());
    System a(cfg), b(cfg);
    RunResult full =
        a.run(w1, kInsts, {}, ResizeSetup{Strategy::Static, 0, {}});
    RunResult quarter =
        b.run(w2, kInsts, {}, ResizeSetup{Strategy::Static, 2, {}});
    EXPECT_LT(quarter.energy.dcache, full.energy.dcache)
        << GetParam();
}

TEST_P(SuitePropertyTest, MissRatiosMonotoneInSize)
{
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;
    double prev = -1;
    for (unsigned lvl : {0u, 2u, 4u}) {
        SyntheticWorkload wl(profile());
        System sys(cfg);
        RunResult r = sys.run(wl, kInsts, {},
                              ResizeSetup{Strategy::Static, lvl, {}});
        EXPECT_GE(r.dl1MissRatio + 0.002, prev)
            << GetParam() << " L" << lvl;
        prev = r.dl1MissRatio;
    }
}

TEST_P(SuitePropertyTest, EventCountsConsistent)
{
    SystemConfig cfg = SystemConfig::base();
    SyntheticWorkload wl(profile());
    System sys(cfg);
    RunResult r = sys.run(wl, kInsts);
    const Cache &dl1 = sys.dl1().cache();
    const Cache &il1 = sys.il1().cache();
    // Every load/store reaches the d-cache exactly once.
    EXPECT_EQ(dl1.accesses(), r.activity.loads + r.activity.stores);
    // Precharge events are bounded by accesses x total subarrays.
    EXPECT_LE(dl1.prechargeSubarrayEvents(),
              dl1.accesses() * dl1.geometry().totalSubarrays());
    // L2 demand traffic cannot exceed L1 misses plus L1 writebacks
    // (instruction blocks are never dirty).
    EXPECT_LE(sys.hierarchy().l2().accesses(),
              dl1.misses() + il1.misses() + dl1.writebacks());
}

INSTANTIATE_TEST_SUITE_P(Suite, SuitePropertyTest,
                         testing::ValuesIn(suiteNames()),
                         [](const auto &info) { return info.param; });

} // namespace rcache
