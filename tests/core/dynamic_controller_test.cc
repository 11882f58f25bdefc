/** @file
 * Tests for the miss-ratio-based dynamic resizing controller
 * (paper Section 2.2 / the HPCA'01 framework).
 */

#include <gtest/gtest.h>

#include "core/dynamic_controller.hh"

namespace rcache
{

namespace
{

const CacheGeometry g{32 * 1024, 4, 32, 1024};

DynamicParams
params(std::uint64_t interval, std::uint64_t bound,
       std::uint64_t size_bound = 0)
{
    DynamicParams p;
    p.intervalAccesses = interval;
    p.missBound = bound;
    p.sizeBoundBytes = size_bound;
    return p;
}

/** Drive @p n accesses with a fixed miss flag. */
void
drive(DynamicMissRatioController &ctl, std::uint64_t n, bool miss,
      std::uint64_t &cycle)
{
    for (std::uint64_t i = 0; i < n; ++i)
        ctl.onAccess(miss, ++cycle);
}

} // namespace

TEST(DynamicControllerTest, NoResizeWithinInterval)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicMissRatioController ctl(c, {}, params(100, 10));
    std::uint64_t cycle = 0;
    drive(ctl, 99, false, cycle);
    EXPECT_EQ(ctl.intervals(), 0u);
    EXPECT_EQ(c.currentLevel(), 0u);
}

TEST(DynamicControllerTest, LowMissesDownsize)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicMissRatioController ctl(c, {}, params(100, 10));
    std::uint64_t cycle = 0;
    drive(ctl, 100, false, cycle); // 0 misses < 10
    EXPECT_EQ(ctl.intervals(), 1u);
    EXPECT_EQ(ctl.downsizes(), 1u);
    EXPECT_EQ(c.currentLevel(), 1u);
}

TEST(DynamicControllerTest, HighMissesUpsize)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    c.setLevel(2);
    DynamicMissRatioController ctl(c, {}, params(100, 10));
    std::uint64_t cycle = 0;
    drive(ctl, 100, true, cycle); // 100 misses > 10
    EXPECT_EQ(ctl.upsizes(), 1u);
    EXPECT_EQ(c.currentLevel(), 1u);
}

TEST(DynamicControllerTest, UpsizeAtFullSizeIsNoop)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicMissRatioController ctl(c, {}, params(100, 10));
    std::uint64_t cycle = 0;
    drive(ctl, 100, true, cycle);
    EXPECT_EQ(ctl.upsizes(), 0u);
    EXPECT_EQ(c.currentLevel(), 0u);
}

TEST(DynamicControllerTest, SizeBoundPreventsThrashing)
{
    // Offers 32/16/8/4K.
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicMissRatioController ctl(
        c, {}, params(100, 10, 16 * 1024)); // floor at 16K
    std::uint64_t cycle = 0;
    drive(ctl, 100, false, cycle);
    EXPECT_EQ(c.currentLevel(), 1u); // 16K
    drive(ctl, 100, false, cycle);
    EXPECT_EQ(c.currentLevel(), 1u); // parked at the size-bound
    EXPECT_EQ(ctl.downsizes(), 1u);
}

TEST(DynamicControllerTest, ZeroSizeBoundAllowsMinimum)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicMissRatioController ctl(c, {}, params(100, 10, 0));
    std::uint64_t cycle = 0;
    for (int i = 0; i < 10; ++i)
        drive(ctl, 100, false, cycle);
    EXPECT_EQ(c.currentLevel(), c.levels() - 1); // 4K floor
}

TEST(DynamicControllerTest, OneStepPerInterval)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicMissRatioController ctl(c, {}, params(100, 10));
    std::uint64_t cycle = 0;
    drive(ctl, 300, false, cycle);
    EXPECT_EQ(c.currentLevel(), 3u); // exactly one step per interval
}

TEST(DynamicControllerTest, EmulationOscillatesBetweenTwoSizes)
{
    // The paper's "unavailable size emulation": misses high at the
    // small size, low at the large size -> alternates.
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicMissRatioController ctl(c, {}, params(100, 10));
    std::uint64_t cycle = 0;
    drive(ctl, 100, false, cycle); // down to 16K
    for (int i = 0; i < 6; ++i) {
        drive(ctl, 100, true, cycle);  // at 16K: too many misses
        EXPECT_EQ(c.currentLevel(), 0u);
        drive(ctl, 100, false, cycle); // at 32K: quiet
        EXPECT_EQ(c.currentLevel(), 1u);
    }
    auto trace = ctl.levelTrace();
    ASSERT_GE(trace.size(), 13u);
}

TEST(DynamicControllerTest, HysteresisCreatesDeadZone)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicParams p = params(100, 10);
    p.downsizeFraction = 0.5; // downsize only below 5 misses
    DynamicMissRatioController ctl(c, {}, p);
    std::uint64_t cycle = 0;
    // 7 misses per interval: between 5 and 10 -> no movement.
    for (int k = 0; k < 5; ++k) {
        for (int i = 0; i < 100; ++i)
            ctl.onAccess(i < 7, ++cycle);
    }
    EXPECT_EQ(c.currentLevel(), 0u);
    EXPECT_EQ(ctl.downsizes(), 0u);
}

TEST(DynamicControllerTest, LevelTraceRecordsEveryInterval)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicMissRatioController ctl(c, {}, params(50, 5));
    std::uint64_t cycle = 0;
    drive(ctl, 50 * 7, false, cycle);
    EXPECT_EQ(ctl.levelTrace().size(), 7u);
}

TEST(DynamicControllerTest, AccountsEnabledTimeAtBoundaries)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicMissRatioController ctl(c, {}, params(100, 10));
    std::uint64_t cycle = 0;
    drive(ctl, 100, false, cycle); // resize at cycle 100
    // 100 cycles at 32K were accounted before the resize.
    EXPECT_DOUBLE_EQ(c.cache().byteCycles(), 32768.0 * 100);
}

TEST(DynamicControllerTest, FlushWritebacksGoToSink)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    std::vector<Addr> drained;
    DynamicMissRatioController ctl(
        c, [&](Addr a) { drained.push_back(a); }, params(100, 50));
    // Dirty a block in the top half of the sets (disabled at 16K).
    c.cache().access((128 + 3) * 32, true);
    std::uint64_t cycle = 0;
    drive(ctl, 100, false, cycle);
    EXPECT_EQ(c.currentLevel(), 1u);
    EXPECT_EQ(drained.size(), 1u);
}

TEST(DynamicControllerTest, DecisionFiresExactlyAtTheBoundaryAccess)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    c.setLevel(2);
    DynamicMissRatioController ctl(c, {}, params(100, 10));
    std::uint64_t cycle = 0;
    drive(ctl, 99, true, cycle);
    EXPECT_EQ(ctl.intervals(), 0u);
    EXPECT_EQ(c.currentLevel(), 2u); // not an access early
    ctl.onAccess(true, ++cycle); // the 100th access decides
    EXPECT_EQ(ctl.intervals(), 1u);
    EXPECT_EQ(c.currentLevel(), 1u);
}

TEST(DynamicControllerTest, MissCounterResetsAfterResizeDecision)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    c.setLevel(2);
    DynamicMissRatioController ctl(c, {}, params(100, 10));
    std::uint64_t cycle = 0;
    drive(ctl, 100, true, cycle); // 100 misses -> upsize to level 1
    EXPECT_EQ(ctl.upsizes(), 1u);
    // Exactly missBound misses in the next interval: a stale counter
    // would read 110 > 10 and upsize again; a reset counter reads
    // 10, which is not above the bound, and holds (and is not below
    // it either, so no downsize).
    for (int i = 0; i < 100; ++i)
        ctl.onAccess(i < 10, ++cycle);
    EXPECT_EQ(ctl.upsizes(), 1u);
    EXPECT_EQ(ctl.downsizes(), 0u);
    EXPECT_EQ(c.currentLevel(), 1u);
}

TEST(DynamicControllerTest, PartialIntervalCarriesAcrossModeSwitch)
{
    // The sampling engine hands the same controller first to the
    // functional warmup core and then to the timing core; an
    // interval begun in one must complete in the other.
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicMissRatioController ctl(c, {}, params(100, 10));
    std::uint64_t cycle = 0;
    drive(ctl, 60, false, cycle); // "warmup" accesses, cycles real
    EXPECT_EQ(ctl.intervals(), 0u);
    for (int i = 0; i < 40; ++i)
        ctl.onAccess(false, 0); // "functional" accesses at cycle 0
    EXPECT_EQ(ctl.intervals(), 1u);
    EXPECT_EQ(ctl.downsizes(), 1u);
}

TEST(DynamicControllerTest, SkippedSpansLeaveTheControllerParked)
{
    // Fast-forward skips whole controller intervals: no accesses
    // arrive, so no interval fires and the level is frozen until the
    // warmup resumes the access stream.
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicMissRatioController ctl(c, {}, params(100, 10));
    std::uint64_t cycle = 0;
    drive(ctl, 100, false, cycle);
    EXPECT_EQ(c.currentLevel(), 1u);
    const std::uint64_t intervals_before = ctl.intervals();
    // (a skipped span: nothing happens)
    EXPECT_EQ(ctl.intervals(), intervals_before);
    EXPECT_EQ(c.currentLevel(), 1u);
    // Resuming after the skip continues the cadence exactly.
    drive(ctl, 100, false, cycle);
    EXPECT_EQ(ctl.intervals(), intervals_before + 1);
    EXPECT_EQ(c.currentLevel(), 2u);
}

TEST(DynamicControllerTest, FunctionalCyclesDoNotCorruptByteCycles)
{
    // Functional warmup notifies the controller with now_cycle == 0;
    // the enabled-time integral must ignore those non-monotonic
    // boundaries rather than accumulate negative or stale spans.
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    DynamicMissRatioController ctl(c, {}, params(100, 10));
    std::uint64_t cycle = 0;
    drive(ctl, 100, false, cycle); // detailed: 100 cycles at 32K
    EXPECT_DOUBLE_EQ(c.cache().byteCycles(), 32768.0 * 100);
    for (int i = 0; i < 100; ++i)
        ctl.onAccess(false, 0); // functional interval at cycle 0
    EXPECT_DOUBLE_EQ(c.cache().byteCycles(), 32768.0 * 100);
    EXPECT_EQ(c.currentLevel(), 2u); // the decision still happened
    // A new detailed window re-anchors at cycle 0 and accounts at
    // the size the functional interval selected (8K at level 2).
    c.cache().restartTimeAccounting();
    cycle = 0;
    drive(ctl, 100, false, cycle);
    EXPECT_DOUBLE_EQ(c.cache().byteCycles(),
                     32768.0 * 100 + 8192.0 * 100);
}

/** Property: the controller never selects a level outside the
 *  schedule and never violates the size-bound, for any miss pattern. */
class ControllerFuzzTest : public testing::TestWithParam<int>
{
};

TEST_P(ControllerFuzzTest, LevelsAlwaysLegal)
{
    const int seed = GetParam();
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    const std::uint64_t size_bound = (seed % 2) ? 8 * 1024 : 0;
    DynamicMissRatioController ctl(c, {},
                                   params(64, 8, size_bound));
    const unsigned bound_level =
        size_bound ? c.levelForMinSize(size_bound) : c.levels() - 1;
    std::uint64_t x = static_cast<std::uint64_t>(seed) * 2654435761u;
    std::uint64_t cycle = 0;
    for (int i = 0; i < 50000; ++i) {
        x = x * 6364136223846793005ull + 1;
        ctl.onAccess((x >> 40) % 100 < (x >> 10) % 30, ++cycle);
        ASSERT_LT(c.currentLevel(), c.levels());
        ASSERT_LE(c.currentLevel(), bound_level);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerFuzzTest,
                         testing::Range(1, 9));

} // namespace rcache
