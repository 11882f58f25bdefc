/** @file Unit tests for basic (non-resizing) cache behaviour. */

#include <gtest/gtest.h>

#include "cache/cache.hh"

namespace rcache
{

namespace
{

CacheGeometry
smallGeom()
{
    // 4K 2-way, 32 B blocks, 1K subarrays: 64 sets.
    return {4 * 1024, 2, 32, 1024};
}

} // namespace

TEST(CacheBasicTest, ColdMissThenHit)
{
    Cache c("c", smallGeom());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheBasicTest, SameBlockDifferentOffsetHits)
{
    Cache c("c", smallGeom());
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x101f, false).hit); // same 32 B block
    EXPECT_FALSE(c.access(0x1020, false).hit); // next block
}

TEST(CacheBasicTest, ProbeHasNoSideEffects)
{
    Cache c("c", smallGeom());
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_EQ(c.accesses(), 0u);
    c.access(0x2000, false);
    EXPECT_TRUE(c.probe(0x2000));
    EXPECT_EQ(c.accesses(), 1u);
}

TEST(CacheBasicTest, WriteMakesDirtyVictimWriteback)
{
    Cache c("c", smallGeom());
    // Three blocks mapping to the same set of a 2-way cache:
    // set span is 64 sets * 32 B = 2K.
    c.access(0x0000, true); // dirty
    c.access(0x0800, false);
    AccessResult r = c.access(0x1000, false); // evicts dirty 0x0000
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, 0x0000u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(CacheBasicTest, CleanVictimNoWriteback)
{
    Cache c("c", smallGeom());
    c.access(0x0000, false);
    c.access(0x0800, false);
    AccessResult r = c.access(0x1000, false);
    EXPECT_FALSE(r.writeback);
}

TEST(CacheBasicTest, WriteHitMarksDirty)
{
    Cache c("c", smallGeom());
    c.access(0x0000, false); // clean fill
    c.access(0x0000, true);  // write hit -> dirty
    c.access(0x0800, false);
    AccessResult r = c.access(0x1000, false);
    EXPECT_TRUE(r.writeback);
}

TEST(CacheBasicTest, LruEvictsLeastRecentlyUsed)
{
    Cache c("c", smallGeom());
    c.access(0x0000, false);
    c.access(0x0800, false);
    c.access(0x0000, false); // touch 0x0000; LRU is now 0x0800
    c.access(0x1000, false); // evicts 0x0800
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x0800));
    EXPECT_TRUE(c.probe(0x1000));
}

TEST(CacheBasicTest, EnergyEventCountersAccumulate)
{
    Cache c("c", smallGeom()); // 2 ways x 1 subarray each at 4K/1K...
    // 4K 2-way: way = 2K = 2 subarrays; total 4 subarrays.
    EXPECT_EQ(c.enabledSubarrays(), 4u);
    c.access(0x0, false);
    c.access(0x20, false);
    EXPECT_EQ(c.prechargeSubarrayEvents(), 8u);
    EXPECT_EQ(c.wayReadEvents(), 4u);
}

TEST(CacheBasicTest, MissRatio)
{
    Cache c("c", smallGeom());
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.25);
}

TEST(CacheBasicTest, ByteCyclesIntegral)
{
    Cache c("c", smallGeom());
    c.accumulateEnabledTime(100);
    EXPECT_DOUBLE_EQ(c.byteCycles(), 4096.0 * 100);
    c.accumulateEnabledTime(250);
    EXPECT_DOUBLE_EQ(c.byteCycles(), 4096.0 * 250);
}

TEST(CacheBasicTest, ByteCyclesClampsNonMonotonicTime)
{
    Cache c("c", smallGeom());
    c.accumulateEnabledTime(100);
    c.accumulateEnabledTime(50); // ignored
    EXPECT_DOUBLE_EQ(c.byteCycles(), 4096.0 * 100);
}

TEST(CacheBasicDeathTest, InvalidGeometryIsFatal)
{
    CacheGeometry bad{3000, 2, 32, 1024};
    EXPECT_EXIT(Cache("bad", bad), testing::ExitedWithCode(1),
                "invalid geometry");
}

/** Property: a cache of any legal geometry keeps its invariants under
 *  a deterministic access mix. */
class CacheAccessSweep
    : public testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheAccessSweep, InvariantsUnderRandomTraffic)
{
    auto [size_kb, assoc] = GetParam();
    CacheGeometry g{static_cast<std::uint64_t>(size_kb) * 1024,
                    static_cast<unsigned>(assoc), 32, 1024};
    if (!g.validate().empty())
        GTEST_SKIP();
    Cache c("c", g);
    std::uint64_t x = 12345;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        c.access((x >> 20) & 0xffff0, (x & 1) != 0);
    }
    EXPECT_TRUE(c.checkInvariants());
    EXPECT_EQ(c.accesses(), 20000u);
    EXPECT_GE(c.prechargeSubarrayEvents(),
              c.accesses()); // at least 1 subarray per access
    EXPECT_EQ(c.wayReadEvents(), c.accesses() * g.assoc);
}

INSTANTIATE_TEST_SUITE_P(Grid, CacheAccessSweep,
                         testing::Combine(testing::Values(4, 8, 32),
                                          testing::Values(1, 2, 4,
                                                          8)));

} // namespace rcache
