/** @file Unit tests for the ResizableCache wrapper. */

#include <gtest/gtest.h>

#include "core/resizable_cache.hh"

namespace rcache
{

namespace
{
const CacheGeometry g{32 * 1024, 4, 32, 1024};
} // namespace

TEST(ResizableCacheTest, StartsAtFullSize)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    EXPECT_EQ(c.currentLevel(), 0u);
    EXPECT_EQ(c.cache().enabledSize(), 32 * 1024u);
    EXPECT_EQ(c.maxSizeBytes(), 32 * 1024u);
}

TEST(ResizableCacheTest, SetsMinimumSize)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    EXPECT_EQ(c.minSizeBytes(), 4 * 1024u); // one subarray per way
}

TEST(ResizableCacheTest, DownsizeStepsThroughSchedule)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    c.downsize();
    EXPECT_EQ(c.cache().enabledSize(), 16 * 1024u);
    c.downsize();
    EXPECT_EQ(c.cache().enabledSize(), 8 * 1024u);
    c.upsize();
    EXPECT_EQ(c.cache().enabledSize(), 16 * 1024u);
}

TEST(ResizableCacheTest, BoundsAreNoops)
{
    ResizableCache c("dl1", g, Organization::SelectiveWays);
    EXPECT_FALSE(c.canUpsize());
    FlushResult r = c.upsize();
    EXPECT_EQ(r.invalidated, 0u);
    c.setLevel(c.levels() - 1);
    EXPECT_FALSE(c.canDownsize());
    r = c.downsize();
    EXPECT_EQ(r.invalidated, 0u);
}

TEST(ResizableCacheTest, WaysPreservesSets)
{
    ResizableCache c("dl1", g, Organization::SelectiveWays);
    for (unsigned lvl = 0; lvl < c.levels(); ++lvl) {
        c.setLevel(lvl);
        EXPECT_EQ(c.cache().enabledSets(), 256u);
        EXPECT_EQ(c.cache().enabledWays(), 4u - lvl);
    }
}

TEST(ResizableCacheTest, SetsPreservesAssociativity)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    for (unsigned lvl = 0; lvl < c.levels(); ++lvl) {
        c.setLevel(lvl);
        EXPECT_EQ(c.cache().enabledWays(), 4u);
    }
}

TEST(ResizableCacheTest, HybridExposesTable1Levels)
{
    ResizableCache c("dl1", g, Organization::Hybrid);
    EXPECT_EQ(c.levels(), 10u);
    c.setLevel(1);
    EXPECT_EQ(c.cache().enabledSize(), 24 * 1024u);
    EXPECT_EQ(c.cache().enabledWays(), 3u);
}

TEST(ResizableCacheTest, LevelForMinSize)
{
    // Offers 32, 16, 8 and 4 KB.
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    EXPECT_EQ(c.levelForMinSize(32 * 1024), 0u);
    EXPECT_EQ(c.levelForMinSize(16 * 1024), 1u);
    EXPECT_EQ(c.levelForMinSize(10 * 1024), 1u); // smallest >= 10K
    EXPECT_EQ(c.levelForMinSize(1), 3u);         // clamped to min
}

TEST(ResizableCacheTest, ExtraTagBitsByOrganization)
{
    ResizableCache sets("a", g, Organization::SelectiveSets);
    ResizableCache ways("b", g, Organization::SelectiveWays);
    ResizableCache hyb("c", g, Organization::Hybrid);
    EXPECT_EQ(sets.extraTagBits(), 3u);
    EXPECT_EQ(ways.extraTagBits(), 0u);
    EXPECT_EQ(hyb.extraTagBits(), 3u);
}

TEST(ResizableCacheTest, FlushWritebacksReachSink)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    c.cache().access(0x0, true); // dirty block in set 0
    // Dirty block in a set disabled at the next level (set 128+).
    c.cache().access((128 + 7) * 32, true);
    std::vector<Addr> drained;
    c.downsize([&](Addr a) { drained.push_back(a); });
    EXPECT_EQ(drained.size(), 1u);
}

TEST(StrategyNameTest, Names)
{
    EXPECT_EQ(strategyName(Strategy::None), "none");
    EXPECT_EQ(strategyName(Strategy::Static), "static");
    EXPECT_EQ(strategyName(Strategy::Dynamic), "dynamic");
}

TEST(ResizableCacheDeathTest, LevelOutOfRange)
{
    ResizableCache c("dl1", g, Organization::SelectiveSets);
    EXPECT_DEATH(c.setLevel(99), "assertion");
}

/** Property: every level of every organization yields a cache that
 *  accepts traffic and keeps invariants. */
class OrgLevelSweep
    : public testing::TestWithParam<std::tuple<Organization, int>>
{
};

TEST_P(OrgLevelSweep, TrafficAtEveryLevel)
{
    auto [org, assoc] = GetParam();
    CacheGeometry geom{32 * 1024, static_cast<unsigned>(assoc), 32,
                       1024};
    ResizableCache c("dl1", geom, org);
    for (unsigned lvl = 0; lvl < c.levels(); ++lvl) {
        c.setLevel(lvl);
        std::uint64_t x = 5;
        for (int i = 0; i < 3000; ++i) {
            x = x * 6364136223846793005ull + 1;
            c.cache().access((x >> 30) & 0xfffe0, (x & 1) != 0);
        }
        ASSERT_TRUE(c.cache().checkInvariants());
        ASSERT_EQ(c.cache().enabledSize(),
                  c.schedule()[lvl].sizeBytes(32));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OrgLevelSweep,
    testing::Combine(testing::Values(Organization::SelectiveWays,
                                     Organization::SelectiveSets,
                                     Organization::Hybrid),
                     testing::Values(2, 4, 8, 16)));

} // namespace rcache
