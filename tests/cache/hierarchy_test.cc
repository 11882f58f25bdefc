/** @file Unit tests for the two-level hierarchy. */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"

namespace rcache
{

namespace
{

struct Fixture
{
    CacheGeometry l1g{4 * 1024, 2, 32, 1024};
    CacheGeometry l2g{64 * 1024, 4, 32, 4096};
    Cache il1{"il1", l1g};
    Cache dl1{"dl1", l1g};
    HierarchyParams params;
    Hierarchy h{&il1, &dl1, l2g, params};
};

} // namespace

TEST(HierarchyTest, L1HitLatency)
{
    Fixture f;
    f.h.dataAccess(0x1000, false);
    MemAccessResult r = f.h.dataAccess(0x1000, false);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.latency, 1u);
}

TEST(HierarchyTest, L2HitLatency)
{
    Fixture f;
    f.h.dataAccess(0x1000, false); // cold: to memory
    // Evict from tiny L1 with conflicting blocks (set span 2K).
    f.h.dataAccess(0x1800, false);
    f.h.dataAccess(0x2800, false);
    MemAccessResult r = f.h.dataAccess(0x1000, false); // L1 miss,
                                                       // L2 hit
    EXPECT_FALSE(r.l1Hit);
    EXPECT_TRUE(r.l2Hit);
    EXPECT_EQ(r.latency, 1u + 12u);
}

TEST(HierarchyTest, MemoryLatencyIncludesTransfer)
{
    Fixture f;
    MemAccessResult r = f.h.dataAccess(0x1000, false);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_FALSE(r.l2Hit);
    // 1 + 12 + 80 + 5 * (32/8) = 113.
    EXPECT_EQ(r.latency, 113u);
    EXPECT_EQ(f.h.memPenalty(), 112u);
}

TEST(HierarchyTest, ColdMissCountsMemoryRead)
{
    Fixture f;
    f.h.dataAccess(0x1000, false);
    EXPECT_EQ(f.h.memReads(), 1u);
    EXPECT_EQ(f.h.memWrites(), 0u);
}

TEST(HierarchyTest, DirtyL1VictimReachesL2)
{
    Fixture f;
    f.h.dataAccess(0x0000, true); // dirty in L1
    f.h.dataAccess(0x0800, false);
    std::uint64_t l2_before = f.h.l2().accesses();
    MemAccessResult r = f.h.dataAccess(0x1000, false); // evicts dirty
    EXPECT_TRUE(r.writeback);
    // L2 sees the demand fill and the writeback.
    EXPECT_EQ(f.h.l2().accesses(), l2_before + 2);
}

TEST(HierarchyTest, InstAccessNeverWrites)
{
    Fixture f;
    f.h.instAccess(0x400000);
    MemAccessResult r = f.h.instAccess(0x400000);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_FALSE(r.writeback);
    EXPECT_EQ(f.il1.accesses(), 2u);
    EXPECT_EQ(f.dl1.accesses(), 0u);
}

TEST(HierarchyTest, WritebackSinkDrainsIntoL2)
{
    Fixture f;
    auto sink = f.h.l1WritebackSink();
    std::uint64_t l2_before = f.h.l2().accesses();
    sink(0x2000);
    EXPECT_EQ(f.h.l2().accesses(), l2_before + 1);
}

TEST(HierarchyTest, L2MissOnWritebackCountsMemRead)
{
    Fixture f;
    auto sink = f.h.l1WritebackSink();
    sink(0x7000); // cold L2 -> fill from memory
    EXPECT_EQ(f.h.memReads(), 1u);
}

TEST(HierarchyTest, InclusionNotRequiredButL2CatchesReuse)
{
    Fixture f;
    // Fill a block, evict it from L1 via conflicts, re-access: L2 hit.
    f.h.dataAccess(0x1000, false);
    f.h.dataAccess(0x1800, false);
    f.h.dataAccess(0x2800, false);
    EXPECT_FALSE(f.dl1.probe(0x1000));
    MemAccessResult r = f.h.dataAccess(0x1000, false);
    EXPECT_TRUE(r.l2Hit);
    EXPECT_EQ(f.h.memReads(), 3u); // only the three cold fills
}

} // namespace rcache
