/** @file Unit tests for the combination branch predictor. */

#include <gtest/gtest.h>

#include "cpu/branch_predictor.hh"

namespace rcache
{

TEST(BranchPredictorTest, LearnsAlwaysTaken)
{
    BranchPredictor bp;
    const Addr pc = 0x4000;
    const Addr tgt = 0x5000;
    for (int i = 0; i < 8; ++i)
        bp.predictAndUpdate(pc, true, tgt);
    // Steady state: correct.
    int wrong = 0;
    for (int i = 0; i < 100; ++i)
        wrong += !bp.predictAndUpdate(pc, true, tgt);
    EXPECT_EQ(wrong, 0);
}

TEST(BranchPredictorTest, LearnsAlwaysNotTaken)
{
    BranchPredictor bp;
    const Addr pc = 0x4000;
    for (int i = 0; i < 8; ++i)
        bp.predictAndUpdate(pc, false, 0);
    int wrong = 0;
    for (int i = 0; i < 100; ++i)
        wrong += !bp.predictAndUpdate(pc, false, 0);
    EXPECT_EQ(wrong, 0);
}

TEST(BranchPredictorTest, LearnsAlternatingViaHistory)
{
    BranchPredictor bp;
    const Addr pc = 0x4000;
    const Addr tgt = 0x5000;
    for (int i = 0; i < 200; ++i)
        bp.predictAndUpdate(pc, i % 2 == 0, tgt);
    // gshare should have learned the pattern by now.
    int wrong = 0;
    for (int i = 0; i < 100; ++i)
        wrong += !bp.predictAndUpdate(pc, i % 2 == 0, tgt);
    EXPECT_LT(wrong, 10);
}

TEST(BranchPredictorTest, BtbMissOnNewTargetCountsMispredict)
{
    BranchPredictor bp;
    const Addr pc = 0x4000;
    for (int i = 0; i < 8; ++i)
        bp.predictAndUpdate(pc, true, 0x5000);
    // Direction right, but the target changed: BTB miss.
    EXPECT_FALSE(bp.predictAndUpdate(pc, true, 0x6000));
    // Re-learned.
    EXPECT_TRUE(bp.predictAndUpdate(pc, true, 0x6000));
}

TEST(BranchPredictorTest, BiasedBranchesMostlyPredicted)
{
    BranchPredictor bp;
    std::uint64_t x = 99;
    int wrong = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1;
        const Addr pc = 0x4000 + ((x >> 20) & 0xff) * 4;
        const bool taken = (x >> 50) % 10 < 9; // 90% taken
        wrong += !bp.predictAndUpdate(pc, taken, 0x8000);
    }
    // Should do clearly better than always-taken (10% wrong).
    EXPECT_LT(static_cast<double>(wrong) / n, 0.14);
}

TEST(BranchPredictorDeathTest, NonPowerOfTwoTables)
{
    BranchPredictorParams p;
    p.bimodalEntries = 1000;
    EXPECT_DEATH(BranchPredictor{p}, "assertion");
}

} // namespace rcache
