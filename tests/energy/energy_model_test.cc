/** @file Unit tests for the processor-wide energy model. */

#include <gtest/gtest.h>

#include <sstream>

#include "energy/energy_model.hh"

namespace rcache
{

namespace
{

CoreActivity
sampleActivity()
{
    CoreActivity a;
    a.insts = 1000;
    a.cycles = 800;
    a.intOps = 500;
    a.fpOps = 100;
    a.loads = 250;
    a.stores = 100;
    a.branches = 150;
    return a;
}

const CacheGeometry l1g{32 * 1024, 2, 32, 1024};
const CacheGeometry l2g{512 * 1024, 4, 32, 8192};

/** Price snapshots of live caches' counters. */
EnergyBreakdown
price(const ProcessorEnergyModel &m, const CoreActivity &activity,
      const Cache &il1, unsigned il1_extra_tag_bits, const Cache &dl1,
      unsigned dl1_extra_tag_bits, const Cache &l2,
      std::uint64_t mem_accesses)
{
    return m.compute(activity, CacheActivity::of(il1),
                     il1_extra_tag_bits, CacheActivity::of(dl1),
                     dl1_extra_tag_bits, CacheActivity::of(l2).accesses,
                     l2.geometry().size,
                     static_cast<double>(mem_accesses));
}

} // namespace

TEST(EnergyModelTest, BreakdownTotalIsSumOfParts)
{
    ProcessorEnergyModel m(EnergyParams{});
    Cache il1("il1", l1g), dl1("dl1", l1g), l2("l2", l2g);
    EnergyBreakdown b =
        price(m, sampleActivity(), il1, 0, dl1, 0, l2, 5);
    EXPECT_DOUBLE_EQ(b.total(), b.icache + b.dcache + b.l2 +
                                    b.memory + b.core + b.clock);
}

TEST(EnergyModelTest, MemoryEnergyScalesWithAccesses)
{
    EnergyParams p;
    ProcessorEnergyModel m(p);
    Cache il1("il1", l1g), dl1("dl1", l1g), l2("l2", l2g);
    auto act = sampleActivity();
    EnergyBreakdown b1 = price(m, act, il1, 0, dl1, 0, l2, 1);
    EnergyBreakdown b2 = price(m, act, il1, 0, dl1, 0, l2, 11);
    EXPECT_DOUBLE_EQ(b2.memory - b1.memory, 10 * p.memPerAccess);
}

TEST(EnergyModelTest, ClockScalesWithCycles)
{
    EnergyParams p;
    ProcessorEnergyModel m(p);
    Cache il1("il1", l1g), dl1("dl1", l1g), l2("l2", l2g);
    auto act = sampleActivity();
    EnergyBreakdown b1 = price(m, act, il1, 0, dl1, 0, l2, 0);
    act.cycles += 100;
    EnergyBreakdown b2 = price(m, act, il1, 0, dl1, 0, l2, 0);
    EXPECT_NEAR(b2.clock - b1.clock, 100 * p.clockPerCycle, 1e-9);
}

TEST(EnergyModelTest, InOrderCoreDissipatesLessPerInst)
{
    ProcessorEnergyModel m(EnergyParams{});
    Cache il1("il1", l1g), dl1("dl1", l1g), l2("l2", l2g);
    auto ooo = sampleActivity();
    auto inord = ooo;
    inord.outOfOrder = false;
    EnergyBreakdown bo = price(m, ooo, il1, 0, dl1, 0, l2, 0);
    EnergyBreakdown bi = price(m, inord, il1, 0, dl1, 0, l2, 0);
    EXPECT_LT(bi.core, bo.core);
    // Cache terms are unchanged.
    EXPECT_DOUBLE_EQ(bi.icache, bo.icache);
    EXPECT_DOUBLE_EQ(bi.dcache, bo.dcache);
}

TEST(EnergyModelTest, ExtraTagBitsOnlyAffectTheirCache)
{
    ProcessorEnergyModel m(EnergyParams{});
    Cache il1("il1", l1g), dl1("dl1", l1g), l2("l2", l2g);
    dl1.access(0, false);
    auto act = sampleActivity();
    EnergyBreakdown b0 = price(m, act, il1, 0, dl1, 0, l2, 0);
    EnergyBreakdown b4 = price(m, act, il1, 0, dl1, 4, l2, 0);
    EXPECT_GT(b4.dcache, b0.dcache);
    EXPECT_DOUBLE_EQ(b4.icache, b0.icache);
}

TEST(EnergyModelTest, StreamOperatorPrintsAllRows)
{
    EnergyBreakdown b;
    b.icache = 1;
    b.dcache = 2;
    b.l2 = 3;
    b.memory = 4;
    b.core = 5;
    b.clock = 6;
    std::ostringstream os;
    os << b;
    for (const char *k :
         {"icache", "dcache", "l2", "memory", "core", "clock",
          "total"})
        EXPECT_NE(os.str().find(k), std::string::npos) << k;
}

TEST(EnergyModelTest, IpcHelper)
{
    CoreActivity a;
    a.insts = 400;
    a.cycles = 200;
    EXPECT_DOUBLE_EQ(a.ipc(), 2.0);
    a.cycles = 0;
    EXPECT_DOUBLE_EQ(a.ipc(), 0.0);
}

} // namespace rcache
