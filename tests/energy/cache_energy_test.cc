/** @file Unit tests for the cache energy model. */

#include <gtest/gtest.h>

#include "core/resizable_cache.hh"
#include "energy/cache_energy.hh"

namespace rcache
{

namespace
{
const CacheGeometry g{32 * 1024, 2, 32, 1024}; // 32 subarrays
} // namespace

TEST(CacheEnergyTest, PerAccessEnergyAtFullSize)
{
    EnergyParams p;
    CacheEnergyModel m(p);
    Cache c("c", g);
    // 32 subarrays * 1.0 + 2 ways * 1.0 + 4.5 decode = 38.5.
    EXPECT_DOUBLE_EQ(m.l1EnergyPerAccessNow(c, 0), 38.5);
}

TEST(CacheEnergyTest, PerAccessEnergyShrinksWithSize)
{
    EnergyParams p;
    CacheEnergyModel m(p);
    Cache c("c", g);
    const double full = m.l1EnergyPerAccessNow(c, 0);
    c.resizeTo(256, 2); // 16K: 16 subarrays
    const double half = m.l1EnergyPerAccessNow(c, 0);
    EXPECT_DOUBLE_EQ(half, 16.0 + 2.0 + 4.5);
    EXPECT_LT(half, full);
}

TEST(CacheEnergyTest, ResizingTagBitsCostEnergy)
{
    EnergyParams p;
    CacheEnergyModel m(p);
    Cache c("c", g);
    const double without = m.l1EnergyPerAccessNow(c, 0);
    const double with = m.l1EnergyPerAccessNow(c, 4);
    // 4 bits * 0.05 per way read * 2 ways = 0.4.
    EXPECT_NEAR(with - without, 0.4, 1e-9);
}

TEST(CacheEnergyTest, AccessEnergyMatchesEventCounters)
{
    EnergyParams p;
    CacheEnergyModel m(p);
    Cache c("c", g);
    for (int i = 0; i < 10; ++i)
        c.access(static_cast<Addr>(i) * 32, false);
    // 10 accesses at full size, uniform per-access cost of 38.5.
    EXPECT_DOUBLE_EQ(m.l1AccessEnergy(CacheActivity::of(c), 0), 385.0);
}

TEST(CacheEnergyTest, ByteCycleTermScalesWithTime)
{
    EnergyParams p;
    CacheEnergyModel m(p);
    Cache c("c", g);
    c.accumulateEnabledTime(1000);
    const double expected = 32768.0 * 1000 * p.l1PerByteCycle;
    EXPECT_DOUBLE_EQ(m.l1Energy(CacheActivity::of(c), 0), expected);
}

TEST(CacheEnergyTest, DownsizedCacheLeaksLess)
{
    EnergyParams p;
    CacheEnergyModel m(p);
    Cache a("a", g), b("b", g);
    b.resizeTo(256, 2); // 16K
    a.accumulateEnabledTime(1000);
    b.accumulateEnabledTime(1000);
    EXPECT_DOUBLE_EQ(m.l1Energy(CacheActivity::of(b), 0),
                     m.l1Energy(CacheActivity::of(a), 0) / 2);
}

TEST(CacheEnergyTest, L2EnergyPerAccessPlusStandby)
{
    EnergyParams p;
    CacheEnergyModel m(p);
    Cache l2("l2", CacheGeometry{512 * 1024, 4, 32, 8192});
    l2.access(0, false);
    l2.access(0, false);
    const double expected =
        2 * p.l2PerAccess + 512.0 * 1024 * 100 * p.l2PerByteCycle;
    EXPECT_DOUBLE_EQ(m.l2Energy(CacheActivity::of(l2).accesses,
                                l2.geometry().size, 100),
                     expected);
}

/**
 * Property (the paper's energy argument): the precharge term — the
 * enabled subarray count — is monotonically non-increasing as a
 * resizable cache downsizes, for every organization. Full per-access
 * energy is monotone for the pure organizations only: a hybrid step
 * like 12K@3-way -> 8K@4-way precharges fewer subarrays but senses
 * one more way.
 */
class EnergyMonotoneTest
    : public testing::TestWithParam<Organization>
{
};

TEST_P(EnergyMonotoneTest, PerAccessEnergyMonotoneInLevel)
{
    EnergyParams p;
    CacheEnergyModel m(p);
    ResizableCache c("c", CacheGeometry{32 * 1024, 4, 32, 1024},
                     GetParam());
    double prev_energy = 1e100;
    unsigned prev_subarrays = ~0u;
    for (unsigned lvl = 0; lvl < c.levels(); ++lvl) {
        c.setLevel(lvl);
        EXPECT_LE(c.cache().enabledSubarrays(), prev_subarrays)
            << "level " << lvl;
        prev_subarrays = c.cache().enabledSubarrays();
        if (GetParam() != Organization::Hybrid) {
            const double e =
                m.l1EnergyPerAccessNow(c.cache(), c.extraTagBits());
            EXPECT_LE(e, prev_energy) << "level " << lvl;
            prev_energy = e;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Orgs, EnergyMonotoneTest,
                         testing::Values(Organization::SelectiveWays,
                                         Organization::SelectiveSets,
                                         Organization::Hybrid));

} // namespace rcache
