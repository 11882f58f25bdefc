/**
 * @file
 * Cache energy accounting from a Cache's event counters.
 */

#ifndef RCACHE_ENERGY_CACHE_ENERGY_HH
#define RCACHE_ENERGY_CACHE_ENERGY_HH

#include "cache/cache.hh"
#include "energy/energy_params.hh"

namespace rcache
{

/**
 * The event totals the energy model consumes, decoupled from the
 * Cache that produced them. Every timing run (CoreLane in
 * sim/system.hh) takes snapshots around each measured window,
 * differences them, and scales the summed deltas up to the full run
 * (by exactly 1 at full detail) before pricing them.
 */
struct CacheActivity
{
    double accesses = 0;
    double misses = 0;
    double prechargeEvents = 0;
    double wayReads = 0;
    double byteCycles = 0;

    /** Snapshot @p cache's current counter values. */
    static CacheActivity of(const Cache &cache);

    /** Counter deltas between two snapshots (this - earlier). */
    CacheActivity operator-(const CacheActivity &earlier) const;
    CacheActivity &operator+=(const CacheActivity &o);

    /** All counts multiplied by @p factor (sample extrapolation). */
    CacheActivity scaled(double factor) const;

    double missRatio() const
    {
        return accesses > 0 ? misses / accesses : 0.0;
    }
};

/** Computes L1/L2 energies from accumulated cache counters. */
class CacheEnergyModel
{
  public:
    explicit CacheEnergyModel(const EnergyParams &params)
        : params_(params)
    {
    }

    /**
     * Total switching + size-proportional energy of an L1 cache over
     * the run recorded in its counters.
     *
     * @param extra_tag_bits resizing tag bits carried by the
     *        organization wrapping this cache (0 for conventional and
     *        selective-ways)
     *
     * @pre Cache::accumulateEnabledTime(end_cycle) has been called so
     *      byteCycles() covers the whole run.
     */
    double l1Energy(const Cache &cache, unsigned extra_tag_bits) const;

    /** As above, priced from an explicit activity total. */
    double l1Energy(const CacheActivity &activity,
                    unsigned extra_tag_bits) const;

    /** Switching component only (per-access), no byte-cycle term. */
    double l1AccessEnergy(const Cache &cache,
                          unsigned extra_tag_bits) const;

    /** As above, priced from an explicit activity total. */
    double l1AccessEnergy(const CacheActivity &activity,
                          unsigned extra_tag_bits) const;

    /**
     * Energy of one L1 access at the cache's *current* configuration
     * (used by examples to show per-access cost vs size).
     */
    double l1EnergyPerAccessNow(const Cache &cache,
                                unsigned extra_tag_bits) const;

    /** L2 energy over the run (per-access + byte-cycle terms).
     *  @param cycles total simulated cycles (L2 is never resized). */
    double l2Energy(const Cache &l2, std::uint64_t cycles) const;

    /** As above from explicit totals (@p size_bytes: L2 capacity). */
    double l2Energy(double accesses, std::uint64_t size_bytes,
                    double cycles) const;

  private:
    EnergyParams params_;
};

} // namespace rcache

#endif // RCACHE_ENERGY_CACHE_ENERGY_HH
