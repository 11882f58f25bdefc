/**
 * @file
 * Cache energy accounting from snapshots of the caches' event
 * counters.
 */

#ifndef RCACHE_ENERGY_CACHE_ENERGY_HH
#define RCACHE_ENERGY_CACHE_ENERGY_HH

#include "cache/hierarchy.hh"
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

    bool operator==(const CacheActivity &o) const = default;
};

/**
 * One core's cache and memory counters: its two L1s, and its share
 * of the L2 and memory traffic (Hierarchy::l2Accesses tells an owned
 * L2 from a shared one). CoreLane (sim/system.hh) charges each
 * measured window from two snapshots, and the timeline
 * (telemetry/timeline.hh) each sample interval.
 */
struct HierarchyActivity
{
    CacheActivity il1, dl1;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    /** Memory reads plus writes. */
    std::uint64_t memAccesses = 0;

    /** Snapshot @p hier's current counter values. */
    static HierarchyActivity of(const Hierarchy &hier);

    /** Counter deltas between two snapshots (this - earlier). */
    HierarchyActivity operator-(const HierarchyActivity &earlier) const;
    HierarchyActivity &operator+=(const HierarchyActivity &o);

    bool operator==(const HierarchyActivity &o) const = default;
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
     * @p activity.
     *
     * @param extra_tag_bits resizing tag bits carried by the
     *        organization wrapping this cache (0 for conventional and
     *        selective-ways)
     *
     * A snapshot of a live cache (CacheActivity::of) covers the whole
     * run once Cache::accumulateEnabledTime(end_cycle) has been
     * called.
     */
    double l1Energy(const CacheActivity &activity,
                    unsigned extra_tag_bits) const;

    /** Switching component only (per-access), no byte-cycle term. */
    double l1AccessEnergy(const CacheActivity &activity,
                          unsigned extra_tag_bits) const;

    /**
     * Energy of one L1 access at the cache's *current* configuration
     * (used by examples to show per-access cost vs size).
     */
    double l1EnergyPerAccessNow(const Cache &cache,
                                unsigned extra_tag_bits) const;

    /** L2 energy over the run (per-access + byte-cycle terms).
     *  @param size_bytes L2 capacity
     *  @param cycles total simulated cycles (L2 is never resized) */
    double l2Energy(double accesses, std::uint64_t size_bytes,
                    double cycles) const;

  private:
    EnergyParams params_;
};

} // namespace rcache

#endif // RCACHE_ENERGY_CACHE_ENERGY_HH
