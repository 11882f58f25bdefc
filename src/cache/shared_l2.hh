/**
 * @file
 * SharedL2: one unified L2 shared by N cores, with per-core
 * contention accounting.
 *
 * A multi-core System (sim/system.hh) gives every core a private L1
 * hierarchy and routes all of their L2 traffic through one
 * SharedL2. Functionally the shared cache behaves exactly
 * like a private Hierarchy-owned L2 — same geometry, same replacement,
 * same latency parameters — what this class adds is attribution:
 *
 *  - per-core access/hit/miss/memory-traffic counters, so the energy
 *    model can charge each core for the L2 switching it caused and
 *    reports can show who thrashed whom;
 *  - per-core occupancy (blocks currently resident, and the peak),
 *    maintained exactly via the owning Cache's eviction observer;
 *  - eviction attribution: when a fill evicts a resident block the
 *    eviction is classified self (victim belonged to the filling
 *    core) or cross-core (capacity stolen from another core) —
 *    the paper-style capacity-contention signal.
 *
 * Aggregation invariants (pinned by tests/cache/shared_l2_test.cc):
 * total accesses/hits/misses equal the per-core sums, and per core
 * fills - evictions == residentBlocks. All state is deterministic:
 * the interleave of access() calls fully determines every counter.
 *
 * Dirty L2 victims drain to memory and are charged to the core whose
 * fill evicted them (the access that caused the traffic), not to the
 * core that originally dirtied the block — the same convention the
 * single-core hierarchy uses for its owned L2.
 */

#ifndef RCACHE_CACHE_SHARED_L2_HH
#define RCACHE_CACHE_SHARED_L2_HH

#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "util/logging.hh"

namespace rcache
{

/** Outcome of one shared-L2 access, from the accessing core's view. */
struct SharedL2Outcome
{
    bool hit = false;
    /** The miss filled from memory (one memory read). */
    bool memRead = false;
    /** A dirty L2 victim drained to memory (one memory write). */
    bool memWrite = false;
};

/** Per-core attribution counters; see the file comment. */
struct SharedL2CoreStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Memory reads (fills) this core's misses caused. */
    std::uint64_t memReads = 0;
    /** Memory writes (dirty victims) this core's fills caused. */
    std::uint64_t memWrites = 0;
    /** Blocks this core brought into the L2. */
    std::uint64_t fills = 0;
    /** This core's blocks evicted by its own fills. */
    std::uint64_t evictionsBySelf = 0;
    /** This core's blocks evicted by another core's fills. */
    std::uint64_t evictionsByOthers = 0;
    /** Blocks of *other* cores this core's fills evicted. */
    std::uint64_t evictedOthers = 0;
    /** Blocks currently resident. */
    std::uint64_t residentBlocks = 0;
    /** High-water mark of residentBlocks. */
    std::uint64_t peakResidentBlocks = 0;

    bool operator==(const SharedL2CoreStats &o) const = default;
};

/** See file comment. */
class SharedL2
{
  public:
    /**
     * @param geom geometry of the shared cache
     * @param num_cores cores that will present accesses (core ids in
     *        [0, num_cores))
     * @param frames where its frames come from, or null (see Cache)
     */
    SharedL2(const CacheGeometry &geom, unsigned num_cores,
             FrameMapping *frames = nullptr);

    /**
     * One block access on behalf of @p core. Misses allocate (and
     * count a memory read); dirty victims count a memory write. The
     * occupancy/eviction attribution updates ride on the cache's
     * eviction observer.
     */
    SharedL2Outcome access(unsigned core, Addr addr, bool is_write);

    /** The shared cache (geometry, aggregate stats, probe). */
    Cache &cache() { return cache_; }
    const Cache &cache() const { return cache_; }

    unsigned numCores() const { return numCores_; }

    const SharedL2CoreStats &coreStats(unsigned core) const
    {
        rc_assert(core < numCores_);
        return stats_[core];
    }

    /** Sum of the per-core counters (equals the cache's aggregates;
     *  see the invariants in the file comment). */
    SharedL2CoreStats totals() const;

  private:
    void onEviction(Addr block_addr);

    Cache cache_;
    unsigned numCores_;
    std::vector<SharedL2CoreStats> stats_;
    /** Owner core of every resident block, keyed by byte address of
     *  the block (what the eviction observer reports). */
    std::unordered_map<Addr, unsigned> owner_;
    /** Core of the access in flight (valid only inside access()). */
    unsigned accessor_ = 0;
};

} // namespace rcache

#endif // RCACHE_CACHE_SHARED_L2_HH
