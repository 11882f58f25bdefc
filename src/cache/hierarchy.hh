/**
 * @file
 * Two-level memory hierarchy: split L1 I/D, unified L2, flat memory.
 *
 * The hierarchy is purely functional-plus-latency: the CPU models ask
 * for an access and get back the latency it would take and which level
 * hit; structural hazards (MSHRs, writeback buffer) are applied by the
 * CPU models using the pools in cache/mshr.hh.
 */

#ifndef RCACHE_CACHE_HIERARCHY_HH
#define RCACHE_CACHE_HIERARCHY_HH

#include <memory>

#include "cache/cache.hh"
#include "cache/shared_l2.hh"

namespace rcache
{

/** Latency parameters for the hierarchy (Table 2 defaults). */
struct HierarchyParams
{
    /** L1 hit latency in cycles. */
    unsigned l1Latency = 1;
    /** L2 hit latency in cycles. */
    unsigned l2Latency = 12;
    /** Memory base latency in cycles. */
    unsigned memBaseLatency = 80;
    /** Additional memory cycles per 8 bytes transferred. */
    unsigned memCyclesPer8Bytes = 5;

    bool operator==(const HierarchyParams &o) const = default;
};

/** Result of a hierarchy access. */
struct MemAccessResult
{
    /** Total latency from request to data, in cycles. */
    std::uint64_t latency = 0;
    bool l1Hit = false;
    bool l2Hit = false;
    /** A dirty L1 victim was evicted (occupies the writeback buffer). */
    bool writeback = false;
};

/**
 * Wires two L1 caches (owned by the caller, since the resizable
 * organizations wrap them) to an owned unified L2 and a flat memory.
 */
class Hierarchy
{
  public:
    /**
     * @param il1,dl1 L1 caches, owned by the caller, must outlive this
     * @param l2_geom geometry of the owned unified L2
     * @param params latency parameters
     * @param frames where the L2's frames come from, or null (see
     *        Cache)
     */
    Hierarchy(Cache *il1, Cache *dl1, const CacheGeometry &l2_geom,
              const HierarchyParams &params,
              FrameMapping *frames = nullptr);

    /**
     * Multi-core form: route L2 traffic to @p shared_l2 (owned by the
     * caller, shared between the cores' hierarchies, must outlive
     * this) attributed to @p core_id. Timing is identical to an owned
     * L2 of the same geometry; only the attribution differs. The
     * memReads()/memWrites() counters then report this core's share
     * of the memory traffic.
     */
    Hierarchy(Cache *il1, Cache *dl1, SharedL2 &shared_l2,
              unsigned core_id, const HierarchyParams &params);

    /**
     * Instruction fetch of the block containing @p addr. Inline: the
     * cores call this on every fetch-group boundary, and the L1-hit
     * fast path is two loads and an add.
     */
    MemAccessResult
    instAccess(Addr addr)
    {
        MemAccessResult out;
        AccessResult l1 = il1_->access(addr, false);
        out.l1Hit = l1.hit;
        out.latency = params_.l1Latency;
        // Instruction blocks are never dirty, so no writeback
        // possible.
        if (!l1.hit) {
            out.l2Hit = l2Access(addr, false);
            out.latency +=
                out.l2Hit ? params_.l2Latency : memPenalty();
        }
        return out;
    }

    /** Data access; @p is_write marks stores. Inline: once per
     *  simulated load/store. */
    MemAccessResult
    dataAccess(Addr addr, bool is_write)
    {
        MemAccessResult out;
        AccessResult l1 = dl1_->access(addr, is_write);
        out.l1Hit = l1.hit;
        out.latency = params_.l1Latency;
        if (!l1.hit) {
            out.l2Hit = l2Access(addr, false);
            out.latency +=
                out.l2Hit ? params_.l2Latency : memPenalty();
        }
        if (l1.writeback) {
            out.writeback = true;
            l2Access(l1.writebackAddr, true);
        }
        return out;
    }

    /**
     * Sink for L1 flush/resize writebacks: drains the block into L2
     * (and memory on an L2 miss) and counts the traffic.
     */
    WritebackSink l1WritebackSink();

    /** Latency of a miss that hits in L2 (beyond the L1 access). */
    std::uint64_t l2HitPenalty() const { return params_.l2Latency; }
    /** Latency of a miss that goes to memory (beyond the L1 access). */
    std::uint64_t memPenalty() const;

    Cache &il1() { return *il1_; }
    Cache &dl1() { return *dl1_; }
    const Cache &il1() const { return *il1_; }
    const Cache &dl1() const { return *dl1_; }
    Cache &l2() { return *l2_; }
    const Cache &l2() const { return *l2_; }

    /** @name This core's L2 traffic
     * All of an owned L2's accesses/misses, or this core's attributed
     * share of a shared L2's: the only place that tells the two
     * apart. */
    /// @{
    std::uint64_t l2Accesses() const
    {
        return sharedL2_ ? sharedL2_->coreStats(coreId_).accesses
                         : l2_->accesses();
    }
    std::uint64_t l2Misses() const
    {
        return sharedL2_ ? sharedL2_->coreStats(coreId_).misses
                         : l2_->misses();
    }
    /// @}

    std::uint64_t memReads() const { return memReads_; }
    std::uint64_t memWrites() const { return memWrites_; }

    /** Attached shared L2, or null in the owned-L2 (single-core)
     *  form. */
    SharedL2 *sharedL2() { return sharedL2_; }
    /** Attribution id presented to the shared L2 (0 when owned). */
    unsigned coreId() const { return coreId_; }

    const HierarchyParams &params() const { return params_; }

  private:
    /** Send one block access into L2; forwards L2 victims to memory. */
    bool l2Access(Addr addr, bool is_write);

    Cache *il1_;
    Cache *dl1_;
    /** Owned L2 (single-core form); null when sharedL2_ is attached. */
    std::unique_ptr<Cache> ownedL2_;
    /** The L2 this hierarchy talks to: ownedL2_ or the shared cache. */
    Cache *l2_;
    SharedL2 *sharedL2_ = nullptr;
    unsigned coreId_ = 0;
    HierarchyParams params_;

    std::uint64_t memReads_ = 0;
    std::uint64_t memWrites_ = 0;
};

} // namespace rcache

#endif // RCACHE_CACHE_HIERARCHY_HH
