/**
 * @file
 * Functional cache model with subarray-granular resizing support.
 *
 * The cache is write-back / write-allocate. Timing lives in the CPU
 * models and the hierarchy; this class answers hit/miss, performs
 * allocation and replacement, and maintains the event counters the
 * energy model consumes (per-access enabled-subarray precharge events,
 * way-read events, and the enabled-size x cycles integral for leakage).
 *
 * Resizing is expressed as a target (enabledSets, enabledWays) pair;
 * which pairs are legal is the business of the resizable-cache
 * organizations in src/core. The cache enforces the geometric floor
 * (at least one subarray per way) and implements the flush semantics:
 *
 *  - blocks in ways being disabled are flushed (dirty ones written back)
 *  - blocks in sets being disabled are flushed likewise
 *  - on set-upsizing, blocks whose set mapping changes under the wider
 *    index are flushed (clean or dirty), as required by the paper
 *
 * Tag matching uses the full block address, which is functionally
 * equivalent to the paper's "tag array sized for the smallest offered
 * size"; the extra resizing tag bits are charged by the energy model,
 * not modelled bit-by-bit here.
 */

#ifndef RCACHE_CACHE_CACHE_HH
#define RCACHE_CACHE_CACHE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/geometry.hh"
#include "cache/replacement.hh"
#include "util/bitops.hh"

namespace rcache
{

/** Outcome of a single cache access. */
struct AccessResult
{
    /** Did the access hit in an enabled block frame? */
    bool hit = false;
    /** Was a dirty victim evicted (needs a writeback)? */
    bool writeback = false;
    /** Block address of the dirty victim, valid iff writeback. */
    Addr writebackAddr = 0;
};

/** Outcome of a resize or flush operation. */
struct FlushResult
{
    /** Blocks invalidated (clean or dirty). */
    std::uint64_t invalidated = 0;
    /** Dirty blocks written back. */
    std::uint64_t writebacks = 0;
};

/** Sink invoked once per dirty block written back during a flush. */
using WritebackSink = std::function<void(Addr block_addr)>;

/**
 * Observer invoked once per block leaving the cache — fill victims
 * (clean or dirty) and resize/flush invalidations alike — with the
 * victim's byte address and dirtiness. Lives entirely off the hit
 * path: fills and flushes are the only callers. The shared-L2 layer
 * uses it to keep per-core occupancy accounting exact.
 */
using EvictionObserver = std::function<void(Addr block_addr, bool dirty)>;

/**
 * Zeroed frame arrays for a set of caches, carved in order from one
 * anonymous private mapping and released by one munmap. A mapping
 * reads as zero and makes a page resident only when it is first
 * written, so carving writes nothing; huge pages are declined, or one
 * write would make 2 MB resident. A lane (a single-core System, or
 * a multi-core System with its shared L2) takes all its caches' frames
 * from one mapping, so tearing it down sends one TLB shootdown to the
 * other workers' CPUs rather than one per cache. Under
 * AddressSanitizer each array comes from the heap instead, so an
 * out-of-range frame index still lands in a redzone.
 */
class FrameMapping
{
  public:
    /** Room for caches whose bytesFor() sum to @p bytes. */
    explicit FrameMapping(std::size_t bytes);
    ~FrameMapping();
    FrameMapping(const FrameMapping &) = delete;
    FrameMapping &operator=(const FrameMapping &) = delete;

    /** What a cache of @p geom takes: its frames, rounded up to whole
     *  4 KiB pages so each array starts on its own page. */
    static std::size_t bytesFor(const CacheGeometry &geom);

    /** The next bytesFor(@p geom) bytes, zeroed. */
    void *take(const CacheGeometry &geom);

  private:
    void *base_ = nullptr;
    std::size_t bytes_ = 0;
    std::size_t used_ = 0;
    /** Heap-allocated arrays (AddressSanitizer builds only). */
    std::vector<void *> heap_;
};

/**
 * A single cache level. See the file comment for the modelling
 * contract.
 */
class Cache
{
  public:
    /**
     * @param name cache name, e.g. "dl1"
     * @param geom static geometry (validated; fatal on bad config)
     * @param policy replacement policy; defaults to LRU
     * @param frames where the frames come from; null maps the cache
     *        its own, which it releases. A given mapping must outlive
     *        the cache.
     */
    Cache(const std::string &name, const CacheGeometry &geom,
          std::unique_ptr<ReplacementPolicy> policy = nullptr,
          FrameMapping *frames = nullptr);

    /**
     * Perform one access with allocation-on-miss.
     *
     * Inline: this is the single hottest function in the simulator
     * (every fetch group, load, store, and L2 request lands here).
     * The hit path is a masked index, a short tag scan over the
     * enabled ways, and an inline replacement touch; misses take the
     * out-of-line fill path.
     *
     * @param addr byte address accessed
     * @param is_write true for stores (marks the block dirty)
     * @return hit/miss and any writeback generated by the fill
     */
    AccessResult
    access(Addr addr, bool is_write)
    {
        ++accesses_;
        prechargeEvents_ += enabledSubarrays_;
        wayReads_ += enabledWays_;

        const Addr block_addr = addr >> blockBits_;
        const std::uint64_t set = block_addr & setMask_;
        Block *const row = &blocks_[set * geom_.assoc];

        // Frequency-tracking policies see every access (hit or miss);
        // the cached bool keeps the common policies virtual-call-free.
        if (wantsAccessStream_)
            policy_->recordAccess(block_addr);

        // Hit path: search enabled ways for a tag match.
        for (unsigned w = 0; w < enabledWays_; ++w) {
            Block &b = row[w];
            if (b.valid() && b.blockAddr == block_addr) {
                b.setMeta(touchMeta(b.replMeta()));
                b.markDirty(is_write);
                AccessResult res;
                res.hit = true;
                return res;
            }
        }
        return fillOnMiss(row, block_addr, is_write);
    }

    /** Look up @p addr without any side effects. */
    bool probe(Addr addr) const;

    /**
     * Resize to @p enabled_sets x @p enabled_ways, flushing as
     * described in the file comment. Both values must be legal for the
     * geometry (power-of-two sets within [minSets, numSets], ways in
     * [1, assoc]); the caller (a resizing organization) guarantees the
     * pair is one it offers.
     *
     * @param sink invoked for each dirty block written back; may be
     *             empty if the caller only wants counts
     */
    FlushResult resizeTo(std::uint64_t enabled_sets,
                         unsigned enabled_ways,
                         const WritebackSink &sink = {});

    /** Invalidate everything, writing dirty blocks to @p sink. */
    FlushResult flushAll(const WritebackSink &sink = {});

    /**
     * Account elapsed time for the leakage/size integrals. Call at
     * every resize point and once at end of simulation.
     */
    void accumulateEnabledTime(std::uint64_t now_cycle);

    /**
     * Re-anchor the byte-cycle integral at cycle 0 without clearing
     * what is already accumulated. CoreLane (sim/system.hh) restarts
     * each measured window's timing at cycle 0; without this
     * re-anchor the clamp in accumulateEnabledTime would silently
     * drop every window after the first.
     */
    void restartTimeAccounting() { lastAccountedCycle_ = 0; }

    /** @name Current enabled configuration */
    /// @{
    std::uint64_t enabledSets() const { return enabledSets_; }
    unsigned enabledWays() const { return enabledWays_; }
    /** Enabled capacity in bytes. */
    std::uint64_t enabledSize() const
    {
        return enabledSets_ * enabledWays_ * geom_.blockSize;
    }
    /** Number of enabled (precharged-per-access) data subarrays. */
    unsigned enabledSubarrays() const { return enabledSubarrays_; }
    /// @}

    const CacheGeometry &geometry() const { return geom_; }
    const std::string &name() const { return name_; }

    /** @name Event counters (energy model inputs) */
    /// @{
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    /** Sum over accesses of enabled subarrays at access time. */
    std::uint64_t prechargeSubarrayEvents() const
    {
        return prechargeEvents_;
    }
    /** Sum over accesses of ways read (sensed) at access time. */
    std::uint64_t wayReadEvents() const { return wayReads_; }
    /** Integral of enabled bytes over cycles (see
     *  accumulateEnabledTime). */
    double byteCycles() const { return byteCycles_; }
    /** Number of resize operations performed. */
    std::uint64_t resizes() const { return resizes_; }
    /// @}

    /** Miss ratio over all accesses so far. */
    double missRatio() const
    {
        return accesses_ ? static_cast<double>(misses_) /
                               static_cast<double>(accesses_)
                         : 0.0;
    }

    /** Bytes one block frame takes (see Block). */
    static constexpr std::size_t frameBytes = 16;

    /** First byte of the frame array (where FrameMapping put it). */
    const void *frames() const { return blocks_; }

    /** Install @p obs (empty disables); see EvictionObserver. */
    void setEvictionObserver(EvictionObserver obs)
    {
        evictionObserver_ = std::move(obs);
    }

    /**
     * Internal invariant: every valid block lies in an enabled frame
     * and its address maps to the set holding it. Used by tests and
     * debug builds; O(size).
     */
    bool checkInvariants() const;

  private:
    struct Block;

    /**
     * One block frame, packed to 16 bytes so a 2-way row spans 32
     * bytes — half a typical 64-byte host cache line instead of
     * straddling one (the tag scan in access() is the hottest loop in
     * the simulator, and the two L1 models' frame arrays together
     * outgrow a 32 KB host L1d at 24 bytes per frame).
     * Valid/dirty live in the top bits of the metadata word; the
     * replacement metadata keeps the low 48 bits (see the contract in
     * replacement.hh). All-zero bytes are an invalid frame with zero
     * metadata, the state every frame starts in.
     */
    struct Block
    {
        /** Full block address (addr >> blockBits). */
        Addr blockAddr = 0;
        /** Packed flags + replacement metadata. */
        std::uint64_t bits = 0;

        static constexpr std::uint64_t validBit = std::uint64_t{1}
                                                  << 63;
        static constexpr std::uint64_t dirtyBit = std::uint64_t{1}
                                                  << 62;
        static constexpr std::uint64_t metaMask =
            (std::uint64_t{1} << 48) - 1;

        bool valid() const { return bits & validBit; }
        bool dirty() const { return bits & dirtyBit; }
        std::uint64_t replMeta() const { return bits & metaMask; }

        void
        setMeta(std::uint64_t meta)
        {
            bits = (bits & ~metaMask) | (meta & metaMask);
        }
        /** Invalidate, keeping the replacement metadata (matches the
         *  unpacked layout's behavior on eviction). */
        void clearValidDirty() { bits &= metaMask; }
        void
        fill(bool is_write, std::uint64_t meta)
        {
            bits = validBit | (is_write ? dirtyBit : 0) |
                   (meta & metaMask);
        }
        void markDirty(bool is_write)
        {
            bits |= is_write ? dirtyBit : std::uint64_t{0};
        }
    };

    /** Set index of @p block_addr under the current set mask. */
    std::uint64_t indexOf(Addr block_addr) const
    {
        return block_addr & setMask_;
    }

    Block &blockAt(std::uint64_t set, unsigned way)
    {
        return blocks_[set * geom_.assoc + way];
    }
    const Block &blockAt(std::uint64_t set, unsigned way) const
    {
        return blocks_[set * geom_.assoc + way];
    }

    /** Frames at full size: numSets x assoc. */
    std::uint64_t frameCount() const
    {
        return geom_.numSets() * geom_.assoc;
    }

    /** Evict one block (writeback bookkeeping shared by all paths). */
    void evict(Block &b, const WritebackSink &sink, FlushResult &out);

    /**
     * Recompute the per-access constants (set mask, enabled-subarray
     * precharge count, replacement fast-path pointers) that the hot
     * path reads instead of rederiving per access. Call whenever
     * enabledSets_/enabledWays_ change.
     */
    void updateAccessConstants();

    /** New replacement metadata for a touched/filled block, through
     *  the inline fast path when the policy is a built-in. */
    std::uint64_t touchMeta(std::uint64_t old_meta)
    {
        switch (replKind_) {
          case ReplKind::Lru:
            return lruFast_->nextStamp();
          case ReplKind::Random:
            return old_meta;
          case ReplKind::Custom:
            break;
        }
        return policy_->touch(old_meta);
    }

    /** New replacement metadata for a block being allocated (fills
     *  and touches coincide for the built-in fast paths). */
    std::uint64_t fillMeta(std::uint64_t old_meta)
    {
        switch (replKind_) {
          case ReplKind::Lru:
            return lruFast_->nextStamp();
          case ReplKind::Random:
            return old_meta;
          case ReplKind::Custom:
            break;
        }
        return policy_->fill(old_meta);
    }

    /** Pick a victim among the enabled ways of @p row (all valid). */
    unsigned victimWay(const Block *row);

    /** Miss tail of access(): allocate into @p row, evicting if
     *  necessary. Out of line — misses are the uncommon case. */
    AccessResult fillOnMiss(Block *row, Addr block_addr,
                            bool is_write);

    std::string name_;
    CacheGeometry geom_;
    std::unique_ptr<ReplacementPolicy> policy_;
    EvictionObserver evictionObserver_;

    std::uint64_t enabledSets_;
    unsigned enabledWays_;

    /** @name Per-access constants (see updateAccessConstants) */
    /// @{
    std::uint64_t setMask_ = 0;
    unsigned enabledSubarrays_ = 0;
    unsigned blockBits_ = 0;
    ReplKind replKind_ = ReplKind::Custom;
    LruPolicy *lruFast_ = nullptr;
    RandomPolicy *rndFast_ = nullptr;
    bool wantsAccessStream_ = false;
    /// @}

    /** The mapping the frames came from, when the cache owns it. */
    std::unique_ptr<FrameMapping> ownFrames_;
    /**
     * The frames, set by set (blockAt). They start as zero pages that
     * nothing writes until a fill, so only the pages a run touches
     * become resident: a synthetic app touches a few of a 512 KB L2's
     * 64 pages of frames in 400k instructions.
     */
    Block *blocks_ = nullptr;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t prechargeEvents_ = 0;
    std::uint64_t wayReads_ = 0;
    std::uint64_t resizes_ = 0;

    double byteCycles_ = 0;
    std::uint64_t lastAccountedCycle_ = 0;
};

} // namespace rcache

#endif // RCACHE_CACHE_CACHE_HH
