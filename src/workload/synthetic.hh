/**
 * @file
 * Synthetic SPEC-like workload generator.
 *
 * The experiments consume only the *locality and phase structure* of a
 * reference stream, so each SPEC application the paper evaluates is
 * replaced by a deterministic generator parameterized to the
 * cache-behaviour class the paper reports for it (working-set sizes,
 * conflict intensity, phase variation). The 12 named profiles live in
 * workload/profiles.hh; the mapping from each parameter to the paper's
 * per-application observations is documented there.
 *
 * Generator structure:
 *  - instruction stream: basic blocks of geometric length ending in a
 *    branch; taken branches jump to a random 16-byte-aligned offset in
 *    the current hot-code footprint, so the i-cache working set equals
 *    the footprint. An optional conflict layout spreads the footprint
 *    over chunks 16 KB apart to create set conflicts.
 *  - data stream: loads/stores pick a region by weight and access it
 *    either cyclically (streaming with reuse period = region size) or
 *    uniformly at random (smooth working-set behaviour); an optional
 *    alias set of blocks 16 KB apart creates associativity pressure
 *    that capacity alone cannot relieve.
 *  - phase schedules scale the footprint/region sizes over time:
 *    constant, periodic square wave, or a deterministic drifting walk.
 *  - dependences: geometric register-dependence distances plus a
 *    load-use chance, giving the OoO core realistic ILP to hide miss
 *    latency with.
 */

#ifndef RCACHE_WORKLOAD_SYNTHETIC_HH
#define RCACHE_WORKLOAD_SYNTHETIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/random.hh"
#include "workload/workload.hh"

namespace rcache
{

/** How a footprint scale factor evolves over the run. */
enum class PhaseKind
{
    Constant,
    /** Square wave between lo and hi every periodInsts. */
    Periodic,
    /** Deterministic pseudo-random walk in [lo, hi], stepping every
     *  periodInsts. */
    Drift,
};

/** A phase schedule: scale factor applied to a footprint. */
struct PhaseSpec
{
    PhaseKind kind = PhaseKind::Constant;
    double lo = 1.0;
    double hi = 1.0;
    std::uint64_t periodInsts = 200000;
    /** Periodic only: fraction of each period spent at @c hi. */
    double dutyHi = 0.5;
};

/** One data region. */
struct DataRegion
{
    /** Nominal size in bytes (scaled by the data phase). */
    std::uint64_t bytes;
    /** Relative probability of an access landing here. */
    double weight;
    /** Cyclic walk stride in bytes; 0 selects random. */
    std::uint64_t stride = 0;
    /**
     * Reuse skew for random regions: @c hotWeight of accesses fall in
     * the first @c hotFrac of the region. Real reference streams are
     * strongly skewed; without this, miss ratio vs. cache size is a
     * cliff and no downsizing point is ever profitable.
     */
    double hotFrac = 0.2;
    double hotWeight = 0.85;
    /** Whether the data phase schedule scales this region. */
    bool phased = true;
};

/** Full parameterization of one synthetic application. A new field
 *  must also enter profileKey (workload/workload_factory.hh), the
 *  identity the job memo and the lane groups key on. */
struct BenchmarkProfile
{
    std::string name;

    /** @name Instruction mix (fractions; remainder is plain int ALU) */
    /// @{
    double loadFrac = 0.25;
    double storeFrac = 0.10;
    double branchFrac = 0.15;
    double fpFrac = 0.0;
    /// @}

    /** @name Data side */
    /// @{
    std::vector<DataRegion> regions;
    PhaseSpec dataPhase;
    /** Fraction of data accesses hitting the alias set. */
    double dataConflictFrac = 0.0;
    /** Distinct blocks in the alias set (0 disables). */
    unsigned dataConflictBlocks = 0;
    /// @}

    /** @name Instruction side */
    /// @{
    /** Hot code bytes (the i-cache working set). */
    std::uint64_t codeFootprint = 8192;
    PhaseSpec codePhase;
    /**
     * Jump-target skew: @c codeHotWeight of taken branches land in the
     * first @c codeHotFrac of the footprint (hot loops), the rest
     * anywhere. Smooths the miss-vs-size curve like real code.
     */
    double codeHotFrac = 0.3;
    double codeHotWeight = 0.7;
    /**
     * Fraction of taken branches that call into one of
     * @c codeConflictBlocks 256-byte "library" chunks spaced 16 KB
     * apart (set-aliasing: pressure that only associativity, not
     * capacity, can absorb).
     */
    double codeConflictFrac = 0.0;
    unsigned codeConflictBlocks = 0;
    double takenBias = 0.6;
    /// @}

    /** @name Dependences */
    /// @{
    double depChance = 0.5;
    unsigned maxDepDist = 8;
    /** Chance an instruction consumes the most recent load. */
    double loadUseChance = 0.3;
    /// @}

    std::uint8_t fpLatency = 4;
    std::uint64_t seed = 1;

    /**
     * Non-empty: this profile replays an on-disk trace (the full
     * "trace:PATH[:FORMAT]" spec) instead of generating synthetically,
     * and every generator field above is unused. Instantiate through
     * makeWorkload (workload_factory.hh), never SyntheticWorkload.
     */
    std::string traceSpec;
};

/** Deterministic stream generator; see file comment. */
class SyntheticWorkload final : public Workload
{
  public:
    explicit SyntheticWorkload(const BenchmarkProfile &profile);

    MicroInst next() override;
    /**
     * Tight batch fill: one virtual dispatch for the whole batch, the
     * per-instruction work runs through the non-virtual generator with
     * the phase caches hot. Bit-identical to n next() calls.
     */
    void nextBatch(MicroInst *__restrict buf,
                   std::size_t n) override;
    void reset() override;
    /**
     * O(1) fast-forward: the phase clock jumps, the rng is re-seeded
     * as a deterministic function of (seed, new position), and the
     * region cursors and code offset stay where they are. The skipped
     * span's instructions are never materialized, so a sampled run's
     * fast-forward costs nothing per skipped instruction.
     */
    void skip(std::uint64_t n) override;
    std::string name() const override { return profile_.name; }

    const BenchmarkProfile &profile() const { return profile_; }
    std::uint64_t generated() const { return instCount_; }

    /** Current scaled code footprint in bytes (for tests). */
    std::uint64_t currentCodeFootprint() const;
    /** Current scaled size of region @p r in bytes (for tests). */
    std::uint64_t currentRegionBytes(unsigned r) const;

    /** Stride separating aliasing chunks/blocks (16 KB). */
    static constexpr std::uint64_t aliasStride = 16 * 1024;

  private:
    /**
     * The per-instruction generator state, grouped so nextBatch can
     * run a whole batch on a stack-local copy: the copy's address
     * never escapes, so the compiler keeps these words (touched
     * several times per generated instruction) in registers instead
     * of re-loading and re-storing members through `this`.
     */
    struct HotState
    {
        Rng rng;
        std::uint64_t instCount;
        std::uint64_t codeOffset;
        std::uint64_t blockRemaining;
        /** Non-negative: executing alias chunk k; negative: main
         *  code. */
        int aliasChunk;
        unsigned lastLoadDist;
    };

    HotState loadHotState() const;
    void storeHotState(const HotState &st);

    double phaseFactor(const PhaseSpec &spec) const;
    Addr dataAddr(HotState &st);

    /** Generate one instruction (the shared body of next() and
     *  nextBatch(); non-virtual so batch fills inline it). */
    void genOne(MicroInst &inst, HotState &st);

    /**
     * Phase-scaled values only change at phase boundaries, but the
     * straightforward computation (a 64-bit modulo plus floating
     * point) sits on the per-instruction hot path. These caches hold
     * the values until the instruction count reaches the next
     * boundary; the cached values are bit-identical to recomputing,
     * so the generated stream is unchanged. The code cache covers the
     * footprint and its hot-jump span; the data cache covers every
     * region's quantized size and hot span.
     */
    std::uint64_t cachedCodeFootprint(std::uint64_t inst_count);
    void refreshDataGeom(std::uint64_t inst_count);
    double phaseFactorAt(const PhaseSpec &spec,
                         std::uint64_t inst_count) const;
    void invalidatePhaseCaches()
    {
        codeFpValidUntil_ = 0;
        dataGeomValidUntil_ = 0;
    }

    /** Phase-cached derived geometry of one data region. */
    struct RegionGeom
    {
        /** Quantized scaled size in bytes. */
        std::uint64_t bytes;
        /** Skewed-reuse hot-head span in bytes. */
        std::uint64_t hotSpan;
    };

    BenchmarkProfile profile_;
    Rng rng_;

    std::uint64_t codeFpCache_ = 0;
    std::uint64_t codeHotSpanCache_ = 0;
    std::uint64_t codeFpValidUntil_ = 0;
    std::vector<RegionGeom> regionGeom_;
    std::uint64_t dataGeomValidUntil_ = 0;

    /** @name Per-profile constants hoisted out of genOne
     *
     * Bernoulli draws against a fixed probability go through
     * Rng::chanceThr with these precomputed thresholds (exactly
     * equivalent to Rng::chance, one integer compare per draw); the
     * per-PC branch bias is an 8-bit hash, so all 256 clamped biases
     * are thresholded up front too.
     */
    /// @{
    std::vector<Addr> regionBases_;
    std::vector<std::uint64_t> thrRegionHot_;
    std::uint64_t thrDataConflict_ = 0;
    std::uint64_t thrCodeConflict_ = 0;
    std::uint64_t thrCodeHotWeight_ = 0;
    std::uint64_t thrDep_ = 0;
    std::uint64_t thrLoadUse_ = 0;
    std::uint64_t thrBranchFrac_ = 0;
    std::uint64_t thrDepDist_ = 0;
    std::uint64_t thrLoadOp_ = 0;
    std::uint64_t thrMemOp_ = 0;
    std::uint64_t thrMemFpOp_ = 0;
    std::uint64_t biasThr_[256] = {};
    double memFrac_ = 0;
    double memFpFrac_ = 0;
    /// @}

    std::uint64_t instCount_ = 0;
    std::uint64_t codeOffset_ = 0;
    /** Non-negative: executing alias chunk k; negative: main code. */
    int aliasChunk_ = -1;
    std::uint64_t blockRemaining_ = 4;
    std::vector<std::uint64_t> cursors_;
    unsigned lastLoadDist_ = 255;
    double totalWeight_ = 0;
};

} // namespace rcache

#endif // RCACHE_WORKLOAD_SYNTHETIC_HH
