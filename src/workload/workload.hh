/**
 * @file
 * Workload interface: a deterministic stream of micro-instructions.
 */

#ifndef RCACHE_WORKLOAD_WORKLOAD_HH
#define RCACHE_WORKLOAD_WORKLOAD_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload/inst.hh"

namespace rcache
{

/**
 * Batch size of a stack-resident drain (forEachBatched, Core::run;
 * a run's lockstep loop pulls laneSegmentInsts segments instead).
 * One batch of MicroInsts lives on the consumer's stack (~5 KB at
 * 128), small enough to stay cache-resident while large enough to
 * amortize the virtual nextBatch dispatch down to noise per
 * instruction.
 */
inline constexpr std::size_t workloadBatchSize = 128;

class Workload;

/**
 * Pull @p n instructions of @p wl into @p buf in segments of at most
 * @p cap (one nextBatch call each), invoking @p fn(buf, len) once per
 * segment in stream order.
 */
template <typename Fn>
inline void forEachSegment(Workload &wl, std::uint64_t n, MicroInst *buf,
                           std::size_t cap, Fn &&fn);

/**
 * Drain @p n instructions of @p wl through a stack-resident batch of
 * workloadBatchSize, invoking @p body(inst) once per instruction in
 * stream order.
 */
template <typename Body>
inline void forEachBatched(Workload &wl, std::uint64_t n,
                           Body &&body);

/** A reproducible dynamic instruction stream. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Produce the next instruction (streams are unbounded). */
    virtual MicroInst next() = 0;

    /**
     * Produce the next @p n instructions into @p buf. Exactly
     * equivalent to n calls to next() — the stream is identical
     * whatever mix of next()/nextBatch() drains it — but costs one
     * virtual dispatch per batch instead of one per instruction.
     * Generators override the default loop with a tight fill.
     */
    virtual void nextBatch(MicroInst *buf, std::size_t n);

    /** Restart the stream from the beginning (same sequence). */
    virtual void reset() = 0;

    /**
     * Advance the stream position by @p n instructions without
     * producing them. Deterministic: equal states skipped equally end
     * up equal. The default generates and discards; generators that
     * can jump (phase clocks, trace cursors) override this with an
     * O(1) implementation, which is what makes sampled simulation's
     * fast-forward intervals nearly free.
     */
    virtual void skip(std::uint64_t n);

    /** Name for reports. */
    virtual std::string name() const = 0;
};

/** Fixed recorded sequence, for unit tests. */
class TraceWorkload final : public Workload
{
  public:
    /**
     * @param insts recorded sequence; must be non-empty (an empty
     *        trace has no stream to loop and is reported fatally)
     */
    explicit TraceWorkload(std::vector<MicroInst> insts,
                           std::string name = "trace");

    MicroInst next() override;
    void nextBatch(MicroInst *buf, std::size_t n) override;
    void reset() override { pos_ = 0; }
    void skip(std::uint64_t n) override
    {
        pos_ = (pos_ + n) % insts_.size();
    }
    std::string name() const override { return name_; }

  private:
    std::vector<MicroInst> insts_;
    std::size_t pos_ = 0;
    std::string name_;
};

template <typename Fn>
inline void
forEachSegment(Workload &wl, std::uint64_t n, MicroInst *buf,
               std::size_t cap, Fn &&fn)
{
    for (std::uint64_t left = n; left > 0;) {
        const std::size_t len = static_cast<std::size_t>(
            std::min<std::uint64_t>(cap, left));
        wl.nextBatch(buf, len);
        fn(buf, len);
        left -= len;
    }
}

template <typename Body>
inline void
forEachBatched(Workload &wl, std::uint64_t n, Body &&body)
{
    MicroInst batch[workloadBatchSize];
    forEachSegment(wl, n, batch, workloadBatchSize,
                   [&](const MicroInst *insts, std::size_t len) {
                       for (std::size_t k = 0; k < len; ++k)
                           body(insts[k]);
                   });
}

} // namespace rcache

#endif // RCACHE_WORKLOAD_WORKLOAD_HH
