/**
 * @file
 * Tapes: an instruction stream recorded once and replayed as a
 * Workload.
 *
 * The paper's offline profiling runs every candidate size of every
 * organization over the same application stream, and producing that
 * stream (the synthetic generator, or a trace decoder) is about half
 * of a detailed run's host time. So a batch whose jobs share a stream
 * records it once as a Tape and hands each of them a TapeWorkload
 * that replays it (TapeDeck in runner/sweep_runner.hh decides which
 * streams get one).
 *
 * A tape records the exact call sequence of one run: per period, the
 * skip() the run makes first (none at full detail) and the
 * instructions it then reads. Replay is exact: a TapeWorkload
 * reproduces every recorded MicroInst field for field. A run whose
 * calls diverge from the recording (a skip the tape does not hold, a
 * skip of another length, or a read past the recorded instructions)
 * is fatal, so a tape is never silently misread.
 *
 * Encoding: one header byte per instruction, then only what the
 * header cannot imply. The pc is omitted when it is the predicted one
 * (the previous branch target if taken, else the previous pc + 4);
 * dependence distances are omitted when zero, and the latency when it
 * repeats the previous latency of the same op class. Memory addresses
 * are zigzag varint deltas from the previous one, and branch targets
 * zigzag deltas from their pc. That is 3-5 bytes per instruction
 * against 40 for a MicroInst. Bytes live in fixed-size blocks, so
 * recording never reallocates a growing buffer (worker threads'
 * malloc arenas would keep the high-water mark).
 */

#ifndef RCACHE_WORKLOAD_TAPE_HH
#define RCACHE_WORKLOAD_TAPE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace rcache
{

/** See file comment. */
class Tape
{
  public:
    /** One period of the recorded call sequence: skip(skip) (when
     *  non-zero), then @c read instructions. */
    struct Period
    {
        std::uint64_t skip = 0;
        std::uint64_t read = 0;

        bool operator==(const Period &o) const = default;
    };

    /** Bytes per storage block. */
    static constexpr std::size_t blockBytes = 64 * 1024;

    /** @param name the recorded workload's name (its replays report
     *  it, as RunResult::workload) */
    explicit Tape(std::string name);
    ~Tape();
    Tape(const Tape &) = delete;
    Tape &operator=(const Tape &) = delete;

    /** @name Recording, in call order */
    /// @{
    /** The run skips @p n instructions (0 records nothing). */
    void skip(std::uint64_t n);
    /** The run reads @p insts[0..n). */
    void append(const MicroInst *insts, std::size_t n);
    /// @}

    const std::string &name() const { return name_; }
    const std::vector<Period> &periods() const { return periods_; }
    /** Instructions recorded (the sum of every period's read). */
    std::uint64_t instructions() const { return instructions_; }
    /** Bytes the encoded instructions occupy. */
    std::uint64_t encodedBytes() const;

  private:
    friend class TapeWorkload;

    /** One storage block and how much of it is filled. */
    struct Block
    {
        std::unique_ptr<std::uint8_t[]> bytes;
        std::size_t used = 0;
    };

    /** Encoder/decoder context: what the header can imply. */
    struct Context
    {
        Addr nextPc = 0;
        Addr effAddr = 0;
        std::uint8_t latency[8] = {1, 1, 1, 1, 1, 1, 1, 1};
    };

    std::string name_;
    std::vector<Period> periods_;
    std::vector<Block> blocks_;
    std::uint64_t instructions_ = 0;
    Context enc_;
};

/** Replays a Tape; see the file comment. Many may share one tape. */
class TapeWorkload final : public Workload
{
  public:
    explicit TapeWorkload(std::shared_ptr<const Tape> tape);

    MicroInst next() override;
    void nextBatch(MicroInst *buf, std::size_t n) override;
    void reset() override;
    /** Must be the recorded skip of the current period; fatal
     *  otherwise. */
    void skip(std::uint64_t n) override;
    std::string name() const override { return tape_->name(); }

  private:
    /** Step past a fully consumed period. */
    void settle();
    /** Account for a read of @p n instructions; fatal past the
     *  recording or across a recorded skip. */
    void take(std::uint64_t n);

    std::shared_ptr<const Tape> tape_;

    /** Call-sequence cursor: the current period, whether its skip is
     *  behind us, and how many of its instructions are left. */
    std::size_t period_ = 0;
    bool skipped_ = true;
    std::uint64_t readLeft_ = 0;

    /** Byte cursor: block index and read position within it. */
    std::size_t block_ = 0;
    const std::uint8_t *pos_ = nullptr;
    const std::uint8_t *end_ = nullptr;
    Tape::Context dec_;
};

} // namespace rcache

#endif // RCACHE_WORKLOAD_TAPE_HH
