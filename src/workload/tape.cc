#include "workload/tape.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rcache
{

namespace
{

/** @name Header byte: the op class, then which fields follow. */
/// @{
constexpr std::uint8_t kOpMask = 0x07;
/** The pc is not the predicted one: a zigzag delta follows. */
constexpr std::uint8_t kPc = 0x08;
constexpr std::uint8_t kDep1 = 0x10;
constexpr std::uint8_t kDep2 = 0x20;
constexpr std::uint8_t kTaken = 0x40;
/** An extras byte follows. */
constexpr std::uint8_t kExtra = 0x80;
/// @}

/** @name Extras byte: fields the op class does not imply. */
/// @{
/** A new latency for this op class: one byte follows. */
constexpr std::uint8_t kXLatency = 0x01;
/** A non-memory op carrying an address: a zigzag delta follows. */
constexpr std::uint8_t kXEffAddr = 0x02;
/** A target on anything but a taken branch: a delta follows. */
constexpr std::uint8_t kXTarget = 0x04;
/// @}

/** Worst-case encoded instruction: header, extras, three 10-byte
 *  varints, two dependence bytes and a latency byte. */
constexpr std::size_t kMaxInstBytes = 2 + 3 * 10 + 3;

std::uint64_t
zigzag(std::uint64_t delta)
{
    const auto v = static_cast<std::int64_t>(delta);
    return (delta << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (~(z & 1) + 1);
}

std::uint8_t *
putVarint(std::uint8_t *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<std::uint8_t>(v | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
}

std::uint64_t
getVarint(const std::uint8_t *&p)
{
    std::uint64_t v = *p & 0x7f;
    for (unsigned shift = 7; *p++ & 0x80; shift += 7)
        v |= static_cast<std::uint64_t>(*p & 0x7f) << shift;
    return v;
}

bool
isMem(OpClass op)
{
    return op == OpClass::Load || op == OpClass::Store;
}

} // namespace

Tape::Tape(std::string name) : name_(std::move(name)) {}
Tape::~Tape() = default;

void
Tape::skip(std::uint64_t n)
{
    if (n)
        periods_.push_back({n, 0});
}

void
Tape::append(const MicroInst *insts, std::size_t n)
{
    if (n == 0)
        return;
    if (periods_.empty())
        periods_.push_back({});
    periods_.back().read += n;
    instructions_ += n;

    Context &ctx = enc_;
    for (std::size_t i = 0; i < n; ++i) {
        if (blocks_.empty() ||
            blockBytes - blocks_.back().used < kMaxInstBytes)
            blocks_.push_back(
                {std::make_unique_for_overwrite<std::uint8_t[]>(
                     blockBytes),
                 0});
        Block &blk = blocks_.back();
        std::uint8_t *const begin = blk.bytes.get() + blk.used;
        std::uint8_t *p = begin;

        const MicroInst &in = insts[i];
        const auto op = static_cast<unsigned>(in.op);
        rc_assert(op <= kOpMask);
        const bool mem = isMem(in.op);
        const bool takenBranch = in.op == OpClass::Branch && in.taken;
        std::uint8_t head = static_cast<std::uint8_t>(op);
        std::uint8_t extra = 0;
        if (in.pc != ctx.nextPc)
            head |= kPc;
        if (in.dep1)
            head |= kDep1;
        if (in.dep2)
            head |= kDep2;
        if (in.taken)
            head |= kTaken;
        if (in.latency != ctx.latency[op])
            extra |= kXLatency;
        if (!mem && in.effAddr != 0)
            extra |= kXEffAddr;
        if (!takenBranch && in.target != 0)
            extra |= kXTarget;
        if (extra)
            head |= kExtra;

        *p++ = head;
        if (extra)
            *p++ = extra;
        if (head & kPc)
            p = putVarint(p, zigzag(in.pc - ctx.nextPc));
        if (head & kDep1)
            *p++ = in.dep1;
        if (head & kDep2)
            *p++ = in.dep2;
        if (extra & kXLatency) {
            *p++ = in.latency;
            ctx.latency[op] = in.latency;
        }
        if (mem || (extra & kXEffAddr)) {
            p = putVarint(p, zigzag(in.effAddr - ctx.effAddr));
            ctx.effAddr = in.effAddr;
        }
        if (takenBranch || (extra & kXTarget))
            p = putVarint(p, zigzag(in.target - in.pc));
        ctx.nextPc = in.taken ? in.target : in.pc + 4;
        blk.used += static_cast<std::size_t>(p - begin);
    }
}

std::uint64_t
Tape::encodedBytes() const
{
    std::uint64_t n = 0;
    for (const Block &b : blocks_)
        n += b.used;
    return n;
}

TapeWorkload::TapeWorkload(std::shared_ptr<const Tape> tape)
    : tape_(std::move(tape))
{
    rc_assert(tape_);
    reset();
}

void
TapeWorkload::reset()
{
    const std::vector<Tape::Period> &ps = tape_->periods_;
    period_ = 0;
    skipped_ = ps.empty() || ps[0].skip == 0;
    readLeft_ = ps.empty() ? 0 : ps[0].read;
    block_ = 0;
    pos_ = end_ = nullptr;
    if (!tape_->blocks_.empty()) {
        pos_ = tape_->blocks_[0].bytes.get();
        end_ = pos_ + tape_->blocks_[0].used;
    }
    dec_ = {};
}

void
TapeWorkload::settle()
{
    const std::vector<Tape::Period> &ps = tape_->periods_;
    while (period_ < ps.size() && skipped_ && readLeft_ == 0) {
        if (++period_ < ps.size()) {
            skipped_ = ps[period_].skip == 0;
            readLeft_ = ps[period_].read;
        }
    }
}

void
TapeWorkload::skip(std::uint64_t n)
{
    if (n == 0)
        return;
    settle();
    const std::vector<Tape::Period> &ps = tape_->periods_;
    const std::string what =
        "tape '" + name() + "': skip of " + std::to_string(n);
    if (period_ == ps.size())
        rc_fatal(what + " past the end of the recording");
    if (skipped_)
        rc_fatal(what + " is unrecorded (the recording reads " +
                 std::to_string(readLeft_) + " more instructions here)");
    if (ps[period_].skip != n)
        rc_fatal(what + " where the recording skips " +
                 std::to_string(ps[period_].skip));
    skipped_ = true;
}

void
TapeWorkload::take(std::uint64_t n)
{
    const std::vector<Tape::Period> &ps = tape_->periods_;
    while (n > 0) {
        settle();
        if (period_ == ps.size())
            rc_fatal("tape '" + name() + "': read past the end of the "
                     "recording (" +
                     std::to_string(tape_->instructions()) +
                     " instructions)");
        if (!skipped_)
            rc_fatal("tape '" + name() + "': read where the recording "
                     "skips " + std::to_string(ps[period_].skip));
        const std::uint64_t k = std::min(n, readLeft_);
        readLeft_ -= k;
        n -= k;
    }
}

MicroInst
TapeWorkload::next()
{
    MicroInst inst;
    nextBatch(&inst, 1);
    return inst;
}

void
TapeWorkload::nextBatch(MicroInst *buf, std::size_t n)
{
    // take() proves the recording holds n more instructions, and an
    // instruction never straddles a block, so the walk below cannot
    // run off the last block.
    take(n);
    const std::vector<Tape::Block> &blocks = tape_->blocks_;
    const std::uint8_t *p = pos_;
    const std::uint8_t *end = end_;
    Tape::Context ctx = dec_;
    for (std::size_t i = 0; i < n; ++i) {
        if (p == end) {
            const Tape::Block &blk = blocks[++block_];
            p = blk.bytes.get();
            end = p + blk.used;
        }
        const std::uint8_t head = *p++;
        const std::uint8_t extra = (head & kExtra) ? *p++ : 0;
        const unsigned op = head & kOpMask;
        MicroInst &out = buf[i];
        out.op = static_cast<OpClass>(op);
        out.pc = ctx.nextPc;
        if (head & kPc)
            out.pc += unzigzag(getVarint(p));
        out.dep1 = (head & kDep1) ? *p++ : 0;
        out.dep2 = (head & kDep2) ? *p++ : 0;
        out.taken = head & kTaken;
        if (extra & kXLatency)
            ctx.latency[op] = *p++;
        out.latency = ctx.latency[op];
        if (isMem(out.op) || (extra & kXEffAddr)) {
            ctx.effAddr += unzigzag(getVarint(p));
            out.effAddr = ctx.effAddr;
        } else {
            out.effAddr = 0;
        }
        const bool takenBranch = out.op == OpClass::Branch && out.taken;
        out.target = (takenBranch || (extra & kXTarget))
                         ? out.pc + unzigzag(getVarint(p))
                         : 0;
        ctx.nextPc = out.taken ? out.target : out.pc + 4;
    }
    pos_ = p;
    end_ = end;
    dec_ = ctx;
}

} // namespace rcache
