/**
 * @file
 * Tape codec and replay contract (workload/tape.hh): every recorded
 * MicroInst field comes back exactly, the encoding stays compact on
 * the synthetic profiles, replay follows the recorded skip/read
 * sequence, and a run that diverges from it is fatal.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "workload/profiles.hh"
#include "workload/tape.hh"

namespace rcache
{

namespace
{

/** Record @p insts as one read (full detail). */
std::shared_ptr<const Tape>
tapeOf(const std::vector<MicroInst> &insts, const std::string &name)
{
    auto tape = std::make_shared<Tape>(name);
    tape->append(insts.data(), insts.size());
    return tape;
}

std::vector<MicroInst>
drain(Workload &wl, std::size_t n)
{
    std::vector<MicroInst> out(n);
    wl.nextBatch(out.data(), n);
    return out;
}

/**
 * A tape of gcc with two periods: skip 1000 and read 300, then skip
 * 500 and read 200 (the shape a sampled run records).
 */
std::shared_ptr<const Tape>
sampledTape()
{
    SyntheticWorkload live(profileByName("gcc"));
    auto tape = std::make_shared<Tape>(live.name());
    MicroInst buf[300];
    for (const auto &[skip, read] :
         {std::pair<std::uint64_t, std::size_t>{1000, 300}, {500, 200}}) {
        live.skip(skip);
        tape->skip(skip);
        live.nextBatch(buf, read);
        tape->append(buf, read);
    }
    return tape;
}

} // namespace

TEST(TapeTest, RoundTripsEveryField)
{
    // Fields the encoding implies in the common case, and every way
    // an instruction can break those implications.
    std::vector<MicroInst> insts;
    const auto add = [&](OpClass op, Addr pc) {
        MicroInst m;
        m.op = op;
        m.pc = pc;
        insts.push_back(m);
        return &insts.back();
    };
    add(OpClass::IntAlu, 0x1000);
    add(OpClass::IntAlu, 0x1004)->dep1 = 3;
    add(OpClass::Load, 0x1008)->effAddr = 0x8000;
    add(OpClass::Store, 0x100c)->effAddr = 0x40;          // negative delta
    add(OpClass::FpAlu, 0x1010)->latency = 4;
    add(OpClass::FpAlu, 0x1014)->latency = 4;             // repeats
    add(OpClass::IntAlu, 0x1018)->latency = 2;            // int latency
    MicroInst *br = add(OpClass::Branch, 0x101c);
    br->taken = true;
    br->target = 0x0800;                                  // backward
    add(OpClass::IntAlu, 0x0800)->dep2 = 200;             // predicted pc
    add(OpClass::Branch, 0x0804)->target = 0x9999;        // not taken
    add(OpClass::IntAlu, 0x0808)->effAddr = 0x1234;       // stray addr
    add(OpClass::IntAlu, 0x2000)->taken = true;           // taken ALU
    add(OpClass::Load, std::numeric_limits<Addr>::max())->effAddr =
        std::numeric_limits<Addr>::max();
    add(OpClass::Load, 0)->effAddr = 0;                   // wraps back
    MicroInst *all = add(OpClass::Branch, 0x3000);
    all->taken = true;
    all->target = 0;
    all->dep1 = 255;
    all->dep2 = 1;
    all->latency = 7;
    all->effAddr = 5;

    const auto tape = tapeOf(insts, "hand");
    EXPECT_EQ(tape->instructions(), insts.size());
    TapeWorkload replay(tape);
    EXPECT_EQ(drain(replay, insts.size()), insts);
    EXPECT_EQ(replay.name(), "hand");

    // reset() rewinds, and next() matches nextBatch().
    replay.reset();
    for (const MicroInst &want : insts)
        EXPECT_EQ(replay.next(), want);
}

TEST(TapeTest, EverySyntheticProfileRoundTripsCompactly)
{
    // Long enough to cross several 64 KB storage blocks.
    constexpr std::size_t kInsts = 60000;
    for (const BenchmarkProfile &p : spec2000Suite()) {
        SyntheticWorkload live(p);
        const std::vector<MicroInst> want = drain(live, kInsts);
        const auto tape = tapeOf(want, p.name);
        TapeWorkload replay(tape);
        EXPECT_EQ(drain(replay, kInsts), want) << p.name;
        const double per_inst =
            static_cast<double>(tape->encodedBytes()) / kInsts;
        EXPECT_LT(per_inst, 6.0) << p.name;
        EXPECT_GT(tape->encodedBytes(), Tape::blockBytes) << p.name;
    }
}

TEST(TapeTest, ReplayFollowsTheRecordedPeriods)
{
    const auto tape = sampledTape();
    ASSERT_EQ(tape->periods(),
              (std::vector<Tape::Period>{{1000, 300}, {500, 200}}));
    EXPECT_EQ(tape->instructions(), 500u);

    // The live stream under the same calls, read in other batch
    // sizes: the replay matches instruction for instruction.
    SyntheticWorkload live(profileByName("gcc"));
    TapeWorkload replay(tape);
    EXPECT_EQ(replay.name(), "gcc");
    live.skip(1000);
    replay.skip(1000);
    for (std::size_t n : {1, 127, 172}) {
        EXPECT_EQ(drain(replay, n), drain(live, n));
    }
    replay.skip(0); // a zero skip is no call at all
    live.skip(500);
    replay.skip(500);
    EXPECT_EQ(drain(replay, 200), drain(live, 200));
}

TEST(TapeDeathTest, UnrecordedSkipIsFatal)
{
    const auto tape = sampledTape();
    EXPECT_EXIT(
        {
            TapeWorkload replay(tape);
            replay.skip(1000);
            drain(replay, 100);
            replay.skip(500); // 200 recorded instructions remain
        },
        testing::ExitedWithCode(1), "skip of 500 is unrecorded");
    EXPECT_EXIT(
        {
            TapeWorkload replay(tapeOf({MicroInst{}}, "one"));
            replay.skip(1); // full-detail tapes record no skip
        },
        testing::ExitedWithCode(1), "skip of 1 is unrecorded");
}

TEST(TapeDeathTest, SkipOfAnotherLengthIsFatal)
{
    const auto tape = sampledTape();
    EXPECT_EXIT(
        {
            TapeWorkload replay(tape);
            replay.skip(999);
        },
        testing::ExitedWithCode(1),
        "skip of 999 where the recording skips 1000");
}

TEST(TapeDeathTest, ReadPastTheRecordingIsFatal)
{
    const auto tape = sampledTape();
    EXPECT_EXIT(
        {
            TapeWorkload replay(tape);
            replay.skip(1000);
            drain(replay, 300);
            replay.skip(500);
            drain(replay, 201);
        },
        testing::ExitedWithCode(1), "read past the end of the recording");
    // Reading on where the recording skips is a divergence too.
    EXPECT_EXIT(
        {
            TapeWorkload replay(tape);
            replay.skip(1000);
            drain(replay, 301);
        },
        testing::ExitedWithCode(1), "read where the recording skips 500");
}

} // namespace rcache
