/** @file Tests for the trace file format. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "workload/profiles.hh"
#include "workload/trace_io.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

namespace
{

/** Parse @p is with the strict reference reader, expecting success. */
std::vector<MicroInst>
readOk(std::istream &is)
{
    std::vector<MicroInst> insts;
    std::string err;
    EXPECT_TRUE(readTraceStrict(is, "trace", insts, &err)) << err;
    return insts;
}

/** The streaming workload a "trace:" @p spec names. */
std::unique_ptr<Workload>
openTrace(const std::string &spec)
{
    BenchmarkProfile p;
    std::string err;
    EXPECT_TRUE(traceProfileFromSpec(spec, &p, &err)) << err;
    return makeWorkload(p);
}

} // namespace

TEST(TraceIoTest, OpCodesRoundTrip)
{
    for (OpClass op : {OpClass::IntAlu, OpClass::FpAlu, OpClass::Load,
                       OpClass::Store, OpClass::Branch}) {
        EXPECT_EQ(static_cast<int>(opClassFromCode(opClassCode(op))),
                  static_cast<int>(op));
    }
}

TEST(TraceIoDeathTest, BadOpCodeFatal)
{
    EXPECT_EXIT(opClassFromCode('Z'), testing::ExitedWithCode(1),
                "bad opcode");
}

TEST(TraceIoTest, WriteThenReadRoundTrips)
{
    SyntheticWorkload src(profileByName("gcc"));
    std::stringstream buf;
    writeTrace(buf, src, 500);

    const auto insts = readOk(buf);
    ASSERT_EQ(insts.size(), 500u);

    // Replaying the source must give identical instructions.
    src.reset();
    for (const auto &got : insts) {
        const MicroInst want = src.next();
        EXPECT_EQ(got.pc, want.pc);
        EXPECT_EQ(got.effAddr, want.effAddr);
        EXPECT_EQ(static_cast<int>(got.op),
                  static_cast<int>(want.op));
        EXPECT_EQ(got.latency, want.latency);
        EXPECT_EQ(got.dep1, want.dep1);
        EXPECT_EQ(got.dep2, want.dep2);
        EXPECT_EQ(got.taken, want.taken);
        if (want.op == OpClass::Branch && want.taken)
            EXPECT_EQ(got.target, want.target);
    }
}

TEST(TraceIoTest, WriteReadWriteIsByteIdentical)
{
    // Stronger identity: serializing the parsed trace again must
    // reproduce the original text byte for byte (no information is
    // lost or reformatted through a round-trip).
    SyntheticWorkload src(profileByName("vortex"));
    std::stringstream first;
    writeTrace(first, src, 300);

    TraceWorkload replay(readOk(first), "replay");
    std::stringstream second;
    writeTrace(second, replay, 300);

    EXPECT_EQ(first.str(), second.str());
}

TEST(TraceIoTest, CommentsAndBlankLinesIgnored)
{
    std::stringstream buf;
    buf << "# a comment\n\nI 400000 0 1 0 0 0\n";
    const auto insts = readOk(buf);
    ASSERT_EQ(insts.size(), 1u);
    EXPECT_EQ(insts[0].pc, 0x400000u);
}

TEST(TraceIoDeathTest, MalformedLineFatal)
{
    // Opening a trace whose first record is malformed is a user
    // error carrying the file:line diagnostic.
    const std::string path =
        testing::TempDir() + "rcache_trace_malformed.trace";
    {
        std::ofstream f(path);
        f << "L not-a-number\n";
    }
    EXPECT_EXIT(openTrace("trace:" + path), testing::ExitedWithCode(1),
                "rcache_trace_malformed.trace:1:");
    std::remove(path.c_str());
}

TEST(TraceIoDeathTest, MissingFileFatal)
{
    EXPECT_EXIT(openTrace("trace:/nonexistent/trace.txt:native"),
                testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceIoTest, LoadedTraceDrivesWorkload)
{
    // A recorded trace streams back as the recorded instructions.
    SyntheticWorkload src(profileByName("ammp"));
    const std::string path =
        testing::TempDir() + "rcache_trace_recorded.trace";
    {
        std::ofstream f(path);
        writeTrace(f, src, 100);
    }
    const std::string spec = "trace:" + path;
    const std::unique_ptr<Workload> wl = openTrace(spec);
    EXPECT_EQ(wl->name(), spec);
    src.reset();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(wl->next().pc, src.next().pc);
    std::remove(path.c_str());
}

} // namespace rcache
