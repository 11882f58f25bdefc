/** @file
 * TraceEventRecorder tests. Timestamps are wall clock, so everything
 * here is structural: the Chrome object form, span/instant phases,
 * stable small-integer thread ids, and JSON string escaping. (The
 * flat-object parser in util/json.hh cannot validate full event
 * lines — it rejects the nested "args" object by design — hence the
 * plain substring checks.)
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "telemetry/trace_events.hh"

namespace rcache
{

namespace
{

std::string dump(const TraceEventRecorder &rec)
{
    std::ostringstream os;
    rec.write(os);
    return os.str();
}

} // namespace

TEST(TraceEventsTest, EmptyRecorderWritesAnEmptyObject)
{
    TraceEventRecorder rec;
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(dump(rec), "{\"traceEvents\":[\n]}\n");
}

TEST(TraceEventsTest, SpansAndInstantsHaveTheChromeShape)
{
    TraceEventRecorder rec;
    const auto begin = rec.now();
    rec.completeSpan("cell", begin, rec.now(),
                     {{"point", "cell=0;app=gcc"}, {"jobs", "3"}});
    rec.instant("chunk-flush", {{"cells", "1"}});
    EXPECT_EQ(rec.size(), 2u);

    const std::string out = dump(rec);
    EXPECT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(out.find("{\"name\":\"cell\",\"ph\":\"X\",\"ts\":"),
              std::string::npos);
    EXPECT_NE(out.find("\"dur\":"), std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"point\":\"cell=0;app=gcc\","
                       "\"jobs\":\"3\"}"),
              std::string::npos);
    EXPECT_NE(out.find("{\"name\":\"chunk-flush\",\"ph\":\"i\",\"ts\":"),
              std::string::npos);
    // Instants need a scope for the viewers to render them.
    EXPECT_NE(out.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(out.find("\"pid\":0,\"tid\":0"), std::string::npos);
    EXPECT_EQ(out.substr(out.size() - 4), "\n]}\n");
}

TEST(TraceEventsTest, SpanDurationsAreNonNegativeAndOrdered)
{
    TraceEventRecorder rec;
    const auto begin = rec.now();
    rec.completeSpan("a", begin, rec.now());
    const std::string out = dump(rec);
    // ts is relative to recorder creation, so both fields are plain
    // non-negative integers (no leading '-').
    EXPECT_EQ(out.find("\"ts\":-"), std::string::npos);
    EXPECT_EQ(out.find("\"dur\":-"), std::string::npos);
}

TEST(TraceEventsTest, EscapesQuotesBackslashesAndControlChars)
{
    TraceEventRecorder rec;
    rec.instant("quo\"te\\path\nline\ttab\x01"
                "bell");
    const std::string out = dump(rec);
    EXPECT_NE(out.find("\"name\":\"quo\\\"te\\\\path\\nline\\ttab"
                       "\\u0001bell\""),
              std::string::npos);
    // The raw control characters must not leak into the JSON: the
    // writer's own newlines separate events, so the name's must be
    // gone entirely.
    EXPECT_EQ(out.find("line\t"), std::string::npos);
    EXPECT_EQ(out.find('\x01'), std::string::npos);
}

TEST(TraceEventsTest, ThreadsGetSmallStableTids)
{
    TraceEventRecorder rec;
    rec.instant("main-1");
    std::thread([&] { rec.instant("worker"); }).join();
    rec.instant("main-2");

    const std::string out = dump(rec);
    // First-appearance order: the main thread is tid 0 both times,
    // the worker is tid 1.
    EXPECT_NE(out.find("{\"name\":\"main-1\",\"ph\":\"i\",\"ts\":"),
              std::string::npos);
    const auto worker = out.find("\"name\":\"worker\"");
    ASSERT_NE(worker, std::string::npos);
    EXPECT_NE(out.find("\"tid\":1", worker), std::string::npos);
    const auto main2 = out.find("\"name\":\"main-2\"");
    ASSERT_NE(main2, std::string::npos);
    EXPECT_NE(out.find("\"tid\":0", main2), std::string::npos);
    EXPECT_EQ(rec.size(), 3u);
}

TEST(TraceEventsTest, ConcurrentRecordingIsSafeAndComplete)
{
    TraceEventRecorder rec;
    constexpr int kThreads = 4;
    constexpr int kEach = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&rec, t] {
            for (int i = 0; i < kEach; ++i) {
                const auto b = rec.now();
                rec.completeSpan("t" + std::to_string(t), b, rec.now());
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(rec.size(),
              static_cast<std::size_t>(kThreads) * kEach);
    // All tids are in [0, kThreads).
    const std::string out = dump(rec);
    EXPECT_EQ(out.find("\"tid\":" + std::to_string(kThreads)),
              std::string::npos);
}

} // namespace rcache
