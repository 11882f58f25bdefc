/** @file
 * Tests for the offline telemetry summarizer behind `rcache-sim
 * inspect`: the strict flat-JSON line parser and the timeline/event
 * reductions, including the oscillation detector.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "telemetry/inspect.hh"
#include "telemetry/resize_events.hh"
#include "telemetry/timeline.hh"
#include "util/json.hh"

namespace rcache
{

namespace
{

using Obj = std::map<std::string, std::string>;

/** One synthetic resize-event line with the fields inspect reads. */
std::string eventLine(unsigned core, std::uint64_t interval,
                      unsigned from_level, unsigned to_level,
                      const std::string &reason,
                      std::uint64_t from_bytes = 32768,
                      std::uint64_t writebacks = 0,
                      std::uint64_t transition_cycles = 0)
{
    std::ostringstream os;
    os << "{\"core\":" << core << ",\"cache\":\"dl1\",\"interval\":"
       << interval << ",\"reason\":\"" << reason
       << "\",\"from_level\":" << from_level << ",\"to_level\":"
       << to_level << ",\"from_bytes\":" << from_bytes
       << ",\"flush_writebacks\":" << writebacks
       << ",\"transition_cycles\":" << transition_cycles << "}";
    return os.str();
}

std::string timelineLine(unsigned core, std::uint64_t seq,
                         std::uint64_t insts, std::uint64_t cycles,
                         double ipc, std::uint64_t dl1_bytes,
                         const std::string &phase = "detail")
{
    std::ostringstream os;
    os << "{\"core\":" << core << ",\"seq\":" << seq
       << ",\"phase\":\"" << phase
       << "\",\"insts\":" << insts << ",\"cycles\":" << cycles
       << ",\"ipc\":" << ipc << ",\"dl1_bytes\":" << dl1_bytes << "}";
    return os.str();
}

} // namespace

TEST(InspectParseTest, ParsesFlatObjects)
{
    Obj obj;
    std::string err;
    ASSERT_TRUE(parseJsonFlatObject(
        "{\"name\":\"gcc\",\"insts\":5000,\"ipc\":0.25,"
        "\"sampled\":false}",
        obj, &err))
        << err;
    EXPECT_EQ(obj.size(), 4u);
    EXPECT_EQ(obj["name"], "gcc");
    EXPECT_EQ(obj["insts"], "5000");
    EXPECT_EQ(obj["ipc"], "0.25");
    EXPECT_EQ(obj["sampled"], "false");

    ASSERT_TRUE(parseJsonFlatObject("{}", obj, &err)) << err;
    EXPECT_TRUE(obj.empty());

    ASSERT_TRUE(parseJsonFlatObject("  { \"a\" : 1 }  ", obj, &err))
        << err;
    EXPECT_EQ(obj["a"], "1");
}

TEST(InspectParseTest, UnescapesStringValues)
{
    Obj obj;
    std::string err;
    ASSERT_TRUE(parseJsonFlatObject(
        "{\"job\":\"a\\\"b\\\\c\\nd\\te\\u0007f\"}", obj, &err))
        << err;
    EXPECT_EQ(obj["job"], "a\"b\\c\nd\te\af");
}

TEST(InspectParseTest, RejectsMalformedLines)
{
    const char *bad[] = {
        "",
        "not json",
        "[1,2]",
        "{\"a\":1",                       // unterminated object
        "{\"a\" 1}",                      // missing colon
        "{\"a\":}",                       // missing value
        "{\"a\":1,}",                     // trailing comma
        "{a:1}",                          // unquoted key
        "{\"a\":\"unterminated}",         // unterminated string
        "{\"a\":\"bad\\q\"}",             // unknown escape
        "{\"a\":\"\\u00zz\"}",            // bad \u escape
        "{\"a\":\"\\u00e9\"}",            // non-ASCII \u escape
        "{\"a\":{\"nested\":1}}",         // nested object
        "{\"a\":[1]}",                    // nested array
        "{\"a\":1} trailing",             // trailing garbage
        "{\"a\":1}{\"b\":2}",             // two objects
        "{\"a\":1,\"a\":2}",              // duplicate key
    };
    for (const char *line : bad) {
        Obj obj;
        std::string err;
        EXPECT_FALSE(parseJsonFlatObject(line, obj, &err))
            << "accepted: " << line;
        EXPECT_FALSE(err.empty()) << "no diagnostic for: " << line;
    }
}

TEST(InspectParseTest, EveryByteRoundTripsThroughTheWriter)
{
    std::string all;
    for (int c = 1; c < 256; ++c)
        all.push_back(static_cast<char>(c));
    Obj obj;
    std::string err;
    ASSERT_TRUE(parseJsonFlatObject("{\"k\":" + jsonString(all) + "}",
                                    obj, &err))
        << err;
    EXPECT_EQ(obj["k"], all);
}

TEST(InspectTimelineTest, EscapedJobLabelsParseBack)
{
    // A trace app's path lands in the job label verbatim; quotes,
    // backslashes and control bytes must not break the JSONL.
    const std::string label = "trace:a\"b\\c\td/point";
    TimelineRow row;
    row.phase = "detail";
    row.insts = 5000;
    row.cycles = 2000;
    row.ipc = 2.5;
    row.dl1Bytes = 32768;
    ResizeEvent ev;
    ev.cache = "dl1";
    ev.interval = 1;
    ev.reason = ResizeReason::shrink;
    ev.fromLevel = 0;
    ev.toLevel = 1;
    ev.fromBytes = 32768;
    ev.toBytes = 16384;

    std::stringstream tl, evs;
    writeTimelineJsonl(tl, {row}, label);
    writeResizeEventsJsonl(evs, {ev}, label);
    for (const std::string &text : {tl.str(), evs.str()}) {
        Obj obj;
        std::string err;
        ASSERT_TRUE(parseJsonFlatObject(text.substr(0, text.size() - 1),
                                        obj, &err))
            << err << ": " << text;
        EXPECT_EQ(obj["job"], label);
    }
    EXPECT_EQ(summarizeTimeline(tl).rows, 1u);
    EXPECT_EQ(summarizeEvents(evs).byReason.at("shrink"), 1u);
}

TEST(InspectTimelineTest, SummarizesRowsAndResidency)
{
    std::stringstream in;
    in << timelineLine(0, 0, 5000, 1000, 0.5, 32768) << "\n"
       << timelineLine(0, 1, 10000, 3000, 0.4, 16384) << "\n"
       << timelineLine(1, 0, 5000, 2000, 0.3, 32768) << "\n"
       << timelineLine(1, 1, 8000, 0, 0.0, 32768, "warmup") << "\n"
       << "\n"; // blank lines are skipped

    const TimelineSummary s = summarizeTimeline(in);
    EXPECT_EQ(s.rows, 4u);
    EXPECT_EQ(s.warmupRows, 1u);
    EXPECT_EQ(s.cores, 2u);
    EXPECT_EQ(s.maxInsts, 10000u);
    EXPECT_EQ(s.maxCycles, 3000u);
    EXPECT_DOUBLE_EQ(s.meanIpc, (0.5 + 0.4 + 0.3) / 3.0);
    // Core 0: 1000 cycles at 32768, then 2000 more at 16384; core 1:
    // 2000 at 32768 (the warmup row adds no cycles).
    ASSERT_EQ(s.dl1SizeCycles.size(), 2u);
    EXPECT_EQ(s.dl1SizeCycles.at(32768), 3000u);
    EXPECT_EQ(s.dl1SizeCycles.at(16384), 2000u);
}

TEST(InspectTimelineTest, ResidencyRestartsWithEveryRun)
{
    // A sweep file holds one run after another on core 0; each run's
    // cycles count from zero again at seq 0, so run B's first row
    // (800 cycles, below run A's last 3000) is 800 cycles of B.
    std::stringstream in;
    in << timelineLine(0, 0, 5000, 1000, 0.5, 32768) << "\n"
       << timelineLine(0, 1, 10000, 3000, 0.4, 16384) << "\n"
       << timelineLine(0, 0, 5000, 800, 0.6, 32768) << "\n"
       << timelineLine(0, 1, 10000, 2500, 0.3, 16384) << "\n";

    const TimelineSummary s = summarizeTimeline(in);
    EXPECT_EQ(s.cores, 1u);
    ASSERT_EQ(s.dl1SizeCycles.size(), 2u);
    EXPECT_EQ(s.dl1SizeCycles.at(32768), 1000u + 800u);
    EXPECT_EQ(s.dl1SizeCycles.at(16384), 2000u + 1700u);
    // Residency adds up to the two runs' final cycle counts.
    EXPECT_EQ(s.dl1SizeCycles.at(32768) + s.dl1SizeCycles.at(16384),
              3000u + 2500u);
}

TEST(InspectTimelineTest, ThrowsOnMalformedLineWithItsNumber)
{
    std::stringstream in;
    in << timelineLine(0, 0, 5000, 1000, 0.5, 32768) << "\n"
       << "{\"core\":0, broken\n";
    try {
        summarizeTimeline(in);
        FAIL() << "malformed line accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(InspectTimelineTest, ThrowsOnMissingField)
{
    std::stringstream in;
    in << "{\"core\":0,\"phase\":\"detail\",\"insts\":1}\n";
    EXPECT_THROW(summarizeTimeline(in), std::runtime_error);
}

TEST(InspectEventsTest, CountsReasonsAndCosts)
{
    std::stringstream in;
    in << eventLine(0, 1, 0, 0, "grow-at-max") << "\n"
       << eventLine(0, 2, 1, 0, "grow", 16384, 3, 30) << "\n"
       << eventLine(0, 3, 0, 0, "hold") << "\n"
       << eventLine(1, 1, 0, 1, "shrink", 32768, 5, 50) << "\n";

    const EventsSummary s = summarizeEvents(in);
    EXPECT_EQ(s.events, 4u);
    EXPECT_EQ(s.byReason.at("grow-at-max"), 1u);
    EXPECT_EQ(s.byReason.at("grow"), 1u);
    EXPECT_EQ(s.byReason.at("hold"), 1u);
    EXPECT_EQ(s.byReason.at("shrink"), 1u);
    EXPECT_EQ(s.totalFlushWritebacks, 8u);
    EXPECT_EQ(s.totalTransitionCycles, 80u);
    EXPECT_EQ(s.sizeIntervals.at(32768), 3u);
    EXPECT_EQ(s.sizeIntervals.at(16384), 1u);
    // One grow and one shrink, but on different cores: no thrash.
    EXPECT_EQ(s.oscillations, 0u);
}

TEST(InspectEventsTest, DetectsOscillationsWithinTheWindow)
{
    // grow@1, shrink@3 (gap 2), grow@10 (gap 7): only the first
    // reversal is within the default window of 3.
    std::stringstream in;
    in << eventLine(0, 1, 1, 0, "grow") << "\n"
       << eventLine(0, 3, 0, 1, "shrink") << "\n"
       << eventLine(0, 10, 1, 0, "grow") << "\n";
    EXPECT_EQ(summarizeEvents(in).oscillations, 1u);

    // A wider window catches the second reversal too.
    std::stringstream wide;
    wide << eventLine(0, 1, 1, 0, "grow") << "\n"
         << eventLine(0, 3, 0, 1, "shrink") << "\n"
         << eventLine(0, 10, 1, 0, "grow") << "\n";
    EXPECT_EQ(summarizeEvents(wide, 7).oscillations, 2u);

    // Same-direction moves never count.
    std::stringstream same;
    same << eventLine(0, 1, 1, 0, "grow") << "\n"
         << eventLine(0, 2, 2, 1, "grow") << "\n";
    EXPECT_EQ(summarizeEvents(same).oscillations, 0u);
}

TEST(InspectEventsTest, RunsDoNotOscillateIntoEachOther)
{
    // Run A ends with a grow; run B opens with a shrink. Written by
    // `run` (no job label), run B restarts at interval 1.
    std::stringstream in;
    in << eventLine(0, 1, 0, 0, "hold") << "\n"
       << eventLine(0, 2, 1, 0, "grow") << "\n"
       << eventLine(0, 1, 0, 0, "hold") << "\n"
       << eventLine(0, 2, 0, 1, "shrink") << "\n";
    const EventsSummary s = summarizeEvents(in);
    EXPECT_EQ(s.events, 4u);
    EXPECT_EQ(s.oscillations, 0u);

    // In a sweep file each run carries its job label, so two runs
    // are two streams even where the intervals happen to increase.
    const auto labelled = [](const std::string &job,
                             const std::string &line) {
        return "{\"job\":\"" + job + "\"," + line.substr(1);
    };
    std::stringstream sweep;
    sweep << labelled("A", eventLine(0, 1, 1, 0, "grow")) << "\n"
          << labelled("B", eventLine(0, 2, 0, 1, "shrink")) << "\n";
    EXPECT_EQ(summarizeEvents(sweep).oscillations, 0u);

    // The same two moves within one run still count.
    std::stringstream one;
    one << labelled("A", eventLine(0, 1, 1, 0, "grow")) << "\n"
        << labelled("A", eventLine(0, 2, 0, 1, "shrink")) << "\n";
    EXPECT_EQ(summarizeEvents(one).oscillations, 1u);
}

TEST(InspectEventsTest, PrintersEmitTheInspectHeadings)
{
    std::stringstream in;
    in << eventLine(0, 1, 1, 0, "grow") << "\n";
    const EventsSummary es = summarizeEvents(in);
    std::ostringstream eout;
    printEventsSummary(eout, es);
    EXPECT_NE(eout.str().find("resize events: 1"), std::string::npos);
    EXPECT_NE(eout.str().find("decisions by reason:"),
              std::string::npos);
    EXPECT_NE(eout.str().find("grow: 1"), std::string::npos);

    std::stringstream tin;
    tin << timelineLine(0, 0, 5000, 1000, 0.5, 32768) << "\n";
    const TimelineSummary ts = summarizeTimeline(tin);
    std::ostringstream tout;
    printTimelineSummary(tout, ts);
    EXPECT_NE(tout.str().find("timeline: 1 rows (0 warmup)"),
              std::string::npos);
    EXPECT_NE(tout.str().find("mean interval ipc: 0.5"),
              std::string::npos);
}

} // namespace rcache
