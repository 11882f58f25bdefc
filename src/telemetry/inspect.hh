/**
 * @file
 * Offline summarization of telemetry artifacts: the engine behind
 * `rcache-sim inspect`. Reads the JSONL files written by the
 * timeline/resize-event layers (flat objects, parsed by util/json.hh)
 * and reduces them to the questions the paper's mechanism raises: how
 * often did the controller grow/shrink/hold and why, what sizes did
 * the cache live at, and did the decision thresholds oscillate.
 */

#ifndef RCACHE_TELEMETRY_INSPECT_HH
#define RCACHE_TELEMETRY_INSPECT_HH

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>

namespace rcache
{

/** Reduction of a timeline JSONL file. */
struct TimelineSummary
{
    std::uint64_t rows = 0;
    std::uint64_t warmupRows = 0;
    /** Highest core id seen + 1. */
    unsigned cores = 0;
    std::uint64_t maxInsts = 0;
    std::uint64_t maxCycles = 0;
    /** Arithmetic mean of detail-row interval IPCs. */
    double meanIpc = 0;
    /** D-cache size residency: enabled bytes → timed cycles spent
     *  there (per-core cycle deltas attributed to the row's size; a
     *  row with seq 0 starts a new run, counted from cycle 0). */
    std::map<std::uint64_t, std::uint64_t> dl1SizeCycles;
};

/** Reduction of a resize-event JSONL file. */
struct EventsSummary
{
    std::uint64_t events = 0;
    /** Decision counts keyed by reason-code name. */
    std::map<std::string, std::uint64_t> byReason;
    /** Size residency: enabled bytes → controller intervals spent
     *  there (elapsed intervals attributed to the pre-event size). */
    std::map<std::uint64_t, std::uint64_t> sizeIntervals;
    /** Direction reversals (grow→shrink or shrink→grow within one
     *  run's cache on one core) within the oscillation window, a
     *  thrashing controller's signature. */
    std::uint64_t oscillations = 0;
    std::uint64_t totalFlushWritebacks = 0;
    std::uint64_t totalTransitionCycles = 0;
};

/**
 * Summarize timeline JSONL from @p in.
 * @throws std::runtime_error on a malformed line
 */
TimelineSummary summarizeTimeline(std::istream &in);

/**
 * Summarize resize-event JSONL from @p in.
 * @param oscillation_window max interval distance between two
 *        opposite-direction resizes for them to count as an
 *        oscillation
 * @throws std::runtime_error on a malformed line
 */
EventsSummary summarizeEvents(std::istream &in,
                              std::uint64_t oscillation_window = 3);

void printTimelineSummary(std::ostream &os, const TimelineSummary &s);
void printEventsSummary(std::ostream &os, const EventsSummary &s);

} // namespace rcache

#endif // RCACHE_TELEMETRY_INSPECT_HH
