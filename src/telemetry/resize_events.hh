/**
 * @file
 * Structured resize-decision events.
 *
 * Every interval boundary of a dynamic resizing controller produces
 * exactly one event capturing the decision inputs (interval miss
 * count vs. the configured bounds), the outcome (grow / shrink /
 * hold, with a reason code distinguishing "wanted to move but
 * couldn't"), and the transition cost (lines invalidated, dirty
 * writebacks flushed, and the cycles those writebacks occupy the
 * drain port). This makes the paper's mechanism inspectable per
 * decision instead of only through end-of-run aggregates.
 *
 * This header is plain data + a recorder; it deliberately has no
 * dependency on the controller or cache classes so both the
 * controllers and the offline inspect tooling can include it.
 */

#ifndef RCACHE_TELEMETRY_RESIZE_EVENTS_HH
#define RCACHE_TELEMETRY_RESIZE_EVENTS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace rcache
{

/** Outcome of one interval-boundary resize decision. */
enum class ResizeReason
{
    /** Misses exceeded the bound; the cache grew one level. */
    grow,
    /** Misses exceeded the bound but the cache is already at its
     *  largest configuration. */
    growAtMax,
    /** Misses fell below bound × downsize-fraction; the cache shrank
     *  one level. */
    shrink,
    /** Wanted to shrink but already at the smallest configuration. */
    shrinkAtMin,
    /** Wanted to shrink but the size-bound forbids going smaller. */
    shrinkSizeBound,
    /** Miss count between the two thresholds; no change. */
    hold,
};

/** Stable lowercase-hyphen name used in the JSONL output. */
const char *resizeReasonName(ResizeReason reason);

/** One interval-boundary decision. */
struct ResizeEvent
{
    /** Core the resized cache belongs to (0 in single-core runs). */
    unsigned core = 0;
    /** Cache name, e.g. "dl1". */
    std::string cache;
    /** Decision ordinal for this controller (1 = first boundary). */
    std::uint64_t interval = 0;
    /**
     * Cycle of the access that closed the interval, local to the
     * run() window it occurred in (multi-core quanta and sampled
     * detailed windows restart at cycle 0; the controller cannot see
     * across windows). Use @ref interval for a monotonic axis.
     */
    std::uint64_t cycle = 0;
    /** Accesses observed in the interval. */
    std::uint64_t accesses = 0;
    /** Misses observed in the interval (the decision input). */
    std::uint64_t misses = 0;
    /** Configured miss bound the interval is judged against. */
    std::uint64_t missBound = 0;
    /** Configured downsize fraction (shrink threshold multiplier). */
    double downsizeFraction = 1.0;

    ResizeReason reason = ResizeReason::hold;

    /** Size level before/after (0 = largest configuration). */
    unsigned fromLevel = 0;
    unsigned toLevel = 0;
    /** Enabled capacity in bytes before/after. */
    std::uint64_t fromBytes = 0;
    std::uint64_t toBytes = 0;

    /** Lines invalidated by the transition flush (0 on hold). */
    std::uint64_t flushInvalidated = 0;
    /** Dirty lines written back by the transition flush. */
    std::uint64_t flushWritebacks = 0;
    /** Drain-port cycles consumed by the writeback burst. */
    std::uint64_t transitionCycles = 0;

    bool resized() const { return fromLevel != toLevel; }
};

/** Accumulates events from any number of controllers in one run. */
class ResizeEventRecorder
{
  public:
    void record(const ResizeEvent &ev) { events_.push_back(ev); }

    const std::vector<ResizeEvent> &events() const { return events_; }
    bool empty() const { return events_.empty(); }

  private:
    std::vector<ResizeEvent> events_;
};

/**
 * Everything a controller needs to emit events: the recorder (null =
 * telemetry off, and the controller must stay on its untouched fast
 * path), the owning core id, and the per-writeback drain latency used
 * to price transition bursts in cycles.
 */
struct ResizeTelemetry
{
    ResizeEventRecorder *recorder = nullptr;
    unsigned core = 0;
    std::uint64_t drainCyclesPerWriteback = 0;
};

/**
 * Append @p events to @p os as JSONL, one compact object per line,
 * deterministic bytes (locale-free number formatting). @p label, when
 * non-empty, is added as a "job" field on every line so sweep outputs
 * from many design points can share one file.
 */
void writeResizeEventsJsonl(std::ostream &os,
                            const std::vector<ResizeEvent> &events,
                            const std::string &label = "");

} // namespace rcache

#endif // RCACHE_TELEMETRY_RESIZE_EVENTS_HH
