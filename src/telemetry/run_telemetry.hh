/**
 * @file
 * Per-run telemetry request/result bundle.
 *
 * A RunTelemetry is passed (as a nullable pointer — null means
 * telemetry off and zero wiring cost) into System::run /
 * executeRunJob. The caller sets the request
 * fields; the run appends its timeline rows and resize events, and
 * the caller serializes them wherever it likes (stdout, per-run
 * files, a shared sweep sidecar).
 */

#ifndef RCACHE_TELEMETRY_RUN_TELEMETRY_HH
#define RCACHE_TELEMETRY_RUN_TELEMETRY_HH

#include <cstdint>
#include <vector>

#include "telemetry/resize_events.hh"
#include "telemetry/timeline.hh"

namespace rcache
{

/** See file comment. */
struct RunTelemetry
{
    /** Sample every N instructions; 0 disables the timeline. */
    std::uint64_t timelineInterval = 0;
    /** Record resize-decision events from dynamic controllers. */
    bool resizeEvents = false;

    /** Timeline rows, per core in core order (multi-core). */
    std::vector<TimelineRow> timeline;
    /** Resize-decision events in emission order. */
    ResizeEventRecorder events;

    bool wantsTimeline() const { return timelineInterval > 0; }
    bool enabled() const { return wantsTimeline() || resizeEvents; }
};

} // namespace rcache

#endif // RCACHE_TELEMETRY_RUN_TELEMETRY_HH
