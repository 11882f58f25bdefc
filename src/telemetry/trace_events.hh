/**
 * @file
 * Chrome trace-event recording for the sweep runner.
 *
 * Produces the JSON object format understood by chrome://tracing and
 * Perfetto: {"traceEvents": [...]}. Spans are complete events
 * (ph "X") with microsecond timestamps relative to the recorder's
 * creation; markers are instant events (ph "i"). Thread ids are
 * small integers assigned in order of first appearance, so worker
 * rows in the viewer are stable and compact.
 *
 * Timestamps come from std::chrono::steady_clock — they describe the
 * *host's* execution, not simulated time, and are inherently
 * nondeterministic. Tests therefore validate structure, never bytes.
 *
 * Thread safety: record()/instant() may be called concurrently from
 * runner workers; write() must be called after they have finished.
 */

#ifndef RCACHE_TELEMETRY_TRACE_EVENTS_HH
#define RCACHE_TELEMETRY_TRACE_EVENTS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace rcache
{

/** See file comment. */
class TraceEventRecorder
{
  public:
    using Clock = std::chrono::steady_clock;
    /** String key/value pairs for the event's "args" object. */
    using Args = std::vector<std::pair<std::string, std::string>>;

    TraceEventRecorder() : t0_(Clock::now()) {}

    /** Current time, for bracketing a span by hand. */
    Clock::time_point now() const { return Clock::now(); }

    /** Record a complete span [begin, end) on the calling thread. */
    void completeSpan(const std::string &name, Clock::time_point begin,
                      Clock::time_point end, Args args = {});

    /** Record an instant marker at the current time. */
    void instant(const std::string &name, Args args = {});

    std::size_t size() const;

    /** Serialize everything as a Chrome trace JSON object. */
    void write(std::ostream &os) const;

  private:
    struct Event
    {
        std::string name;
        char phase; // 'X' or 'i'
        std::int64_t tsMicros;
        std::int64_t durMicros; // spans only
        int tid;
        Args args;
    };

    std::int64_t micros(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   t - t0_)
            .count();
    }

    int tidOfCurrentThread(); // callers hold mu_

    Clock::time_point t0_;
    mutable std::mutex mu_;
    std::map<std::thread::id, int> tids_;
    std::vector<Event> events_;
};

} // namespace rcache

#endif // RCACHE_TELEMETRY_TRACE_EVENTS_HH
