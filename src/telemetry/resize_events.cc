/** @file Resize-decision event names and JSONL serialization. */

#include "telemetry/resize_events.hh"


#include "util/json.hh"
#include "util/logging.hh"
#include "util/numformat.hh"

namespace rcache
{

const char *resizeReasonName(ResizeReason reason)
{
    switch (reason) {
    case ResizeReason::grow:
        return "grow";
    case ResizeReason::growAtMax:
        return "grow-at-max";
    case ResizeReason::shrink:
        return "shrink";
    case ResizeReason::shrinkAtMin:
        return "shrink-at-min";
    case ResizeReason::shrinkSizeBound:
        return "shrink-size-bound";
    case ResizeReason::hold:
        return "hold";
    }
    rc_panic("unknown resize reason");
}

void writeResizeEventsJsonl(std::ostream &os,
                            const std::vector<ResizeEvent> &events,
                            const std::string &label)
{
    for (const ResizeEvent &ev : events) {
        os << '{';
        if (!label.empty()) {
            os << "\"job\":";
            writeJsonString(os, label);
            os << ',';
        }
        os << "\"core\":" << ev.core
           << ",\"cache\":\"" << ev.cache << '"'
           << ",\"interval\":" << ev.interval
           << ",\"cycle\":" << ev.cycle
           << ",\"accesses\":" << ev.accesses
           << ",\"misses\":" << ev.misses
           << ",\"miss_bound\":" << ev.missBound
           << ",\"downsize_fraction\":"
           << shortestDouble(ev.downsizeFraction)
           << ",\"reason\":\"" << resizeReasonName(ev.reason) << '"'
           << ",\"from_level\":" << ev.fromLevel
           << ",\"to_level\":" << ev.toLevel
           << ",\"from_bytes\":" << ev.fromBytes
           << ",\"to_bytes\":" << ev.toBytes
           << ",\"flush_invalidated\":" << ev.flushInvalidated
           << ",\"flush_writebacks\":" << ev.flushWritebacks
           << ",\"transition_cycles\":" << ev.transitionCycles
           << "}\n";
    }
}

} // namespace rcache
