/** @file Chrome trace-event recording and serialization. */

#include "telemetry/trace_events.hh"

#include "util/json.hh"

namespace rcache
{
int TraceEventRecorder::tidOfCurrentThread()
{
    const auto id = std::this_thread::get_id();
    auto it = tids_.find(id);
    if (it == tids_.end())
        it = tids_.emplace(id, static_cast<int>(tids_.size())).first;
    return it->second;
}

void TraceEventRecorder::completeSpan(const std::string &name,
                                      Clock::time_point begin,
                                      Clock::time_point end, Args args)
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(Event{name, 'X', micros(begin),
                            micros(end) - micros(begin),
                            tidOfCurrentThread(), std::move(args)});
}

void TraceEventRecorder::instant(const std::string &name, Args args)
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(Event{name, 'i', micros(Clock::now()), 0,
                            tidOfCurrentThread(), std::move(args)});
}

std::size_t TraceEventRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

void TraceEventRecorder::write(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const Event &ev : events_) {
        if (!first)
            os << ',';
        first = false;
        os << "\n{\"name\":";
        writeJsonString(os, ev.name);
        os << ",\"ph\":\"" << ev.phase << '"'
           << ",\"ts\":" << ev.tsMicros;
        if (ev.phase == 'X')
            os << ",\"dur\":" << ev.durMicros;
        if (ev.phase == 'i')
            os << ",\"s\":\"t\"";
        os << ",\"pid\":0,\"tid\":" << ev.tid;
        if (!ev.args.empty()) {
            os << ",\"args\":{";
            bool firstArg = true;
            for (const auto &[key, value] : ev.args) {
                if (!firstArg)
                    os << ',';
                firstArg = false;
                writeJsonString(os, key);
                os << ':';
                writeJsonString(os, value);
            }
            os << '}';
        }
        os << '}';
    }
    os << "\n]}\n";
}

} // namespace rcache
