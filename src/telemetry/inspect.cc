/** @file Telemetry-file summarization (the `inspect` subcommand). */

#include "telemetry/inspect.hh"

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/json.hh"
#include "util/numformat.hh"

namespace rcache
{
namespace
{

std::uint64_t getU64(const std::map<std::string, std::string> &obj,
                     const std::string &key)
{
    const auto it = obj.find(key);
    if (it == obj.end())
        throw std::runtime_error("missing field: " + key);
    unsigned long long v = 0;
    if (!parseU64Strict(it->second, v))
        throw std::runtime_error("bad integer in field: " + key);
    return v;
}

double getDouble(const std::map<std::string, std::string> &obj,
                 const std::string &key)
{
    const auto it = obj.find(key);
    if (it == obj.end())
        throw std::runtime_error("missing field: " + key);
    double v = 0;
    if (!parseDoubleStrict(it->second, v))
        throw std::runtime_error("bad number in field: " + key);
    return v;
}

std::string getString(const std::map<std::string, std::string> &obj,
                      const std::string &key)
{
    const auto it = obj.find(key);
    if (it == obj.end())
        throw std::runtime_error("missing field: " + key);
    return it->second;
}

std::map<std::string, std::string>
parseLineOrThrow(const std::string &line, std::uint64_t line_no)
{
    std::map<std::string, std::string> obj;
    std::string err;
    if (!parseJsonFlatObject(line, obj, &err))
        throw std::runtime_error("line " + std::to_string(line_no) +
                                 ": " + err);
    return obj;
}

} // namespace

TimelineSummary summarizeTimeline(std::istream &in)
{
    TimelineSummary s;
    // Per-core previous cumulative cycle count, for residency deltas.
    // A sweep's file holds many runs per core, one after another, and
    // each run's rows count cycles from zero again starting at seq 0.
    std::map<unsigned, std::uint64_t> last_cycles;
    double ipc_sum = 0;
    std::uint64_t ipc_rows = 0;
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        const auto obj = parseLineOrThrow(line, line_no);
        ++s.rows;
        const auto core = static_cast<unsigned>(getU64(obj, "core"));
        if (core + 1 > s.cores)
            s.cores = core + 1;
        const std::uint64_t insts = getU64(obj, "insts");
        const std::uint64_t cycles = getU64(obj, "cycles");
        if (insts > s.maxInsts)
            s.maxInsts = insts;
        if (cycles > s.maxCycles)
            s.maxCycles = cycles;
        if (getString(obj, "phase") == "warmup") {
            ++s.warmupRows;
        } else {
            ipc_sum += getDouble(obj, "ipc");
            ++ipc_rows;
        }
        const std::uint64_t prev =
            getU64(obj, "seq") == 0 ? 0 : last_cycles[core];
        if (cycles > prev)
            s.dl1SizeCycles[getU64(obj, "dl1_bytes")] += cycles - prev;
        last_cycles[core] = cycles;
    }
    if (ipc_rows)
        s.meanIpc = ipc_sum / static_cast<double>(ipc_rows);
    return s;
}

EventsSummary summarizeEvents(std::istream &in,
                              std::uint64_t oscillation_window)
{
    EventsSummary s;
    // Per job+cache+core stream: the last event's interval, and the
    // last resize's direction (+1 grow, -1 shrink) and interval.
    struct StreamState
    {
        std::uint64_t lastInterval = 0;
        int direction = 0;
        std::uint64_t resizeInterval = 0;
    };
    std::map<std::string, StreamState> streams;
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        const auto obj = parseLineOrThrow(line, line_no);
        ++s.events;
        const std::string reason = getString(obj, "reason");
        ++s.byReason[reason];
        s.totalFlushWritebacks += getU64(obj, "flush_writebacks");
        s.totalTransitionCycles += getU64(obj, "transition_cycles");

        const std::uint64_t interval = getU64(obj, "interval");
        // Intervals since the previous event on this stream were
        // spent at the pre-decision size. A stream is one run's cache
        // on one core: keyed by job (absent in a `run` file), cache
        // and core, and restarted when its interval does not increase
        // (the next run of a file that holds several).
        const auto job = obj.find("job");
        std::string key = job == obj.end() ? "" : job->second;
        key += '\n';
        key += getString(obj, "cache");
        key += '#';
        key += std::to_string(getU64(obj, "core"));
        StreamState &stream = streams[key];
        if (interval <= stream.lastInterval)
            stream = StreamState{};
        stream.lastInterval = interval;
        s.sizeIntervals[getU64(obj, "from_bytes")] += 1;

        const std::uint64_t from = getU64(obj, "from_level");
        const std::uint64_t to = getU64(obj, "to_level");
        if (from != to) {
            // Levels grow downward: level 0 is the largest size.
            const int direction = to < from ? +1 : -1;
            if (stream.direction != 0 && stream.direction != direction &&
                interval - stream.resizeInterval <= oscillation_window)
                ++s.oscillations;
            stream.direction = direction;
            stream.resizeInterval = interval;
        }
    }
    return s;
}

void printTimelineSummary(std::ostream &os, const TimelineSummary &s)
{
    os << "timeline: " << s.rows << " rows (" << s.warmupRows
       << " warmup) across " << s.cores
       << (s.cores == 1 ? " core" : " cores") << "\n"
       << "  max insts:  " << s.maxInsts << "\n"
       << "  max cycles: " << s.maxCycles << "\n"
       << "  mean interval ipc: " << shortestDouble(s.meanIpc) << "\n"
       << "  dl1 size residency (bytes: cycles):\n";
    for (const auto &[bytes, cycles] : s.dl1SizeCycles)
        os << "    " << bytes << ": " << cycles << "\n";
}

void printEventsSummary(std::ostream &os, const EventsSummary &s)
{
    os << "resize events: " << s.events << "\n"
       << "  decisions by reason:\n";
    for (const auto &[reason, count] : s.byReason)
        os << "    " << reason << ": " << count << "\n";
    os << "  size residency (bytes: intervals):\n";
    for (const auto &[bytes, intervals] : s.sizeIntervals)
        os << "    " << bytes << ": " << intervals << "\n";
    os << "  flush writebacks: " << s.totalFlushWritebacks << "\n"
       << "  transition cycles: " << s.totalTransitionCycles << "\n"
       << "  oscillations: " << s.oscillations << "\n";
}

} // namespace rcache
