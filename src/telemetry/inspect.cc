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
        const std::uint64_t prev = last_cycles[core];
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
    // Last resize direction per core+cache stream: +1 grow, -1
    // shrink, with the interval it happened at.
    struct LastResize
    {
        int direction = 0;
        std::uint64_t interval = 0;
    };
    std::map<std::string, LastResize> last;
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
        // spent at the pre-decision size. Streams are keyed by
        // core+cache; events arrive interval-ordered per stream.
        const std::string stream =
            getString(obj, "cache") + "#" +
            std::to_string(getU64(obj, "core"));
        s.sizeIntervals[getU64(obj, "from_bytes")] += 1;

        const std::uint64_t from = getU64(obj, "from_level");
        const std::uint64_t to = getU64(obj, "to_level");
        if (from != to) {
            // Levels grow downward: level 0 is the largest size.
            const int direction = to < from ? +1 : -1;
            LastResize &prev = last[stream];
            if (prev.direction != 0 && prev.direction != direction &&
                interval - prev.interval <= oscillation_window)
                ++s.oscillations;
            prev.direction = direction;
            prev.interval = interval;
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
