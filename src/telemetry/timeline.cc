/** @file TimelineRecorder sampling logic and row serialization. */

#include "telemetry/timeline.hh"

#include <utility>

#include "util/json.hh"
#include "util/numformat.hh"

namespace rcache
{

TimelineRecorder::TimelineRecorder(const TimelineSources &sources,
                                   std::uint64_t interval)
    : src_(sources), interval_(interval ? interval : 1),
      energyModel_(sources.energy ? *sources.energy : EnergyParams{}),
      // The caches may carry counts from before this recorder
      // existed; the first interval starts here.
      counters_(HierarchyActivity::of(*sources.hier))
{
}

std::vector<TimelineRow> TimelineRecorder::takeRows()
{
    return std::exchange(rows_, {});
}

void TimelineRecorder::closeWindow()
{
    cumInsts_ += window_.insts;
    cumCycles_ += window_.cycles;
    window_ = CoreActivity{};
}

/**
 * Shared per-sample capture. The counter snapshot advances as a side
 * effect (so warmup traffic never lands in the next detail interval),
 * and the deltas come back via @p delta for the energy computation.
 * Their byteCycles fields are stale — see sample() for how interval
 * byte-cycles are approximated.
 */
TimelineRow TimelineRecorder::baseRow(const char *phase,
                                      HierarchyActivity &delta)
{
    const Hierarchy &h = *src_.hier;
    TimelineRow row;
    row.core = h.coreId();
    row.seq = seq_++;
    row.phase = phase;

    const HierarchyActivity now = HierarchyActivity::of(h);
    delta = now - counters_;
    counters_ = now;
    row.il1MissRate = delta.il1.missRatio();
    row.dl1MissRate = delta.dl1.missRatio();
    row.l2MissRate = delta.l2Accesses
                         ? static_cast<double>(delta.l2Misses) /
                               delta.l2Accesses
                         : 0.0;

    const Cache &il1 = h.il1();
    const Cache &dl1 = h.dl1();
    row.il1Ways = il1.enabledWays();
    row.il1Sets = il1.enabledSets();
    row.il1Bytes = il1.enabledSize();
    row.dl1Ways = dl1.enabledWays();
    row.dl1Sets = dl1.enabledSets();
    row.dl1Bytes = dl1.enabledSize();
    return row;
}

void TimelineRecorder::sampleWarmup(std::uint64_t window_insts)
{
    HierarchyActivity delta;
    TimelineRow row = baseRow("warmup", delta);
    row.insts = cumInsts_ + window_insts;
    row.cycles = cumCycles_;
    rows_.push_back(std::move(row));
    window_.insts = window_insts;
}

void TimelineRecorder::sample(const CoreActivity &window)
{
    CoreActivity interval;
    interval.outOfOrder = window.outOfOrder;
    interval.insts = window.insts - window_.insts;
    interval.cycles = window.cycles - window_.cycles;
    interval.intOps = window.intOps - window_.intOps;
    interval.fpOps = window.fpOps - window_.fpOps;
    interval.loads = window.loads - window_.loads;
    interval.stores = window.stores - window_.stores;
    interval.branches = window.branches - window_.branches;
    interval.mispredicts = window.mispredicts - window_.mispredicts;

    HierarchyActivity delta;
    TimelineRow row = baseRow("detail", delta);
    row.insts = cumInsts_ + window.insts;
    row.cycles = cumCycles_ + window.cycles;
    row.ipc = interval.cycles ? static_cast<double>(interval.insts) /
                                    interval.cycles
                              : 0.0;
    if (src_.timingCore) {
        row.mshrBusy = src_.timingCore->mshrs().busyAt(window.cycles);
        row.wbBusy =
            src_.timingCore->writebackBuffer().busyAt(window.cycles);
    }

    if (src_.energy) {
        // Interval byte-cycles approximated as enabled-size-at-sample
        // × interval cycles (exact when the interval saw no resize).
        // Reading the true integral would require
        // Cache::accumulateEnabledTime, which mutates byteCycles_'s
        // double-summation order and thus end-of-run energy bytes.
        delta.il1.byteCycles =
            static_cast<double>(src_.hier->il1().enabledSize()) *
            interval.cycles;
        delta.dl1.byteCycles =
            static_cast<double>(src_.hier->dl1().enabledSize()) *
            interval.cycles;
        row.energy = energyModel_
                         .compute(interval, delta.il1,
                                  src_.il1ExtraTagBits, delta.dl1,
                                  src_.dl1ExtraTagBits,
                                  static_cast<double>(delta.l2Accesses),
                                  src_.hier->l2().geometry().size,
                                  static_cast<double>(delta.memAccesses))
                         .total();
    }

    rows_.push_back(std::move(row));
    window_ = window;
}

void writeTimelineJsonl(std::ostream &os,
                        const std::vector<TimelineRow> &rows,
                        const std::string &label)
{
    for (const TimelineRow &r : rows) {
        os << '{';
        if (!label.empty()) {
            os << "\"job\":";
            writeJsonString(os, label);
            os << ',';
        }
        os << "\"core\":" << r.core << ",\"seq\":" << r.seq
           << ",\"phase\":\"" << r.phase << '"'
           << ",\"insts\":" << r.insts << ",\"cycles\":" << r.cycles
           << ",\"ipc\":" << shortestDouble(r.ipc)
           << ",\"il1_miss_rate\":" << shortestDouble(r.il1MissRate)
           << ",\"dl1_miss_rate\":" << shortestDouble(r.dl1MissRate)
           << ",\"l2_miss_rate\":" << shortestDouble(r.l2MissRate)
           << ",\"il1_ways\":" << r.il1Ways
           << ",\"il1_sets\":" << r.il1Sets
           << ",\"il1_bytes\":" << r.il1Bytes
           << ",\"dl1_ways\":" << r.dl1Ways
           << ",\"dl1_sets\":" << r.dl1Sets
           << ",\"dl1_bytes\":" << r.dl1Bytes
           << ",\"mshr_busy\":" << r.mshrBusy
           << ",\"wb_busy\":" << r.wbBusy
           << ",\"energy\":" << shortestDouble(r.energy) << "}\n";
    }
}

} // namespace rcache
