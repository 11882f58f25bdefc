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
      energyModel_(sources.energy ? *sources.energy : EnergyParams{})
{
    // Baseline snapshots: the attached caches may carry counts from
    // before this recorder existed; start the first interval here.
    const Hierarchy &h = *src_.hier;
    lastIl1_ = CacheActivity::of(h.il1());
    lastDl1_ = CacheActivity::of(h.dl1());
    lastL2Accesses_ = h.l2Accesses();
    lastL2Misses_ = h.l2Misses();
    lastMem_ = h.memReads() + h.memWrites();
}

std::vector<TimelineRow> TimelineRecorder::takeRows()
{
    return std::exchange(rows_, {});
}

void TimelineRecorder::closeWarmupWindow()
{
    if (!warmupOpen_)
        return;
    cumInsts_ += lastWarmupInsts_;
    warmupOpen_ = false;
    lastWarmupInsts_ = 0;
}

/**
 * Shared per-sample capture: interval cache/L2/memory deltas (the
 * snapshots advance as a side effect, and come back via @p deltas for
 * the energy computation), current enabled geometry, and the row
 * skeleton. The returned deltas' byteCycles fields are stale — see
 * onSample for how interval byte-cycles are approximated.
 */
TimelineRow TimelineRecorder::baseRow(const char *phase,
                                      IntervalCaches &deltas)
{
    const Hierarchy &h = *src_.hier;
    TimelineRow row;
    row.core = h.coreId();
    row.seq = seq_++;
    row.phase = phase;

    const Cache &il1 = h.il1();
    const Cache &dl1 = h.dl1();
    const CacheActivity il1_now = CacheActivity::of(il1);
    const CacheActivity dl1_now = CacheActivity::of(dl1);
    deltas.il1 = il1_now - lastIl1_;
    deltas.dl1 = dl1_now - lastDl1_;
    row.il1MissRate = deltas.il1.missRatio();
    row.dl1MissRate = deltas.dl1.missRatio();
    lastIl1_ = il1_now;
    lastDl1_ = dl1_now;

    const std::uint64_t l2a = h.l2Accesses();
    const std::uint64_t l2m = h.l2Misses();
    deltas.l2Accesses = l2a - lastL2Accesses_;
    row.l2MissRate =
        deltas.l2Accesses
            ? static_cast<double>(l2m - lastL2Misses_) /
                  deltas.l2Accesses
            : 0.0;
    lastL2Accesses_ = l2a;
    lastL2Misses_ = l2m;

    const std::uint64_t mem = h.memReads() + h.memWrites();
    deltas.mem = mem - lastMem_;
    lastMem_ = mem;

    row.il1Ways = il1.enabledWays();
    row.il1Sets = il1.enabledSets();
    row.il1Bytes = il1.enabledSize();
    row.dl1Ways = dl1.enabledWays();
    row.dl1Sets = dl1.enabledSets();
    row.dl1Bytes = dl1.enabledSize();
    return row;
}

void TimelineRecorder::onWarmupSample(std::uint64_t window_insts)
{
    // A warmup sample means any open detail window is finished.
    if (detailOpen_) {
        cumInsts_ += lastDetailInsts_;
        cumCycles_ += lastDetailCycle_;
        detailOpen_ = false;
        lastDetailInsts_ = 0;
        lastDetailCycle_ = 0;
        lastDetailActivity_ = CoreActivity{};
    }
    // A non-increasing count means a new warmup window began.
    if (warmupOpen_ && window_insts <= lastWarmupInsts_)
        closeWarmupWindow();

    // Snapshots still advance across warmup, else the first detail
    // interval would absorb the warmup's cache traffic.
    IntervalCaches deltas;
    TimelineRow row = baseRow("warmup", deltas);
    row.insts = cumInsts_ + window_insts;
    row.cycles = cumCycles_;
    rows_.push_back(std::move(row));

    warmupOpen_ = true;
    lastWarmupInsts_ = window_insts;
}

void TimelineRecorder::onSample(std::uint64_t window_insts,
                                std::uint64_t window_cycle,
                                const CoreActivity &window_activity)
{
    closeWarmupWindow();
    if (detailOpen_ && window_insts <= lastDetailInsts_) {
        // New detail window (multi-core quantum / sampled window).
        cumInsts_ += lastDetailInsts_;
        cumCycles_ += lastDetailCycle_;
        detailOpen_ = false;
        lastDetailInsts_ = 0;
        lastDetailCycle_ = 0;
        lastDetailActivity_ = CoreActivity{};
    }

    const std::uint64_t d_insts = window_insts - lastDetailInsts_;
    const std::uint64_t d_cycles = window_cycle - lastDetailCycle_;

    CoreActivity interval;
    interval.outOfOrder = window_activity.outOfOrder;
    interval.insts = d_insts;
    interval.cycles = d_cycles;
    interval.intOps =
        window_activity.intOps - lastDetailActivity_.intOps;
    interval.fpOps = window_activity.fpOps - lastDetailActivity_.fpOps;
    interval.loads = window_activity.loads - lastDetailActivity_.loads;
    interval.stores =
        window_activity.stores - lastDetailActivity_.stores;
    interval.branches =
        window_activity.branches - lastDetailActivity_.branches;
    interval.mispredicts =
        window_activity.mispredicts - lastDetailActivity_.mispredicts;

    IntervalCaches deltas;
    TimelineRow row = baseRow("detail", deltas);
    row.insts = cumInsts_ + window_insts;
    row.cycles = cumCycles_ + window_cycle;
    row.ipc =
        d_cycles ? static_cast<double>(d_insts) / d_cycles : 0.0;
    if (src_.timingCore) {
        row.mshrBusy = src_.timingCore->mshrs().busyAt(window_cycle);
        row.wbBusy =
            src_.timingCore->writebackBuffer().busyAt(window_cycle);
    }

    if (src_.energy) {
        // Interval byte-cycles approximated as enabled-size-at-sample
        // × interval cycles (exact when the interval saw no resize).
        // Reading the true integral would require
        // Cache::accumulateEnabledTime, which mutates byteCycles_'s
        // double-summation order and thus end-of-run energy bytes.
        deltas.il1.byteCycles =
            static_cast<double>(src_.hier->il1().enabledSize()) *
            d_cycles;
        deltas.dl1.byteCycles =
            static_cast<double>(src_.hier->dl1().enabledSize()) *
            d_cycles;
        row.energy = energyModel_
                         .compute(interval, deltas.il1,
                                  src_.il1ExtraTagBits, deltas.dl1,
                                  src_.dl1ExtraTagBits,
                                  static_cast<double>(deltas.l2Accesses),
                                  src_.hier->l2().geometry().size,
                                  static_cast<double>(deltas.mem))
                         .total();
    }

    rows_.push_back(std::move(row));

    detailOpen_ = true;
    lastDetailInsts_ = window_insts;
    lastDetailCycle_ = window_cycle;
    lastDetailActivity_ = window_activity;
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
