/**
 * @file
 * Interval timelines: periodic samples of IPC, miss rates, enabled
 * cache geometry, MSHR/writeback occupancy, and interval energy.
 *
 * A TimelineRecorder turns one core's samples into TimelineRows. The
 * CoreLane that feeds the core (sim/system.hh) decides where samples
 * fall: after every interval()-th instruction of each window, and at
 * the window's last instruction. The recorder only *reads* simulation
 * state — cache counters, pool occupancy, the core's window activity
 * — and keeps a private counter snapshot to difference against, so
 * recording cannot perturb results. In particular it never calls
 * Cache::accumulateEnabledTime (that would reorder the byteCycles_
 * double summation and change end-of-run energy in the last bits);
 * interval byte-cycles are instead approximated recorder-side as
 * enabledSize-at-sample × cycle-delta, exact whenever the interval
 * contains no resize.
 */

#ifndef RCACHE_TELEMETRY_TIMELINE_HH
#define RCACHE_TELEMETRY_TIMELINE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "energy/energy_model.hh"

namespace rcache
{

/** One timeline sample. Cumulative fields span the whole run
 *  (including warmup); rate fields cover only the sampling interval
 *  that ends at this row. */
struct TimelineRow
{
    unsigned core = 0;
    /** Row ordinal for this core (0 = first sample). */
    std::uint64_t seq = 0;
    /** "detail" (timed execution) or "warmup" (functional). */
    std::string phase;
    /** Instructions retired since the start of the run. */
    std::uint64_t insts = 0;
    /** Timed cycles since the start of the run (warmup adds none). */
    std::uint64_t cycles = 0;
    /** Interval IPC (0 for warmup rows). */
    double ipc = 0;
    double il1MissRate = 0;
    double dl1MissRate = 0;
    double l2MissRate = 0;
    unsigned il1Ways = 0;
    std::uint64_t il1Sets = 0;
    std::uint64_t il1Bytes = 0;
    unsigned dl1Ways = 0;
    std::uint64_t dl1Sets = 0;
    std::uint64_t dl1Bytes = 0;
    /** MSHR / writeback-buffer slots busy at the sample cycle
     *  (0 for warmup rows). */
    unsigned mshrBusy = 0;
    unsigned wbBusy = 0;
    /** Interval energy in joules (0 for warmup rows). */
    double energy = 0;

    bool operator==(const TimelineRow &o) const = default;
};

/** Read-only taps into one core's slice of the system. */
struct TimelineSources
{
    /** The core's id, L1s, L2 share, and memory traffic
     *  (Hierarchy::l2Accesses tells an owned L2 from a shared one). */
    const Hierarchy *hier = nullptr;
    unsigned il1ExtraTagBits = 0;
    unsigned dl1ExtraTagBits = 0;
    /** Timing core, for MSHR / writeback occupancy. */
    const Core *timingCore = nullptr;
    const EnergyParams *energy = nullptr;
};

/**
 * Accumulates TimelineRows for one core. Its caller reports the open
 * window's progress at each sample and closes each window after the
 * sample at its last instruction; the recorder folds a closed window
 * into the run's cumulative instructions and cycles.
 */
class TimelineRecorder
{
  public:
    TimelineRecorder(const TimelineSources &sources,
                     std::uint64_t interval);

    /** Instructions between samples (> 0). */
    std::uint64_t interval() const { return interval_; }

    /** A sample of the open measured window: @p window is its
     *  activity so far, cycles included. */
    void sample(const CoreActivity &window);
    /** A sample of the open warmup window after @p window_insts. */
    void sampleWarmup(std::uint64_t window_insts);
    /** The open window ended at its latest sample. */
    void closeWindow();

    /** Move the accumulated rows out (recorder ends up empty but
     *  keeps its snapshots, so recording can continue). */
    std::vector<TimelineRow> takeRows();

  private:
    TimelineSources src_;
    std::uint64_t interval_;
    ProcessorEnergyModel energyModel_;

    std::vector<TimelineRow> rows_;
    std::uint64_t seq_ = 0;

    /** Closed-window totals. */
    std::uint64_t cumInsts_ = 0;
    std::uint64_t cumCycles_ = 0;
    /** The open window as of its latest sample (a warmup window has
     *  instructions only). */
    CoreActivity window_;
    /** Counters as of the latest sample of any kind. */
    HierarchyActivity counters_;

    /** The row skeleton: the counter deltas since the latest sample
     *  (returned in @p delta) and the enabled geometry. */
    TimelineRow baseRow(const char *phase, HierarchyActivity &delta);
};

/**
 * Append @p rows to @p os as JSONL, deterministic bytes. @p label,
 * when non-empty, becomes a "job" field on every line (sweeps share
 * one file across design points).
 */
void writeTimelineJsonl(std::ostream &os,
                        const std::vector<TimelineRow> &rows,
                        const std::string &label = "");

} // namespace rcache

#endif // RCACHE_TELEMETRY_TIMELINE_HH
