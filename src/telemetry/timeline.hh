/**
 * @file
 * Interval timelines: periodic samples of IPC, miss rates, enabled
 * cache geometry, MSHR/writeback occupancy, and interval energy.
 *
 * A TimelineRecorder is a CoreProbe: attach it to a timing core (and,
 * in sampled runs, the functional warmup core) and it emits one
 * TimelineRow every sampleInterval() instructions. The recorder only
 * *reads* simulation state — cache counters, pool occupancy, the
 * core's live activity struct — and keeps private snapshots to
 * difference against, so attaching it cannot perturb results. In
 * particular it never calls Cache::accumulateEnabledTime (that would
 * reorder the byteCycles_ double summation and change end-of-run
 * energy in the last bits); interval byte-cycles are instead
 * approximated recorder-side as enabledSize-at-sample × cycle-delta,
 * exact whenever the interval contains no resize.
 */

#ifndef RCACHE_TELEMETRY_TIMELINE_HH
#define RCACHE_TELEMETRY_TIMELINE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "energy/energy_model.hh"
#include "telemetry/probe.hh"

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
 * Accumulates TimelineRows for one core. Window bookkeeping: cores
 * report instructions/cycles relative to the current run() window
 * (multi-core quanta, sampled detailed windows), so the recorder
 * detects window turnover — a warmup sample after detail samples, or
 * a detail sample whose instruction count did not increase — and
 * folds the finished window into its cumulative bases. This is exact
 * because every window's final sample fires at its last instruction.
 */
class TimelineRecorder final : public CoreProbe
{
  public:
    TimelineRecorder(const TimelineSources &sources,
                     std::uint64_t interval);

    std::uint64_t sampleInterval() const override { return interval_; }
    void onSample(std::uint64_t window_insts, std::uint64_t window_cycle,
                  const CoreActivity &window_activity) override;
    void onWarmupSample(std::uint64_t window_insts) override;

    const std::vector<TimelineRow> &rows() const { return rows_; }

    /** Move the accumulated rows out (recorder ends up empty but
     *  keeps its snapshots, so recording can continue). */
    std::vector<TimelineRow> takeRows();

  private:
    TimelineSources src_;
    std::uint64_t interval_;
    ProcessorEnergyModel energyModel_;

    std::vector<TimelineRow> rows_;
    std::uint64_t seq_ = 0;

    /** Completed-window totals. */
    std::uint64_t cumInsts_ = 0;
    std::uint64_t cumCycles_ = 0;

    /** Open detail window (values as of its latest sample). */
    bool detailOpen_ = false;
    std::uint64_t lastDetailInsts_ = 0;
    std::uint64_t lastDetailCycle_ = 0;
    CoreActivity lastDetailActivity_;

    /** Open warmup window. */
    bool warmupOpen_ = false;
    std::uint64_t lastWarmupInsts_ = 0;

    /** Counter snapshots from the previous sample of any kind. */
    CacheActivity lastIl1_;
    CacheActivity lastDl1_;
    std::uint64_t lastL2Accesses_ = 0;
    std::uint64_t lastL2Misses_ = 0;
    std::uint64_t lastMem_ = 0;

    /** Interval counter deltas captured alongside a row. */
    struct IntervalCaches
    {
        CacheActivity il1;
        CacheActivity dl1;
        std::uint64_t l2Accesses = 0;
        std::uint64_t mem = 0;
    };

    void closeWarmupWindow();
    TimelineRow baseRow(const char *phase, IntervalCaches &deltas);
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
