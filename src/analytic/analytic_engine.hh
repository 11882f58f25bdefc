/**
 * @file
 * Single-pass analytic miss-ratio engine (EngineMode::Analytic).
 *
 * One AnalyticPass streams a workload exactly once and prices *every*
 * static L1 geometry a scenario axis can ask for, by combining three
 * per-event consumers:
 *
 *  - per-set stack-distance profiles (analytic/stack_profile.hh), one
 *    per (side, enabled-set-count): exact LRU hit/miss counts for
 *    every sets x ways geometry the resizing organizations offer;
 *  - full-geometry reference contexts (real Cache + Hierarchy per
 *    distinct geometry/latency tuple): exact baseline L2/memory/
 *    writeback traffic and the L2-hit vs memory split of each side's
 *    misses, used to scale downstream traffic for resized geometries;
 *  - the instruction-mix tallies the energy model charges per event,
 *    mispredicts included.
 *
 * The pass reads the *timing cores'* reference stream, not an
 * idealized one: a FrontEnd (cpu/front_end.hh) of the stream's shape
 * marks the same il1 probes and mispredicts it marks for a timing
 * run (in-block re-probes included — they are real Cache accesses in
 * the detailed model and are fed to the profiles the same way), and
 * data accesses issue in program order. With true-LRU replacement and
 * a static geometry this makes the per-geometry L1 access and miss
 * counts *equal* to the detailed engine's, which tests/analytic/
 * pins.
 *
 * What is modelled rather than measured: cycles come from a
 * calibrated CPI model (miss exposure x miss penalty), writeback and
 * memory traffic for non-baseline geometries scale from the baseline
 * context's ratios, and resize dynamics do not exist (the analytic
 * engine prices static geometries only — Strategy::Dynamic is
 * rejected, as are multi-core configs and non-LRU replacement).
 *
 * A sweep's analytic jobs run on SweepRunner like every other job:
 * laneGroups keys them by streamKey, uncapped, so each lane group is
 * one pass that prices every job of its stream (runAnalyticGroup),
 * and a side=both cell's combined rerun prices from the pass of the
 * group that released it. executeRunJob's analytic path is a group
 * of one (runAnalyticJob).
 */

#ifndef RCACHE_ANALYTIC_ANALYTIC_ENGINE_HH
#define RCACHE_ANALYTIC_ANALYTIC_ENGINE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytic/stack_profile.hh"
#include "runner/sweep_runner.hh"
#include "sim/system.hh"

namespace rcache
{

/** See file comment. */
class AnalyticPass
{
  public:
    /** Exact baseline (full-geometry) counts of one registered
     *  configuration, plus the hierarchy latencies pricing needs. */
    struct BaselineStats
    {
        std::uint64_t il1Accesses = 0;
        std::uint64_t il1Misses = 0;
        std::uint64_t dl1Accesses = 0;
        std::uint64_t dl1Misses = 0;
        std::uint64_t dl1Writebacks = 0;
        std::uint64_t l2Accesses = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t memAccesses = 0;
        /** How many of each side's L1 misses hit in L2. */
        std::uint64_t il1MissL2Hits = 0;
        std::uint64_t dl1MissL2Hits = 0;
        /** Miss penalties beyond the L1 access, in cycles. */
        std::uint64_t l2HitPenalty = 0;
        std::uint64_t memPenalty = 0;
    };

    /**
     * @param profile workload to stream (once, at run())
     * @param insts   stream length in instructions
     */
    AnalyticPass(const BenchmarkProfile &profile, std::uint64_t insts);
    ~AnalyticPass();

    AnalyticPass(const AnalyticPass &) = delete;
    AnalyticPass &operator=(const AnalyticPass &) = delete;

    /**
     * Jobs whose configs share a stream key produce identical event
     * streams and may share one pass; anything stream-relevant
     * (workload, length, frontEndKey, the d-cache block size) is in
     * the key, pure pricing parameters (sizes, associativities,
     * latencies, energy, backend widths) are not.
     */
    static std::string streamKey(const SystemConfig &cfg,
                                 const std::string &workload,
                                 std::uint64_t insts);

    /**
     * Register one configuration before run(): records its baseline
     * geometry/latency tuple (if new) and extends the profile
     * requirements to every (sets, ways) any organization's schedule
     * offers for its L1 geometries. Fatal after run(), or if @p cfg's
     * stream key differs from a previously registered one.
     */
    void addConfig(const SystemConfig &cfg);

    /**
     * Stream the workload once through every registered consumer.
     * The baseline contexts (two L1s and an L2 each) exist only while
     * it streams; only their BaselineStats outlive run().
     */
    void run();
    bool ran() const { return ran_; }

    /** @name Post-run queries (fatal before run()) */
    /// @{
    /** L1 access counts; geometry-independent on each side. */
    std::uint64_t il1Accesses() const;
    std::uint64_t dl1Accesses() const;
    /** Exact LRU miss count at an enabled (sets, ways) geometry. The
     *  geometry must be covered by a registered config's schedules. */
    std::uint64_t il1MissesAt(std::uint64_t sets, unsigned ways) const;
    std::uint64_t dl1MissesAt(std::uint64_t sets, unsigned ways) const;
    /** Instruction-mix tallies (cycles 0, outOfOrder unset — the
     *  pricing step owns both). */
    const CoreActivity &mix() const;
    /** Baseline stats of a registered configuration. */
    const BaselineStats &baseline(const SystemConfig &cfg) const;
    /** Can this pass price @p job: has it run over @p job's stream
     *  with a baseline context for its configuration? */
    bool covers(const RunJob &job) const;
    /// @}

  private:
    struct Context;

    void il1Event(Addr pc);
    void dl1Event(Addr addr, bool is_write);
    const StackDistanceProfile &
    profileFor(const std::vector<StackDistanceProfile> &side,
               std::uint64_t sets, unsigned ways) const;

    BenchmarkProfile profile_;
    std::uint64_t insts_;
    bool ran_ = false;

    /** Stream-shape parameters, locked by the first addConfig(). */
    FrontEndShape frontEnd_;
    unsigned dl1BlockBits_ = 0;
    std::string key_;

    /** Per-side profile requirements: enabled sets -> deepest ways. */
    std::map<std::uint64_t, unsigned> il1Req_;
    std::map<std::uint64_t, unsigned> dl1Req_;
    std::vector<StackDistanceProfile> il1Profiles_;
    std::vector<StackDistanceProfile> dl1Profiles_;

    /** Registered baseline configurations by geometry/latency
     *  tuple. */
    std::map<std::string, SystemConfig> configs_;
    /** Their contexts, built and torn down by run(). */
    std::map<std::string, std::unique_ptr<Context>> contexts_;
    /** What run() measured at each baseline. */
    std::map<std::string, BaselineStats> baselines_;

    CoreActivity mix_;
};

/**
 * Price one analytic design point from a completed pass: resolve the
 * job's static geometries through its organizations' schedules, read
 * exact access/miss counts from the profiles, scale writeback/L2/
 * memory traffic from the job's baseline context, model cycles with
 * the calibrated CPI model, and charge the energy model with
 * explicit activity totals. Pure function of (job, pass); the pass
 * must have seen addConfig(job.cfg) before it ran. Fatal for
 * non-analytic jobs, multi-core configs, or Strategy::Dynamic.
 */
RunResult priceAnalyticJob(const RunJob &job, const AnalyticPass &pass);

/**
 * Price @p members, analytic jobs of one stream key (a lane group),
 * from one pass: @p pass when it covers every member (the pass of the
 * group that released them), else a fresh pass that registers each
 * member's configuration and streams once. On return @p pass is the
 * pass they were priced from.
 * @return their results, in member order
 */
std::vector<RunResult>
runAnalyticGroup(const std::vector<const RunJob *> &members,
                 std::shared_ptr<const AnalyticPass> &pass);

/** executeRunJob's analytic path: a group of one on a fresh pass. */
RunResult runAnalyticJob(const RunJob &job);

} // namespace rcache

#endif // RCACHE_ANALYTIC_ANALYTIC_ENGINE_HH
