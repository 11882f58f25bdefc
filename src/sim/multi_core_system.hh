/**
 * @file
 * MultiCoreSystem: N single-core pipelines, N private (possibly
 * resizable) L1 hierarchies, one shared L2 — the multi-programmed
 * workload-mix system.
 *
 * Each core runs its own workload in a private address space (a
 * per-core offset in the high address bits keeps the streams disjoint
 * — multi-programmed, no sharing, no coherence), with private L1s and
 * independent resize controllers, while all L2 traffic funnels into
 * one SharedL2 (cache/shared_l2.hh) that attributes hits, misses,
 * memory traffic, and capacity occupancy per core. Contention is
 * therefore modelled at the capacity/conflict level: core A's misses
 * evict core B's L2 blocks. L2 bandwidth and MSHR contention between
 * cores are not modelled (each core keeps its private timing pools),
 * matching the single-core model's purely functional L2.
 *
 * Each core is a CoreLane (sim/system.hh) and runLockstep hands the
 * cores their turns; this class only builds the lanes over one
 * SharedL2, opens each core's stream, and aggregates the lanes'
 * results.
 *
 * Determinism contract: cores advance in a fixed round-robin
 * interleave — core 0 takes a turn, then core 1, ... until every core
 * has retired its share — so the shared-L2 access order, and with it
 * every counter and energy figure, is a pure function of the
 * configuration and the workload mix. Results are bit-reproducible
 * across runs, --jobs values, shards, and resume points, exactly like
 * single-core runs. A full-detail turn measures one quantum of
 * cfg.quantumInsts instructions; a sampled turn (EngineMode::Sampled)
 * runs one whole fast-forward/warmup/detailed period of the core's
 * stream. Either way the turn's measured window restarts the core's
 * timing machinery (warm cache/predictor/controller state carries
 * over; pipeline state does not), so a core's cycle count is the sum
 * of its window cycles, and each core extrapolates over its own
 * measured-instruction count.
 *
 * Whole-system metrics in the aggregate result follow the
 * multi-programmed convention: instructions and energy sum over
 * cores; the delay is the makespan (the slowest core's cycles); the
 * shared L2's leakage is charged once over the makespan, while each
 * core's own result charges it over that core's cycles (so per-core
 * EDPs are self-contained but their energies do not sum exactly to
 * the aggregate — the aggregate is authoritative).
 */

#ifndef RCACHE_SIM_MULTI_CORE_SYSTEM_HH
#define RCACHE_SIM_MULTI_CORE_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/shared_l2.hh"
#include "sim/system.hh"
#include "workload/profiles.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

/** Everything a multi-core run produces. */
struct MultiCoreResult
{
    /**
     * One RunResult per core, in core order: that core's private
     * counters, its attributed share of the shared L2/memory traffic,
     * and an energy breakdown charging the shared L2 over the core's
     * own cycles (see the file comment's attribution convention).
     */
    std::vector<RunResult> perCore;

    /**
     * The whole-system view the sweep machinery reduces on: summed
     * instructions/activity/energy, makespan cycles, capacity-summed
     * average L1 sizes, access-weighted miss ratios. aggregate.edp()
     * is total energy x makespan.
     */
    RunResult aggregate;

    /** Per-core shared-L2 attribution at end of run. */
    std::vector<SharedL2CoreStats> l2PerCore;
    /** Sum of l2PerCore (== the shared cache's own totals). */
    SharedL2CoreStats l2Totals;
};

/** See file comment. */
class MultiCoreSystem
{
  public:
    /** @param cfg requires cfg.cores >= 2 (single-core runs keep the
     *         exact semantics of System; see executeRunJob). */
    explicit MultiCoreSystem(const SystemConfig &cfg);

    /**
     * Run @p insts_per_core instructions on every core. Core i runs
     * the profile mix[i % mix.size()] in a private address space
     * (openStreams). Every core applies the same resize setups (to
     * its own private controllers). Single use.
     */
    MultiCoreResult run(const std::vector<BenchmarkProfile> &mix,
                        std::uint64_t insts_per_core,
                        const ResizeSetup &il1_setup = {},
                        const ResizeSetup &dl1_setup = {},
                        const EngineSpec &engine = {},
                        RunTelemetry *telemetry = nullptr);

    /** One stream per core slot. */
    using Streams = std::vector<std::unique_ptr<Workload>>;

    /** The streams @p cores cores running @p mix read: core i's is
     *  mix[i % mix.size()], shifted to addressSpaceBase(i). */
    static Streams openStreams(const std::vector<BenchmarkProfile> &mix,
                               unsigned cores);

    /** @name One member of a lockstep group
     * run() is start(), runLockstep over openStreams(), then
     * finish(): start() returns the lanes to feed, one per core
     * (arguments as run()'s), and finish() reads each core's
     * workload name from @p streams.
     */
    /// @{
    std::vector<CoreLane *> start(const ResizeSetup &il1_setup,
                                  const ResizeSetup &dl1_setup,
                                  const EngineSpec &engine,
                                  RunTelemetry *telemetry);
    MultiCoreResult finish(const std::vector<BenchmarkProfile> &mix,
                           const Streams &streams,
                           std::uint64_t insts_per_core);
    /// @}

    const SystemConfig &config() const { return cfg_; }
    SharedL2 &sharedL2() { return l2_; }

    /**
     * Address-space offset of core @p i: streams are shifted into
     * disjoint high-address windows (bit 44 and up), leaving the
     * index/alias structure of every stream untouched.
     */
    static Addr addressSpaceBase(unsigned core)
    {
        return static_cast<Addr>(core) << 44;
    }

  private:
    SystemConfig cfg_;
    /** Every cache's frames: the shared L2's, then each core's L1s. */
    FrameMapping frames_;
    SharedL2 l2_;
    std::vector<std::unique_ptr<CoreLane>> lanes_;
    EngineSpec engine_;
};

} // namespace rcache

#endif // RCACHE_SIM_MULTI_CORE_SYSTEM_HH
