/**
 * @file
 * System: one simulated processor+memory configuration of any core
 * count, run once.
 *
 * A System is cfg.cores CoreLanes (below). A single core's lane owns
 * its L2: the core model, the two (possibly resizable) L1s, the L2,
 * the dynamic resize controllers, and the energy model. It is
 * single-use: construct, run once, read the result. executeRunJob
 * (runner/sweep_runner.hh) constructs one System per design point,
 * which is how the paper's profiling methodology works anyway.
 *
 * Several cores are the multi-programmed workload-mix system: each
 * core runs its own workload in a private address space (a per-core
 * offset in the high address bits keeps the streams disjoint, see
 * openStreams: no sharing, no coherence), with private L1s and
 * independent resize controllers, while all L2 traffic funnels into
 * one SharedL2 (cache/shared_l2.hh) that attributes hits, misses,
 * memory traffic, and capacity occupancy per core. Contention is
 * therefore modelled at the capacity/conflict level: core A's misses
 * evict core B's L2 blocks. L2 bandwidth and MSHR contention between
 * cores are not modelled (each core keeps its private timing pools),
 * matching the single-core model's purely functional L2.
 *
 * Determinism contract: cores advance in a fixed round-robin
 * interleave (runLockstep below): core 0 takes a turn, then core 1,
 * ... until every core has retired its share, so the shared-L2 access
 * order, and with it every counter and energy figure, is a pure
 * function of the configuration and the workload mix. A full-detail
 * turn measures one quantum of cfg.quantumInsts instructions (a
 * single core's turn is its whole run); a sampled turn runs one whole
 * fast-forward/warmup/detailed period of the core's stream. Either
 * way the turn's measured window restarts the core's timing machinery
 * (warm cache/controller state carries over; pipeline state does
 * not), so a core's cycle count is the sum of its window cycles, and
 * each core extrapolates over its own measured-instruction count.
 *
 * Whole-system metrics in a multi-core result follow the
 * multi-programmed convention: instructions and energy sum over
 * cores; the delay is the makespan (the slowest core's cycles); the
 * shared L2's leakage is charged once over the makespan, while each
 * core's own result charges it over that core's cycles (so per-core
 * EDPs are self-contained but their energies do not sum exactly to
 * the aggregate; the aggregate is authoritative).
 *
 * CoreLane is one core's slice of a run, fed instruction segments;
 * runLockstep (below) is the one loop behind every timing run. It
 * drives the lanes of a lockstep group: runs that read the same
 * streams in the same periods, so one pass over each stream feeds
 * them all. System::run is a group of one, the sweep runner
 * (runner/sweep_runner.hh) builds larger ones, and full-detail and
 * sampled runs differ only in the periods the loop hands out.
 */

#ifndef RCACHE_SIM_SYSTEM_HH
#define RCACHE_SIM_SYSTEM_HH

#include <memory>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/shared_l2.hh"
#include "core/dynamic_controller.hh"
#include "core/resizable_cache.hh"
#include "cpu/core.hh"
#include "cpu/front_end.hh"
#include "energy/energy_model.hh"
#include "sim/engine.hh"
#include "workload/profiles.hh"
#include "workload/workload.hh"

namespace rcache
{

class FunctionalCore;
class TimelineRecorder;
struct RunTelemetry;

/** Which CPU timing model to use. */
enum class CoreModel
{
    /** 4-wide OoO, non-blocking d-cache (base config, Table 2). */
    OutOfOrder,
    /** 4-wide in-order, blocking d-cache (Sec 4.2 contrast). */
    InOrder,
};

/** Printable core model name. */
std::string coreModelName(CoreModel m);

/** Full system configuration. */
struct SystemConfig
{
    CoreModel coreModel = CoreModel::OutOfOrder;
    CoreParams core;
    CacheGeometry il1{32 * 1024, 2, 32, 1024};
    CacheGeometry dl1{32 * 1024, 2, 32, 1024};
    CacheGeometry l2{512 * 1024, 4, 32, 8192};
    HierarchyParams lat;
    Organization il1Org = Organization::None;
    Organization dl1Org = Organization::None;
    /**
     * L1 replacement policy, by registry name (replacement.hh): both
     * L1s of every core use it; the shared L2 stays LRU. Seeded
     * policies derive their streams from each cache's identity, so a
     * lane's il1 and dl1 (and the same cache on different cores)
     * never replay one another's decisions.
     */
    std::string policy = "lru";
    EnergyParams energy = EnergyParams::defaults018um();

    /** @name Multi-core extension (see the file comment)
     * cores == 1 (the default) is the classic single-core System,
     * whose behavior these fields never affect. cores > 1 selects the
     * multi-programmed shared-L2 system: N cores with private L1s
     * (each a copy of il1/dl1 above) over one shared L2 of the l2
     * geometry, advanced in a deterministic round-robin interleave of
     * quantumInsts instructions per turn.
     */
    /// @{
    unsigned cores = 1;
    /** Round-robin interleave granularity in instructions
     *  (full-detail runs only: sampled runs interleave whole
     *  sampling periods instead). */
    std::uint64_t quantumInsts = 50000;
    /**
     * Per-core timing models, cycled when shorter than cores (empty:
     * every core uses coreModel above). Lets one system mix in-order
     * and out-of-order cores.
     */
    std::vector<CoreModel> coreModels;
    /// @}

    /** Timing model of core @p i under the cycling rule above. */
    CoreModel modelOfCore(unsigned i) const
    {
        return coreModels.empty() ? coreModel
                                  : coreModels[i % coreModels.size()];
    }

    /** The front-end shape every core's stream is marked with. */
    FrontEndShape frontEnd() const
    {
        return {core.fetchWidth, il1.blockBits(), core.bpred};
    }

    /** The paper's Table 2 base system. */
    static SystemConfig base() { return {}; }

    bool operator==(const SystemConfig &o) const = default;
};

/** Per-cache resizing strategy selection for one run (applied by
 *  CoreLane::start). */
struct ResizeSetup
{
    Strategy strategy = Strategy::None;
    /** Schedule level for Strategy::Static. */
    unsigned staticLevel = 0;
    /** Controller parameters for Strategy::Dynamic. */
    DynamicParams dyn;

    bool operator==(const ResizeSetup &o) const = default;
};

/** Everything a run produces. */
struct RunResult
{
    std::string workload;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    CoreActivity activity;
    EnergyBreakdown energy;

    double avgIl1Bytes = 0;
    double avgDl1Bytes = 0;
    double il1MissRatio = 0;
    double dl1MissRatio = 0;
    double l2MissRatio = 0;
    std::uint64_t il1Resizes = 0;
    std::uint64_t dl1Resizes = 0;
    /** Level at each dynamic interval boundary (empty if static). */
    std::vector<unsigned> il1LevelTrace;
    std::vector<unsigned> dl1LevelTrace;

    /** @name Engine provenance
     * Which engine produced this result (sim/engine.hh). Full-detail
     * runs measure every instruction (measuredInsts == insts).
     * Sampled runs report how much of the stream went through the
     * timing core; cycles/energy are extrapolations. Analytic runs
     * never touch a timing core (measuredInsts == 0): counts are
     * exact for LRU, cycles are a CPI model.
     */
    /// @{
    EngineMode engine = EngineMode::Full;
    std::uint64_t measuredInsts = 0;
    std::uint64_t warmupInsts = 0;
    /// @}

    /** @name L1 event counts
     * Exact for full and analytic runs, extrapolated (rounded once)
     * for sampled runs. These are what the analytic exactness gate
     * compares, and they feed the miss ratios above.
     */
    /// @{
    std::uint64_t il1Accesses = 0;
    std::uint64_t il1Misses = 0;
    std::uint64_t dl1Accesses = 0;
    std::uint64_t dl1Misses = 0;
    /// @}

    /** The paper's metric: processor energy x delay. */
    double edp() const { return energy.total() * cycles; }
    double ipc() const { return activity.ipc(); }

    /** Field-wise, doubles by value (the byte-identity contract). */
    bool operator==(const RunResult &o) const = default;
};

/**
 * One core's slice of a system, and what it does with each period.
 *
 * A lane owns the core's two L1s, its Hierarchy (an owned L2, or its
 * slot in a SharedL2), a dynamic controller for each L1 that resizes
 * during the run, its timing core and, for sampled runs, the
 * FunctionalCore that warms it. A period of the stream is
 *
 *     [ fast-forward | warmup | measured window ]
 *
 * (sim/sampling.hh). The stream's owner skips the fast-forward (the
 * lane sees none of it) and feeds the lane the rest in segments,
 * marked by the stream's FrontEnd (the predictor is not the lane's): a
 * Warmup phase through the FunctionalCore, then a Measure phase
 * through the timing core, whose counter-snapshot deltas add to
 * measured(). finish() extrapolates those windows to the whole
 * stream and prices them. A full-detail period is all measured
 * window, so a full-detail run's scale is exactly 1 and its figures
 * equal the live counters.
 *
 * The lane is also the run's one observer: with a timeline on, feed()
 * splits its segments at the sample points (every timelineInterval
 * instructions of a phase) and end() takes the phase's tail sample,
 * so samples fall where they would whatever the segment sizes.
 */
class CoreLane
{
  public:
    /** Single-core lane: owns an L2 of cfg.l2, one FrameMapping for
     *  its three caches' frames, and runs cfg.coreModel. */
    explicit CoreLane(const SystemConfig &cfg);

    /** Core @p id of a multi-core system: its L2 traffic goes to
     *  @p l2, its L1 frames come from @p frames (the system's
     *  mapping), and it runs cfg.modelOfCore(id). */
    CoreLane(const SystemConfig &cfg, unsigned id, SharedL2 &l2,
             FrameMapping &frames);

    /** FrameMapping::bytesFor the L1s of one lane of @p cfg. */
    static std::size_t l1FrameBytes(const SystemConfig &cfg);

    ~CoreLane();
    CoreLane(const CoreLane &) = delete;
    CoreLane &operator=(const CoreLane &) = delete;

    /**
     * Build the run-time half. A static setup sets its cache's level
     * here, once, before any instruction (the paper's size mask,
     * loaded before the program runs); a dynamic one gets the
     * controller that resizes its cache during the run. Then the
     * timing core, the FunctionalCore (sampled engines only), and the
     * resize-event and timeline taps when @p telemetry asks for them
     * (null = off). Call once, before the first phase.
     */
    void start(const ResizeSetup &il1_setup,
               const ResizeSetup &dl1_setup, const EngineSpec &engine,
               RunTelemetry *telemetry);

    /** The two fed parts of a period (see class comment). */
    enum class Phase
    {
        /** State only, through the FunctionalCore (sampled runs). */
        Warmup,
        /** A measured window on the timing core. */
        Measure,
    };

    /**
     * Open @p phase. A measured window restarts the timing machinery
     * at cycle 0 and re-anchors the byte-cycle integrals; warm state
     * (caches, controller counters) carries over. Whoever feeds the
     * lane restarts the stream's FrontEnd cadence at each phase too.
     */
    void begin(Phase phase);
    /** Run marked @p insts[0..n) in the open phase, sampling the
     *  timeline at each sample point inside it. */
    void feed(const MicroInst *insts, std::size_t n);
    /** Close the open phase: its tail sample, if one is owed, and
     *  its counters. */
    void end();

    /**
     * The run's result: the measured windows extrapolated to
     * @p total_insts and priced. Also hands this lane's timeline rows
     * to the telemetry bundle.
     */
    RunResult finish(const std::string &workload,
                     std::uint64_t total_insts);

    /** Sums over the measured windows so far (unscaled). */
    struct Measured
    {
        /** Instructions, cycles, and instruction mix. */
        CoreActivity activity;
        /** L1 events, and this core's share of the L2 and memory
         *  traffic. */
        HierarchyActivity caches;
        /** FunctionalCore instructions (not measured). */
        std::uint64_t warmupInsts = 0;

        bool operator==(const Measured &o) const = default;
    };
    const Measured &measured() const { return measured_; }

    /** The shape of the FrontEnd whose marks feed() reads. */
    const FrontEndShape &frontEnd() const { return frontEnd_; }

    ResizableCache &il1() { return il1_; }
    ResizableCache &dl1() { return dl1_; }
    const ResizableCache &il1() const { return il1_; }
    const ResizableCache &dl1() const { return dl1_; }
    Hierarchy &hierarchy() { return hier_; }
    const Hierarchy &hierarchy() const { return hier_; }

  private:
    /** One timeline sample of the open phase. */
    void sample();

    CoreModel model_;
    CoreParams coreParams_;
    FrontEndShape frontEnd_;
    EnergyParams energy_;
    /** A single-core lane's frames (else null: the system's). */
    std::unique_ptr<FrameMapping> frames_;
    ResizableCache il1_;
    ResizableCache dl1_;
    Hierarchy hier_;

    EngineSpec engine_;
    RunTelemetry *telemetry_ = nullptr;
    /** Null unless the cache's strategy is dynamic. */
    std::unique_ptr<DynamicMissRatioController> il1Dyn_;
    std::unique_ptr<DynamicMissRatioController> dl1Dyn_;
    std::unique_ptr<Core> core_;
    std::unique_ptr<FunctionalCore> func_;
    std::unique_ptr<TimelineRecorder> recorder_;
    Measured measured_;
    Phase phase_ = Phase::Measure;
    /** Instructions fed to the open phase. */
    std::uint64_t phaseInsts_ = 0;
    /** The open measured window's starting counters. */
    HierarchyActivity pre_;
};

/**
 * Instructions runLockstep pulls from a stream at a time: 20 KB of
 * MicroInsts, which every lane of a group reads while they are hot in
 * the host's caches. A fig9 sweep on one worker of a 4-vCPU Xeon
 * took about a tenth less CPU with 128 to 512 than with 1024 to
 * 16384.
 */
inline constexpr std::size_t laneSegmentInsts = 512;

/**
 * The one loop behind every timing run: drive a lockstep group.
 * @p streams[c] is core slot c's stream, and each member
 * (@p members[m]) holds one started lane per slot. Slots take turns
 * round-robin, as a System's cores do, until each has run
 * @p insts instructions. A turn is the slot's next
 * EngineSpec::period(remaining, @p quantum): its stream skips the
 * fast-forward once, then the warmup and the measured window are
 * pulled in laneSegmentInsts segments. The slot's one FrontEnd
 * (cpu/front_end.hh), of the shape all its lanes share, restarts at
 * each phase and marks each segment once, before the segment feeds
 * the slot's lane of every member. A single core is one slot whose
 * quantum is the whole run (System::quantum).
 *
 * Every lane of a slot therefore sees the marked stream it would see
 * alone, in the same periods, and the rest of a lane's state is its
 * own, so each member ends exactly as a group of one would leave it.
 */
void runLockstep(const std::vector<Workload *> &streams,
                 const std::vector<std::vector<CoreLane *>> &members,
                 std::uint64_t insts, std::uint64_t quantum,
                 const EngineSpec &engine);

/** Everything a System run produces. */
struct SystemResult
{
    /**
     * One RunResult per core, in core order: that core's private
     * counters, its attributed share of the L2/memory traffic, and an
     * energy breakdown charging the L2 over the core's own cycles
     * (see the file comment's attribution convention).
     */
    std::vector<RunResult> perCore;

    /**
     * The whole-system view the sweep machinery reduces on. On one
     * core it is that core's result. On several: summed
     * instructions/activity/energy, makespan cycles, capacity-summed
     * average L1 sizes, access-weighted miss ratios, and the mix's
     * '+'-joined name; aggregate.edp() is total energy x makespan.
     */
    RunResult aggregate;

    /** Per-core shared-L2 attribution at end of run (empty on one
     *  core, whose L2 is its own). */
    std::vector<SharedL2CoreStats> l2PerCore;
    /** Sum of l2PerCore (== the shared cache's own totals). */
    SharedL2CoreStats l2Totals;
};

/** See file comment. */
class System
{
  public:
    /**
     * Build cfg.cores lanes. A single core's lane owns its L2 and one
     * FrameMapping for its three caches. Several cores share one
     * SharedL2 of cfg.l2, and every frame comes from the System's one
     * mapping: the L2's, then each core's L1s.
     */
    explicit System(const SystemConfig &cfg);
    ~System();

    /**
     * Run @p insts_per_core instructions on every core. Core i runs
     * the profile mix[i % mix.size()] in a private address space
     * (openStreams). Every core applies the same resize setups (to
     * its own private controllers). Single use.
     *
     * @param engine fully detailed by default; a sampled spec
     *        fast-forwards between measured windows (sim/sampling.hh).
     *        The analytic engine never reaches a System: it is
     *        dispatched in executeRunJob (runner/sweep_runner.hh) and
     *        asking for it here is fatal.
     * @param telemetry optional observation request/output bundle
     *        (telemetry/run_telemetry.hh); null = off, zero impact
     */
    SystemResult run(const std::vector<BenchmarkProfile> &mix,
                     std::uint64_t insts_per_core,
                     const ResizeSetup &il1_setup = {},
                     const ResizeSetup &dl1_setup = {},
                     const EngineSpec &engine = {},
                     RunTelemetry *telemetry = nullptr);

    /** One core only: run @p num_insts instructions of @p workload
     *  (arguments as above). Single use. */
    RunResult run(Workload &workload, std::uint64_t num_insts,
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

    /**
     * Address-space offset of core @p i: streams are shifted into
     * disjoint high-address windows (bit 44 and up), leaving the
     * index/alias structure of every stream untouched. Core 0's
     * offset is 0.
     */
    static Addr addressSpaceBase(unsigned core)
    {
        return static_cast<Addr>(core) << 44;
    }

    /**
     * Instructions per full-detail turn when every core of @p cfg
     * runs @p insts_per_core: cfg.quantumInsts on several cores; a
     * single core has no interleave, so its turn is its whole run.
     */
    static std::uint64_t quantum(const SystemConfig &cfg,
                                 std::uint64_t insts_per_core)
    {
        return cfg.cores > 1 ? cfg.quantumInsts : insts_per_core;
    }

    /** @name One member of a lockstep group
     * run() is start(), runLockstep over openStreams(), then
     * finish(): start() returns the lanes to feed, one per core
     * (arguments as run()'s), and finish() reads each core's
     * workload name from @p streams and names a multi-core aggregate
     * after @p mix.
     */
    /// @{
    std::vector<CoreLane *> start(const ResizeSetup &il1_setup,
                                  const ResizeSetup &dl1_setup,
                                  const EngineSpec &engine,
                                  RunTelemetry *telemetry);
    SystemResult finish(const std::vector<BenchmarkProfile> &mix,
                        const Streams &streams,
                        std::uint64_t insts_per_core);
    /// @}

    /** @name Core 0's caches (a single core's) */
    /// @{
    ResizableCache &il1() { return lanes_.front()->il1(); }
    ResizableCache &dl1() { return lanes_.front()->dl1(); }
    Hierarchy &hierarchy() { return lanes_.front()->hierarchy(); }
    /// @}
    /** The shared L2, or null on one core. */
    SharedL2 *sharedL2() { return l2_ ? &*l2_ : nullptr; }
    const SystemConfig &config() const { return cfg_; }

  private:
    SystemConfig cfg_;
    /** Several cores: every cache's frames, and the shared L2 (both
     *  empty on one core, whose lane owns them). */
    std::optional<FrameMapping> frames_;
    std::optional<SharedL2> l2_;
    std::vector<std::unique_ptr<CoreLane>> lanes_;
    EngineSpec engine_;
    bool ran_ = false;
};

} // namespace rcache

#endif // RCACHE_SIM_SYSTEM_HH
