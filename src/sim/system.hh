/**
 * @file
 * System: one simulated processor+memory configuration, run once.
 *
 * A System is one CoreLane (below) with its own L2: the core model,
 * the two (possibly resizable) L1s, the L2, the dynamic resize
 * controllers, and the energy model. It is single-use: construct,
 * call run() once, read the result. executeRunJob (runner/sweep_runner.hh) constructs one
 * System per design point, which is how the paper's profiling
 * methodology works anyway.
 *
 * CoreLane is one core's slice of a run, fed instruction segments;
 * runLockstep (below) is the one loop behind every timing run. It
 * drives the lanes of a lockstep group: runs that read the same
 * streams in the same periods, so one pass over each stream feeds
 * them all. System::run and MultiCoreSystem::run
 * (sim/multi_core_system.hh) are groups of one, the sweep runner
 * (runner/sweep_runner.hh) builds larger ones, and full-detail and
 * sampled runs differ only in the periods the loop hands out.
 */

#ifndef RCACHE_SIM_SYSTEM_HH
#define RCACHE_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/dynamic_controller.hh"
#include "core/resizable_cache.hh"
#include "cpu/core.hh"
#include "cpu/front_end.hh"
#include "energy/energy_model.hh"
#include "sim/engine.hh"
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

    /** @name Multi-core extension (sim/multi_core_system.hh)
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
 * round-robin, as MultiCoreSystem's cores do, until each has run
 * @p insts instructions. A turn is the slot's next
 * EngineSpec::period(remaining, @p quantum): its stream skips the
 * fast-forward once, then the warmup and the measured window are
 * pulled in laneSegmentInsts segments. The slot's one FrontEnd
 * (cpu/front_end.hh), of the shape all its lanes share, restarts at
 * each phase and marks each segment once, before the segment feeds
 * the slot's lane of every member. A single core is one slot whose
 * quantum is the whole run.
 *
 * Every lane of a slot therefore sees the marked stream it would see
 * alone, in the same periods, and the rest of a lane's state is its
 * own, so each member ends exactly as a group of one would leave it.
 */
void runLockstep(const std::vector<Workload *> &streams,
                 const std::vector<std::vector<CoreLane *>> &members,
                 std::uint64_t insts, std::uint64_t quantum,
                 const EngineSpec &engine);

/** See file comment. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    /**
     * Run @p num_insts instructions of @p workload with the given
     * per-cache resizing setups. Single use.
     *
     * @param engine fully detailed by default; a sampled spec
     *        fast-forwards between measured windows (sim/sampling.hh).
     *        The analytic engine never reaches a System — it is
     *        dispatched in executeRunJob (runner/sweep_runner.hh) and
     *        asking for it here is fatal.
     * @param telemetry optional observation request/output bundle
     *        (telemetry/run_telemetry.hh); null = off, zero impact
     */
    RunResult run(Workload &workload, std::uint64_t num_insts,
                  const ResizeSetup &il1_setup = {},
                  const ResizeSetup &dl1_setup = {},
                  const EngineSpec &engine = {},
                  RunTelemetry *telemetry = nullptr);

    /** @name One member of a lockstep group
     * run() is start(), runLockstep over one stream, then finish():
     * start() returns the lane to feed (arguments as run()'s), and
     * finish() is CoreLane::finish.
     */
    /// @{
    CoreLane &start(const ResizeSetup &il1_setup,
                    const ResizeSetup &dl1_setup,
                    const EngineSpec &engine, RunTelemetry *telemetry);
    RunResult finish(const std::string &workload,
                     std::uint64_t num_insts)
    {
        return lane_.finish(workload, num_insts);
    }
    /// @}

    ResizableCache &il1() { return lane_.il1(); }
    ResizableCache &dl1() { return lane_.dl1(); }
    Hierarchy &hierarchy() { return lane_.hierarchy(); }
    const SystemConfig &config() const { return cfg_; }

  private:
    SystemConfig cfg_;
    CoreLane lane_;
    bool ran_ = false;
};

} // namespace rcache

#endif // RCACHE_SIM_SYSTEM_HH
