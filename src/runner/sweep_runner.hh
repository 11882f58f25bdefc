/**
 * @file
 * SweepRunner: parallel execution of independent simulation jobs.
 *
 * The paper's methodology is offline profiling — every (app,
 * organization, strategy, level/param) design point is one complete,
 * self-contained simulated run. A RunJob captures one such point as
 * pure data; executeRunJob() constructs a private System for it, so
 * the result of a job depends only on the job spec.
 *
 * Most candidates of a profiling search read the same streams in the
 * same periods. So SweepRunner partitions a batch into stream
 * schedules (laneGroups) and runs each schedule's jobs as the lanes of
 * lockstep groups (runLockstep in sim/system.hh): a group opens each
 * stream once, marks every segment of it once, and feeds the segment
 * to every member. A lane ends exactly as its job would alone, so
 * results stay a pure function of the job spec. An analytic group is
 * one stack-distance pass over its stream that prices every member
 * (analytic/analytic_engine.hh).
 *
 * A batch runs as one drain: worker threads started for it pull
 * groups from one queue, largest first, and after each group the
 * caller may release jobs that depended on it (a side=both cell's
 * combined rerun waits on its per-side sweeps), which jump the queue;
 * released analytic jobs price from the pass of the group that
 * released them. Each result lands in its job's slot, so the returned
 * vector is in job order and bit-identical to a serial execution
 * regardless of thread count, grouping or completion order.
 */

#ifndef RCACHE_RUNNER_SWEEP_RUNNER_HH
#define RCACHE_RUNNER_SWEEP_RUNNER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "workload/synthetic.hh"

namespace rcache
{

class AnalyticPass;
class TraceEventRecorder;

/** One self-contained design point: everything a run needs. */
struct RunJob
{
    /** Stable label for progress display and reports. */
    std::string label;
    BenchmarkProfile profile;
    SystemConfig cfg;
    /** Instructions per core (every core runs this many). */
    std::uint64_t insts = 0;
    ResizeSetup il1;
    ResizeSetup dl1;
    /** Engine selection; full detail by default (sim/engine.hh). */
    EngineSpec engine;
    /**
     * Multi-core workload mix, cycled across cfg.cores cores; empty
     * runs `profile` on every core. Ignored when cfg.cores == 1 (the
     * single-core path depends only on `profile`).
     */
    std::vector<BenchmarkProfile> mixProfiles;

    /**
     * Telemetry request/output for this job, or null (off). The bundle
     * must outlive the job's execution; it is written only by the one
     * worker running the job, so per-job bundles need no locking.
     */
    RunTelemetry *telemetry = nullptr;
    /** Design-point coordinates for runner trace spans ("k=v ..."). */
    std::string tracePoint;
};

/**
 * Run @p job on a fresh System of cfg.cores cores, returning its
 * aggregate result, or (for job.engine == analytic) on a fresh
 * AnalyticPass (runAnalyticJob in src/analytic/analytic_engine.hh).
 * Each stream is its own: a lane group of one, what SweepRunner::run
 * must reproduce. Pure function of the job spec every way.
 */
RunResult executeRunJob(const RunJob &job);

/** See file comment. */
class SweepRunner
{
  public:
    /**
     * Called after each job finishes (serialized; any thread): a lane
     * group reports its members in job order when it ends.
     * @param done jobs completed so far
     * @param total jobs submitted and released so far
     */
    using ProgressFn = std::function<void(
        std::size_t done, std::size_t total, const RunJob &job)>;

    /**
     * A drain's caller, told about each lane group once it finishes:
     * @p group holds its jobs' indices and @p results every finished
     * job's result (indices count the submitted jobs, then each
     * released job in release order). Jobs it appends to @p release
     * run next, ahead of every queued group. Returning false starts
     * no new group: the running groups finish, are reported here too,
     * and drain() returns. Calls are serialized, and each runs on the
     * worker that ran the group, before that worker takes another.
     */
    using Finished = std::function<bool(
        const std::vector<std::size_t> &group,
        const std::vector<RunResult> &results,
        std::vector<RunJob> &release)>;

    /**
     * @param num_jobs worker threads; 1 runs batches inline on the
     *                 calling thread, 0 selects hardware concurrency.
     *                 Clamped to maxWorkers so a wrapped negative
     *                 (e.g. "-1" parsed unsigned) cannot request
     *                 billions of threads.
     */
    explicit SweepRunner(unsigned num_jobs = 1);

    /** Hard upper bound on worker threads per batch. */
    static constexpr unsigned maxWorkers = 256;

    /**
     * Most lanes one group runs. Producing a synthetic stream costs
     * about as much as one full-detail lane running it, so at 32
     * lanes the stream is about 3% of a group's work. Lanes are cheap
     * to hold: a Cache makes resident only the frames its run fills,
     * so a started System is about 30 KB.
     */
    static constexpr std::size_t maxLanes = 32;

    /**
     * Most lanes a group runs when every stream it reads is a trace.
     * Decoding a trace costs well under a lane, so a larger group
     * saves little, while a trace's lanes fill their L2 frames: on a
     * 4-vCPU Xeon with 2 MB of L2 per core, perfbench's trace sweep
     * took about 9% more CPU in groups of 18 than in groups of 8.
     */
    static constexpr std::size_t maxTraceLanes = 8;

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** Worker threads this runner executes with (>= 1). */
    unsigned parallelism() const { return parallelism_; }

    void setProgress(ProgressFn fn) { progress_ = std::move(fn); }

    /**
     * Attach a Chrome trace-event recorder: every lane group gets one
     * complete span, recorded on the worker thread that ran it and
     * named by its first member's label. Its args carry the lane count
     * ("lanes") and each member k's label and tracePoint ("label.k",
     * "point.k"). Null detaches. The recorder must outlive every run()
     * call that sees it.
     */
    void setTrace(TraceEventRecorder *trace) { trace_ = trace; }

    /**
     * Execute @p jobs and every job @p finished releases, and return
     * their results: the submitted jobs' in job order, then the
     * released ones' in release order. The laneGroups(jobs,
     * parallelism()) groups queue largest first (ties in job order),
     * and each release forms groups of its own at the front of the
     * queue. They run on min(parallelism(), groups) worker threads
     * started for this call and joined before it returns; a worker
     * whose queue is empty waits while groups that may release work
     * still run. A job a stop left unrun keeps a default result.
     * Determinism guarantee: equal input batches (and releases) yield
     * bit-identical result vectors for any parallelism.
     */
    std::vector<RunResult> drain(const std::vector<RunJob> &jobs,
                                 const Finished &finished) const;

    /** drain() with nothing released: every job runs. */
    std::vector<RunResult> run(const std::vector<RunJob> &jobs) const
    {
        return drain(jobs, {});
    }

    /** The serial reference path, one executeRunJob per job (what
     *  run() must reproduce). */
    static std::vector<RunResult>
    runSerial(const std::vector<RunJob> &jobs);

    /**
     * How run() groups @p jobs for @p workers workers, as job indices.
     * Timed jobs share a schedule when their core slots read equal
     * profiles (profileKey) over equal instructions per core, engine,
     * core count, interleave quantum and frontEndKey (a group's lanes
     * read one FrontEnd's marks). Each timed schedule is split, in
     * job order, into near-equal groups of at most
     * jobs.size() / (2 * workers) lanes (so each worker gets two
     * groups or more when the batch allows), clamped to [1, maxLanes],
     * or to [1, maxTraceLanes] when every stream of the schedule is a
     * trace. Analytic jobs share a schedule when they share an
     * AnalyticPass::streamKey, and each such schedule is one group
     * with no lane cap: one pass prices any number of jobs. Groups
     * are ordered by first job.
     */
    static std::vector<std::vector<std::size_t>>
    laneGroups(const std::vector<RunJob> &jobs, unsigned workers);

  private:
    /**
     * Run one lane group's @p members, with its trace span. An
     * analytic group prices from @p pass when it can, and leaves the
     * pass it priced from there (runAnalyticGroup).
     * @return their results, in member order
     */
    std::vector<RunResult>
    runGroup(const std::vector<const RunJob *> &members,
             std::shared_ptr<const AnalyticPass> &pass) const;

    unsigned parallelism_;
    TraceEventRecorder *trace_ = nullptr;
    ProgressFn progress_;
};

} // namespace rcache

#endif // RCACHE_RUNNER_SWEEP_RUNNER_HH
