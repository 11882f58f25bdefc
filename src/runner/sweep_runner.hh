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
 * stream once and feeds every segment of it to every member. A lane
 * ends exactly as its job would alone, so results stay a pure function
 * of the job spec. Groups run on worker threads started for the
 * batch, starting in submission order, and each writes its members'
 * results into their jobs' slots, so the returned vector is in
 * submission order and bit-identical to a serial execution regardless
 * of thread count, grouping or completion order.
 */

#ifndef RCACHE_RUNNER_SWEEP_RUNNER_HH
#define RCACHE_RUNNER_SWEEP_RUNNER_HH

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "workload/synthetic.hh"

namespace rcache
{

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
 * Run @p job on a fresh System (cfg.cores == 1, the exact single-core
 * semantics), MultiCoreSystem (cfg.cores > 1, returning the aggregate
 * result), or — for job.engine == analytic — a fresh single-job
 * AnalyticPass (src/analytic/analytic_engine.hh; sweeps share one
 * pass across jobs instead of coming through here). Each core reads
 * its own stream from makeWorkload: a lockstep group of one. Pure
 * function of the job spec every way.
 */
RunResult executeRunJob(const RunJob &job);

/** See file comment. */
class SweepRunner
{
  public:
    /**
     * Called after each job finishes (serialized; any thread): a lane
     * group reports its members in job order when it ends.
     * @param done jobs completed so far  @param total batch size
     */
    using ProgressFn = std::function<void(
        std::size_t done, std::size_t total, const RunJob &job)>;

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

    /** Most lanes one group runs: a started System is about 336 KB
     *  resident, so a worker holds at most about 2.7 MB of them. */
    static constexpr std::size_t maxLanes = 8;

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
     * Execute every job and return results in job order: the
     * laneGroups(jobs, parallelism()) groups, on min(parallelism(),
     * groups) worker threads started for this call and joined before
     * it returns. Groups start in submission order: each worker takes
     * the next unstarted group. Determinism guarantee: equal input
     * batches yield bit-identical result vectors for any parallelism.
     */
    std::vector<RunResult> run(const std::vector<RunJob> &jobs) const;

    /** The serial reference path, one executeRunJob per job (what
     *  run() must reproduce). */
    static std::vector<RunResult>
    runSerial(const std::vector<RunJob> &jobs);

    /**
     * How run() groups @p jobs for @p workers workers, as job indices.
     * Jobs share a schedule when their core slots read equal profiles
     * (profileKey) over equal instructions per core, engine, core
     * count and interleave quantum; analytic jobs read no stream and
     * run alone. Each schedule is split, in job order, into
     * near-equal groups of at most jobs.size() / (2 * workers) lanes
     * (so each worker gets two groups or more when the batch allows),
     * clamped to [1, maxLanes]. Groups are ordered by first job.
     */
    static std::vector<std::vector<std::size_t>>
    laneGroups(const std::vector<RunJob> &jobs, unsigned workers);

  private:
    void reportProgress(std::size_t done, std::size_t total,
                        const RunJob &job) const;
    /** Run group @p group of @p jobs into @p results, with its trace
     *  span. */
    void runGroup(const std::vector<RunJob> &jobs,
                  const std::vector<std::size_t> &group,
                  std::vector<RunResult> &results) const;

    unsigned parallelism_;
    TraceEventRecorder *trace_ = nullptr;
    mutable std::mutex progressMtx_;
    ProgressFn progress_;
};

} // namespace rcache

#endif // RCACHE_RUNNER_SWEEP_RUNNER_HH
