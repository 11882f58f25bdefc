/**
 * @file
 * SweepRunner: parallel execution of independent simulation jobs.
 *
 * The paper's methodology is offline profiling — every (app,
 * organization, strategy, level/param) design point is one complete,
 * self-contained simulated run. A RunJob captures one such point as
 * pure data; executeRunJob() constructs a private System for it, so
 * the result of a job depends only on the job spec. SweepRunner fans
 * a batch across worker threads it starts for that batch, starting
 * jobs in submission order, and writes each result into the slot of
 * the job that produced it, so the returned vector is in submission
 * order and bit-identical to a serial execution regardless of thread
 * count or completion order.
 *
 * The one thing a batch's jobs may share is their instruction
 * streams. Most candidates of a profiling search read the same
 * stream, so a TapeDeck records each stream two or more of a batch's
 * jobs read, once, and replays it to the rest (workload/tape.hh).
 * A replay equals the live stream instruction for instruction, so
 * results stay a pure function of the job spec.
 */

#ifndef RCACHE_RUNNER_SWEEP_RUNNER_HH
#define RCACHE_RUNNER_SWEEP_RUNNER_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "workload/synthetic.hh"

namespace rcache
{

class Tape;
class TapeDeck;
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
    /**
     * The batch's tapes, or null (every stream runs live). The deck
     * must have counted this job and must outlive its execution.
     */
    TapeDeck *tapes = nullptr;
};

/**
 * The tapes of one job batch. A stream is a (profile, instructions
 * per core, engine) triple: what one core of a full-detail or sampled
 * run reads. Each stream that two or more lanes of the batch's jobs
 * read gets a tape, decided from the jobs alone. The first job to
 * open a stream records its tape (walking EngineSpec::period, the
 * calls CoreLane makes) and replays it; a job that opens the stream
 * while another worker is still recording runs it live instead of
 * waiting, and every later job replays. The deck drops a tape after
 * its last lane is released, so with jobs started in submission
 * order and a stream's jobs adjacent, the live tapes stay about one
 * per worker. Thread-safe.
 */
class TapeDeck
{
  public:
    /** Count the streams of @p jobs (analytic jobs read none). */
    explicit TapeDeck(const std::vector<RunJob> &jobs);
    ~TapeDeck();

    TapeDeck(const TapeDeck &) = delete;
    TapeDeck &operator=(const TapeDeck &) = delete;

    /** One lane of @p job reading profile @p p: a replay of the
     *  stream's tape, or the live stream (see above). */
    std::unique_ptr<Workload> open(const RunJob &job,
                                   const BenchmarkProfile &p);
    /** @p job has finished: release each of its lanes' streams. */
    void release(const RunJob &job);

    /** Streams with a tape (recorded or not). */
    std::size_t tapedStreams() const;
    /** Tapes recorded and not yet dropped. */
    std::size_t liveTapes() const;

  private:
    struct Stream
    {
        /** Lanes that have not released the stream yet. */
        std::size_t uses = 0;
        /** Two or more lanes read it. */
        bool taped = false;
        bool recording = false;
        std::shared_ptr<const Tape> tape;
    };

    mutable std::mutex mtx_;
    std::map<std::string, Stream> streams_;
};

/**
 * Run @p job on a fresh System (cfg.cores == 1, the exact single-core
 * semantics), MultiCoreSystem (cfg.cores > 1, returning the aggregate
 * result), or — for job.engine == analytic — a fresh single-job
 * AnalyticPass (src/analytic/analytic_engine.hh; sweeps share one
 * pass across jobs instead of coming through here). Each core reads
 * its stream from job.tapes when set, else from makeWorkload. Pure
 * function of the job spec every way.
 */
RunResult executeRunJob(const RunJob &job);

/** See file comment. */
class SweepRunner
{
  public:
    /**
     * Called after each job finishes (serialized; any thread).
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

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** Worker threads this runner executes with (>= 1). */
    unsigned parallelism() const { return parallelism_; }

    void setProgress(ProgressFn fn) { progress_ = std::move(fn); }

    /**
     * Attach a Chrome trace-event recorder: every executed job gets a
     * complete span named by its label, tagged with its tracePoint
     * and recorded on the worker thread that ran it. Null detaches.
     * The recorder must outlive every run() call that sees it.
     */
    void setTrace(TraceEventRecorder *trace) { trace_ = trace; }

    /**
     * Execute every job and return results in job order, on
     * min(parallelism(), jobs.size()) worker threads started for this
     * call and joined before it returns. Jobs start in submission
     * order: each worker takes the next unstarted job. Determinism
     * guarantee: equal input batches yield bit-identical result
     * vectors for any parallelism.
     */
    std::vector<RunResult> run(const std::vector<RunJob> &jobs) const;

    /** The serial reference path (what run() must reproduce). */
    static std::vector<RunResult>
    runSerial(const std::vector<RunJob> &jobs);

  private:
    void reportProgress(std::size_t done, std::size_t total,
                        const RunJob &job) const;
    RunResult tracedExecute(const RunJob &job) const;

    unsigned parallelism_;
    TraceEventRecorder *trace_ = nullptr;
    mutable std::mutex progressMtx_;
    ProgressFn progress_;
};

} // namespace rcache

#endif // RCACHE_RUNNER_SWEEP_RUNNER_HH
