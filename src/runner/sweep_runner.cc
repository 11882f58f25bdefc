#include "runner/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <thread>

#include "analytic/analytic_engine.hh"
#include "sim/multi_core_system.hh"
#include "telemetry/trace_events.hh"
#include "workload/tape.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

namespace
{

/** The profile core @p core of @p job runs: the mix cycles across
 *  cores, and a single core runs job.profile. */
const BenchmarkProfile &
laneProfile(const RunJob &job, unsigned core)
{
    if (job.cfg.cores == 1 || job.mixProfiles.empty())
        return job.profile;
    return job.mixProfiles[core % job.mixProfiles.size()];
}

std::string
streamKey(const RunJob &job, const BenchmarkProfile &p)
{
    return profileKey(p) + '|' + std::to_string(job.insts) + '|' +
           engineArg(job.engine);
}

/** Record the calls one core of @p job makes on stream @p p. */
std::shared_ptr<const Tape>
recordTape(const RunJob &job, const BenchmarkProfile &p)
{
    const std::unique_ptr<Workload> live = makeWorkload(p);
    auto tape = std::make_shared<Tape>(live->name());
    MicroInst batch[workloadBatchSize];
    for (std::uint64_t left = job.insts; left > 0;) {
        // Every quantum reads on from the last, so one window of all
        // that is left stands for a full-detail run's quanta.
        const SamplingConfig::PeriodShape shape =
            job.engine.period(left, left);
        if (shape.fastForward) {
            live->skip(shape.fastForward);
            tape->skip(shape.fastForward);
        }
        for (std::uint64_t read = shape.warmup + shape.detailed;
             read > 0;) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(read, workloadBatchSize));
            live->nextBatch(batch, n);
            tape->append(batch, n);
            read -= n;
        }
        left -= shape.fastForward + shape.warmup + shape.detailed;
    }
    return tape;
}

} // namespace

TapeDeck::TapeDeck(const std::vector<RunJob> &jobs)
{
    for (const RunJob &job : jobs) {
        if (job.engine.analytic())
            continue;
        for (unsigned c = 0; c < job.cfg.cores; ++c) {
            Stream &s = streams_[streamKey(job, laneProfile(job, c))];
            s.taped = ++s.uses >= 2;
        }
    }
}

TapeDeck::~TapeDeck() = default;

std::unique_ptr<Workload>
TapeDeck::open(const RunJob &job, const BenchmarkProfile &p)
{
    const std::string key = streamKey(job, p);
    std::unique_lock<std::mutex> lk(mtx_);
    Stream &s = streams_.at(key);
    if (!s.tape) {
        if (!s.taped || s.recording) {
            lk.unlock();
            return makeWorkload(p);
        }
        s.recording = true;
        lk.unlock();
        std::shared_ptr<const Tape> tape = recordTape(job, p);
        lk.lock();
        s.recording = false;
        s.tape = std::move(tape);
    }
    std::shared_ptr<const Tape> tape = s.tape;
    lk.unlock();
    return std::make_unique<TapeWorkload>(std::move(tape));
}

void
TapeDeck::release(const RunJob &job)
{
    if (job.engine.analytic())
        return;
    std::vector<std::string> keys;
    for (unsigned c = 0; c < job.cfg.cores; ++c)
        keys.push_back(streamKey(job, laneProfile(job, c)));
    std::lock_guard<std::mutex> lk(mtx_);
    for (const std::string &key : keys) {
        Stream &s = streams_.at(key);
        rc_assert(s.uses > 0);
        if (--s.uses == 0)
            s.tape.reset();
    }
}

std::size_t
TapeDeck::tapedStreams() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    return static_cast<std::size_t>(
        std::count_if(streams_.begin(), streams_.end(),
                      [](const auto &kv) { return kv.second.taped; }));
}

std::size_t
TapeDeck::liveTapes() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    return static_cast<std::size_t>(std::count_if(
        streams_.begin(), streams_.end(),
        [](const auto &kv) { return kv.second.tape != nullptr; }));
}

RunResult
executeRunJob(const RunJob &job)
{
    // A single core would silently simulate only mixProfiles[0];
    // every layer above validates this (ParamSpace::build, the CLI),
    // so reaching here is a caller bug.
    rc_assert(job.cfg.cores > 1 || job.mixProfiles.size() <= 1);
    if (job.engine.analytic())
        return runAnalyticJob(job);
    const StreamOpener open = [&job](const BenchmarkProfile &p) {
        return job.tapes ? job.tapes->open(job, p) : makeWorkload(p);
    };
    RunResult res;
    if (job.cfg.cores > 1) {
        MultiCoreSystem sys(job.cfg);
        const std::vector<BenchmarkProfile> mix =
            job.mixProfiles.empty()
                ? std::vector<BenchmarkProfile>{job.profile}
                : job.mixProfiles;
        res = sys.run(mix, job.insts, job.il1, job.dl1, job.engine,
                      job.telemetry, open)
                  .aggregate;
    } else {
        const std::unique_ptr<Workload> wl = open(job.profile);
        System sys(job.cfg);
        res = sys.run(*wl, job.insts, job.il1, job.dl1, job.engine,
                      job.telemetry);
    }
    if (job.tapes)
        job.tapes->release(job);
    return res;
}

SweepRunner::SweepRunner(unsigned num_jobs)
    : parallelism_(std::min(
          num_jobs == 0
              ? std::max(1u, std::thread::hardware_concurrency())
              : num_jobs,
          maxWorkers))
{
}

void
SweepRunner::reportProgress(std::size_t done, std::size_t total,
                            const RunJob &job) const
{
    if (!progress_)
        return;
    std::lock_guard<std::mutex> lk(progressMtx_);
    progress_(done, total, job);
}

std::vector<RunResult>
SweepRunner::runSerial(const std::vector<RunJob> &jobs)
{
    std::vector<RunResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        results[i] = executeRunJob(jobs[i]);
    return results;
}

RunResult
SweepRunner::tracedExecute(const RunJob &job) const
{
    if (!trace_)
        return executeRunJob(job);
    const auto begin = trace_->now();
    RunResult res = executeRunJob(job);
    TraceEventRecorder::Args args{{"label", job.label}};
    if (!job.tracePoint.empty())
        args.emplace_back("point", job.tracePoint);
    trace_->completeSpan(job.label, begin, trace_->now(),
                         std::move(args));
    return res;
}

std::vector<RunResult>
SweepRunner::run(const std::vector<RunJob> &jobs) const
{
    std::vector<RunResult> results(jobs.size());

    // Each worker takes the next unstarted job, so jobs start in
    // submission order and neighbouring jobs, which tend to share a
    // stream, run together: a TapeDeck then keeps about one tape per
    // worker alive. results[i] is written only by the worker that
    // took job i; `done` is shared for progress display only.
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    const auto work = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();) {
            results[i] = tracedExecute(jobs[i]);
            reportProgress(done.fetch_add(1) + 1, jobs.size(), jobs[i]);
        }
    };
    const std::size_t workers =
        std::min<std::size_t>(parallelism_, jobs.size());
    if (workers <= 1) {
        work();
        return results;
    }
    {
        // Joined at the end of this scope, after the last job.
        std::vector<std::jthread> threads;
        threads.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            threads.emplace_back(work);
    }
    return results;
}

} // namespace rcache
