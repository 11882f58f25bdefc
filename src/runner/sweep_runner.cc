#include "runner/sweep_runner.hh"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "analytic/analytic_engine.hh"
#include "telemetry/trace_events.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

namespace
{

/** The workload mix of @p job: mixProfiles on several cores, else
 *  job.profile on every core. */
std::vector<BenchmarkProfile>
mixOf(const RunJob &job)
{
    return job.cfg.cores == 1 || job.mixProfiles.empty()
               ? std::vector<BenchmarkProfile>{job.profile}
               : job.mixProfiles;
}

/** The profile core @p core of @p job runs: the mix cycles across
 *  cores, and a single core runs job.profile. */
const BenchmarkProfile &
laneProfile(const RunJob &job, unsigned core)
{
    if (job.cfg.cores == 1 || job.mixProfiles.empty())
        return job.profile;
    return job.mixProfiles[core % job.mixProfiles.size()];
}

/** What fixes the streams @p job reads, the periods it reads them
 *  in, and their front-end marks (see SweepRunner::laneGroups). */
std::string
scheduleKey(const RunJob &job)
{
    if (job.engine.analytic())
        return engineArg(job.engine) + '|' +
               AnalyticPass::streamKey(job.cfg, job.profile.name,
                                       job.insts);
    std::string key = std::to_string(job.cfg.cores) + '|' +
                      std::to_string(job.insts) + '|' +
                      std::to_string(System::quantum(job.cfg, job.insts)) +
                      '|' + engineArg(job.engine);
    for (unsigned c = 0; c < job.cfg.cores; ++c) {
        key += '|';
        key += profileKey(laneProfile(job, c));
    }
    return key + '|' + frontEndKey(job.cfg.frontEnd());
}

/** Does every core slot of @p job read a trace? */
bool
readsOnlyTraces(const RunJob &job)
{
    for (unsigned c = 0; c < job.cfg.cores; ++c)
        if (!isTraceProfile(laneProfile(job, c)))
            return false;
    return true;
}

/** Run @p group, timed jobs of one schedule, as the lanes of one
 *  lockstep group. @return their results, in group order */
std::vector<RunResult>
runLanes(const std::vector<const RunJob *> &group)
{
    const RunJob &lead = *group.front();
    const System::Streams streams =
        System::openStreams(mixOf(lead), lead.cfg.cores);
    std::vector<Workload *> slots;
    for (const auto &s : streams)
        slots.push_back(s.get());
    std::vector<std::unique_ptr<System>> systems;
    std::vector<std::vector<CoreLane *>> members;
    for (const RunJob *job : group) {
        systems.push_back(std::make_unique<System>(job->cfg));
        members.push_back(systems.back()->start(job->il1, job->dl1,
                                                job->engine,
                                                job->telemetry));
    }
    runLockstep(slots, members, lead.insts,
                System::quantum(lead.cfg, lead.insts), lead.engine);
    std::vector<RunResult> results;
    for (std::size_t m = 0; m < group.size(); ++m)
        results.push_back(
            systems[m]->finish(mixOf(*group[m]), streams, lead.insts)
                .aggregate);
    return results;
}

} // namespace

RunResult
executeRunJob(const RunJob &job)
{
    // A single core would silently simulate only mixProfiles[0];
    // every layer above validates this (ParamSpace::build, the CLI),
    // so reaching here is a caller bug.
    rc_assert(job.cfg.cores > 1 || job.mixProfiles.size() <= 1);
    if (job.engine.analytic())
        return runAnalyticJob(job);
    System sys(job.cfg);
    return sys.run(mixOf(job), job.insts, job.il1, job.dl1, job.engine,
                   job.telemetry)
        .aggregate;
}

SweepRunner::SweepRunner(unsigned num_jobs)
    : parallelism_(std::min(
          num_jobs == 0
              ? std::max(1u, std::thread::hardware_concurrency())
              : num_jobs,
          maxWorkers))
{
}

std::vector<RunResult>
SweepRunner::runSerial(const std::vector<RunJob> &jobs)
{
    std::vector<RunResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        results[i] = executeRunJob(jobs[i]);
    return results;
}

std::vector<std::vector<std::size_t>>
SweepRunner::laneGroups(const std::vector<RunJob> &jobs, unsigned workers)
{
    std::vector<std::vector<std::size_t>> schedules;
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto [it, fresh] =
            index.try_emplace(scheduleKey(jobs[i]), schedules.size());
        if (fresh)
            schedules.emplace_back();
        schedules[it->second].push_back(i);
    }

    const std::size_t balance = jobs.size() / (2 * std::max(1u, workers));
    std::vector<std::vector<std::size_t>> groups;
    for (const std::vector<std::size_t> &s : schedules) {
        const RunJob &lead = jobs[s.front()];
        // One pass prices any number of analytic jobs.
        const std::size_t cap =
            lead.engine.analytic()
                ? s.size()
                : std::clamp<std::size_t>(balance, 1,
                                          readsOnlyTraces(lead)
                                              ? maxTraceLanes
                                              : maxLanes);
        const std::size_t n = (s.size() + cap - 1) / cap;
        auto at = s.begin();
        for (std::size_t g = 0; g < n; ++g) {
            const std::size_t len = s.size() / n + (g < s.size() % n);
            groups.emplace_back(at, at + len);
            at += len;
        }
    }
    std::sort(groups.begin(), groups.end(),
              [](const auto &a, const auto &b) {
                  return a.front() < b.front();
              });
    return groups;
}

std::vector<RunResult>
SweepRunner::runGroup(const std::vector<const RunJob *> &members,
                      std::shared_ptr<const AnalyticPass> &pass) const
{
    const auto begin =
        trace_ ? trace_->now() : TraceEventRecorder::Clock::time_point{};
    std::vector<RunResult> out = members.front()->engine.analytic()
                                     ? runAnalyticGroup(members, pass)
                                     : runLanes(members);
    if (!trace_)
        return out;
    TraceEventRecorder::Args args{
        {"lanes", std::to_string(members.size())}};
    for (std::size_t k = 0; k < members.size(); ++k) {
        const std::string n = std::to_string(k);
        args.emplace_back("label." + n, members[k]->label);
        if (!members[k]->tracePoint.empty())
            args.emplace_back("point." + n, members[k]->tracePoint);
    }
    trace_->completeSpan(members.front()->label, begin, trace_->now(),
                         std::move(args));
    return out;
}

std::vector<RunResult>
SweepRunner::drain(const std::vector<RunJob> &jobs,
                   const Finished &finished) const
{
    // Released jobs live in a deque, so the members a worker is
    // running survive later releases.
    std::deque<RunJob> released;
    const auto jobAt = [&](std::size_t i) -> const RunJob & {
        return i < jobs.size() ? jobs[i] : released[i - jobs.size()];
    };
    const auto largestFirst = [](auto &groups) {
        std::stable_sort(groups.begin(), groups.end(),
                         [](const auto &a, const auto &b) {
                             return a.size() > b.size();
                         });
    };
    // A queued group: its job indices, and the analytic pass of the
    // group that released it (null for the submitted jobs' groups).
    struct Queued
    {
        std::vector<std::size_t> group;
        std::shared_ptr<const AnalyticPass> pass;
    };
    std::vector<std::vector<std::size_t>> initial =
        laneGroups(jobs, parallelism_);
    largestFirst(initial);
    std::deque<Queued> queue;
    for (std::vector<std::size_t> &g : initial)
        queue.push_back({std::move(g), nullptr});

    // Everything below is shared between the workers and guarded by
    // `mu`, except the members and results of a running group, which
    // only the worker running it touches until it reports.
    std::vector<RunResult> results(jobs.size());
    std::mutex mu;
    std::condition_variable wake;
    std::size_t running = 0;
    std::size_t done = 0;
    bool stopped = false;

    const auto enqueue = [&](std::vector<RunJob> &release,
                             const std::shared_ptr<const AnalyticPass>
                                 &pass) {
        const std::size_t base = jobs.size() + released.size();
        std::vector<std::vector<std::size_t>> groups =
            laneGroups(release, parallelism_);
        largestFirst(groups);
        for (auto g = groups.rbegin(); g != groups.rend(); ++g) {
            for (std::size_t &i : *g)
                i += base;
            queue.push_front({std::move(*g), pass});
        }
        for (RunJob &job : release)
            released.push_back(std::move(job));
        results.resize(jobs.size() + released.size());
    };

    const auto work = [&] {
        std::unique_lock lk(mu);
        for (;;) {
            // An empty queue with groups still running may refill.
            wake.wait(lk, [&] {
                return stopped || !queue.empty() || running == 0;
            });
            if (stopped || queue.empty())
                return;
            auto [group, pass] = std::move(queue.front());
            queue.pop_front();
            std::vector<const RunJob *> members;
            for (const std::size_t i : group)
                members.push_back(&jobAt(i));
            ++running;
            lk.unlock();
            std::vector<RunResult> out = runGroup(members, pass);
            lk.lock();
            --running;
            for (std::size_t k = 0; k < group.size(); ++k) {
                results[group[k]] = std::move(out[k]);
                if (progress_)
                    progress_(++done, results.size(), *members[k]);
            }
            std::vector<RunJob> release;
            if (finished && !finished(group, results, release))
                stopped = true;
            else if (!release.empty())
                enqueue(release, pass);
            wake.notify_all();
        }
    };

    const std::size_t threads =
        std::min<std::size_t>(parallelism_, queue.size());
    if (threads <= 1) {
        work();
        return results;
    }
    {
        // Joined at the end of this scope, after the last group.
        std::vector<std::jthread> pool;
        pool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t)
            pool.emplace_back(work);
    }
    return results;
}

} // namespace rcache
