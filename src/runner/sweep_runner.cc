#include "runner/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "analytic/analytic_engine.hh"
#include "sim/multi_core_system.hh"
#include "telemetry/trace_events.hh"
#include "util/parallel.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

namespace
{

/** The workload mix of a multi-core @p job: mixProfiles, or
 *  job.profile on every core. */
std::vector<BenchmarkProfile>
mixOf(const RunJob &job)
{
    return job.mixProfiles.empty()
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

/** What fixes the streams @p job reads and the periods it reads them
 *  in (see SweepRunner::laneGroups). */
std::string
scheduleKey(const RunJob &job)
{
    // A single core runs its whole stream as one quantum.
    const std::uint64_t quantum =
        job.cfg.cores > 1 ? job.cfg.quantumInsts : job.insts;
    std::string key = std::to_string(job.cfg.cores) + '|' +
                      std::to_string(job.insts) + '|' +
                      std::to_string(quantum) + '|' +
                      engineArg(job.engine);
    for (unsigned c = 0; c < job.cfg.cores; ++c) {
        key += '|';
        key += profileKey(laneProfile(job, c));
    }
    return key;
}

/** Run @p group, timed jobs of one schedule, as the lanes of one
 *  lockstep group. @return their results, in group order */
std::vector<RunResult>
runLanes(const std::vector<const RunJob *> &group)
{
    const RunJob &lead = *group.front();
    std::vector<std::vector<CoreLane *>> members;
    std::vector<RunResult> results;
    if (lead.cfg.cores == 1) {
        const std::unique_ptr<Workload> stream = makeWorkload(lead.profile);
        std::vector<std::unique_ptr<System>> systems;
        for (const RunJob *job : group) {
            systems.push_back(std::make_unique<System>(job->cfg));
            members.push_back({&systems.back()->start(
                job->il1, job->dl1, job->engine, job->telemetry)});
        }
        runLockstep({stream.get()}, members, lead.insts, lead.insts,
                    lead.engine);
        for (const auto &sys : systems)
            results.push_back(sys->finish(stream->name(), lead.insts));
        return results;
    }
    const MultiCoreSystem::Streams streams =
        MultiCoreSystem::openStreams(mixOf(lead), lead.cfg.cores);
    std::vector<Workload *> slots;
    for (const auto &s : streams)
        slots.push_back(s.get());
    std::vector<std::unique_ptr<MultiCoreSystem>> systems;
    for (const RunJob *job : group) {
        systems.push_back(std::make_unique<MultiCoreSystem>(job->cfg));
        members.push_back(systems.back()->start(job->il1, job->dl1,
                                                job->engine,
                                                job->telemetry));
    }
    runLockstep(slots, members, lead.insts, lead.cfg.quantumInsts,
                lead.engine);
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
    if (job.cfg.cores > 1) {
        MultiCoreSystem sys(job.cfg);
        return sys.run(mixOf(job), job.insts, job.il1, job.dl1,
                       job.engine, job.telemetry)
            .aggregate;
    }
    const std::unique_ptr<Workload> wl = makeWorkload(job.profile);
    System sys(job.cfg);
    return sys.run(*wl, job.insts, job.il1, job.dl1, job.engine,
                   job.telemetry);
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

std::vector<std::vector<std::size_t>>
SweepRunner::laneGroups(const std::vector<RunJob> &jobs, unsigned workers)
{
    std::vector<std::vector<std::size_t>> schedules;
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].engine.analytic()) {
            schedules.push_back({i});
            continue;
        }
        const auto [it, fresh] =
            index.try_emplace(scheduleKey(jobs[i]), schedules.size());
        if (fresh)
            schedules.emplace_back();
        schedules[it->second].push_back(i);
    }

    const std::size_t cap = std::clamp<std::size_t>(
        jobs.size() / (2 * std::max(1u, workers)), 1, maxLanes);
    std::vector<std::vector<std::size_t>> groups;
    for (const std::vector<std::size_t> &s : schedules) {
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

void
SweepRunner::runGroup(const std::vector<RunJob> &jobs,
                      const std::vector<std::size_t> &group,
                      std::vector<RunResult> &results) const
{
    std::vector<const RunJob *> members;
    for (const std::size_t i : group)
        members.push_back(&jobs[i]);
    const auto begin =
        trace_ ? trace_->now() : TraceEventRecorder::Clock::time_point{};
    if (members.front()->engine.analytic()) {
        results[group.front()] = executeRunJob(*members.front());
    } else {
        std::vector<RunResult> out = runLanes(members);
        for (std::size_t k = 0; k < group.size(); ++k)
            results[group[k]] = std::move(out[k]);
    }
    if (!trace_)
        return;
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
}

std::vector<RunResult>
SweepRunner::run(const std::vector<RunJob> &jobs) const
{
    std::vector<RunResult> results(jobs.size());
    const std::vector<std::vector<std::size_t>> groups =
        laneGroups(jobs, parallelism_);

    // A group's members are written only by the worker that took it;
    // `done` is shared for progress display only.
    std::atomic<std::size_t> done{0};
    parallelFor(groups.size(), parallelism_, [&](std::size_t g) {
        runGroup(jobs, groups[g], results);
        for (const std::size_t i : groups[g])
            reportProgress(done.fetch_add(1) + 1, jobs.size(), jobs[i]);
    });
    return results;
}

} // namespace rcache
