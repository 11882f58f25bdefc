#include "sim/experiment.hh"

#include "util/logging.hh"

namespace rcache
{

std::string
cacheSideName(CacheSide side)
{
    return side == CacheSide::DCache ? "dcache" : "icache";
}

Experiment::Experiment(const SystemConfig &cfg,
                       std::uint64_t num_insts)
    : cfg_(cfg), numInsts_(num_insts)
{
    // Experiments own the org selection; start from a clean slate.
    cfg_.il1Org = Organization::None;
    cfg_.dl1Org = Organization::None;
}

void
Experiment::setEngine(const EngineSpec &engine)
{
    engine.validate();
    engine_ = engine;
}

SystemConfig
Experiment::configFor(CacheSide side, Organization org) const
{
    SystemConfig cfg = cfg_;
    if (side == CacheSide::DCache)
        cfg.dl1Org = org;
    else
        cfg.il1Org = org;
    return cfg;
}

RunJob
Experiment::baselineJob(const BenchmarkProfile &profile) const
{
    RunJob job;
    job.label = profile.name + "/baseline";
    job.profile = profile;
    job.cfg = cfg_;
    job.insts = numInsts_;
    job.engine = engine_;
    return job;
}

std::vector<DynamicParams>
Experiment::dynamicGrid(CacheSide side, Organization org) const
{
    const SystemConfig cfg = configFor(side, org);
    const CacheGeometry &geom =
        side == CacheSide::DCache ? cfg.dl1 : cfg.il1;

    // Size-bound candidates as fractions of the full size; the
    // default grid ends with the full size itself, which prevents any
    // downsizing — the safe fallback the profiling pass falls back to
    // when resizing always loses.
    std::vector<DynamicParams> grid;
    grid.reserve(grid_.intervals.size() *
                 grid_.missFractions.size() *
                 grid_.sizeFractions.size());
    for (std::uint64_t interval : grid_.intervals) {
        for (double frac : grid_.missFractions) {
            for (double size_frac : grid_.sizeFractions) {
                DynamicParams dyn;
                dyn.intervalAccesses = interval;
                dyn.missBound = static_cast<std::uint64_t>(
                    frac * static_cast<double>(interval));
                dyn.sizeBoundBytes = static_cast<std::uint64_t>(
                    size_frac * static_cast<double>(geom.size));
                grid.push_back(dyn);
            }
        }
    }
    return grid;
}

std::vector<SearchCandidate>
Experiment::searchCandidates(CacheSide side, Organization org,
                             Strategy strat) const
{
    std::vector<SearchCandidate> candidates;
    if (strat == Strategy::Static) {
        const SystemConfig cfg = configFor(side, org);
        const auto schedule = buildSchedule(
            org, side == CacheSide::DCache ? cfg.dl1 : cfg.il1);
        candidates.reserve(schedule.size());
        for (unsigned level = 0; level < schedule.size(); ++level) {
            candidates.push_back(
                {ResizeSetup{Strategy::Static, level, {}},
                 "static/L" + std::to_string(level)});
        }
        return candidates;
    }
    rc_assert(strat == Strategy::Dynamic);
    const auto grid = dynamicGrid(side, org);
    candidates.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        candidates.push_back({ResizeSetup{Strategy::Dynamic, 0, grid[i]},
                              "dynamic/G" + std::to_string(i)});
    }
    return candidates;
}

std::vector<RunJob>
Experiment::searchJobs(const BenchmarkProfile &profile, CacheSide side,
                       Organization org, Strategy strat) const
{
    const SystemConfig cfg = configFor(side, org);
    const auto candidates = searchCandidates(side, org, strat);

    std::vector<RunJob> jobs;
    jobs.reserve(candidates.size());
    for (const SearchCandidate &cand : candidates) {
        RunJob job;
        job.label = profile.name + "/" + organizationName(org) + "/" +
                    cacheSideName(side) + "/" + cand.tag;
        job.profile = profile;
        job.cfg = cfg;
        job.insts = numInsts_;
        job.engine = engine_;
        (side == CacheSide::DCache ? job.dl1 : job.il1) = cand.setup;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<RunJob>
Experiment::staticSearchJobs(const BenchmarkProfile &profile,
                             CacheSide side, Organization org) const
{
    return searchJobs(profile, side, org, Strategy::Static);
}

SearchOutcome
Experiment::reduceSearch(const RunResult &baseline,
                         const std::vector<SearchCandidate> &candidates,
                         const std::vector<RunResult> &results)
{
    rc_assert(candidates.size() == results.size());
    SearchOutcome out;
    out.baseline = baseline;

    // Strict `<`: the first minimum in candidate order wins, so
    // equal-E.D ties resolve to the larger cache / lower index (see
    // the header's tie-break contract).
    rc_assert(!results.empty());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &res = results[i];
        if (i == 0 || res.edp() < out.best.edp()) {
            out.best = res;
            out.bestLevel = candidates[i].setup.staticLevel;
            out.bestParams = candidates[i].setup.dyn;
        }
    }
    return out;
}

SearchOutcome
Experiment::reduceStatic(const RunResult &baseline,
                         const std::vector<RunResult> &results)
{
    std::vector<SearchCandidate> candidates;
    candidates.reserve(results.size());
    for (unsigned level = 0; level < results.size(); ++level)
        candidates.push_back(
            {ResizeSetup{Strategy::Static, level, {}}, ""});
    return reduceSearch(baseline, candidates, results);
}

SearchOutcome
Experiment::reduceBoth(const RunResult &baseline,
                       const SearchOutcome &dcacheOut,
                       const RunResult &combined)
{
    SearchOutcome out;
    out.baseline = baseline;
    out.best = combined;
    out.bestLevel = dcacheOut.bestLevel;
    return out;
}

RunJob
Experiment::bothStaticJob(const BenchmarkProfile &profile,
                          Organization org, unsigned il1_level,
                          unsigned dl1_level) const
{
    RunJob job;
    job.label = profile.name + "/" + organizationName(org) +
                "/both/static";
    job.profile = profile;
    job.cfg = cfg_;
    job.cfg.il1Org = org;
    job.cfg.dl1Org = org;
    job.insts = numInsts_;
    job.engine = engine_;
    job.il1 = ResizeSetup{Strategy::Static, il1_level, {}};
    job.dl1 = ResizeSetup{Strategy::Static, dl1_level, {}};
    return job;
}

} // namespace rcache
