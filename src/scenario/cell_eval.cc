#include "scenario/cell_eval.hh"

#include <iterator>
#include <numeric>
#include <set>
#include <sstream>

#include "analytic/analytic_engine.hh"
#include "telemetry/run_telemetry.hh"
#include "util/logging.hh"
#include "util/numformat.hh"
#include "workload/profiles.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

std::vector<AppEntry>
resolveApps(const ScenarioSpec &spec, std::string *err)
{
    std::vector<AppEntry> apps;
    if (spec.apps.empty()) {
        for (BenchmarkProfile &p : spec2000Suite()) {
            AppEntry entry;
            entry.name = p.name;
            entry.mix = {std::move(p)};
            apps.push_back(std::move(entry));
        }
        return apps;
    }
    for (const std::string &name : spec.apps) {
        auto mix = mixByName(name, err);
        if (!mix)
            return {};
        apps.push_back({name, std::move(*mix)});
    }
    return apps;
}

EffectiveWorkload
effectiveWorkload(const AppEntry &entry, const DesignPoint &p)
{
    EffectiveWorkload eff;
    if (p.mix.empty()) {
        eff.mix = entry.mix;
        eff.label = entry.mix.front();
        eff.label.name = entry.name;
    } else {
        // Validated by ParamSpace::build; failure here is a bug.
        auto mix = mixByName(p.mix);
        rc_assert(mix);
        eff.mix = std::move(*mix);
        eff.label = eff.mix.front();
        eff.label.name = p.mix;
    }
    return eff;
}

void
attachMix(std::vector<RunJob>::iterator begin,
          std::vector<RunJob>::iterator end,
          const EffectiveWorkload &eff)
{
    if (eff.mix.size() <= 1)
        return;
    for (auto it = begin; it != end; ++it)
        it->mixProfiles = eff.mix;
}

CacheSide
cacheSideOf(SweepSide side)
{
    return side == SweepSide::ICache ? CacheSide::ICache
                                     : CacheSide::DCache;
}

std::string
baselineKey(const SystemConfig &cfg, const EngineSpec &engine,
            const std::string &workload)
{
    std::ostringstream os;
    os << workload << '|' << systemConfigKey(cfg) << '|'
       << engineName(engine.mode) << '|'
       << engine.sampling.intervalInsts << '|'
       << engine.sampling.detailedInsts << '|'
       << engine.sampling.warmupInsts;
    return os.str();
}

std::string
jobKey(const RunJob &job)
{
    // systemConfigKey spells out what a scenario can set; the core
    // fields it cannot set follow it.
    const CoreParams &core = job.cfg.core;
    std::string key = profileKey(job.profile);
    key += '#';
    key += systemConfigKey(job.cfg);
    for (unsigned v : {core.frontendDepth, core.wbDrainLatency,
                       core.bpred.bimodalEntries, core.bpred.gshareEntries,
                       core.bpred.chooserEntries, core.bpred.historyBits,
                       core.bpred.btbEntries})
        appendKeyField(key, v);
    appendKeyField(key, job.insts);
    for (const ResizeSetup *setup : {&job.il1, &job.dl1}) {
        appendKeyField(key, static_cast<int>(setup->strategy));
        appendKeyField(key, setup->staticLevel);
        appendKeyField(key, setup->dyn.intervalAccesses);
        appendKeyField(key, setup->dyn.missBound);
        appendKeyField(key, setup->dyn.sizeBoundBytes);
        appendKeyField(key, setup->dyn.downsizeFraction);
    }
    appendKeyField(key, engineArg(job.engine));
    for (const BenchmarkProfile &p : job.mixProfiles) {
        key += '#';
        key += profileKey(p);
    }
    return key;
}

SweepRecord
cellRecord(std::size_t cell, const std::string &app,
           const DesignPoint &p, const SearchOutcome &out)
{
    SweepRecord r;
    r.cell = cell;
    r.app = app;
    r.org = organizationToken(p.org);
    r.strategy = strategyName(p.strategy);
    r.side = sweepSideName(p.side);
    r.axes = p.axes;
    r.bestLevel = out.bestLevel;
    if (p.strategy == Strategy::Dynamic) {
        r.intervalAccesses = out.bestParams.intervalAccesses;
        r.missBound = out.bestParams.missBound;
        r.sizeBoundBytes = out.bestParams.sizeBoundBytes;
    }
    r.edReductionPct = out.edReductionPct();
    r.perfDegradationPct = out.perfDegradationPct();
    if (p.side == SweepSide::Both) {
        const double full =
            out.baseline.avgIl1Bytes + out.baseline.avgDl1Bytes;
        r.sizeReductionPct =
            full == 0 ? 0
                      : 100.0 * (1.0 - (out.best.avgIl1Bytes +
                                        out.best.avgDl1Bytes) /
                                           full);
    } else {
        r.sizeReductionPct = out.sizeReductionPct(cacheSideOf(p.side));
    }
    r.baselineEdp = out.baseline.edp();
    r.bestEdp = out.best.edp();
    r.baselineCycles = out.baseline.cycles;
    r.bestCycles = out.best.cycles;
    r.avgIl1Bytes = out.best.avgIl1Bytes;
    r.avgDl1Bytes = out.best.avgDl1Bytes;
    r.engine = out.best.engine;
    r.policy = p.cfg.policy;
    return r;
}

void
registerAnalyticCell(AnalyticBatch &analytic, const ParamSpace &space,
                     const std::vector<AppEntry> &apps, std::size_t cell)
{
    // Every job of a cell shares the cell's full geometry, so the
    // design point covers its baseline and every candidate.
    const std::size_t npoints = space.numPoints();
    const DesignPoint p = space.point(cell % npoints);
    analytic.registerConfig(
        p.cfg, effectiveWorkload(apps[cell / npoints], p).label,
        space.spec().insts);
}

namespace
{

/**
 * Run @p jobs through @p memo (see CellBatch::run): execute each key
 * the memo lacks once, with the memo's telemetry, then report every
 * job in order.
 * @return every job's result, in job order
 */
std::vector<RunResult>
runMemoized(const std::vector<RunJob> &jobs,
            const CellBatch::Execute &execute, JobMemo &memo,
            const CellBatch::Report &report)
{
    std::vector<std::string> keys;
    keys.reserve(jobs.size());
    std::vector<RunJob> fresh;
    std::vector<bool> reused(jobs.size());
    std::set<std::string> pending;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        keys.push_back(jobKey(jobs[i]));
        reused[i] = memo.runs.count(keys[i]) ||
                    !pending.insert(keys[i]).second;
        if (!reused[i])
            fresh.push_back(jobs[i]);
    }

    if (!fresh.empty()) {
        std::vector<std::shared_ptr<RunTelemetry>> bundles(fresh.size());
        if (memo.timelineInterval > 0 || memo.resizeEvents) {
            for (std::size_t k = 0; k < fresh.size(); ++k) {
                bundles[k] = std::make_shared<RunTelemetry>();
                bundles[k]->timelineInterval = memo.timelineInterval;
                bundles[k]->resizeEvents = memo.resizeEvents;
                fresh[k].telemetry = bundles[k].get();
            }
        }
        const std::vector<RunResult> results = execute(fresh);
        rc_assert(results.size() == fresh.size());
        for (std::size_t i = 0, k = 0; i < jobs.size(); ++i)
            if (!reused[i]) {
                memo.runs[keys[i]] = {results[k], std::move(bundles[k])};
                ++k;
            }
    }

    std::vector<RunResult> out;
    out.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobRun &run = memo.runs.at(keys[i]);
        if (report)
            report(jobs[i], run, reused[i]);
        out.push_back(run.result);
    }
    return out;
}

/** A cell's coordinates as the runner's trace spans show them. */
std::string
tracePointOf(std::size_t cell, const std::string &app,
             const DesignPoint &p)
{
    std::ostringstream pt;
    pt << "cell=" << cell << ";app=" << app
       << ";org=" << organizationToken(p.org)
       << ";strategy=" << strategyName(p.strategy)
       << ";side=" << sweepSideName(p.side);
    if (!p.axes.empty())
        pt << ';' << p.axes;
    return pt.str();
}

} // namespace

CellBatch::CellBatch(const ParamSpace &space,
                     const std::vector<AppEntry> &apps, bool tracePoints)
    : space_(space), apps_(apps), tracePoints_(tracePoints)
{
}

void
CellBatch::add(std::size_t cell, const JobMemo &memo,
               const EngineSpec *engine)
{
    const std::size_t npoints = space_.numPoints();
    const AppEntry &app = apps_[cell / npoints];
    Cell c;
    c.cell = cell;
    c.point = space_.point(cell % npoints);
    if (engine)
        c.point.engine = *engine;
    const DesignPoint &p = c.point;
    const EffectiveWorkload eff = effectiveWorkload(app, p);
    const std::size_t first = jobs_.size();

    Experiment exp(p.cfg, space_.spec().insts);
    exp.setEngine(p.engine);
    exp.setSearchGrid(space_.spec().search.dynGrid);

    jobs_.push_back(exp.baselineJob(eff.label));
    attachMix(jobs_.end() - 1, jobs_.end(), eff);
    c.baseKey = jobKey(jobs_.back());
    if (memo.runs.count(c.baseKey) ||
        !newBases_.try_emplace(c.baseKey, first).second)
        jobs_.pop_back();

    const auto append = [&](std::vector<RunJob> jobs, std::size_t &off,
                            std::size_t &count) {
        off = jobs_.size();
        count = jobs.size();
        jobs_.insert(jobs_.end(), std::make_move_iterator(jobs.begin()),
                     std::make_move_iterator(jobs.end()));
    };
    if (p.side == SweepSide::Both) {
        append(exp.staticSearchJobs(eff.label, CacheSide::DCache, p.org),
               c.off, c.count);
        append(exp.staticSearchJobs(eff.label, CacheSide::ICache, p.org),
               c.ioff, c.icount);
    } else {
        const CacheSide side = cacheSideOf(p.side);
        c.candidates = exp.searchCandidates(side, p.org, p.strategy);
        append(exp.searchJobs(eff.label, side, p.org, p.strategy), c.off,
               c.count);
    }
    attachMix(jobs_.begin() + first, jobs_.end(), eff);
    if (tracePoints_) {
        const std::string pt = tracePointOf(cell, app.name, p);
        for (auto it = jobs_.begin() + first; it != jobs_.end(); ++it)
            it->tracePoint = pt;
    }
    cells_.push_back(std::move(c));
}

std::size_t
CellBatch::plannedJobs() const
{
    std::size_t n = jobs_.size();
    for (const Cell &c : cells_)
        if (c.point.side == SweepSide::Both)
            ++n;
    return n;
}

std::uint64_t
CellBatch::plannedDetailedInsts() const
{
    const auto measured = [](const SystemConfig &cfg,
                             const EngineSpec &engine,
                             std::uint64_t insts) {
        return cfg.cores * engine.detailedInstsFor(insts);
    };
    std::uint64_t n = 0;
    for (const RunJob &job : jobs_)
        n += measured(job.cfg, job.engine, job.insts);
    // Phase 2 reruns a side=both cell on its own point.
    for (const Cell &c : cells_)
        if (c.point.side == SweepSide::Both)
            n += measured(c.point.cfg, c.point.engine,
                          space_.spec().insts);
    return n;
}

std::vector<std::string>
CellBatch::newBaselineLabels() const
{
    std::vector<std::string> labels;
    for (const auto &[key, idx] : newBases_)
        labels.push_back(jobs_[idx].label);
    return labels;
}

std::vector<SweepRecord>
CellBatch::run(const Execute &execute, JobMemo &memo,
               const Report &report)
{
    const std::vector<RunResult> results =
        runMemoized(jobs_, execute, memo, report);
    const auto slice = [&](std::size_t off, std::size_t count) {
        return std::vector<RunResult>(results.begin() + off,
                                      results.begin() + off + count);
    };

    // Phase 2: each side=both cell reruns both caches together at the
    // two per-side profiled levels (the paper's Fig 9 methodology).
    std::vector<RunJob> phase2;
    std::vector<SearchOutcome> douts(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const Cell &c = cells_[i];
        if (c.point.side != SweepSide::Both)
            continue;
        const RunResult &base = memo.result(c.baseKey);
        douts[i] = Experiment::reduceStatic(base, slice(c.off, c.count));
        const SearchOutcome iout =
            Experiment::reduceStatic(base, slice(c.ioff, c.icount));
        Experiment exp(c.point.cfg, space_.spec().insts);
        exp.setEngine(c.point.engine);
        // The d sweep's first job carries the cell's label profile,
        // mix, and trace point.
        const RunJob &d0 = jobs_[c.off];
        RunJob job = exp.bothStaticJob(d0.profile, c.point.org,
                                       iout.bestLevel, douts[i].bestLevel);
        job.mixProfiles = d0.mixProfiles;
        job.tracePoint = d0.tracePoint;
        phase2.push_back(std::move(job));
    }
    const std::vector<RunResult> results2 =
        runMemoized(phase2, execute, memo, report);

    std::vector<SweepRecord> records;
    records.reserve(cells_.size());
    std::size_t next2 = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const Cell &c = cells_[i];
        const RunResult &base = memo.result(c.baseKey);
        const SearchOutcome out =
            c.point.side == SweepSide::Both
                ? Experiment::reduceBoth(base, douts[i], results2[next2++])
                : Experiment::reduceSearch(base, c.candidates,
                                           slice(c.off, c.count));
        records.push_back(cellRecord(
            c.cell, apps_[c.cell / space_.numPoints()].name, c.point,
            out));
    }
    return records;
}

std::vector<SweepRecord>
evaluateCells(const ParamSpace &space, const std::vector<AppEntry> &apps,
              const std::vector<std::size_t> &cells, unsigned jobs,
              const EngineSpec *engine)
{
    CellBatch batch(space, apps);
    JobMemo memo;
    for (const std::size_t cell : cells)
        batch.add(cell, memo, engine);
    const SweepRunner runner(jobs);
    if ((engine ? *engine : space.spec().engine).analytic()) {
        AnalyticBatch analytic;
        for (const std::size_t cell : cells)
            registerAnalyticCell(analytic, space, apps, cell);
        return batch.run(
            [&](const std::vector<RunJob> &js) {
                return analytic.price(js, runner.parallelism());
            },
            memo);
    }
    return batch.run(
        [&](const std::vector<RunJob> &js) { return runner.run(js); },
        memo);
}

std::optional<ScenarioRows>
evaluateScenario(const ScenarioSpec &spec, unsigned jobs, std::string *err)
{
    const auto space = ParamSpace::build(spec, err);
    if (!space)
        return std::nullopt;
    const std::vector<AppEntry> apps = resolveApps(spec, err);
    if (apps.empty())
        return std::nullopt;
    ScenarioRows out;
    out.points = space->numPoints();
    std::vector<std::size_t> cells(apps.size() * out.points);
    std::iota(cells.begin(), cells.end(), 0);
    out.rows = evaluateCells(*space, apps, cells, jobs);
    return out;
}

} // namespace rcache
