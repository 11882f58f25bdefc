#include "scenario/cell_eval.hh"

#include <array>
#include <iterator>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

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

namespace
{

/** The identity columns of cell @p cell's row (see cellRecord);
 *  every other column is left default. */
SweepRecord
cellIdentity(std::size_t cell, const std::string &app,
             const DesignPoint &p)
{
    SweepRecord r;
    r.cell = cell;
    r.app = app;
    r.org = organizationToken(p.org);
    r.strategy = strategyName(p.strategy);
    r.side = sweepSideName(p.side);
    r.axes = p.axes;
    r.engine = p.engine.mode;
    r.policy = p.cfg.policy;
    return r;
}

} // namespace

SweepRecord
cellRecord(std::size_t cell, const std::string &app,
           const DesignPoint &p, const SearchOutcome &out)
{
    SweepRecord r = cellIdentity(cell, app, p);
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
    return r;
}

std::string
cellRowMismatch(const SweepRecord &row, const ParamSpace &space,
                const std::vector<AppEntry> &apps, std::size_t cell,
                const EngineSpec *engine)
{
    const std::size_t npoints = space.numPoints();
    DesignPoint p = space.point(cell % npoints);
    if (engine)
        p.engine = *engine;
    const auto columns = [](const SweepRecord &r) {
        return std::array<std::string, 8>{
            std::to_string(r.cell), r.app,  r.org,
            r.strategy,             r.side, r.axes,
            engineName(r.engine),   r.policy};
    };
    static constexpr const char *kNames[] = {
        "cell", "app", "org", "strategy", "side", "axes", "engine",
        "policy"};
    const auto got = columns(row);
    const auto want =
        columns(cellIdentity(cell, apps[cell / npoints].name, p));
    for (std::size_t i = 0; i < got.size(); ++i)
        if (got[i] != want[i])
            return std::string(kNames[i]) + " '" + got[i] +
                   "' where this scenario has '" + want[i] + "'";
    return "";
}

namespace
{

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
    c.first = first;

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

void
CellBatch::cut()
{
    if (cells_.size() > (cuts_.empty() ? 0 : cuts_.back()))
        cuts_.push_back(cells_.size());
}

std::vector<SweepRecord>
CellBatch::run(const Execute &execute, JobMemo &memo, const Sink &sink)
{
    // Every key is stored once, in the memo or in `inDrain` (key ->
    // drain index, in order of first appearance) for the keys this
    // batch runs; a key this batch reports but does not run was in
    // the memo before it.
    std::map<std::string, std::size_t> inDrain;
    std::vector<const std::string *> keys;
    std::vector<const std::string *> drainKeys;
    keys.reserve(jobs_.size());
    for (const RunJob &job : jobs_) {
        std::string key = jobKey(job);
        if (const auto it = memo.runs.find(key); it != memo.runs.end()) {
            keys.push_back(&it->first);
        } else {
            const auto [it2, fresh] =
                inDrain.try_emplace(std::move(key), drainKeys.size());
            keys.push_back(&it2->first);
            if (fresh)
                drainKeys.push_back(keys.back());
        }
    }
    // By drain index: the telemetry bundle each run fills, and the
    // side=both cells waiting on it.
    std::vector<std::shared_ptr<RunTelemetry>> bundles;
    std::vector<std::vector<std::size_t>> waiting(drainKeys.size());
    const auto attach = [&](RunJob job) {
        std::shared_ptr<RunTelemetry> bundle;
        if (memo.timelineInterval > 0 || memo.resizeEvents) {
            bundle = std::make_shared<RunTelemetry>();
            bundle->timelineInterval = memo.timelineInterval;
            bundle->resizeEvents = memo.resizeEvents;
            job.telemetry = bundle.get();
        }
        bundles.push_back(std::move(bundle));
        return job;
    };
    std::vector<RunJob> start;
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        if (start.size() < drainKeys.size() &&
            keys[i] == drainKeys[start.size()])
            start.push_back(attach(jobs_[i]));

    const auto resultsOf = [&](std::size_t off, std::size_t count) {
        std::vector<RunResult> out;
        out.reserve(count);
        for (std::size_t j = off; j < off + count; ++j)
            out.push_back(memo.result(*keys[j]));
        return out;
    };

    // Phase 2: once its phase-1 keys have run, each side=both cell
    // reruns both caches together at the two per-side profiled
    // levels (the paper's Fig 9 methodology). A combined job the
    // memo holds, or the drain already runs, is not released again.
    std::vector<RunJob> phase2(cells_.size());
    std::vector<const std::string *> phase2Keys(cells_.size());
    std::vector<SearchOutcome> douts(cells_.size());
    std::vector<std::size_t> pending(cells_.size());
    const auto release = [&](std::size_t i, std::vector<RunJob> &to) {
        const Cell &c = cells_[i];
        const RunResult &base = memo.result(c.baseKey);
        douts[i] = Experiment::reduceStatic(base, resultsOf(c.off, c.count));
        const SearchOutcome iout =
            Experiment::reduceStatic(base, resultsOf(c.ioff, c.icount));
        Experiment exp(c.point.cfg, space_.spec().insts);
        exp.setEngine(c.point.engine);
        // The d sweep's first job carries the cell's label profile,
        // mix, and trace point.
        const RunJob &d0 = jobs_[c.off];
        RunJob job = exp.bothStaticJob(d0.profile, c.point.org,
                                       iout.bestLevel, douts[i].bestLevel);
        job.mixProfiles = d0.mixProfiles;
        job.tracePoint = d0.tracePoint;
        std::string key = jobKey(job);
        if (const auto it = memo.runs.find(key); it != memo.runs.end()) {
            phase2Keys[i] = &it->first;
        } else {
            const auto [it2, fresh] =
                inDrain.try_emplace(std::move(key), drainKeys.size());
            phase2Keys[i] = &it2->first;
            if (fresh) {
                drainKeys.push_back(phase2Keys[i]);
                waiting.emplace_back();
                to.push_back(attach(job));
            }
        }
        phase2[i] = std::move(job);
    };
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const Cell &c = cells_[i];
        if (c.point.side != SweepSide::Both)
            continue;
        std::set<std::size_t> deps;
        const auto need = [&](const std::string &key) {
            if (const auto it = inDrain.find(key); it != inDrain.end())
                deps.insert(it->second);
        };
        need(c.baseKey);
        for (std::size_t j = c.off; j < c.off + c.count; ++j)
            need(*keys[j]);
        for (std::size_t j = c.ioff; j < c.ioff + c.icount; ++j)
            need(*keys[j]);
        pending[i] = deps.size();
        for (const std::size_t d : deps)
            waiting[d].push_back(i);
        if (deps.empty())
            ready.push_back(i);
    }
    for (const std::size_t i : ready)
        release(i, start);

    // ---- commit units in order as they complete
    std::vector<std::size_t> ends = cuts_;
    if (cells_.size() > (ends.empty() ? 0 : ends.back()))
        ends.push_back(cells_.size());
    const auto jobsOf = [&](std::size_t begin, std::size_t end) {
        return std::pair{cells_[begin].first,
                         end < cells_.size() ? cells_[end].first
                                             : jobs_.size()};
    };
    const auto complete = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            if (cells_[i].point.side == SweepSide::Both &&
                (!phase2Keys[i] || !memo.runs.count(*phase2Keys[i])))
                return false;
        const auto [jbegin, jend] = jobsOf(begin, end);
        for (std::size_t j = jbegin; j < jend; ++j)
            if (!memo.runs.count(*keys[j]))
                return false;
        return true;
    };
    // A run happened for the first job to report its key; every
    // other job reuses it.
    std::vector<char> reported(drainKeys.size());
    const auto tell = [&](const RunJob &job, const std::string &key) {
        const auto it = inDrain.find(key);
        bool reused = it == inDrain.end();
        if (!reused) {
            reported.resize(drainKeys.size());
            reused = reported[it->second];
            reported[it->second] = true;
        }
        if (sink.report)
            sink.report(job, memo.runs.at(key), reused);
    };
    std::size_t unit = 0;
    std::vector<SweepRecord> rows;
    const auto commitReady = [&] {
        bool any = false;
        for (; unit < ends.size(); ++unit) {
            const std::size_t begin = unit ? ends[unit - 1] : 0;
            const std::size_t end = ends[unit];
            if (!complete(begin, end))
                break;
            const auto [jbegin, jend] = jobsOf(begin, end);
            Unit u;
            u.plannedJobs = jend - jbegin;
            for (std::size_t j = jbegin; j < jend; ++j)
                tell(jobs_[j], *keys[j]);
            for (std::size_t i = begin; i < end; ++i)
                if (cells_[i].point.side == SweepSide::Both) {
                    tell(phase2[i], *phase2Keys[i]);
                    ++u.plannedJobs;
                }
            for (const auto &[key, idx] : newBases_)
                if (idx >= jbegin && idx < jend)
                    u.newBaselineLabels.push_back(jobs_[idx].label);
            for (std::size_t i = begin; i < end; ++i) {
                const Cell &c = cells_[i];
                const RunResult &base = memo.result(c.baseKey);
                const SearchOutcome out =
                    c.point.side == SweepSide::Both
                        ? Experiment::reduceBoth(
                              base, douts[i], memo.result(*phase2Keys[i]))
                        : Experiment::reduceSearch(
                              base, c.candidates,
                              resultsOf(c.off, c.count));
                u.rows.push_back(cellRecord(
                    c.cell, apps_[c.cell / space_.numPoints()].name,
                    c.point, out));
            }
            if (sink.commit)
                sink.commit(u);
            rows.insert(rows.end(), u.rows.begin(), u.rows.end());
            any = true;
        }
        return any;
    };
    const auto beat = [&] { return !sink.heartbeat || sink.heartbeat(); };

    if (commitReady() && !beat())
        return rows;
    if (!start.empty())
        execute(start, [&](const std::vector<std::size_t> &group,
                           const std::vector<RunResult> &results,
                           std::vector<RunJob> &to) {
            std::vector<std::size_t> now;
            for (const std::size_t d : group) {
                memo.runs[*drainKeys[d]] = {results[d],
                                            std::move(bundles[d])};
                for (const std::size_t i : waiting[d])
                    if (--pending[i] == 0)
                        now.push_back(i);
            }
            for (const std::size_t i : now)
                release(i, to);
            commitReady();
            return beat();
        });
    commitReady();
    return rows;
}

std::uint64_t
plannedCoreJobs(const ParamSpace &space, const std::vector<AppEntry> &apps,
                const std::vector<std::size_t> &cells)
{
    if (cells.empty())
        return 0;
    const std::size_t npoints = space.numPoints();
    const std::uint64_t insts = space.spec().insts;
    // A baseline's jobKey holds its workload's fields (profile, then
    // mix) around its system's (configuration, insts and engine, one
    // engine for every cell here). So two cells share a baseline
    // exactly when the keys of their workloads at one fixed system
    // agree and the keys of their systems with one fixed workload do.
    const SystemConfig fixed_system = space.point(0).cfg;
    const BenchmarkProfile &fixed_workload = apps.front().mix.front();
    std::map<std::string, std::size_t> workload_ids, system_ids;
    const auto idOf = [](std::map<std::string, std::size_t> &ids,
                         std::string key) {
        return ids.try_emplace(std::move(key), ids.size()).first->second;
    };
    const auto workloadId = [&](const AppEntry &app,
                                const DesignPoint &p) {
        const EffectiveWorkload eff = effectiveWorkload(app, p);
        std::vector<RunJob> job{
            Experiment(fixed_system, insts).baselineJob(eff.label)};
        attachMix(job.begin(), job.end(), eff);
        return idOf(workload_ids, jobKey(job.front()));
    };

    /** What each cell of one design point lays out. */
    struct Point
    {
        std::uint64_t cores = 0;
        /** Jobs besides the baseline. */
        std::uint64_t jobs = 0;
        std::size_t system = 0;
        /** The workload a 'mix' axis sets, if it sets one. */
        std::optional<std::size_t> mix;
    };
    std::map<std::size_t, Point> points;
    std::vector<std::optional<std::size_t>> app_workloads(apps.size());
    std::set<std::pair<std::size_t, std::size_t>> baselines;
    std::uint64_t n = 0;
    for (const std::size_t cell : cells) {
        const AppEntry &app = apps[cell / npoints];
        const auto [it, fresh] = points.try_emplace(cell % npoints);
        Point &pt = it->second;
        if (fresh) {
            const DesignPoint p = space.point(cell % npoints);
            Experiment exp(p.cfg, insts);
            exp.setSearchGrid(space.spec().search.dynGrid);
            const auto candidates = [&](CacheSide side, Strategy strat) {
                return exp.searchCandidates(side, p.org, strat).size();
            };
            pt.cores = p.cfg.cores;
            pt.jobs = p.side == SweepSide::Both
                          ? candidates(CacheSide::DCache, Strategy::Static) +
                                candidates(CacheSide::ICache,
                                           Strategy::Static) +
                                1
                          : candidates(cacheSideOf(p.side), p.strategy);
            pt.system =
                idOf(system_ids, jobKey(exp.baselineJob(fixed_workload)));
            if (!p.mix.empty())
                pt.mix = workloadId(app, p);
        }
        std::optional<std::size_t> workload = pt.mix;
        if (!workload) {
            std::optional<std::size_t> &own =
                app_workloads[cell / npoints];
            if (!own)
                own = workloadId(app, {});
            workload = own;
        }
        n += pt.cores * pt.jobs;
        if (baselines.emplace(*workload, pt.system).second)
            n += pt.cores;
    }
    return n;
}

std::vector<SweepRecord>
evaluateCells(const ParamSpace &space, const std::vector<AppEntry> &apps,
              const std::vector<std::size_t> &cells, unsigned jobs,
              const EngineSpec *engine,
              const std::function<bool()> &heartbeat)
{
    CellBatch batch(space, apps);
    JobMemo memo;
    for (const std::size_t cell : cells)
        batch.add(cell, memo, engine);
    const SweepRunner runner(jobs);
    CellBatch::Sink sink;
    sink.heartbeat = heartbeat;
    return batch.run(
        [&](const std::vector<RunJob> &js,
            const SweepRunner::Finished &finished) {
            return runner.drain(js, finished);
        },
        memo, sink);
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
