/**
 * @file
 * rcache-layers: where a workload's host time goes, layer by layer,
 * measured from outside the simulator.
 *
 * The tool re-runs one perfbench workload through rcache's public
 * functions and records a span around every call it makes into a
 * layer: scenario planning, System construction, System::run, the
 * analytic pass and pricing, and each adaptive-search round. A
 * forwarding Workload wrapper times every next/nextBatch/skip call
 * that System::run makes, which splits a run into workload time
 * (synthetic generation or trace decoding) and core self time (timing
 * core, caches, resize controller, energy bookkeeping). Finally it
 * replays each profile's recorded data-reference and branch streams
 * through an isolated Cache per replacement policy and an isolated
 * BranchPredictor.
 *
 * Spans stay in memory and are written as JSON lines at exit, one
 * object per span: name, id, parent (0 = none), job (the run id that
 * groups one simulated job's spans, -1 outside jobs), tid, start_ns,
 * end_ns (relative to tool start), and numeric/string attributes.
 * perfbench/run.py turns them into metrics.
 *
 * usage:
 *   rcache-layers --scenario FILE --jobs N --spans OUT.jsonl
 *                 --rows OUT.jsonl [--tune-log LOG.jsonl]
 *
 * Without --tune-log the scenario is evaluated like `rcache-sim
 * sweep` (every cell, plus phase 2 for side=both cells). With it the
 * scenario is evaluated like `rcache-sim tune`: each round's cells, as
 * the decision log lists them, at that round's ladder engine. Every
 * evaluated cell's sweep-CSV row goes to --rows, so the caller can
 * check the re-run against the CLI's own output. Exit status: 0 on
 * success, 2 on bad arguments or inputs.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytic/analytic_engine.hh"
#include "cache/cache.hh"
#include "cache/replacement.hh"
#include "cpu/branch_predictor.hh"
#include "scenario/cell_eval.hh"
#include "scenario/param_space.hh"
#include "scenario/scenario_spec.hh"
#include "search/decision_log.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/system.hh"
#include "workload/trace_format.hh"
#include "workload/workload_factory.hh"

using namespace rcache;

namespace
{

using Clock = std::chrono::steady_clock;

/** Spans per policy in the isolated replays; run.py takes the median. */
constexpr unsigned kReplayReps = 3;

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + '"';
}

/** One closed span. */
struct Span
{
    Span(std::string name_, std::uint64_t id_, std::uint64_t parent_ = 0,
         std::int64_t job_ = -1, unsigned tid_ = 0)
        : name(std::move(name_)), id(id_), parent(parent_), job(job_),
          tid(tid_)
    {
    }

    std::string name;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t job;
    unsigned tid;
    Clock::time_point start;
    Clock::time_point end;
    std::vector<std::pair<std::string, double>> nums;
    std::vector<std::pair<std::string, std::string>> strs;
};

/** In-memory span store; add() is safe from worker threads. */
class SpanLog
{
  public:
    std::uint64_t newId() { return nextId_.fetch_add(1); }

    void add(Span span)
    {
        std::lock_guard<std::mutex> lk(mu_);
        spans_.push_back(std::move(span));
    }

    bool write(const std::string &path) const
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        const auto ns = [&](Clock::time_point t) {
            return std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t - t0_)
                .count();
        };
        std::lock_guard<std::mutex> lk(mu_);
        for (const Span &s : spans_) {
            os << "{\"name\":" << jsonString(s.name) << ",\"id\":" << s.id
               << ",\"parent\":" << s.parent << ",\"job\":" << s.job
               << ",\"tid\":" << s.tid << ",\"start_ns\":" << ns(s.start)
               << ",\"end_ns\":" << ns(s.end) << ",\"attrs\":{";
            bool first = true;
            for (const auto &[k, v] : s.nums) {
                os << (first ? "" : ",") << jsonString(k) << ':'
                   << std::to_string(v);
                first = false;
            }
            for (const auto &[k, v] : s.strs) {
                os << (first ? "" : ",") << jsonString(k) << ':'
                   << jsonString(v);
                first = false;
            }
            os << "}}\n";
        }
        os.flush();
        return static_cast<bool>(os);
    }

  private:
    const Clock::time_point t0_ = Clock::now();
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Forwarding Workload that times every call System::run makes. */
class TimedWorkload final : public Workload
{
  public:
    explicit TimedWorkload(Workload &inner) : inner_(inner) {}

    MicroInst next() override
    {
        const auto t0 = Clock::now();
        const MicroInst m = inner_.next();
        charge(t0);
        return m;
    }

    void nextBatch(MicroInst *buf, std::size_t n) override
    {
        const auto t0 = Clock::now();
        inner_.nextBatch(buf, n);
        charge(t0);
    }

    void reset() override { inner_.reset(); }

    void skip(std::uint64_t n) override
    {
        const auto t0 = Clock::now();
        inner_.skip(n);
        charge(t0);
    }

    std::string name() const override { return inner_.name(); }

    std::int64_t ns() const { return ns_; }
    std::uint64_t calls() const { return calls_; }

  private:
    void charge(Clock::time_point t0)
    {
        ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0)
                   .count();
        ++calls_;
    }

    Workload &inner_;
    std::int64_t ns_ = 0;
    std::uint64_t calls_ = 0;
};

/** "gen" for synthetic profiles, else the trace format name. */
std::string
sourceOf(const BenchmarkProfile &p)
{
    if (!isTraceProfile(p))
        return "gen";
    TraceSpec ts;
    std::string err;
    if (!parseTraceSpec(p.traceSpec, &ts, &err))
        return "trace";
    return traceFormatName(ts.format);
}

/** Everything cell evaluation reads (mirrors the tuner's context). */
struct Ctx
{
    const ParamSpace *space = nullptr;
    const std::vector<AppEntry> *apps = nullptr;
    std::uint64_t insts = 0;
    SearchGrid grid;
    std::size_t npoints = 0;
};

struct CellWork
{
    std::size_t cell = 0;
    std::size_t app = 0;
    DesignPoint point;
    std::string baseKey;
    std::size_t off = 0, count = 0;
    std::size_t ioff = 0, icount = 0;
    std::vector<SearchCandidate> candidates;
};

/** One evaluation batch: a whole sweep, or one tune round. */
struct Batch
{
    std::string engine;
    std::size_t round = 0;
    std::vector<RunJob> jobs;
    std::vector<CellWork> cells;
    std::vector<std::pair<std::string, std::size_t>> newBases;
};

/**
 * Enumerate @p cells' jobs the way the sweep engine and the tuner do:
 * one memoized baseline per key, then each cell's candidates (both
 * sides for side=both). @p engine overrides every point's engine (a
 * tune rung); null keeps the scenario's.
 */
Batch
buildBatch(const Ctx &ctx, const std::vector<std::size_t> &cells,
           const EngineSpec *engine)
{
    Batch b;
    std::map<std::string, std::size_t> base_at;
    for (const std::size_t cell : cells) {
        CellWork w;
        w.cell = cell;
        w.app = cell / ctx.npoints;
        w.point = ctx.space->point(cell % ctx.npoints);
        if (engine)
            w.point.engine = *engine;
        const EffectiveWorkload eff =
            effectiveWorkload((*ctx.apps)[w.app], w.point);

        Experiment exp(w.point.cfg, ctx.insts);
        exp.setEngine(w.point.engine);
        exp.setSearchGrid(ctx.grid);

        w.baseKey =
            baselineKey(exp.config(), w.point.engine, eff.label.name);
        if (!base_at.count(w.baseKey)) {
            base_at[w.baseKey] = b.jobs.size();
            b.newBases.emplace_back(w.baseKey, b.jobs.size());
            b.jobs.push_back(exp.baselineJob(eff.label));
            attachMix(b.jobs.end() - 1, b.jobs.end(), eff);
        }
        if (w.point.side == SweepSide::Both) {
            auto d = exp.staticSearchJobs(eff.label, CacheSide::DCache,
                                          w.point.org);
            attachMix(d.begin(), d.end(), eff);
            w.off = b.jobs.size();
            w.count = d.size();
            b.jobs.insert(b.jobs.end(), d.begin(), d.end());
            auto ij = exp.staticSearchJobs(eff.label, CacheSide::ICache,
                                           w.point.org);
            attachMix(ij.begin(), ij.end(), eff);
            w.ioff = b.jobs.size();
            w.icount = ij.size();
            b.jobs.insert(b.jobs.end(), ij.begin(), ij.end());
        } else {
            const CacheSide side = cacheSideOf(w.point.side);
            w.candidates = exp.searchCandidates(side, w.point.org,
                                                w.point.strategy);
            auto jobs = exp.searchJobs(eff.label, side, w.point.org,
                                       w.point.strategy);
            attachMix(jobs.begin(), jobs.end(), eff);
            w.off = b.jobs.size();
            w.count = jobs.size();
            b.jobs.insert(b.jobs.end(), jobs.begin(), jobs.end());
        }
        b.cells.push_back(std::move(w));
    }
    return b;
}

/** Executes job lists with a span per layer call. */
class Executor
{
  public:
    Executor(SpanLog &log, unsigned threads)
        : log_(log), threads_(std::max(1u, threads))
    {
    }

    /** Timed-core jobs (full or sampled) on threads_ workers. */
    std::vector<RunResult> run(const std::vector<RunJob> &jobs,
                               std::uint64_t parent)
    {
        std::vector<RunResult> results(jobs.size());
        std::atomic<std::size_t> next{0};
        std::vector<std::exception_ptr> errors(threads_);
        const auto worker = [&](unsigned tid) {
            try {
                for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();)
                    results[i] = runJob(jobs[i], parent, tid + 1);
            } catch (...) {
                errors[tid] = std::current_exception();
            }
        };
        if (threads_ == 1 || jobs.size() <= 1) {
            worker(0);
        } else {
            std::vector<std::thread> pool;
            for (unsigned t = 0; t < threads_; ++t)
                pool.emplace_back(worker, t);
            for (std::thread &t : pool)
                t.join();
        }
        for (const std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
        return results;
    }

    /** Register a cell's configuration before pricing (a pass cannot
     *  learn new geometries once it has run). */
    void registerAnalytic(const SystemConfig &cfg,
                          const BenchmarkProfile &workload,
                          std::uint64_t insts)
    {
        auto &pass =
            passes_[AnalyticPass::streamKey(cfg, workload.name, insts)];
        if (!pass)
            pass = std::make_unique<AnalyticPass>(workload, insts);
        pass->addConfig(cfg);
    }

    /** Analytic jobs: run each pass they need (one span each), then
     *  price every job (one span). */
    std::vector<RunResult> price(const std::vector<RunJob> &jobs,
                                 std::uint64_t parent)
    {
        std::vector<AnalyticPass *> pass_of;
        pass_of.reserve(jobs.size());
        for (const RunJob &job : jobs) {
            AnalyticPass &pass = *passes_.at(AnalyticPass::streamKey(
                job.cfg, job.profile.name, job.insts));
            if (!pass.ran()) {
                Span s{"analytic.pass", log_.newId(), parent};
                s.start = Clock::now();
                pass.run();
                s.end = Clock::now();
                s.nums = {{"insts", static_cast<double>(job.insts)}};
                s.strs = {{"workload", job.profile.name}};
                log_.add(std::move(s));
            }
            pass_of.push_back(&pass);
        }
        std::vector<RunResult> out;
        out.reserve(jobs.size());
        Span s{"analytic.price", log_.newId(), parent};
        s.start = Clock::now();
        for (std::size_t i = 0; i < jobs.size(); ++i)
            out.push_back(priceAnalyticJob(jobs[i], *pass_of[i]));
        s.end = Clock::now();
        s.nums = {{"jobs", static_cast<double>(jobs.size())}};
        log_.add(std::move(s));
        return out;
    }

  private:
    /** executeRunJob's single-core path, with spans. */
    RunResult runJob(const RunJob &job, std::uint64_t parent, unsigned tid)
    {
        if (job.cfg.cores != 1 || job.engine.analytic())
            throw std::runtime_error("job '" + job.label +
                                     "': only single-core timed jobs "
                                     "are traced");
        const std::int64_t jid = jobSeq_.fetch_add(1);
        Span jspan{"job", log_.newId(), parent, jid, tid};
        Span cspan{"sim.construct", log_.newId(), jspan.id, jid, tid};
        Span rspan{"sim.run", log_.newId(), jspan.id, jid, tid};
        RunResult r;
        jspan.start = cspan.start = Clock::now();
        {
            const std::unique_ptr<Workload> wl = makeWorkload(job.profile);
            System sys(job.cfg);
            cspan.end = rspan.start = Clock::now();
            TimedWorkload timed(*wl);
            r = sys.run(timed, job.insts, job.il1, job.dl1, job.engine);
            rspan.end = Clock::now();

            const Cache &l2 = sys.hierarchy().l2();
            const bool dynamic = job.il1.strategy == Strategy::Dynamic ||
                                 job.dl1.strategy == Strategy::Dynamic;
            rspan.nums = {
                {"workload_ns", static_cast<double>(timed.ns())},
                {"workload_calls", static_cast<double>(timed.calls())},
                {"insts", static_cast<double>(r.insts)},
                {"cycles", static_cast<double>(r.cycles)},
                {"dynamic", dynamic ? 1.0 : 0.0},
                // The controller's resizes only: a static cache counts
                // its one initial resize too.
                {"resizes",
                 static_cast<double>(
                     (job.il1.strategy == Strategy::Dynamic ? r.il1Resizes
                                                            : 0) +
                     (job.dl1.strategy == Strategy::Dynamic ? r.dl1Resizes
                                                            : 0))},
                {"il1_accesses", static_cast<double>(r.il1Accesses)},
                {"il1_misses", static_cast<double>(r.il1Misses)},
                {"dl1_accesses", static_cast<double>(r.dl1Accesses)},
                {"dl1_misses", static_cast<double>(r.dl1Misses)},
                {"dl1_writebacks",
                 static_cast<double>(sys.dl1().cache().writebacks())},
                {"l2_accesses", static_cast<double>(l2.accesses())},
                {"l2_misses", static_cast<double>(l2.misses())},
            };
            rspan.strs = {{"source", sourceOf(job.profile)},
                          {"engine", engineName(job.engine.mode)},
                          {"label", job.label}};
        }
        jspan.end = Clock::now();
        log_.add(std::move(cspan));
        log_.add(std::move(rspan));
        log_.add(std::move(jspan));
        return r;
    }

    SpanLog &log_;
    unsigned threads_;
    std::atomic<std::int64_t> jobSeq_{0};
    std::map<std::string, std::unique_ptr<AnalyticPass>> passes_;
};

/**
 * Execute @p b and reduce it to one SweepRecord per cell, exactly as
 * the sweep engine's chunk loop and the tuner's evaluateCells do
 * (phase 2 for side=both cells included).
 */
std::vector<SweepRecord>
evaluate(const Ctx &ctx, const Batch &b, Executor &exec,
         std::uint64_t parent)
{
    bool analytic = !b.cells.empty() && b.cells[0].point.engine.analytic();
    for (const CellWork &w : b.cells) {
        if (w.point.engine.analytic() != analytic)
            throw std::runtime_error("a batch mixes analytic and timed "
                                     "cells");
        if (analytic)
            exec.registerAnalytic(
                w.point.cfg,
                effectiveWorkload((*ctx.apps)[w.app], w.point).label,
                ctx.insts);
    }
    const auto execute = [&](const std::vector<RunJob> &jobs) {
        return analytic ? exec.price(jobs, parent)
                        : exec.run(jobs, parent);
    };

    const std::vector<RunResult> results = execute(b.jobs);
    std::map<std::string, RunResult> bases;
    for (const auto &[key, idx] : b.newBases)
        bases[key] = results[idx];

    std::vector<RunJob> phase2;
    std::vector<std::size_t> phase2_at(b.cells.size(), 0);
    std::vector<SearchOutcome> douts(b.cells.size());
    for (std::size_t i = 0; i < b.cells.size(); ++i) {
        const CellWork &w = b.cells[i];
        if (w.point.side != SweepSide::Both)
            continue;
        const RunResult &base = bases.at(w.baseKey);
        douts[i] = Experiment::reduceStatic(
            base, {results.begin() + w.off,
                   results.begin() + w.off + w.count});
        const SearchOutcome iout = Experiment::reduceStatic(
            base, {results.begin() + w.ioff,
                   results.begin() + w.ioff + w.icount});
        Experiment exp(w.point.cfg, ctx.insts);
        exp.setEngine(w.point.engine);
        const EffectiveWorkload eff =
            effectiveWorkload((*ctx.apps)[w.app], w.point);
        phase2_at[i] = phase2.size();
        phase2.push_back(exp.bothStaticJob(eff.label, w.point.org,
                                           iout.bestLevel,
                                           douts[i].bestLevel));
        attachMix(phase2.end() - 1, phase2.end(), eff);
    }
    const std::vector<RunResult> results2 =
        phase2.empty() ? std::vector<RunResult>{} : execute(phase2);

    std::vector<SweepRecord> records;
    records.reserve(b.cells.size());
    for (std::size_t i = 0; i < b.cells.size(); ++i) {
        const CellWork &w = b.cells[i];
        const RunResult &base = bases.at(w.baseKey);
        SearchOutcome out;
        if (w.point.side == SweepSide::Both)
            out = Experiment::reduceBoth(base, douts[i],
                                         results2[phase2_at[i]]);
        else
            out = Experiment::reduceSearch(
                base, w.candidates,
                {results.begin() + w.off,
                 results.begin() + w.off + w.count});
        records.push_back(
            cellRecord(w.cell, (*ctx.apps)[w.app].name, w.point, out));
    }
    return records;
}

/** The tuner's ladder engines, built as runAdaptiveSearch builds
 *  them. */
std::map<std::string, EngineSpec>
rungEngines(const AdaptiveSpec &ad)
{
    std::map<std::string, EngineSpec> out;
    for (const EngineMode mode : ad.ladder) {
        EngineSpec e;
        if (mode == EngineMode::Analytic)
            e = EngineSpec::makeAnalytic();
        else if (mode == EngineMode::Sampled)
            e = ad.sampleInterval == 0
                    ? EngineSpec::makeSampled(SamplingConfig{})
                    : EngineSpec::makeSampled(
                          ad.sampleInterval,
                          SamplingConfig::defaultDetail(ad.sampleInterval),
                          SamplingConfig::defaultWarmup(ad.sampleInterval));
        out[engineName(mode)] = e;
    }
    return out;
}

/** One round of a decision log: its engine and candidate cells. */
struct LoggedRound
{
    std::string engine;
    std::vector<std::size_t> cells;
};

std::optional<std::vector<LoggedRound>>
readRounds(const std::string &path, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *err = "cannot read '" + path + "'";
        return std::nullopt;
    }
    const auto lines = readDecisionLog(in, err);
    if (!lines)
        return std::nullopt;
    std::vector<LoggedRound> rounds;
    for (const DecisionLogLine &l : *lines) {
        const std::string ev = l.get("event");
        if (ev == "round") {
            rounds.push_back({l.get("engine"), {}});
        } else if (ev == "score") {
            if (rounds.empty() ||
                l.get("round") != std::to_string(rounds.size() - 1)) {
                *err = path + ": score line outside its round";
                return std::nullopt;
            }
            rounds.back().cells.push_back(
                static_cast<std::size_t>(std::stoull(l.get("cell"))));
        }
    }
    if (rounds.empty()) {
        *err = path + ": no rounds";
        return std::nullopt;
    }
    return rounds;
}

/** A profile's data references and branches, in program order. */
struct Streams
{
    std::vector<std::pair<Addr, bool>> data;
    struct Br
    {
        Addr pc;
        bool taken;
        Addr target;
    };
    std::vector<Br> branches;
};

Streams
recordStreams(const BenchmarkProfile &p, std::uint64_t insts)
{
    Streams s;
    const std::unique_ptr<Workload> wl = makeWorkload(p);
    forEachBatched(*wl, insts, [&](const MicroInst &m) {
        if (m.op == OpClass::Load || m.op == OpClass::Store)
            s.data.emplace_back(m.effAddr, m.op == OpClass::Store);
        else if (m.op == OpClass::Branch)
            s.branches.push_back({m.pc, m.taken, m.target});
    });
    return s;
}

/**
 * Isolated component timings: every distinct profile's recorded
 * stream through a fresh dl1-geometry Cache per policy, and its
 * branches through a fresh BranchPredictor. kReplayReps spans per
 * policy.
 */
void
replayIsolated(const Ctx &ctx, const std::vector<std::size_t> &cells,
               SpanLog &log, std::uint64_t parent)
{
    std::map<std::string, BenchmarkProfile> profiles;
    for (const std::size_t cell : cells) {
        const DesignPoint p = ctx.space->point(cell % ctx.npoints);
        for (const BenchmarkProfile &bp :
             effectiveWorkload((*ctx.apps)[cell / ctx.npoints], p).mix)
            profiles.emplace(bp.name, bp);
    }
    std::vector<Streams> streams;
    for (const auto &[name, p] : profiles)
        streams.push_back(recordStreams(p, ctx.insts));

    const SystemConfig &sys = ctx.space->spec().system;
    std::uint64_t accesses = 0, branches = 0;
    for (const Streams &s : streams) {
        accesses += s.data.size();
        branches += s.branches.size();
    }
    for (unsigned rep = 0; rep < kReplayReps; ++rep) {
        for (const std::string &policy : replacementPolicyNames()) {
            std::vector<std::unique_ptr<Cache>> caches;
            for (std::size_t i = 0; i < streams.size(); ++i)
                caches.push_back(std::make_unique<Cache>(
                    "dl1", sys.dl1,
                    makeReplacementPolicy(
                        policy, i + 1,
                        sys.dl1.numSets() * sys.dl1.assoc)));
            std::uint64_t hits = 0;
            Span s{"cache.replay", log.newId(), parent};
            s.start = Clock::now();
            for (std::size_t i = 0; i < streams.size(); ++i)
                for (const auto &[addr, write] : streams[i].data)
                    hits += caches[i]->access(addr, write).hit;
            s.end = Clock::now();
            s.nums = {{"accesses", static_cast<double>(accesses)},
                      {"hits", static_cast<double>(hits)}};
            s.strs = {{"policy", policy}};
            log.add(std::move(s));
        }
        std::vector<BranchPredictor> preds(streams.size(),
                                           BranchPredictor(sys.core.bpred));
        std::uint64_t correct = 0;
        Span s{"cpu.bpred_replay", log.newId(), parent};
        s.start = Clock::now();
        for (std::size_t i = 0; i < streams.size(); ++i)
            for (const Streams::Br &b : streams[i].branches)
                correct +=
                    preds[i].predictAndUpdate(b.pc, b.taken, b.target);
        s.end = Clock::now();
        s.nums = {{"branches", static_cast<double>(branches)},
                  {"correct", static_cast<double>(correct)}};
        log.add(std::move(s));
    }
}

int
usage(const std::string &why)
{
    std::cerr << "rcache-layers: " << why
              << "\nusage: rcache-layers --scenario FILE --jobs N "
                 "--spans OUT --rows OUT [--tune-log LOG]\n";
    return 2;
}

int
runTool(const std::map<std::string, std::string> &opt)
{
    SpanLog log;
    const unsigned threads =
        static_cast<unsigned>(std::stoul(opt.at("--jobs")));
    const bool tune = opt.count("--tune-log") != 0;

    Span root{"layers", log.newId()};
    root.start = Clock::now();

    // ---- planning: parse, build the space, enumerate every batch
    Span plan{"scenario.plan", log.newId(), root.id};
    plan.start = Clock::now();
    std::string err;
    const auto spec = ScenarioSpec::parseFile(opt.at("--scenario"), &err);
    if (!spec)
        return usage(err);
    const auto space = ParamSpace::build(*spec, &err);
    if (!space)
        return usage(err);
    const std::vector<AppEntry> apps = resolveApps(*spec, &err);
    if (apps.empty())
        return usage(err);
    Ctx ctx;
    ctx.space = &*space;
    ctx.apps = &apps;
    ctx.insts = spec->insts;
    ctx.grid = spec->search.dynGrid;
    ctx.npoints = space->numPoints();

    std::vector<Batch> batches;
    if (tune) {
        const auto rounds = readRounds(opt.at("--tune-log"), &err);
        if (!rounds)
            return usage(err);
        const auto engines = rungEngines(spec->search.adaptive);
        for (std::size_t r = 0; r < rounds->size(); ++r) {
            const LoggedRound &lr = (*rounds)[r];
            if (!engines.count(lr.engine))
                return usage("round " + std::to_string(r) +
                             ": engine '" + lr.engine +
                             "' is not on the ladder");
            batches.push_back(
                buildBatch(ctx, lr.cells, &engines.at(lr.engine)));
            batches.back().engine = lr.engine;
            batches.back().round = r;
        }
    } else {
        std::vector<std::size_t> all(apps.size() * ctx.npoints);
        for (std::size_t c = 0; c < all.size(); ++c)
            all[c] = c;
        batches.push_back(buildBatch(ctx, all, nullptr));
        batches.back().engine = "sweep";
    }
    plan.end = Clock::now();
    plan.nums = {{"cells", static_cast<double>(apps.size() *
                                               ctx.npoints)}};
    log.add(std::move(plan));

    // ---- execution: one span per batch (tune round / whole sweep)
    std::ofstream rows(opt.at("--rows"), std::ios::binary | std::ios::trunc);
    if (!rows)
        return usage("cannot write '" + opt.at("--rows") + "'");
    Executor exec(log, threads);
    for (const Batch &b : batches) {
        Span s{tune ? "search.round" : "sweep.batch", log.newId(),
               root.id};
        s.start = Clock::now();
        const std::vector<SweepRecord> records =
            evaluate(ctx, b, exec, s.id);
        s.end = Clock::now();
        s.nums = {{"round", static_cast<double>(b.round)},
                  {"cells", static_cast<double>(b.cells.size())},
                  {"jobs", static_cast<double>(b.jobs.size())}};
        s.strs = {{"engine", b.engine}};
        log.add(std::move(s));
        for (const SweepRecord &rec : records) {
            std::ostringstream row;
            writeSweepCsvRows(row, {rec});
            std::string text = row.str();
            if (!text.empty() && text.back() == '\n')
                text.pop_back();
            rows << "{\"round\":" << b.round << ",\"cell\":" << rec.cell
                 << ",\"row\":" << jsonString(text) << "}\n";
        }
    }
    rows.flush();
    if (!rows)
        return usage("cannot write '" + opt.at("--rows") + "'");

    // ---- isolated component replays, outside every timed run
    Span iso{"isolated", log.newId(), root.id};
    iso.start = Clock::now();
    std::vector<std::size_t> first_cells;
    for (const CellWork &w : batches.front().cells)
        first_cells.push_back(w.cell);
    replayIsolated(ctx, first_cells, log, iso.id);
    iso.end = Clock::now();
    log.add(std::move(iso));

    root.end = Clock::now();
    log.add(std::move(root));
    if (!log.write(opt.at("--spans")))
        return usage("cannot write '" + opt.at("--spans") + "'");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> opt;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key != "--scenario" && key != "--jobs" && key != "--spans" &&
            key != "--rows" && key != "--tune-log")
            return usage("unknown option '" + key + "'");
        if (i + 1 >= argc)
            return usage("option '" + key + "' needs a value");
        opt[key] = argv[i + 1];
    }
    for (const char *need : {"--scenario", "--jobs", "--spans", "--rows"})
        if (!opt.count(need))
            return usage(std::string("missing ") + need);
    try {
        return runTool(opt);
    } catch (const std::exception &e) {
        std::cerr << "rcache-layers: " << e.what() << '\n';
        return 2;
    }
}
