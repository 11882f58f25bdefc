#include "bench/harness/perf_harness.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analytic/analytic_engine.hh"
#include "core/size_schedule.hh"
#include "cpu/front_end.hh"
#include "cpu/functional_core.hh"
#include "runner/sweep_runner.hh"
#include "scenario/scenario_spec.hh"
#include "search/adaptive_search.hh"
#include "sim/system.hh"
#include "util/logging.hh"
#include "util/numformat.hh"
#include "workload/profiles.hh"
#include "workload/streaming_trace.hh"
#include "workload/trace_format.hh"

namespace rcache::bench
{

namespace
{

/** The profile every core-level benchmark streams (a mid-weight mix
 *  with real phase behavior; fixed so results are comparable). */
constexpr const char *benchApp = "compress";

/** Keep a computed value alive without letting the optimizer see
 *  through it. Takes by const reference so T deduces to the value
 *  type and `volatile T` is a real volatile object (with a
 *  forwarding reference, lvalue arguments would deduce T as a
 *  reference and the volatile would be ignored — no barrier). */
template <typename T>
void
consume(const T &v)
{
    volatile T sink = v;
    (void)sink;
}

BenchResult
makeResult(const std::string &name, const std::string &unit,
           std::uint64_t items, unsigned reps, double best_s,
           std::vector<std::pair<std::string, std::string>> config)
{
    BenchResult r;
    r.name = name;
    r.unit = unit;
    r.items = items;
    r.repetitions = reps;
    r.wallSeconds = best_s;
    r.throughput =
        best_s > 0 ? static_cast<double>(items) / best_s / 1e6 : 0;
    r.config = std::move(config);
    return r;
}

/** Full-detail System run throughput for one core model. */
BenchResult
detailedRun(const std::string &name, CoreModel model,
            const BenchOptions &opts)
{
    const double best = bestWallSeconds(opts.repetitions, [&] {
        SyntheticWorkload wl(profileByName(benchApp));
        SystemConfig cfg = SystemConfig::base();
        cfg.coreModel = model;
        System sys(cfg);
        consume(sys.run(wl, opts.items).cycles);
    });
    return makeResult(
        name, "Minst/s", opts.items, opts.repetitions, best,
        {{"app", benchApp},
         {"insts", std::to_string(opts.items)},
         {"core", model == CoreModel::OutOfOrder ? "ooo" : "inorder"},
         {"mode", "detailed"}});
}

BenchResult
sampledRun(const BenchOptions &opts)
{
    // The sampled engine's shape: measure 1/10 of each period after a
    // 1/5 warmup (the defaults the CLI derives from --engine sampled).
    const std::uint64_t interval =
        std::max<std::uint64_t>(opts.items / 4, 1000);
    const EngineSpec engine = EngineSpec::makeSampled(
        interval, SamplingConfig::defaultDetail(interval),
        SamplingConfig::defaultWarmup(interval));
    const double best = bestWallSeconds(opts.repetitions, [&] {
        SyntheticWorkload wl(profileByName(benchApp));
        System sys(SystemConfig::base());
        consume(sys.run(wl, opts.items, {}, {}, engine).cycles);
    });
    return makeResult(
        "sampled_ooo", "Minst/s", opts.items, opts.repetitions, best,
        {{"app", benchApp},
         {"insts", std::to_string(opts.items)},
         {"core", "ooo"},
         {"mode", "sampled"},
         {"sample_interval", std::to_string(interval)}});
}

BenchResult
functionalRun(const BenchOptions &opts)
{
    const double best = bestWallSeconds(opts.repetitions, [&] {
        SyntheticWorkload wl(profileByName(benchApp));
        const SystemConfig cfg = SystemConfig::base();
        Cache il1("il1", cfg.il1);
        Cache dl1("dl1", cfg.dl1);
        Hierarchy hier(&il1, &dl1, cfg.l2, cfg.lat);
        FrontEnd front(cfg.frontEnd());
        FunctionalCore func(hier, nullptr, nullptr);
        MicroInst batch[workloadBatchSize];
        forEachSegment(wl, opts.items, batch, workloadBatchSize,
                       [&](MicroInst *insts, std::size_t n) {
                           front.mark(insts, n);
                           func.consume(insts, n);
                       });
        consume(dl1.misses());
    });
    return makeResult("functional_warmup", "Minst/s", opts.items,
                      opts.repetitions, best,
                      {{"app", benchApp},
                       {"insts", std::to_string(opts.items)},
                       {"mode", "functional"}});
}

BenchResult
multicoreRun(const BenchOptions &opts)
{
    // Two OoO cores, a gcc+m88ksim mix, the default quantum: the
    // multi-programmed sweep's inner loop. Items are split across the
    // cores so the benchmark retires opts.items instructions total
    // and the throughput is comparable with detailed_ooo.
    const std::uint64_t per_core = std::max<std::uint64_t>(
        opts.items / 2, 1);
    const double best = bestWallSeconds(opts.repetitions, [&] {
        SystemConfig cfg = SystemConfig::base();
        cfg.cores = 2;
        System sys(cfg);
        consume(sys.run({profileByName("gcc"),
                         profileByName("m88ksim")},
                        per_core)
                    .aggregate.cycles);
    });
    return makeResult(
        "multicore_shared_l2", "Minst/s", per_core * 2,
        opts.repetitions, best,
        {{"mix", "gcc+m88ksim"},
         {"insts_per_core", std::to_string(per_core)},
         {"cores", "2"},
         {"mode", "detailed"}});
}

/**
 * The analytic engine's reason to exist, measured: price a
 * fig4-shaped dcache size x assoc grid once with per-geometry
 * detailed runs and once with a single shared stack-distance pass,
 * and record the wall-clock ratio. The headline number (throughput /
 * wall_seconds) is the analytic side; the detailed side and the
 * speedup ride along in the config block so tools/bench_diff.py can
 * gate on them.
 */
BenchResult
analyticMrc(const BenchOptions &opts)
{
    // Grid: the selective-ways static schedule plus the full-size
    // baseline, at two associativities — one detailed run per
    // geometry versus one analytic pass for all of them.
    std::vector<RunJob> jobs;
    for (unsigned assoc : {2u, 8u}) {
        SystemConfig cfg = SystemConfig::base();
        cfg.il1.assoc = assoc;
        cfg.dl1.assoc = assoc;
        cfg.dl1Org = Organization::SelectiveWays;
        RunJob base;
        base.label = "mrc/a" + std::to_string(assoc) + "/full";
        base.profile = profileByName(benchApp);
        base.cfg = cfg;
        base.insts = opts.items;
        jobs.push_back(base);
        const auto sched = buildSchedule(cfg.dl1Org, cfg.dl1);
        for (unsigned lvl = 0; lvl < sched.size(); ++lvl) {
            RunJob j = base;
            j.label = "mrc/a" + std::to_string(assoc) + "/L" +
                      std::to_string(lvl);
            j.dl1.strategy = Strategy::Static;
            j.dl1.staticLevel = lvl;
            jobs.push_back(j);
        }
    }

    const double detailed_s =
        bestWallSeconds(opts.repetitions, [&] {
            std::uint64_t sink = 0;
            for (const RunJob &j : jobs)
                sink += executeRunJob(j).dl1Misses;
            consume(sink);
        });
    const double analytic_s =
        bestWallSeconds(opts.repetitions, [&] {
            AnalyticPass pass(profileByName(benchApp), opts.items);
            for (const RunJob &j : jobs)
                pass.addConfig(j.cfg);
            pass.run();
            std::uint64_t sink = 0;
            for (RunJob j : jobs) {
                j.engine = EngineSpec::makeAnalytic();
                sink += priceAnalyticJob(j, pass).dl1Misses;
            }
            consume(sink);
        });
    const double speedup =
        analytic_s > 0 ? detailed_s / analytic_s : 0;

    return makeResult(
        "analytic_mrc", "Minst/s", opts.items,
        opts.repetitions, analytic_s,
        {{"app", benchApp},
         {"insts", std::to_string(opts.items)},
         {"geometries", std::to_string(jobs.size())},
         {"detailed_wall_seconds", shortestDouble(detailed_s)},
         {"speedup_vs_detailed", shortestDouble(speedup)},
         {"mode", "analytic"}});
}

/**
 * The adaptive autotuner end to end: successive halving over the
 * analytic -> sampled -> full fidelity ladder on a fig4-shaped
 * dcache grid. The headline number is the per-cell instruction
 * budget over the tuner's wall clock (same items contract as every
 * other bench: items == opts.items); the pruning itself is tracked
 * by the planned detailed instruction counts and their ratio in the
 * config block — CI's perf-smoke job gates detailed_inst_reduction
 * >= 5x.
 */
BenchResult
adaptiveSearch(const BenchOptions &opts)
{
    // Per-cell instruction budget and sampling period scale with
    // --insts so smoke runs stay fast; the reduction ratio is
    // structural (grid size x promote fractions x the sampled
    // engine's 1/10 detail fraction), so it holds at every scale.
    // The grid covers both cache sides so the analytic round prunes
    // 48 cells down to two full-detail finalists; finalists tend to
    // be high-associativity cells with deep static-level schedules
    // (many candidate runs each), which is why the promote fractions
    // are steep — the ratio is dominated by how few cells reach full
    // detail.
    const std::uint64_t insts =
        std::max<std::uint64_t>(opts.items / 8, 20000);
    std::ostringstream scn;
    scn << "[scenario]\n"
        << "name = bench-adaptive\n"
        << "insts = " << insts << "\n\n"
        << "[workloads]\n"
        << "apps = gcc,swim,m88ksim\n\n"
        << "[axes]\n"
        << "side = dcache,icache\n"
        << "assoc = 2,4,8,16\n"
        << "org = ways,sets\n\n"
        << "[search]\n"
        << "strategy = static\n"
        << "mode = adaptive\n"
        << "ladder = analytic,sampled,full\n"
        << "promote = 0.2,0.15\n"
        << "min-survivors = 2\n"
        << "sample-interval = " << insts / 4 << "\n";
    std::string err;
    const auto spec = ScenarioSpec::parseText(
        scn.str(), "bench-adaptive", &err);
    if (!spec)
        rc_fatal("bench-adaptive scenario: " + err);

    TuneOptions topt;
    topt.jobs = 1;
    topt.quiet = true;
    topt.emitOutputs = false;
    TuneStats stats;
    const double best = bestWallSeconds(opts.repetitions, [&] {
        stats = TuneStats{};
        if (runAdaptiveSearch(*spec, topt, &stats) != 0)
            rc_fatal("bench-adaptive tune failed");
        consume(stats.winner.bestEdp);
    });
    const double reduction =
        stats.detailedInsts > 0
            ? static_cast<double>(stats.exhaustiveDetailedInsts) /
                  static_cast<double>(stats.detailedInsts)
            : 0;
    return makeResult(
        "adaptive_search", "Minst/s", opts.items,
        opts.repetitions, best,
        {{"apps", "gcc+swim+m88ksim"},
         {"insts_per_cell", std::to_string(insts)},
         {"cells", std::to_string(stats.cells)},
         {"rounds", std::to_string(stats.rounds)},
         {"ladder", "analytic,sampled,full"},
         {"detailed_insts_adaptive",
          std::to_string(stats.detailedInsts)},
         {"detailed_insts_exhaustive",
          std::to_string(stats.exhaustiveDetailedInsts)},
         {"detailed_inst_reduction", shortestDouble(reduction)},
         {"mode", "adaptive"}});
}

BenchResult
workloadBatch(const BenchOptions &opts)
{
    const double best = bestWallSeconds(opts.repetitions, [&] {
        SyntheticWorkload wl(profileByName(benchApp));
        MicroInst buf[workloadBatchSize];
        std::uint64_t done = 0;
        Addr sink = 0;
        while (done < opts.items) {
            wl.nextBatch(buf, workloadBatchSize);
            sink += buf[workloadBatchSize - 1].pc;
            done += workloadBatchSize;
        }
        consume(sink);
    });
    return makeResult("workload_batch", "Minst/s", opts.items,
                      opts.repetitions, best,
                      {{"app", benchApp},
                       {"insts", std::to_string(opts.items)},
                       {"batch", std::to_string(workloadBatchSize)}});
}

BenchResult
cacheAccess(const BenchOptions &opts)
{
    const double best = bestWallSeconds(opts.repetitions, [&] {
        Cache c("c", CacheGeometry{32 * 1024, 2, 32, 1024});
        bool sink = false;
        Addr a = 0;
        for (std::uint64_t i = 0; i < opts.items; ++i) {
            sink ^= c.access(a, false).hit;
            a += 32;
        }
        consume(sink);
    });
    return makeResult(
        "cache_access_stream", "Mops/s", opts.items, opts.repetitions,
        best,
        {{"geometry", "32K/2way/32B"},
         {"accesses", std::to_string(opts.items)}});
}

BenchResult
traceStream(const BenchOptions &opts)
{
    // Setup (untimed): a packed lcs trace on disk, sized so that
    // draining opts.items instructions wraps several times — the
    // timed loop includes the decoder's chunk refills and the
    // rewind-to-offset-zero path, i.e. what a sweep cell actually
    // pays per instruction when driven by a real trace file.
    namespace fs = std::filesystem;
    constexpr std::uint64_t traceRecords = 1u << 18; // 6 MB on disk
    const fs::path path = fs::temp_directory_path() /
                          "rcache_bench_trace_stream.bin";
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        unsigned char rec[24] = {};
        for (std::uint64_t i = 0; i < traceRecords; ++i) {
            const std::uint64_t obj = i % 100003;
            for (int b = 0; b < 4; ++b)
                rec[b] = static_cast<unsigned char>(i >> (8 * b));
            for (int b = 0; b < 8; ++b)
                rec[4 + b] =
                    static_cast<unsigned char>(obj >> (8 * b));
            rec[12] = 64; // obj_size (unused by the decoder)
            os.write(reinterpret_cast<const char *>(rec),
                     sizeof(rec));
        }
    }
    TraceSpec spec;
    spec.path = path.string();
    spec.format = TraceFormat::LcsBin;

    const double best = bestWallSeconds(opts.repetitions, [&] {
        std::string err;
        auto wl = StreamingTraceWorkload::open(spec, "bench", &err);
        if (!wl)
            rc_fatal("trace_stream bench: " + err);
        MicroInst buf[workloadBatchSize];
        std::uint64_t done = 0;
        Addr sink = 0;
        while (done < opts.items) {
            wl->nextBatch(buf, workloadBatchSize);
            sink += buf[workloadBatchSize - 1].effAddr;
            done += workloadBatchSize;
        }
        consume(sink);
    });
    fs::remove(path);
    return makeResult("trace_stream", "Minst/s", opts.items,
                      opts.repetitions, best,
                      {{"format", "lcs"},
                       {"records", std::to_string(traceRecords)},
                       {"insts", std::to_string(opts.items)},
                       {"batch", std::to_string(workloadBatchSize)}});
}

} // namespace

double
bestWallSeconds(unsigned reps, const std::function<void()> &fn)
{
    double best = 0;
    for (unsigned r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || s < best)
            best = s;
    }
    return best;
}

const std::vector<BenchSpec> &
perfBenches()
{
    static const std::vector<BenchSpec> registry = {
        {"detailed_ooo",
         "full-detail OoO System run (the sweep inner loop)",
         [](const BenchOptions &o) {
             return detailedRun("detailed_ooo", CoreModel::OutOfOrder,
                                o);
         }},
        {"detailed_inorder", "full-detail in-order System run",
         [](const BenchOptions &o) {
             return detailedRun("detailed_inorder", CoreModel::InOrder,
                                o);
         }},
        {"sampled_ooo", "sampled-engine OoO System run",
         [](const BenchOptions &o) { return sampledRun(o); }},
        {"analytic_mrc",
         "analytic miss-ratio pass vs per-geometry detailed runs "
         "over a fig4-shaped grid",
         [](const BenchOptions &o) { return analyticMrc(o); }},
        {"adaptive_search",
         "successive-halving autotune of a fig4-shaped grid over "
         "the analytic/sampled/full ladder",
         [](const BenchOptions &o) { return adaptiveSearch(o); }},
        {"multicore_shared_l2",
         "2-core multi-programmed run over one shared L2",
         [](const BenchOptions &o) { return multicoreRun(o); }},
        {"functional_warmup",
         "FunctionalCore state-only advance (sampling warmup path)",
         [](const BenchOptions &o) { return functionalRun(o); }},
        {"workload_batch",
         "SyntheticWorkload::nextBatch stream generation",
         [](const BenchOptions &o) { return workloadBatch(o); }},
        {"cache_access_stream",
         "Cache::access over a sequential block stream",
         [](const BenchOptions &o) { return cacheAccess(o); }},
        {"trace_stream",
         "StreamingTraceWorkload::nextBatch over an on-disk lcs "
         "trace, wrap refills included",
         [](const BenchOptions &o) { return traceStream(o); }},
    };
    return registry;
}

std::string
benchJson(const BenchResult &r)
{
    // Hand-rolled because the values are flat and the field order
    // must be stable; strings here are identifiers (no escaping
    // needed beyond refusing to emit quotes, which none contain).
    std::ostringstream os;
    os << "{\n";
    os << "  \"name\": \"" << r.name << "\",\n";
    os << "  \"unit\": \"" << r.unit << "\",\n";
    os << "  \"throughput\": " << shortestDouble(r.throughput)
       << ",\n";
    os << "  \"wall_seconds\": " << shortestDouble(r.wallSeconds)
       << ",\n";
    os << "  \"items\": " << r.items << ",\n";
    os << "  \"repetitions\": " << r.repetitions << ",\n";
    os << "  \"config\": {";
    for (std::size_t i = 0; i < r.config.size(); ++i) {
        os << (i ? ", " : "") << "\"" << r.config[i].first << "\": \""
           << r.config[i].second << "\"";
    }
    os << "}\n";
    os << "}\n";
    return os.str();
}

bool
writeBenchJson(const BenchResult &r, const std::string &dir,
               std::string *err)
{
    const std::string path = dir + "/BENCH_" + r.name + ".json";
    std::ofstream out(path);
    if (!out) {
        if (err)
            *err = "cannot write '" + path + "'";
        return false;
    }
    out << benchJson(r);
    out.flush();
    if (!out) {
        if (err)
            *err = "write failed for '" + path + "'";
        return false;
    }
    return true;
}

int
runPerfBenches(const BenchOptions &opts)
{
    int failures = 0;
    unsigned ran = 0;
    for (const BenchSpec &spec : perfBenches()) {
        if (!opts.filter.empty() &&
            spec.name.find(opts.filter) == std::string::npos)
            continue;
        ++ran;
        const BenchResult r = spec.run(opts);
        std::printf("%-22s %10.2f %-8s (best of %u, %s wall)\n",
                    r.name.c_str(), r.throughput, r.unit.c_str(),
                    r.repetitions,
                    shortestDouble(r.wallSeconds).c_str());
        std::fflush(stdout);
        std::string err;
        if (!writeBenchJson(r, opts.outDir, &err)) {
            RC_LOG(error, err);
            ++failures;
        }
    }
    if (ran == 0) {
        RC_LOG(error,
               "no benchmark matches filter '" + opts.filter + "'");
        return 2;
    }
    return failures ? 1 : 0;
}

} // namespace rcache::bench
