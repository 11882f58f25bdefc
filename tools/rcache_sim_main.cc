/**
 * @file
 * rcache-sim: unified CLI driver for the resizable-cache simulator.
 *
 * Every subcommand is declared once, in the kCommands table near the
 * end of this file: its name, synopsis, purpose, options (each with
 * one help line worded for that subcommand), whether it takes
 * positional arguments, and its handler. The top-level usage, every
 * `<cmd> --help`, the strict parser and the dispatch are generated
 * from that table, and handlers see only the parsed Args.
 *
 * An experiment comes from a scenario file: `sweep`/`tune
 * --scenario FILE`, or the manifest a `sweep --claim DIR` worker
 * joins. The scenario says what to simulate; the command line says
 * how to run it and where outputs go (jobs, shard, resume, report,
 * telemetry sidecars, claim, failpoints). `run` is the one exception:
 * a single explicit design point, spelled with flags. The sweep,
 * claim and tune engines (src/scenario, src/search) check the
 * scenario's traces and everything else themselves.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness/perf_harness.hh"
#include "core/size_schedule.hh"
#include "fault/failpoint.hh"
#include "runner/shard.hh"
#include "runner/sweep_runner.hh"
#include "scenario/scenario_spec.hh"
#include "scenario/scenario_sweep.hh"
#include "search/adaptive_search.hh"
#include "search/doctor.hh"
#include "search/sweep_merge.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "telemetry/inspect.hh"
#include "telemetry/run_telemetry.hh"
#include "telemetry/trace_events.hh"
#include "util/checked_io.hh"
#include "util/interrupt.hh"
#include "util/logging.hh"
#include "util/numformat.hh"
#include "cache/replacement.hh"
#include "workload/profiles.hh"
#include "workload/streaming_trace.hh"
#include "workload/trace_format.hh"
#include "workload/trace_io.hh"
#include "workload/workload_factory.hh"

namespace
{

using namespace rcache;

/** A parsed command line: option values, flags, positionals. */
struct Args
{
    std::map<std::string, std::string> opts;
    std::set<std::string> flags;
    std::vector<std::string> positionals;

    std::string get(const std::string &key,
                    const std::string &fallback = "") const
    {
        auto it = opts.find(key);
        return it == opts.end() ? fallback : it->second;
    }
    bool has(const std::string &key) const
    {
        return opts.count(key) != 0 || flags.count(key) != 0;
    }
};

/** Strict decimal parse (parseU64Strict): the whole value must be
 *  digits. Exits the command with a usage error on garbage like
 *  "--assoc abc" or "--insts ' -1'". */
std::optional<std::uint64_t>
parseU64(const Args &args, const std::string &key,
         std::uint64_t fallback)
{
    if (!args.has(key))
        return fallback;
    const std::string text = args.get(key);
    unsigned long long v = 0;
    if (!parseU64Strict(text, v)) {
        std::cerr << "rcache-sim: option '" << key
                  << "' wants a non-negative integer, got '" << text
                  << "'\n";
        return std::nullopt;
    }
    return v;
}

/** parseU64 for a count that must be > 0. */
std::optional<std::uint64_t>
parsePositive(const Args &args, const std::string &key,
              std::uint64_t fallback)
{
    const auto v = parseU64(args, key, fallback);
    if (v && *v == 0) {
        std::cerr << "rcache-sim: " << key << " must be > 0\n";
        return std::nullopt;
    }
    return v;
}

/** parseU64 for an option stored in `unsigned`: a larger value would
 *  silently wrap (2^32 jobs becoming 0 = all cores). */
std::optional<unsigned>
parseUnsigned(const Args &args, const std::string &key,
              unsigned fallback)
{
    const auto v = parseU64(args, key, fallback);
    if (!v)
        return std::nullopt;
    constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
    if (*v > kMax) {
        std::cerr << "rcache-sim: option '" << key
                  << "' wants at most " << kMax << ", got '"
                  << args.get(key) << "'\n";
        return std::nullopt;
    }
    return static_cast<unsigned>(*v);
}

/**
 * Profile lookup with a one-line diagnostic (profileByName is
 * rc_fatal on unknown names, which is too blunt for a CLI). Accepts
 * trace:PATH[:FORMAT] specs alongside the built-in suite names.
 */
std::optional<BenchmarkProfile>
lookupProfile(const std::string &name)
{
    if (isTraceSpec(name)) {
        BenchmarkProfile p;
        std::string err;
        if (!traceProfileFromSpec(name, &p, &err)) {
            std::cerr << "rcache-sim: " << err << '\n';
            return std::nullopt;
        }
        return p;
    }
    const auto names = suiteNames();
    if (std::find(names.begin(), names.end(), name) == names.end()) {
        std::cerr << "rcache-sim: unknown app '" << name
                  << "' (see 'rcache-sim list-apps')\n";
        return std::nullopt;
    }
    return profileByName(name);
}

/** Parse --scenario, one diagnostic line on failure. The sweep,
 *  claim and tune entry points open its traces themselves. */
std::optional<ScenarioSpec>
loadScenario(const Args &args)
{
    std::string err;
    auto spec = ScenarioSpec::parseFile(args.get("--scenario"), &err);
    if (!spec)
        std::cerr << "rcache-sim: " << err << '\n';
    return spec;
}

/** Arm --failpoint's spec; prints the one-line diagnostic itself. */
bool
armCliFailpoints(const Args &args)
{
    if (!args.has("--failpoint"))
        return true;
    std::string err;
    if (!fault::armFailpoints(args.get("--failpoint"), &err)) {
        std::cerr << "rcache-sim: --failpoint: " << err << '\n';
        return false;
    }
    return true;
}

// --------------------------------------------------------------- sweep

/** sweep --claim: one cooperative worker over a manifest dir. */
int
cmdSweepClaim(const Args &args)
{
    // Claim workers publish per-unit CSVs inside the manifest
    // directory; the single-file output/resume/telemetry options and
    // per-job progress belong to plain sweeps.
    for (const char *conflict :
         {"--shard", "--resume", "--out", "--format", "--progress",
          "--timeline", "--events", "--trace-events",
          "--timeline-interval"}) {
        if (args.has(conflict))
            return refuse(std::string(conflict) +
                          " conflicts with --claim (a plain-sweep "
                          "option; units are committed into the "
                          "manifest directory, use 'rcache-sim "
                          "merge')");
    }
    // Without --scenario the worker joins the manifest's scenario.
    std::optional<ScenarioSpec> spec;
    if (args.has("--scenario")) {
        spec = loadScenario(args);
        if (!spec)
            return 2;
    }
    const auto jobs = parseUnsigned(args, "--jobs", 1);
    const auto shards = parseUnsigned(args, "--shards", 0);
    const auto lease = parseUnsigned(args, "--lease-timeout", 300);
    if (!jobs || !shards || !lease)
        return 2;
    ClaimSweepOptions opt;
    opt.dir = args.get("--claim");
    opt.shards = *shards;
    opt.leaseTimeoutSecs = *lease;
    opt.jobs = *jobs;
    return runClaimSweep(spec, opt);
}

int
cmdSweep(const Args &args)
{
    if (!armCliFailpoints(args))
        return 2;
    installInterruptHandlers();
    if (args.has("--claim"))
        return cmdSweepClaim(args);
    for (const char *needs_claim : {"--shards", "--lease-timeout"})
        if (args.has(needs_claim))
            return refuse(std::string(needs_claim) + " needs --claim DIR");
    if (!args.has("--scenario"))
        return refuse("sweep needs --scenario FILE (the scenario "
                      "defines the design space; see scenarios/*.scn)");
    const auto spec = loadScenario(args);
    if (!spec)
        return 2;
    const auto jobs = parseUnsigned(args, "--jobs", 1);
    if (!jobs)
        return 2;
    const auto tl_interval =
        parsePositive(args, "--timeline-interval", 10000);
    if (!tl_interval)
        return 2;

    SweepOptions opt;
    opt.jobs = *jobs;
    opt.format = args.get("--format", "csv");
    opt.outPath = args.get("--out");
    opt.resumePath = args.get("--resume");
    opt.progress = args.has("--progress");
    opt.timelinePath = args.get("--timeline");
    opt.eventsPath = args.get("--events");
    opt.traceEventsPath = args.get("--trace-events");
    opt.timelineInterval = *tl_interval;
    if (args.has("--shard")) {
        std::string err;
        auto shard = ShardSpec::parse(args.get("--shard"), &err);
        if (!shard)
            return refuse("--" + err);
        opt.shard = *shard;
    }
    const int rc = runScenarioSweep(*spec, opt);
    // A plain sweep's CSV is the one interrupted output a user can
    // resume (a claim unit's is a tmp file its worker removes).
    const std::string &csv =
        opt.resumePath.empty() ? opt.outPath : opt.resumePath;
    if (rc != 0 && rc == interruptExitCode() && opt.format == "csv" &&
        !csv.empty())
        std::cerr << "rcache-sim: resume with --resume " << csv << '\n';
    return rc;
}

// ---------------------------------------------------------------- tune

int
cmdTune(const Args &args)
{
    if (!armCliFailpoints(args))
        return 2;
    installInterruptHandlers();
    if (!args.has("--scenario"))
        return refuse("tune needs --scenario FILE (with 'mode = "
                      "adaptive' in its [search] section)");
    const auto spec = loadScenario(args);
    if (!spec)
        return 2;
    const auto jobs = parseUnsigned(args, "--jobs", 1);
    const auto shards = parseUnsigned(args, "--shards", 0);
    const auto lease = parseUnsigned(args, "--lease-timeout", 300);
    if (!jobs || !shards || !lease)
        return 2;
    if ((args.has("--shards") || args.has("--lease-timeout")) &&
        !args.has("--claim"))
        return refuse("--shards/--lease-timeout need --claim DIR");
    TuneOptions opt;
    opt.jobs = *jobs;
    opt.logPath = args.get("--log");
    opt.outPath = args.get("--out");
    opt.resumePath = args.get("--resume");
    opt.claimDir = args.get("--claim");
    opt.shards = *shards;
    opt.leaseTimeoutSecs = *lease;
    return runAdaptiveSearch(*spec, opt);
}

// ------------------------------------------------------- merge, doctor

int
cmdMerge(const Args &args)
{
    return runSweepMerge(args.positionals, args.get("--out"));
}

int
cmdDoctor(const Args &args)
{
    if (args.positionals.size() != 1)
        return refuse("doctor wants exactly one CLAIM_DIR");
    DoctorOptions opt;
    const auto lease =
        parseUnsigned(args, "--lease-timeout", opt.leaseTimeoutSecs);
    if (!lease)
        return 2;
    opt.leaseTimeoutSecs = *lease;
    opt.logPath = args.get("--log");
    return runDoctor(args.positionals[0], opt, std::cout);
}

// ------------------------------------------------------------ scenario

int
cmdScenario(const Args &args)
{
    if (args.positionals.empty())
        return refuse("scenario needs a mode: check|print (try "
                      "'rcache-sim scenario --help')");
    const std::string &mode = args.positionals[0];
    if (mode != "check" && mode != "print")
        return refuse("unknown scenario mode '" + mode +
                      "' (want check|print)");
    const std::vector<std::string> files(args.positionals.begin() + 1,
                                         args.positionals.end());
    if (files.empty())
        return refuse("scenario " + mode + " needs at least one FILE");
    if (mode == "print" && files.size() != 1)
        return refuse("scenario print wants exactly one FILE");

    int code = 0;
    for (const std::string &file : files) {
        std::string err;
        auto spec = ScenarioSpec::parseFile(file, &err);
        std::optional<ParamSpace> space;
        if (spec)
            space = ParamSpace::build(*spec, &err);
        if (!space) {
            std::cerr << "rcache-sim: " << err << '\n';
            code = 2;
            continue;
        }
        if (mode == "print") {
            spec->print(std::cout);
            continue;
        }
        const std::size_t napps = spec->apps.empty()
                                      ? suiteNames().size()
                                      : spec->apps.size();
        std::cout << file << ": ok (" << spec->name << ": "
                  << space->numPoints() << " point(s) x " << napps
                  << " app(s) = " << space->numPoints() * napps
                  << " cell(s))\n";
    }
    return code;
}

// ----------------------------------------------------------------- run

std::optional<Organization>
parseOrg(const std::string &name)
{
    auto org = parseOrganizationToken(name);
    if (!org)
        std::cerr << "rcache-sim: unknown organization '" << name
                  << "' (want none|ways|sets|hybrid)\n";
    return org;
}

std::optional<Strategy>
parseStrategy(const std::string &name)
{
    auto s = parseStrategyToken(name);
    if (!s)
        std::cerr << "rcache-sim: unknown strategy '" << name
                  << "' (want none|static|dynamic)\n";
    return s;
}

/** Build one cache's ResizeSetup from --<prefix>-* options. */
std::optional<ResizeSetup>
parseSetup(const Args &args, const std::string &prefix)
{
    ResizeSetup setup;
    auto strat =
        parseStrategy(args.get("--" + prefix + "-strategy", "none"));
    if (!strat)
        return std::nullopt;
    setup.strategy = *strat;
    const auto level = parseUnsigned(args, "--" + prefix + "-level", 0);
    const auto interval =
        parsePositive(args, "--" + prefix + "-interval",
                      Experiment::dynIntervalAccesses);
    if (!level || !interval)
        return std::nullopt;
    const auto miss_bound =
        parseU64(args, "--" + prefix + "-miss-bound",
                 *interval / 100);
    const auto size_bound =
        parseU64(args, "--" + prefix + "-size-bound", 0);
    if (!miss_bound || !size_bound)
        return std::nullopt;
    setup.staticLevel = *level;
    setup.dyn.intervalAccesses = *interval;
    setup.dyn.missBound = *miss_bound;
    setup.dyn.sizeBoundBytes = *size_bound;
    return setup;
}

/**
 * The run's SystemConfig: --assoc, --cores (default: the mix size),
 * --quantum, --policy, and the two --<cache>-org selections.
 */
std::optional<SystemConfig>
parseSystem(const Args &args, std::size_t mix_size,
            const ResizeSetup &il1, const ResizeSetup &dl1)
{
    SystemConfig cfg = SystemConfig::base();
    if (args.has("--assoc")) {
        const auto assoc = parseU64(args, "--assoc", cfg.dl1.assoc);
        if (!assoc)
            return std::nullopt;
        if (*assoc == 0 || *assoc > 64) {
            std::cerr << "rcache-sim: --assoc wants 1..64\n";
            return std::nullopt;
        }
        cfg.il1.assoc = static_cast<unsigned>(*assoc);
        cfg.dl1.assoc = static_cast<unsigned>(*assoc);
    }
    const auto cores = parseU64(args, "--cores", mix_size);
    const auto quantum =
        parsePositive(args, "--quantum", cfg.quantumInsts);
    if (!cores || !quantum)
        return std::nullopt;
    if (*cores == 0 || *cores > 64) {
        std::cerr << "rcache-sim: --cores wants 1..64\n";
        return std::nullopt;
    }
    cfg.cores = static_cast<unsigned>(*cores);
    cfg.quantumInsts = *quantum;

    if (args.has("--policy")) {
        const std::string name = args.get("--policy");
        if (!isReplacementPolicyName(name)) {
            std::cerr << "rcache-sim: --policy wants "
                      << replacementPolicyList() << ", got '" << name
                      << "'\n";
            return std::nullopt;
        }
        cfg.policy = name;
    }

    auto il1_org = parseOrg(args.get("--il1-org", "none"));
    auto dl1_org = parseOrg(args.get("--dl1-org", "none"));
    if (!il1_org || !dl1_org)
        return std::nullopt;
    cfg.il1Org = *il1_org;
    cfg.dl1Org = *dl1_org;
    if (il1.strategy != Strategy::None &&
        cfg.il1Org == Organization::None) {
        std::cerr << "rcache-sim: --il1-strategy needs --il1-org\n";
        return std::nullopt;
    }
    if (dl1.strategy != Strategy::None &&
        cfg.dl1Org == Organization::None) {
        std::cerr << "rcache-sim: --dl1-strategy needs --dl1-org\n";
        return std::nullopt;
    }
    return cfg;
}

/**
 * Reject run-point combinations that cannot take effect or that the
 * engine cannot price, with CLI-grade messages (the lower layers
 * would rc_fatal or silently ignore them).
 */
bool
checkRunPoint(const Args &args, const SystemConfig &cfg,
              std::size_t mix_size, const EngineSpec &engine,
              const ResizeSetup &il1, const ResizeSetup &dl1)
{
    // Each L1 must stay a cache under --assoc, and a static level
    // must be one its organization offers (a scenario's axes are
    // checked the same way).
    struct L1
    {
        const char *name;
        const CacheGeometry &geom;
        Organization org;
        const ResizeSetup &setup;
    };
    for (const L1 &c : {L1{"il1", cfg.il1, cfg.il1Org, il1},
                        L1{"dl1", cfg.dl1, cfg.dl1Org, dl1}}) {
        const std::string why = c.geom.validate();
        if (!why.empty()) {
            std::cerr << "rcache-sim: --assoc " << c.geom.assoc << ": "
                      << c.name << ": " << why << '\n';
            return false;
        }
        if (c.setup.strategy != Strategy::Static)
            continue;
        const std::size_t levels = buildSchedule(c.org, c.geom).size();
        if (c.setup.staticLevel >= levels) {
            std::cerr << "rcache-sim: --" << c.name << "-level "
                      << c.setup.staticLevel << ": --" << c.name
                      << "-org " << organizationToken(c.org)
                      << " offers levels 0.." << levels - 1 << '\n';
            return false;
        }
    }
    // Cycling fills extra cores, but a missing core would silently
    // drop programs from the simulation.
    if (mix_size > cfg.cores) {
        std::cerr << "rcache-sim: --mix runs " << mix_size
                  << " programs but --cores is " << cfg.cores
                  << "; need --cores >= " << mix_size << '\n';
        return false;
    }
    // The quantum only governs the multi-core full-detail interleave
    // (sampled runs interleave whole sampling periods; a single core
    // has no interleave). Mirrors ParamSpace::build's quantum checks.
    if (args.has("--quantum") && cfg.cores <= 1) {
        std::cerr << "rcache-sim: --quantum needs --cores > 1 (a "
                     "single core has no interleave)\n";
        return false;
    }
    if (args.has("--quantum") && engine.sampled()) {
        std::cerr << "rcache-sim: --quantum has no effect under a "
                     "sampled engine (cores interleave whole "
                     "sampling periods)\n";
        return false;
    }
    if (!engine.analytic())
        return true;
    if (cfg.cores > 1) {
        std::cerr << "rcache-sim: --engine analytic supports a "
                     "single core only (see the README's Engines "
                     "section)\n";
        return false;
    }
    if (il1.strategy == Strategy::Dynamic ||
        dl1.strategy == Strategy::Dynamic) {
        std::cerr << "rcache-sim: --engine analytic prices static "
                     "geometries only; dynamic strategies need the "
                     "full or sampled engine\n";
        return false;
    }
    if (cfg.policy != "lru") {
        std::cerr << "rcache-sim: --engine analytic models true-LRU "
                     "caches only; --policy " << cfg.policy
                  << " needs the full or sampled engine\n";
        return false;
    }
    if (args.has("--timeline")) {
        std::cerr << "rcache-sim: --engine analytic samples no "
                     "timeline; --timeline needs the full or sampled "
                     "engine\n";
        return false;
    }
    return true;
}

int
cmdRun(const Args &args)
{
    if (!armCliFailpoints(args))
        return 2;
    if (!args.has("--app") && !args.has("--mix"))
        return refuse("run needs --app NAME (see list-apps) or --mix "
                      "A+B");
    if (args.has("--app") && args.has("--mix"))
        return refuse("--mix conflicts with --app (the mix names the "
                      "workloads)");

    std::vector<BenchmarkProfile> mix;
    if (args.has("--mix")) {
        std::string err;
        const auto m = mixByName(args.get("--mix"), &err);
        if (!m)
            return refuse(err);
        mix = *m;
    } else {
        const auto profile = lookupProfile(args.get("--app"));
        if (!profile)
            return 2;
        mix = {*profile};
    }
    std::vector<std::string> trace_specs;
    for (const BenchmarkProfile &p : mix)
        if (!p.traceSpec.empty())
            trace_specs.push_back(p.traceSpec);
    std::string trace_err;
    if (!preflightTraceSpecs(trace_specs, &trace_err))
        return refuse(trace_err);

    const auto il1 = parseSetup(args, "il1");
    const auto dl1 = parseSetup(args, "dl1");
    const auto insts = parsePositive(args, "--insts", 400000);
    if (!il1 || !dl1 || !insts)
        return 2;
    std::optional<EngineSpec> engine = EngineSpec{};
    if (args.has("--engine")) {
        std::string err;
        engine = parseEngineArg(args.get("--engine"), &err);
        if (!engine)
            return refuse("--engine: " + err);
    }
    const auto cfg = parseSystem(args, mix.size(), *il1, *dl1);
    if (!cfg ||
        !checkRunPoint(args, *cfg, mix.size(), *engine, *il1, *dl1))
        return 2;

    // ---- telemetry requests (all off unless asked for)
    const std::string timeline_path = args.get("--timeline");
    const std::string events_path = args.get("--events");
    const std::string trace_path = args.get("--trace-events");
    const auto tl_interval =
        parsePositive(args, "--timeline-interval", 10000);
    if (!tl_interval)
        return 2;
    RunTelemetry telem;
    telem.timelineInterval =
        timeline_path.empty() ? 0 : *tl_interval;
    telem.resizeEvents = !events_path.empty();
    RunTelemetry *telem_ptr = telem.enabled() ? &telem : nullptr;
    std::optional<TraceEventRecorder> trace;
    if (!trace_path.empty())
        trace.emplace();

    const std::string label = args.has("--mix")
                                  ? args.get("--mix") + "/point"
                                  : mix.front().name + "/point";
    const auto span_begin =
        trace ? trace->now() : TraceEventRecorder::Clock::time_point{};

    SystemResult res;
    if (engine->analytic()) {
        RunJob job;
        job.label = label;
        job.profile = mix.front();
        job.cfg = *cfg;
        job.insts = *insts;
        job.il1 = *il1;
        job.dl1 = *dl1;
        job.engine = *engine;
        job.telemetry = telem_ptr;
        res.aggregate = executeRunJob(job);
    } else {
        System sys(*cfg);
        res = sys.run(mix, *insts, *il1, *dl1, *engine, telem_ptr);
    }
    if (trace)
        trace->completeSpan(label, span_begin, trace->now(),
                            {{"label", label}});
    if (cfg->cores > 1)
        writeMultiCoreReport(std::cout, res);
    else
        writeRunReport(std::cout, res.aggregate);

    // ---- telemetry sidecars
    const auto openOut = [](const std::string &path,
                            std::ofstream &os) {
        os.open(path, std::ios::binary | std::ios::trunc);
        if (!os)
            std::cerr << "rcache-sim: cannot write '" << path
                      << "'\n";
        return static_cast<bool>(os);
    };
    if (!timeline_path.empty()) {
        std::ofstream os;
        if (!openOut(timeline_path, os))
            return 2;
        std::ostringstream rec;
        writeTimelineJsonl(rec, telem.timeline);
        checkedAppend(os, rec.str(), timeline_path,
                      "telemetry.timeline.append");
    }
    if (!events_path.empty()) {
        std::ofstream os;
        if (!openOut(events_path, os))
            return 2;
        std::ostringstream rec;
        writeResizeEventsJsonl(rec, telem.events.events());
        checkedAppend(os, rec.str(), events_path,
                      "telemetry.events.append");
    }
    if (trace) {
        std::ofstream os;
        if (!openOut(trace_path, os))
            return 2;
        std::ostringstream rec;
        trace->write(rec);
        checkedAppend(os, rec.str(), trace_path,
                      "telemetry.trace.write");
    }
    return 0;
}

// ------------------------------------------------------ record/convert

int
cmdRecord(const Args &args)
{
    if (!args.has("--app") || !args.has("--out"))
        return refuse("record needs --app NAME and --out FILE");
    const auto profile = lookupProfile(args.get("--app"));
    const auto count = parsePositive(args, "--insts", 400000);
    if (!profile || !count)
        return 2;
    std::string trace_err;
    if (!preflightTraceSpecs({profile->traceSpec}, &trace_err))
        return refuse(trace_err);
    const std::string path = args.get("--out");
    std::ofstream out(path);
    if (!out)
        return refuse("cannot write '" + path + "'");
    const std::unique_ptr<Workload> wl = makeWorkload(*profile);
    writeTrace(out, *wl, *count);
    checkedFlush(out, path);
    std::cerr << "recorded " << *count << " instructions of "
              << wl->name() << " to " << path << '\n';
    return 0;
}

int
cmdConvert(const Args &args)
{
    if (!args.has("--in"))
        return refuse("convert needs --in PATH|trace:PATH[:FORMAT]");
    std::string in = args.get("--in");
    if (!isTraceSpec(in))
        in = "trace:" + in;
    TraceSpec spec;
    std::string err;
    if (!parseTraceSpec(in, &spec, &err))
        return refuse(err);
    const auto limit = parseU64(args, "--limit", 0);
    if (!limit)
        return 2;

    const std::string out_path = args.get("--out");
    std::ofstream file;
    if (!out_path.empty()) {
        file.open(out_path, std::ios::binary | std::ios::trunc);
        if (!file)
            return refuse("cannot write '" + out_path + "'");
    }
    std::ostream &os = out_path.empty() ? std::cout : file;
    if (!convertTraceToNative(spec, os, *limit, &err))
        return refuse(err);
    if (!out_path.empty()) {
        checkedFlush(file, out_path);
        std::cerr << "converted " << spec.path << " ("
                  << traceFormatName(spec.format) << ") to "
                  << out_path << '\n';
    }
    return 0;
}

// --------------------------------------------------------------- bench

int
cmdBench(const Args &args)
{
    if (args.has("--list")) {
        for (const auto &spec : rcache::bench::perfBenches())
            std::cout << spec.name << ": " << spec.description
                      << '\n';
        return 0;
    }

    rcache::bench::BenchOptions opts;
    if (args.has("--quick")) {
        opts.items = 300000;
        opts.repetitions = 2;
    }
    const auto items = parsePositive(args, "--insts", opts.items);
    if (!items)
        return 2;
    const auto reps = parseUnsigned(args, "--reps", opts.repetitions);
    if (!reps)
        return 2;
    if (*reps == 0)
        return refuse("--reps must be > 0");
    opts.items = *items;
    opts.repetitions = *reps;
    opts.filter = args.get("--filter");
    opts.outDir = args.get("--out-dir", ".");
    // Fail before timing anything, not once per result file after.
    std::error_code ec;
    if (!std::filesystem::is_directory(opts.outDir, ec))
        return refuse("--out-dir '" + opts.outDir +
                      "' is not a directory");
    return rcache::bench::runPerfBenches(opts);
}

// ------------------------------------------------------------- inspect

int
cmdInspect(const Args &args)
{
    if (!args.has("--timeline") && !args.has("--events"))
        return refuse("inspect needs --timeline FILE and/or --events "
                      "FILE");
    const auto window = parsePositive(args, "--window", 3);
    if (!window)
        return 2;

    // A missing input gets the standard one-line "<path>:<line>:"
    // diagnostic. So does an empty timeline: a timed run always
    // writes at least one row, so an empty one means a run that
    // recorded nothing, and a silent empty summary would hide it. An
    // empty events file is a run without a dynamic controller.
    const auto openArtifact = [](const std::string &path,
                                 std::ifstream &in, bool may_be_empty) {
        in.open(path, std::ios::binary);
        if (!in) {
            std::cerr << "rcache-sim: " << path << ":1: cannot open\n";
            return false;
        }
        if (!may_be_empty &&
            in.peek() == std::char_traits<char>::eof()) {
            std::cerr << "rcache-sim: " << path << ":1: empty file\n";
            return false;
        }
        return true;
    };
    try {
        if (args.has("--timeline")) {
            const std::string path = args.get("--timeline");
            std::ifstream in;
            if (!openArtifact(path, in, false))
                return 2;
            printTimelineSummary(std::cout, summarizeTimeline(in));
        }
        if (args.has("--events")) {
            const std::string path = args.get("--events");
            std::ifstream in;
            if (!openArtifact(path, in, true))
                return 2;
            if (args.has("--timeline"))
                std::cout << '\n';
            printEventsSummary(std::cout,
                               summarizeEvents(in, *window));
        }
    } catch (const std::exception &e) {
        return refuse(e.what());
    }
    return 0;
}

// ---------------------------------------------------------- list-*

/** @p s padded with spaces to @p width columns, at least two. */
std::string
column(const std::string &s, std::size_t width)
{
    return s + std::string(std::max<std::size_t>(
                               2, width > s.size() ? width - s.size()
                                                   : 0),
                           ' ');
}

int
cmdListApps(const Args &)
{
    for (const auto &name : suiteNames())
        std::cout << name << '\n';
    std::cout << "\nAny app slot (run --app, scenario apps, mixes) "
                 "also accepts trace:PATH[:FORMAT]\nto stream an "
                 "on-disk trace: formats native|rocksdb|lcs, '.gz' "
                 "for gzip\n(inferred from the extension when "
                 "FORMAT is omitted).\n";
    return 0;
}

int
cmdListFailpoints(const Args &)
{
    std::size_t width = 0;
    for (const auto &site : fault::knownFailpoints())
        width = std::max(width, std::string(site.name).size());
    for (const auto &site : fault::knownFailpoints())
        std::cout << column(site.name, width + 2) << site.description
                  << '\n';
    return 0;
}

// ------------------------------------------------------ command table

/** One option: key, value placeholder (null for a flag), and one
 *  help line worded for the subcommand that declares it. */
struct Option
{
    const char *key;
    const char *value;
    const char *help;
};

/** One subcommand: everything its usage line, --help, strict parse
 *  and dispatch are generated from. */
struct Command
{
    const char *name;
    /** The usage line after the name. */
    const char *synopsis;
    /** One line: the top-level list entry and the --help headline. */
    const char *purpose;
    std::vector<Option> options;
    /** Whether bare (non --key) arguments are accepted. */
    bool positionals;
    /** Extra --help paragraph, or null. */
    const char *notes;
    int (*handler)(const Args &);
};

/** Every subcommand accepts --help; it is listed last. */
const Option kHelpOption{"--help", nullptr, "show this help and exit"};

/** Options shared verbatim by sweep and tune's --claim mode. */
const Option kClaimShards{
    "--shards", "N",
    "work units when creating a --claim manifest (joining workers "
    "inherit the manifest's count)"};
const Option kLeaseTimeout{
    "--lease-timeout", "N",
    "seconds before a claimed unit with no progress counts as crashed "
    "and may be taken over (default 300)"};
const Option kFailpoint{
    "--failpoint", "SPEC",
    "arm deterministic fault injection: SITE=ACTION[@N],... with "
    "actions crash|io_error|torn|delay[:MS] (see 'rcache-sim "
    "list-failpoints'; RC_FAILPOINT env works too)"};
const Option kJobs{"--jobs", "N",
                   "worker threads (default 1, 0 = all cores)"};

const std::vector<Command> kCommands = {
    {"sweep", "(--scenario FILE | --claim DIR) [options]",
     "design-space sweep of a scenario file",
     {
         {"--scenario", "FILE",
          "scenario file defining the design space (see "
          "scenarios/*.scn)"},
         kJobs,
         {"--shard", "i/N",
          "run only the i-th of N contiguous cell ranges, the cells "
          "claim unit shard_i holds (merge with 'rcache-sim merge')"},
         {"--resume", "FILE",
          "CSV of an interrupted sweep: verify its completed rows, "
          "simulate only the rest, write the merged file back"},
         {"--format", "FMT", "report format: csv|json|table (default "
                             "csv)"},
         {"--out", "FILE", "write the report to FILE, not stdout"},
         {"--progress", nullptr, "per-job progress on stderr"},
         {"--timeline", "FILE",
          "write every job's per-core interval timeline to FILE "
          "(JSONL, rows labelled by job)"},
         {"--events", "FILE",
          "write every job's resize decisions to FILE (JSONL, rows "
          "labelled by job)"},
         {"--trace-events", "FILE",
          "write Chrome trace-event JSON of the runner's spans to FILE "
          "(load in Perfetto / chrome://tracing)"},
         {"--timeline-interval", "N",
          "timeline sample period in insts (default 10000)"},
         {"--claim", "DIR",
          "cooperative mode: claim work units from manifest directory "
          "DIR (create it with --scenario and --shards N; other "
          "workers just name the DIR to join)"},
         kClaimShards,
         kLeaseTimeout,
         kFailpoint,
     },
     false,
     "The scenario says what to simulate; these options say how to run\n"
     "it and where the outputs go. The report is byte-identical for\n"
     "any --jobs value, shard partition, or resume point.\n",
     cmdSweep},
    {"tune", "--scenario FILE [options]",
     "adaptive search: find the best cell on a fidelity ladder",
     {
         {"--scenario", "FILE",
          "scenario file with 'mode = adaptive' in its [search] "
          "section"},
         kJobs,
         {"--out", "FILE",
          "write the winner's CSV row to FILE, not stdout"},
         {"--log", "FILE",
          "write the JSONL decision log to FILE (byte-identical across "
          "--jobs, workers, and resumes)"},
         {"--resume", "FILE",
          "decision log of an interrupted tune: replay its completed "
          "rounds, run only the rest"},
         {"--claim", "DIR",
          "cooperative mode: claim the rounds' work units from "
          "manifest directory DIR (create it with --shards N)"},
         kClaimShards,
         kLeaseTimeout,
         kFailpoint,
     },
     false,
     "Successive halving over the engine fidelity ladder ([search]\n"
     "ladder): each round scores the surviving cells at one engine and\n"
     "promotes the best to the next, more detailed one.\n",
     cmdTune},
    {"merge", "[--out FILE] SHARD.csv... | CLAIM_DIR",
     "re-interleave shard CSVs (or a --claim dir) into one report",
     {
         {"--out", "FILE", "write the merged report to FILE, not "
                           "stdout"},
     },
     true,
     "Inputs are shard CSVs of one scenario (any order), or a single\n"
     "--claim manifest directory whose units are all done. The merged\n"
     "report is byte-identical to an unsharded 'rcache-sim sweep' of\n"
     "the same scenario. Shard CSVs carry no cell count: a repeated or\n"
     "missing middle shard is refused, missing last shards are not\n"
     "noticed. A directory is held to its manifest's cells.\n",
     cmdMerge},
    {"run", "(--app NAME | --mix A+B) [options]",
     "one explicit design point, full run report",
     {
         {"--app", "NAME",
          "profile to run (see list-apps), or trace:PATH[:FORMAT] to "
          "stream an on-disk trace"},
         {"--mix", "A+B",
          "'+'-joined workload mix cycled across the cores (e.g. "
          "gcc+m88ksim)"},
         {"--insts", "N", "instructions per core (default 400000)"},
         {"--engine", "SPEC",
          "simulation engine: full | sampled[:interval=N,detail=N,"
          "warmup=N] | analytic (default full)"},
         {"--cores", "N",
          "simulate N cores with private L1s over one shared L2 "
          "(default 1; with --mix, the mix size)"},
         {"--quantum", "N",
          "round-robin interleave quantum in insts (default 50000; "
          "multi-core full detail only)"},
         {"--policy", "NAME",
          "L1 replacement policy: lru|random|fifo|slru|wtlfu (default "
          "lru)"},
         {"--assoc", "N", "override both L1 associativities (1..64)"},
         {"--il1-org", "ORG", "il1 organization: none|ways|sets|hybrid"},
         {"--il1-strategy", "S", "il1 strategy: none|static|dynamic"},
         {"--il1-level", "N", "il1 static schedule level"},
         {"--il1-interval", "N", "il1 dynamic interval (accesses)"},
         {"--il1-miss-bound", "N", "il1 dynamic miss bound per interval"},
         {"--il1-size-bound", "N", "il1 dynamic size bound (bytes)"},
         {"--dl1-org", "ORG", "dl1 organization: none|ways|sets|hybrid"},
         {"--dl1-strategy", "S", "dl1 strategy: none|static|dynamic"},
         {"--dl1-level", "N", "dl1 static schedule level"},
         {"--dl1-interval", "N", "dl1 dynamic interval (accesses)"},
         {"--dl1-miss-bound", "N", "dl1 dynamic miss bound per interval"},
         {"--dl1-size-bound", "N", "dl1 dynamic size bound (bytes)"},
         {"--timeline", "FILE",
          "write the per-core interval timeline to FILE (JSONL)"},
         {"--events", "FILE", "write the resize decisions to FILE "
                              "(JSONL)"},
         {"--trace-events", "FILE",
          "write the run's Chrome trace-event span to FILE"},
         {"--timeline-interval", "N",
          "timeline sample period in insts (default 10000)"},
         kFailpoint,
     },
     false, nullptr, cmdRun},
    {"record", "--app NAME --out FILE [options]",
     "record a profile's stream to a trace file",
     {
         {"--app", "NAME",
          "profile to record (see list-apps), or a trace:PATH[:FORMAT] "
          "to re-record"},
         {"--insts", "N", "instructions to record (default 400000)"},
         {"--out", "FILE", "trace file to write"},
     },
     false, nullptr, cmdRecord},
    {"convert", "--in SPEC [options]",
     "rewrite a rocksdb/lcs/native[.gz] trace as native text",
     {
         {"--in", "SPEC",
          "input trace: PATH or trace:PATH[:FORMAT] (formats "
          "native|rocksdb|lcs; '.gz' for gzip)"},
         {"--out", "FILE", "write the native trace to FILE, not stdout"},
         {"--limit", "N", "convert at most N records (default 0 = all)"},
     },
     false,
     "Streams in bounded memory, whatever the input's size.\n",
     cmdConvert},
    {"bench", "[options]",
     "time the simulator's hot paths, write BENCH_*.json",
     {
         {"--quick", nullptr,
          "small items/reps for smoke runs (still writes JSON)"},
         {"--list", nullptr, "print the registered benchmarks and exit"},
         {"--insts", "N",
          "instructions (or items) per repetition (default 2000000; "
          "300000 with --quick)"},
         {"--reps", "N",
          "timed repetitions per benchmark (default 3; 2 with --quick)"},
         {"--filter", "SUB",
          "run only benchmarks whose name contains SUB"},
         {"--out-dir", "DIR", "directory for BENCH_*.json (default .)"},
     },
     false, nullptr, cmdBench},
    {"scenario", "check FILE... | print FILE",
     "validate scenario files or print their canonical form",
     {},
     true,
     "check validates each file (parse + axis registry + every\n"
     "design point's geometry) and reports its size; print writes\n"
     "the canonical serialization to stdout.\n",
     cmdScenario},
    {"inspect", "(--timeline FILE | --events FILE) [options]",
     "summarize telemetry artifacts",
     {
         {"--timeline", "FILE",
          "timeline JSONL (from run/sweep --timeline) to summarize"},
         {"--events", "FILE",
          "resize-event JSONL (from run/sweep --events) to summarize"},
         {"--window", "N",
          "oscillation window in controller intervals (default 3)"},
     },
     false,
     "Reports decision counts by reason, size residency, and\n"
     "oscillations.\n",
     cmdInspect},
    {"doctor", "[options] CLAIM_DIR",
     "audit a --claim manifest directory's consistency",
     {
         {"--lease-timeout", "N",
          "seconds after which a lease without progress counts as "
          "stale (default 300)"},
         {"--log", "FILE",
          "also audit this decision log, read as tune --resume reads "
          "it"},
     },
     true,
     "Reports every work unit's state (done / lease live / stale /\n"
     "unclaimed), verifies committed unit CSVs still parse, and\n"
     "inventories crash debris (orphan tmp files, renamed-aside\n"
     "evidence). With --log, a decision log line that is not the one\n"
     "the tune writes there is a problem; a log cut at a line\n"
     "boundary is not. Never mutates anything.\n"
     "\n"
     "exit codes: 0 consistent (possibly unfinished), 2 inconsistent.\n",
     cmdDoctor},
    {"list-apps", "", "print the benchmark suite", {}, false, nullptr,
     cmdListApps},
    {"list-failpoints", "", "print the registered fault-injection sites",
     {}, false, nullptr, cmdListFailpoints},
};

const Command *
findCommand(const std::string &name)
{
    for (const Command &cmd : kCommands)
        if (name == cmd.name)
            return &cmd;
    return nullptr;
}

const Option *
findOption(const Command &cmd, const std::string &key)
{
    if (key == kHelpOption.key)
        return &kHelpOption;
    for (const Option &opt : cmd.options)
        if (key == opt.key)
            return &opt;
    return nullptr;
}

int
usage(std::ostream &os, int code)
{
    os << "rcache-sim — resizable-cache design-space explorer\n"
          "\n"
          "usage: rcache-sim <subcommand> [options]\n"
          "\n"
          "subcommands:\n";
    for (const Command &cmd : kCommands)
        os << "  " << column(cmd.name, 17) << cmd.purpose << '\n';
    os << "\n"
          "Each subcommand documents its own options: "
          "'rcache-sim <subcommand> --help'.\n"
          "\n"
          "example:\n"
          "  rcache-sim sweep --scenario scenarios/fig4.scn --jobs 0 "
          "\\\n"
          "      --shard 0/2 --out shard0.csv\n";
    return code;
}

int
printHelp(const Command &cmd)
{
    std::cout << "rcache-sim " << cmd.name << " — " << cmd.purpose
              << "\n\nusage: rcache-sim " << cmd.name;
    if (*cmd.synopsis)
        std::cout << ' ' << cmd.synopsis;
    std::cout << '\n';
    if (cmd.notes)
        std::cout << '\n' << cmd.notes;
    std::cout << "\noptions:\n";
    std::vector<Option> options = cmd.options;
    options.push_back(kHelpOption);
    for (const Option &opt : options) {
        const std::string arg =
            opt.value ? std::string(opt.key) + " " + opt.value
                      : std::string(opt.key);
        std::cout << "  " << column(arg, 24) << opt.help << '\n';
    }
    return 0;
}

/**
 * Strict parse of argv[2..] against @p cmd's table entry: every
 * --key must be one of its options, a value option takes the next
 * argument, and bare arguments are accepted only by commands that
 * take positionals. Unknown or malformed arguments get a one-line
 * diagnostic.
 */
std::optional<Args>
parseArgs(const Command &cmd, int argc, char **argv)
{
    Args args;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (!cmd.positionals) {
                std::cerr << "rcache-sim: unexpected argument '" << arg
                          << "' for '" << cmd.name << "'\n";
                return std::nullopt;
            }
            args.positionals.push_back(arg);
            continue;
        }
        const Option *opt = findOption(cmd, arg);
        if (!opt) {
            std::cerr << "rcache-sim: unknown option '" << arg
                      << "' for '" << cmd.name << "' (try 'rcache-sim "
                      << cmd.name << " --help')\n";
            return std::nullopt;
        }
        if (!opt->value) {
            args.flags.insert(arg);
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "rcache-sim: option '" << arg
                      << "' needs a value\n";
            return std::nullopt;
        }
        args.opts[arg] = argv[++i];
    }
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 2);
    const std::string name = argv[1];
    if (name == "--help" || name == "help" || name == "-h")
        return usage(std::cout, 0);

    // The RC_FAILPOINT environment variable arms fault injection for
    // any subcommand (the CLI --failpoint option only exists on the
    // long-running drivers); a bad spec is a usage error.
    std::string fp_err;
    if (!fault::armFailpointsFromEnv(&fp_err))
        return refuse("RC_FAILPOINT: " + fp_err);

    const Command *cmd = findCommand(name);
    if (!cmd)
        return refuse("unknown subcommand '" + name +
                      "' (try 'rcache-sim --help')");
    const auto args = parseArgs(*cmd, argc, argv);
    if (!args)
        return 2;
    if (args->has(kHelpOption.key))
        return printHelp(*cmd);
    return cmd->handler(*args);
}
