/**
 * @file
 * rcache-sim: unified CLI driver for the resizable-cache simulator.
 *
 * Subcommands:
 *   sweep     design-space sweep from a scenario file (--scenario) or
 *             the legacy org x strategy x app grid flags, fanned
 *             across a SweepRunner thread pool, shardable (--shard)
 *             and resumable (--resume), reported as CSV/JSON/table
 *   tune      adaptive design-space search: successive halving over
 *             the engine fidelity ladder, with a replayable decision
 *             log and cooperative --claim workers (src/search/)
 *   merge     re-interleave sweep shard CSVs (or a --claim manifest
 *             directory) into the byte-identical unsharded report
 *   run       one explicit design point, full run report (also
 *             over a recorded or real trace: --app trace:PATH)
 *   convert   rewrite a rocksdb/lcs/native[.gz] trace as native text
 *   scenario  check/print scenario files
 *   inspect   summarize telemetry artifacts (timelines, event traces)
 *   list-apps print the benchmark suite names
 *
 * Both sweep paths converge on the scenario engine
 * (scenario/scenario_sweep.hh): the grid flags are sugar that builds
 * the equivalent ScenarioSpec. The engine enumerates every cell's
 * jobs up front and executes them as ONE batch, so the pool stays
 * busy across cell boundaries and the output is byte-identical for
 * any --jobs value, shard partition, or resume point.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness/perf_harness.hh"
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

int
usage(std::ostream &os, int code)
{
    os << "rcache-sim — resizable-cache design-space explorer\n"
          "\n"
          "usage:\n"
          "  rcache-sim sweep [options]     design-space sweep "
          "(--scenario file or grid flags)\n"
          "  rcache-sim tune [options]      adaptive search: find "
          "the best cell on a fidelity ladder\n"
          "  rcache-sim merge [opts] f..    re-interleave shard CSVs "
          "(or a --claim dir) into one report\n"
          "  rcache-sim run [options]       one explicit design "
          "point (--app NAME or trace:PATH)\n"
          "  rcache-sim record [options]    record a profile's "
          "stream to a trace file\n"
          "  rcache-sim convert [options]   rewrite a rocksdb/lcs/"
          "native[.gz] trace as native text\n"
          "  rcache-sim bench [options]     time the simulator's hot "
          "paths, write BENCH_*.json\n"
          "  rcache-sim scenario check f..  validate scenario files\n"
          "  rcache-sim scenario print f    print a scenario's "
          "canonical form\n"
          "  rcache-sim inspect [options]   summarize telemetry "
          "artifacts\n"
          "  rcache-sim doctor [opts] DIR   audit a --claim manifest "
          "directory's consistency\n"
          "  rcache-sim list-apps           print the benchmark "
          "suite\n"
          "  rcache-sim list-failpoints     print the registered "
          "fault-injection sites\n"
          "\n"
          "Each subcommand documents its own options: "
          "'rcache-sim <subcommand> --help'.\n"
          "\n"
          "example:\n"
          "  rcache-sim sweep --scenario scenarios/fig4.scn --jobs 0 "
          "\\\n"
          "      --shard 0/2 --out shard0.csv\n"
          "  rcache-sim sweep --apps ammp,gcc,swim --orgs ways,sets "
          "\\\n"
          "      --strategies static,dynamic --side dcache --jobs 0 "
          "\\\n"
          "      --format csv --out sweep.csv\n";
    return code;
}

/** Parsed command line: string options plus boolean flags. */
struct Args
{
    std::map<std::string, std::string> opts;
    std::map<std::string, bool> flags;

    std::string get(const std::string &key,
                    const std::string &fallback) const
    {
        auto it = opts.find(key);
        return it == opts.end() ? fallback : it->second;
    }
    bool has(const std::string &key) const
    {
        return opts.count(key) != 0;
    }
};

/** Option keys that take no value. */
bool
isFlag(const std::string &key)
{
    return key == "--progress" || key == "--help" ||
           key == "--quick" || key == "--list";
}

/** The per-cache design-point options (--il1-... and --dl1-...). */
std::vector<std::string>
setupKeys()
{
    std::vector<std::string> keys;
    for (const char *c : {"il1", "dl1"})
        for (const char *opt : {"org", "strategy", "level", "interval",
                                "miss-bound", "size-bound"})
            keys.push_back(std::string("--") + c + "-" + opt);
    return keys;
}

/** Options each subcommand accepts; anything else is an error. */
std::vector<std::string>
knownOptions(const std::string &cmd)
{
    std::vector<std::string> keys = {"--help"};
    auto add = [&](std::initializer_list<const char *> more) {
        keys.insert(keys.end(), more.begin(), more.end());
    };
    if (cmd == "sweep") {
        add({"--scenario", "--shard", "--resume", "--insts", "--jobs",
             "--assoc", "--apps", "--orgs", "--strategies", "--side",
             "--cores", "--mix", "--quantum", "--policy", "--format",
             "--out", "--progress", "--engine", "--timeline",
             "--events", "--trace-events", "--timeline-interval",
             "--claim", "--shards", "--lease-timeout",
             "--failpoint"});
    } else if (cmd == "tune") {
        add({"--scenario", "--jobs", "--out", "--log", "--resume",
             "--claim", "--shards", "--lease-timeout",
             "--failpoint"});
    } else if (cmd == "run") {
        add({"--insts", "--assoc", "--app", "--cores", "--mix",
             "--quantum", "--policy", "--engine", "--timeline",
             "--events", "--trace-events", "--timeline-interval",
             "--failpoint"});
        for (const auto &k : setupKeys())
            keys.push_back(k);
    } else if (cmd == "inspect") {
        add({"--timeline", "--events", "--window"});
    } else if (cmd == "record") {
        add({"--insts", "--app", "--out"});
    } else if (cmd == "convert") {
        add({"--in", "--out", "--limit"});
    } else if (cmd == "bench") {
        add({"--quick", "--list", "--insts", "--reps", "--filter",
             "--out-dir"});
    }
    // list-apps takes no options beyond --help.
    return keys;
}

/** One-line purpose of each subcommand (the --help headline). */
std::string
commandPurpose(const std::string &cmd)
{
    if (cmd == "sweep")
        return "design-space sweep (--scenario file or grid flags)";
    if (cmd == "tune")
        return "adaptive design-space search: successive halving "
               "over the engine fidelity ladder ([search] mode = "
               "adaptive)";
    if (cmd == "merge")
        return "re-interleave sweep shard CSVs (or a --claim "
               "manifest directory) into the unsharded report";
    if (cmd == "run")
        return "one explicit design point, full run report";
    if (cmd == "record")
        return "record a profile's stream to a trace file";
    if (cmd == "convert")
        return "rewrite a rocksdb/lcs/native[.gz] trace as the "
               "native text format (streamed, bounded memory)";
    if (cmd == "bench")
        return "time the simulator's hot paths and write "
               "machine-readable BENCH_*.json perf records";
    if (cmd == "inspect")
        return "summarize telemetry artifacts: decision counts by "
               "reason, size residency, oscillations";
    if (cmd == "doctor")
        return "read-only consistency audit of a --claim manifest "
               "directory (exit 0 consistent, 2 inconsistent)";
    if (cmd == "list-apps")
        return "print the benchmark suite names";
    if (cmd == "list-failpoints")
        return "print the registered fault-injection sites";
    return "";
}

/**
 * One-line help for every option key. The per-subcommand help is
 * GENERATED from knownOptions() plus this table, so an option added
 * to an allowlist shows up in that subcommand's --help automatically.
 */
std::string
optionHelp(const std::string &key)
{
    static const std::map<std::string, const char *> help = {
        {"--help", "show this help and exit"},
        {"--insts", "instructions per run (default 400000)"},
        {"--jobs", "worker threads (default 1, 0 = all cores)"},
        {"--assoc", "override both L1 associativities (1..64)"},
        {"--scenario",
         "scenario file describing the sweep (replaces the grid "
         "flags)"},
        {"--shard",
         "i/N: run only cells with index == i mod N (merge shards "
         "by sorting rows on the cell column)"},
        {"--resume",
         "CSV of an interrupted sweep: verify its completed rows, "
         "simulate only the rest, write the merged file back"},
        {"--apps", "comma list of profiles (default: all)"},
        {"--orgs",
         "comma list of ways,sets,hybrid (default: ways,sets)"},
        {"--strategies",
         "comma list of static,dynamic (default: static)"},
        {"--side",
         "icache|dcache|both (default: dcache; both is static-only, "
         "Fig 9 style)"},
        {"--format", "csv|json|table (default: csv)"},
        {"--out", "write the report/trace to FILE, not stdout"},
        {"--progress", "per-job progress on stderr"},
        {"--engine",
         "simulation engine: full | sampled[:interval=N,detail=N,"
         "warmup=N] | analytic (default full)"},
        {"--app",
         "profile to run (see list-apps), or trace:PATH[:FORMAT] to "
         "stream an on-disk trace"},
        {"--policy",
         "L1 replacement policy: lru|random|fifo|slru|wtlfu "
         "(default lru)"},
        {"--in",
         "input trace: PATH or trace:PATH[:FORMAT] (formats "
         "native|rocksdb|lcs; '.gz' for gzip)"},
        {"--limit", "convert at most N records (default 0 = all)"},
        {"--cores",
         "simulate N cores with private L1s over one shared L2 "
         "(default 1; with --mix, the mix size)"},
        {"--mix",
         "'+'-joined workload mix cycled across the cores "
         "(e.g. gcc+m88ksim)"},
        {"--quantum",
         "round-robin interleave quantum in insts (default 50000)"},
        {"--quick",
         "small items/reps for smoke runs (still writes JSON)"},
        {"--list", "print the registered benchmarks and exit"},
        {"--reps", "timed repetitions per benchmark (default 3)"},
        {"--filter", "run only benchmarks whose name contains SUB"},
        {"--out-dir", "directory for BENCH_*.json (default .)"},
        {"--timeline",
         "per-core interval-timeline file (run/sweep write it — "
         "JSONL, or CSV when a run's FILE ends in .csv; inspect "
         "reads it)"},
        {"--events",
         "resize-decision event-trace JSONL (run/sweep write it; "
         "inspect reads it)"},
        {"--trace-events",
         "write Chrome trace-event JSON of runner spans to FILE "
         "(load in Perfetto / chrome://tracing)"},
        {"--timeline-interval",
         "timeline sample period in insts (default 10000)"},
        {"--window",
         "oscillation window in controller intervals (default 3)"},
        {"--claim",
         "cooperative mode: claim work units from manifest "
         "directory DIR (create it with --shards N; other workers "
         "just name the DIR to join)"},
        {"--shards",
         "work units when creating a --claim manifest (joining "
         "workers inherit the manifest's count)"},
        {"--lease-timeout",
         "seconds before a claimed unit with no progress counts as "
         "crashed and may be taken over (default 300)"},
        {"--log",
         "write the adaptive search's JSONL decision log to FILE "
         "(byte-identical across --jobs, workers, and resumes)"},
        {"--failpoint",
         "arm deterministic fault injection: SITE=ACTION[@N],... "
         "with actions crash|io_error|torn|delay[:MS] (see "
         "'rcache-sim list-failpoints'; RC_FAILPOINT env works "
         "too)"},
    };
    auto it = help.find(key);
    if (it != help.end())
        return it->second;
    // The per-cache design-point keys (--il1-*/--dl1-*) are
    // described generically.
    for (const char *c : {"il1", "dl1"}) {
        const std::string prefix = std::string("--") + c + "-";
        if (key.rfind(prefix, 0) != 0)
            continue;
        const std::string opt = key.substr(prefix.size());
        const std::string cache = c;
        if (opt == "org")
            return cache + " organization: none|ways|sets|hybrid";
        if (opt == "strategy")
            return cache + " strategy: none|static|dynamic";
        if (opt == "level")
            return cache + " static schedule level";
        if (opt == "interval")
            return cache + " dynamic interval (accesses)";
        if (opt == "miss-bound")
            return cache + " dynamic miss bound per interval";
        if (opt == "size-bound")
            return cache + " dynamic size bound (bytes)";
    }
    return "";
}

/** Per-subcommand --help, generated from the option allowlist. */
int
commandHelp(const std::string &cmd)
{
    std::cout << "rcache-sim " << cmd << " — " << commandPurpose(cmd)
              << "\n\nusage: rcache-sim " << cmd;
    const auto known = knownOptions(cmd);
    if (known.size() > 1)
        std::cout << " [options]";
    std::cout << "\n\noptions:\n";
    for (const std::string &key : known) {
        const std::string arg = isFlag(key) ? key : key + " <v>";
        std::cout << "  " << arg;
        for (std::size_t pad = arg.size(); pad < 22; ++pad)
            std::cout << ' ';
        std::cout << ' ' << optionHelp(key) << '\n';
    }
    return 0;
}

/**
 * Strict parse: every argument must be a known option of @p cmd.
 * Unknown or malformed arguments get a one-line diagnostic.
 */
std::optional<Args>
parseArgs(int argc, char **argv, int first, const std::string &cmd)
{
    const std::vector<std::string> known = knownOptions(cmd);
    Args args;
    for (int i = first; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0) {
            std::cerr << "rcache-sim: unexpected argument '" << key
                      << "' for '" << cmd << "'\n";
            return std::nullopt;
        }
        if (std::find(known.begin(), known.end(), key) ==
            known.end()) {
            std::cerr << "rcache-sim: unknown option '" << key
                      << "' for '" << cmd
                      << "' (try 'rcache-sim --help')\n";
            return std::nullopt;
        }
        if (isFlag(key)) {
            args.flags[key] = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "rcache-sim: option '" << key
                      << "' needs a value\n";
            return std::nullopt;
        }
        args.opts[key] = argv[++i];
    }
    return args;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** The one-line diagnostic for a non-integer option value. */
void
badInteger(const std::string &key, const std::string &text)
{
    std::cerr << "rcache-sim: option '" << key
              << "' wants a non-negative integer, got '" << text
              << "'\n";
}

/** Strict decimal parse (parseU64Strict): the whole value must be
 *  digits. Exits the command with a usage error on garbage like
 *  "--assoc abc" or "--insts ' -1'". */
std::optional<std::uint64_t>
parseU64(const Args &args, const std::string &key,
         std::uint64_t fallback)
{
    if (!args.has(key))
        return fallback;
    const std::string &text = args.get(key, "");
    unsigned long long v = 0;
    if (!parseU64Strict(text, v)) {
        badInteger(key, text);
        return std::nullopt;
    }
    return v;
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

/** Apply --policy to @p cfg with a one-line diagnostic. */
bool
applyPolicy(const Args &args, SystemConfig &cfg)
{
    if (!args.has("--policy"))
        return true;
    const std::string name = args.get("--policy", "");
    if (!isReplacementPolicyName(name)) {
        std::cerr << "rcache-sim: --policy wants "
                  << replacementPolicyList() << ", got '" << name
                  << "'\n";
        return false;
    }
    cfg.policy = name;
    return true;
}

/**
 * Eagerly open every trace-spec component of @p names so unreadable
 * files and malformed leading records surface as one-line CLI
 * diagnostics (exit 2), not a mid-run rc_fatal out of a worker
 * thread. @p names may be app names, '+'-joined mixes, or specs.
 */
bool
preflightTraceSpecs(const std::vector<std::string> &names)
{
    for (const std::string &name : names) {
        for (const std::string &item : splitPlusList(name)) {
            if (!isTraceSpec(item))
                continue;
            TraceSpec spec;
            std::string err;
            if (!parseTraceSpec(item, &spec, &err) ||
                !StreamingTraceWorkload::open(spec, item, &err)) {
                std::cerr << "rcache-sim: " << err << '\n';
                return false;
            }
        }
    }
    return true;
}

/** A scenario's trace-spec surface: apps plus any 'mix' axis. */
bool
preflightScenarioTraces(const ScenarioSpec &spec)
{
    std::vector<std::string> names = spec.apps;
    for (const Axis &ax : spec.axes)
        if (ax.name == "mix")
            names.insert(names.end(), ax.values.begin(),
                         ax.values.end());
    return preflightTraceSpecs(names);
}

/** Resolve --engine into an EngineSpec (default: full detail). */
std::optional<EngineSpec>
parseEngine(const Args &args)
{
    if (!args.has("--engine"))
        return EngineSpec{};
    std::string err;
    auto spec = parseEngineArg(args.get("--engine", ""), &err);
    if (!spec)
        std::cerr << "rcache-sim: --engine: " << err << '\n';
    return spec;
}

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

/** Instructions per run; 0 is rejected (a 0-instruction result is
 *  the runner's "job never ran" marker and meaningless anyway). */
std::optional<std::uint64_t>
parseInsts(const Args &args)
{
    const auto insts = parseU64(args, "--insts", 400000);
    if (!insts)
        return std::nullopt;
    if (*insts == 0) {
        std::cerr << "rcache-sim: --insts must be > 0\n";
        return std::nullopt;
    }
    return insts;
}

std::optional<SystemConfig>
baseConfig(const Args &args)
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
    return cfg;
}

/**
 * Apply --cores/--quantum to @p cfg. @p default_cores lets --mix
 * default the core count to the mix size.
 */
bool
applyCores(const Args &args, SystemConfig &cfg,
           std::uint64_t default_cores)
{
    const auto cores = parseU64(args, "--cores", default_cores);
    const auto quantum =
        parseU64(args, "--quantum", cfg.quantumInsts);
    if (!cores || !quantum)
        return false;
    if (*cores == 0 || *cores > 64) {
        std::cerr << "rcache-sim: --cores wants 1..64\n";
        return false;
    }
    if (*quantum == 0) {
        std::cerr << "rcache-sim: --quantum must be > 0\n";
        return false;
    }
    cfg.cores = static_cast<unsigned>(*cores);
    cfg.quantumInsts = *quantum;
    return true;
}

/** Resolve --mix into its component profiles. */
std::optional<std::vector<BenchmarkProfile>>
parseMix(const Args &args)
{
    std::string err;
    auto mix = mixByName(args.get("--mix", ""), &err);
    if (!mix)
        std::cerr << "rcache-sim: " << err << '\n';
    return mix;
}

/**
 * Reject an explicit --quantum that cannot take effect: the quantum
 * only governs the multi-core full-detail interleave (sampled runs
 * interleave whole sampling periods; a single core has no
 * interleave). Mirrors the scenario layer's dead-quantum-axis check.
 */
bool
checkQuantumEffective(const Args &args, const SystemConfig &cfg,
                      const EngineSpec &engine)
{
    if (!args.has("--quantum"))
        return true;
    if (cfg.cores <= 1) {
        std::cerr << "rcache-sim: --quantum needs --cores > 1 (a "
                     "single core has no interleave)\n";
        return false;
    }
    if (engine.sampled()) {
        std::cerr << "rcache-sim: --quantum has no effect under a "
                     "sampled engine (cores interleave whole "
                     "sampling periods)\n";
        return false;
    }
    return true;
}

/**
 * Reject engine/design-point combinations the analytic engine cannot
 * price, with CLI-grade messages (the lower layers would rc_fatal).
 */
bool
checkAnalyticCompatible(const EngineSpec &engine,
                        const SystemConfig &cfg,
                        const ResizeSetup &il1, const ResizeSetup &dl1)
{
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
    return true;
}

// --------------------------------------------------------------- sweep

/**
 * Build the ScenarioSpec the legacy grid flags describe: --orgs and
 * --strategies become axes (in that nesting order, preserving the
 * historical row order), everything else fixes the base point.
 */
std::optional<ScenarioSpec>
scenarioFromFlags(const Args &args)
{
    ScenarioSpec spec;
    spec.name = "cli";

    if (args.has("--apps") && args.has("--mix")) {
        std::cerr << "rcache-sim: --mix conflicts with --apps (a mix "
                     "IS the app list; sweep several mixes with "
                     "--apps gcc+mcf,... plus --cores)\n";
        return std::nullopt;
    }
    if (args.has("--apps")) {
        for (const auto &name : splitList(args.get("--apps", ""))) {
            std::string err;
            if (!mixByName(name, &err)) {
                std::cerr << "rcache-sim: " << err << '\n';
                return std::nullopt;
            }
            spec.apps.push_back(name);
        }
        if (spec.apps.empty()) {
            std::cerr << "rcache-sim: --apps wants at least one "
                         "profile name\n";
            return std::nullopt;
        }
    }
    if (args.has("--mix")) {
        const auto mix = parseMix(args);
        if (!mix)
            return std::nullopt;
        spec.apps.push_back(args.get("--mix", ""));
    }

    Axis org_axis{"org", {}};
    for (const auto &name :
         splitList(args.get("--orgs", "ways,sets"))) {
        auto org = parseOrg(name);
        if (!org)
            return std::nullopt;
        if (*org == Organization::None) {
            std::cerr << "rcache-sim: sweep --orgs wants "
                         "ways|sets|hybrid\n";
            return std::nullopt;
        }
        org_axis.values.push_back(name);
    }
    if (org_axis.values.empty()) {
        std::cerr << "rcache-sim: --orgs wants at least one of "
                     "ways|sets|hybrid\n";
        return std::nullopt;
    }

    Axis strat_axis{"strategy", {}};
    for (const auto &name :
         splitList(args.get("--strategies", "static"))) {
        auto s = parseStrategy(name);
        if (!s)
            return std::nullopt;
        if (*s == Strategy::None) {
            std::cerr << "rcache-sim: sweep --strategies wants "
                         "static|dynamic\n";
            return std::nullopt;
        }
        strat_axis.values.push_back(name);
    }
    if (strat_axis.values.empty()) {
        std::cerr << "rcache-sim: --strategies wants at least one of "
                     "static|dynamic\n";
        return std::nullopt;
    }
    spec.axes = {std::move(org_axis), std::move(strat_axis)};

    const std::string side_name = args.get("--side", "dcache");
    auto side = parseSweepSideToken(side_name);
    if (!side) {
        std::cerr << "rcache-sim: --side wants icache|dcache|both\n";
        return std::nullopt;
    }
    spec.search.side = *side;

    const auto insts = parseInsts(args);
    auto cfg = baseConfig(args);
    const auto engine = parseEngine(args);
    if (!insts || !cfg || !engine)
        return std::nullopt;
    // --mix alone defaults the core count to the mix size, so
    // `sweep --mix gcc+m88ksim` is a 2-core sweep out of the box.
    const std::uint64_t default_cores =
        args.has("--mix")
            ? splitPlusList(args.get("--mix", "")).size()
            : 1;
    if (!applyCores(args, *cfg, default_cores))
        return std::nullopt;
    if (!applyPolicy(args, *cfg))
        return std::nullopt;
    if (!checkQuantumEffective(args, *cfg, *engine))
        return std::nullopt;
    spec.insts = *insts;
    spec.system = *cfg;
    spec.engine = *engine;
    return spec;
}

/** Arm --failpoint's spec; prints the one-line diagnostic itself. */
bool
armCliFailpoints(const Args &args)
{
    if (!args.has("--failpoint"))
        return true;
    std::string err;
    if (!fault::armFailpoints(args.get("--failpoint", ""), &err)) {
        std::cerr << "rcache-sim: --failpoint: " << err << '\n';
        return false;
    }
    return true;
}

/** The sweep grid flags: the --scenario alternatives. */
constexpr const char *kGridFlags[] = {
    "--apps",  "--orgs", "--strategies", "--side",   "--insts", "--assoc",
    "--cores", "--mix",  "--quantum",    "--policy", "--engine"};

/** The first grid flag present, or null. */
const char *
firstGridFlag(const Args &args)
{
    for (const char *key : kGridFlags)
        if (args.has(key))
            return key;
    return nullptr;
}

/** sweep --claim: one cooperative worker over a manifest dir. */
int
cmdSweepClaim(const Args &args)
{
    // Claim workers publish per-unit CSVs inside the manifest
    // directory; the single-file output/resume/telemetry options
    // belong to plain sweeps.
    for (const char *conflict :
         {"--shard", "--resume", "--out", "--format", "--timeline",
          "--events", "--trace-events", "--timeline-interval"}) {
        if (args.has(conflict)) {
            std::cerr << "rcache-sim: " << conflict
                      << " conflicts with --claim (units are "
                         "committed into the manifest directory; "
                         "use 'rcache-sim merge')\n";
            return 2;
        }
    }
    std::optional<ScenarioSpec> spec;
    if (args.has("--scenario")) {
        if (firstGridFlag(args)) {
            std::cerr << "rcache-sim: grid flags conflict with "
                         "--scenario (the scenario file defines "
                         "the sweep)\n";
            return 2;
        }
        std::string err;
        spec = ScenarioSpec::parseFile(args.get("--scenario", ""),
                                       &err);
        if (!spec) {
            std::cerr << "rcache-sim: " << err << '\n';
            return 2;
        }
    } else if (firstGridFlag(args)) {
        spec = scenarioFromFlags(args);
        if (!spec)
            return 2;
    } // else: join whatever scenario the manifest holds
    if (spec && !preflightScenarioTraces(*spec))
        return 2;

    const auto jobs = parseU64(args, "--jobs", 1);
    const auto shards = parseU64(args, "--shards", 0);
    const auto lease = parseU64(args, "--lease-timeout", 300);
    if (!jobs || !shards || !lease)
        return 2;
    ClaimSweepOptions opt;
    opt.dir = args.get("--claim", "");
    opt.shards = static_cast<unsigned>(*shards);
    opt.leaseTimeoutSecs = static_cast<unsigned>(*lease);
    opt.jobs = static_cast<unsigned>(*jobs);
    opt.progress = args.flags.count("--progress") != 0;
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
    for (const char *needs_claim : {"--shards", "--lease-timeout"}) {
        if (args.has(needs_claim)) {
            std::cerr << "rcache-sim: " << needs_claim
                      << " needs --claim DIR\n";
            return 2;
        }
    }

    // ---- resolve the scenario: a file, or the grid flags
    std::optional<ScenarioSpec> spec;
    if (args.has("--scenario")) {
        // The scenario file owns the grid; mixing it with grid flags
        // would make two sources of truth.
        if (const char *conflict = firstGridFlag(args)) {
            std::cerr << "rcache-sim: " << conflict
                      << " conflicts with --scenario (the scenario "
                         "file defines the sweep)\n";
            return 2;
        }
        std::string err;
        spec = ScenarioSpec::parseFile(args.get("--scenario", ""),
                                       &err);
        if (!spec) {
            std::cerr << "rcache-sim: " << err << '\n';
            return 2;
        }
    } else {
        spec = scenarioFromFlags(args);
        if (!spec)
            return 2;
    }
    if (!preflightScenarioTraces(*spec))
        return 2;

    const auto jobs_opt = parseU64(args, "--jobs", 1);
    if (!jobs_opt)
        return 2;

    SweepOptions opt;
    opt.jobs = static_cast<unsigned>(*jobs_opt);
    opt.format = args.get("--format", "csv");
    opt.outPath = args.get("--out", "");
    opt.resumePath = args.get("--resume", "");
    opt.progress = args.flags.count("--progress") != 0;

    // Telemetry: the scenario's [telemetry] section seeds the
    // defaults, explicit flags override per invocation. These are
    // pure output options, so they do not conflict with --scenario.
    opt.timelinePath =
        args.get("--timeline", spec->telemetry.timeline);
    opt.eventsPath = args.get("--events", spec->telemetry.events);
    opt.traceEventsPath =
        args.get("--trace-events", spec->telemetry.traceEvents);
    const auto tl_interval = parseU64(args, "--timeline-interval",
                                      spec->telemetry.interval);
    if (!tl_interval)
        return 2;
    if (*tl_interval == 0) {
        std::cerr << "rcache-sim: --timeline-interval must be > 0\n";
        return 2;
    }
    opt.timelineInterval = *tl_interval;
    if (args.has("--shard")) {
        std::string err;
        auto shard = ShardSpec::parse(args.get("--shard", ""), &err);
        if (!shard) {
            std::cerr << "rcache-sim: --" << err << '\n';
            return 2;
        }
        opt.shard = *shard;
    }
    return runScenarioSweep(*spec, opt);
}

// ---------------------------------------------------------------- tune

int
cmdTune(const Args &args)
{
    if (!armCliFailpoints(args))
        return 2;
    installInterruptHandlers();
    if (!args.has("--scenario")) {
        std::cerr << "rcache-sim: tune needs --scenario FILE (with "
                     "'mode = adaptive' in its [search] section)\n";
        return 2;
    }
    std::string err;
    const auto spec =
        ScenarioSpec::parseFile(args.get("--scenario", ""), &err);
    if (!spec) {
        std::cerr << "rcache-sim: " << err << '\n';
        return 2;
    }
    if (!preflightScenarioTraces(*spec))
        return 2;
    const auto jobs = parseU64(args, "--jobs", 1);
    const auto shards = parseU64(args, "--shards", 0);
    const auto lease = parseU64(args, "--lease-timeout", 300);
    if (!jobs || !shards || !lease)
        return 2;
    if ((args.has("--shards") || args.has("--lease-timeout")) &&
        !args.has("--claim")) {
        std::cerr << "rcache-sim: --shards/--lease-timeout need "
                     "--claim DIR\n";
        return 2;
    }
    TuneOptions opt;
    opt.jobs = static_cast<unsigned>(*jobs);
    opt.logPath = args.get("--log", "");
    opt.outPath = args.get("--out", "");
    opt.resumePath = args.get("--resume", "");
    opt.claimDir = args.get("--claim", "");
    opt.shards = static_cast<unsigned>(*shards);
    opt.leaseTimeoutSecs = static_cast<unsigned>(*lease);
    return runAdaptiveSearch(*spec, opt);
}

// --------------------------------------------------------------- merge

int
mergeHelp()
{
    std::cout
        << "rcache-sim merge — " << commandPurpose("merge")
        << "\n\n"
           "usage: rcache-sim merge [--out FILE] SHARD.csv...\n"
           "       rcache-sim merge [--out FILE] CLAIM_DIR\n"
           "\n"
           "Inputs are shard CSVs of one scenario (any order), or a\n"
           "single --claim manifest directory whose units are all\n"
           "done. The merged report is byte-identical to an\n"
           "unsharded 'rcache-sim sweep' of the same scenario.\n";
    return 0;
}

/** merge takes positional inputs, so it parses itself (like
 *  scenario). */
int
cmdMerge(int argc, char **argv)
{
    std::string out;
    std::vector<std::string> inputs;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help")
            return mergeHelp();
        if (arg == "--out") {
            if (i + 1 >= argc) {
                std::cerr << "rcache-sim: option '--out' needs a "
                             "value\n";
                return 2;
            }
            out = argv[++i];
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "rcache-sim: unknown option '" << arg
                      << "' for 'merge' (try 'rcache-sim merge "
                         "--help')\n";
            return 2;
        } else {
            inputs.push_back(arg);
        }
    }
    return runSweepMerge(inputs, out);
}

// -------------------------------------------------------------- doctor

int
doctorHelp()
{
    std::cout
        << "rcache-sim doctor — " << commandPurpose("doctor")
        << "\n\n"
           "usage: rcache-sim doctor [--lease-timeout N] "
           "[--log FILE] CLAIM_DIR\n"
           "\n"
           "Reports every work unit's state (done / lease live / "
           "stale /\nunclaimed), verifies committed unit CSVs still "
           "parse, and\ninventories crash debris (orphan tmp files, "
           "renamed-aside\nevidence). --log additionally audits a "
           "decision log's\nintegrity. Never mutates anything.\n"
           "\n"
           "exit codes: 0 consistent (possibly unfinished), 2 "
           "inconsistent.\n";
    return 0;
}

/** doctor takes a positional DIR, so it parses itself (like
 *  merge). */
int
cmdDoctor(int argc, char **argv)
{
    DoctorOptions opt;
    std::vector<std::string> dirs;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help")
            return doctorHelp();
        if (arg == "--lease-timeout" || arg == "--log") {
            if (i + 1 >= argc) {
                std::cerr << "rcache-sim: option '" << arg
                          << "' needs a value\n";
                return 2;
            }
            const std::string value = argv[++i];
            if (arg == "--log") {
                opt.logPath = value;
                continue;
            }
            unsigned long long v = 0;
            if (!parseU64Strict(value, v)) {
                badInteger(arg, value);
                return 2;
            }
            opt.leaseTimeoutSecs = static_cast<unsigned>(v);
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "rcache-sim: unknown option '" << arg
                      << "' for 'doctor' (try 'rcache-sim doctor "
                         "--help')\n";
            return 2;
        } else {
            dirs.push_back(arg);
        }
    }
    if (dirs.size() != 1) {
        std::cerr << "rcache-sim: doctor wants exactly one "
                     "CLAIM_DIR\n";
        return 2;
    }
    return runDoctor(dirs[0], opt, std::cout);
}

// ------------------------------------------------------------ scenario

int
scenarioHelp()
{
    std::cout
        << "rcache-sim scenario — check/print scenario files\n"
           "\n"
           "usage: rcache-sim scenario check FILE...\n"
           "       rcache-sim scenario print FILE\n"
           "\n"
           "check validates each file (parse + axis registry + every\n"
           "design point's geometry) and reports its size; print\n"
           "writes the canonical serialization to stdout.\n";
    return 0;
}

int
cmdScenario(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "rcache-sim: scenario needs a mode: check|print "
                     "(try 'rcache-sim scenario --help')\n";
        return 2;
    }
    const std::string mode = argv[2];
    if (mode == "--help")
        return scenarioHelp();
    if (mode != "check" && mode != "print") {
        std::cerr << "rcache-sim: unknown scenario mode '" << mode
                  << "' (want check|print)\n";
        return 2;
    }

    std::vector<std::string> files;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help")
            return scenarioHelp();
        if (arg.rfind("--", 0) == 0) {
            std::cerr << "rcache-sim: unknown option '" << arg
                      << "' for 'scenario'\n";
            return 2;
        }
        files.push_back(arg);
    }
    if (files.empty()) {
        std::cerr << "rcache-sim: scenario " << mode
                  << " needs at least one FILE\n";
        return 2;
    }
    if (mode == "print" && files.size() != 1) {
        std::cerr << "rcache-sim: scenario print wants exactly one "
                     "FILE\n";
        return 2;
    }

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
    const auto level = parseU64(args, "--" + prefix + "-level", 0);
    const auto interval =
        parseU64(args, "--" + prefix + "-interval",
                 Experiment::dynIntervalAccesses);
    if (!level || !interval)
        return std::nullopt;
    if (*interval == 0) {
        std::cerr << "rcache-sim: --" << prefix
                  << "-interval must be > 0\n";
        return std::nullopt;
    }
    const auto miss_bound =
        parseU64(args, "--" + prefix + "-miss-bound",
                 *interval / 100);
    const auto size_bound =
        parseU64(args, "--" + prefix + "-size-bound", 0);
    if (!miss_bound || !size_bound)
        return std::nullopt;
    setup.staticLevel = static_cast<unsigned>(*level);
    setup.dyn.intervalAccesses = *interval;
    setup.dyn.missBound = *miss_bound;
    setup.dyn.sizeBoundBytes = *size_bound;
    return setup;
}

/** Resolve the two org selections for run. */
bool
applyOrgs(const Args &args, SystemConfig &cfg,
          const ResizeSetup &il1, const ResizeSetup &dl1)
{
    auto il1_org = parseOrg(args.get("--il1-org", "none"));
    auto dl1_org = parseOrg(args.get("--dl1-org", "none"));
    if (!il1_org || !dl1_org)
        return false;
    cfg.il1Org = *il1_org;
    cfg.dl1Org = *dl1_org;
    if (il1.strategy != Strategy::None &&
        cfg.il1Org == Organization::None) {
        std::cerr << "rcache-sim: --il1-strategy needs --il1-org\n";
        return false;
    }
    if (dl1.strategy != Strategy::None &&
        cfg.dl1Org == Organization::None) {
        std::cerr << "rcache-sim: --dl1-strategy needs --dl1-org\n";
        return false;
    }
    return true;
}

int
cmdRun(const Args &args)
{
    if (!armCliFailpoints(args))
        return 2;
    if (!args.has("--app") && !args.has("--mix")) {
        std::cerr << "rcache-sim: run needs --app NAME (see "
                     "list-apps) or --mix A+B\n";
        return 2;
    }
    if (args.has("--app") && args.has("--mix")) {
        std::cerr << "rcache-sim: --mix conflicts with --app (the "
                     "mix names the workloads)\n";
        return 2;
    }

    std::vector<BenchmarkProfile> mix;
    if (args.has("--mix")) {
        const auto m = parseMix(args);
        if (!m)
            return 2;
        mix = *m;
    } else {
        const auto profile = lookupProfile(args.get("--app", ""));
        if (!profile)
            return 2;
        mix = {*profile};
    }
    std::vector<std::string> trace_specs;
    for (const BenchmarkProfile &p : mix)
        if (!p.traceSpec.empty())
            trace_specs.push_back(p.traceSpec);
    if (!preflightTraceSpecs(trace_specs))
        return 2;

    const auto il1 = parseSetup(args, "il1");
    const auto dl1 = parseSetup(args, "dl1");
    auto cfg = baseConfig(args);
    const auto insts = parseInsts(args);
    const auto engine = parseEngine(args);
    if (!il1 || !dl1 || !cfg || !insts || !engine)
        return 2;
    if (!applyCores(args, *cfg, mix.size()))
        return 2;
    if (!applyPolicy(args, *cfg))
        return 2;
    if (!applyOrgs(args, *cfg, *il1, *dl1))
        return 2;
    // Cycling fills extra cores, but a missing core would silently
    // drop programs from the simulation.
    if (mix.size() > cfg->cores) {
        std::cerr << "rcache-sim: --mix runs " << mix.size()
                  << " programs but --cores is " << cfg->cores
                  << "; need --cores >= " << mix.size() << '\n';
        return 2;
    }
    if (!checkQuantumEffective(args, *cfg, *engine))
        return 2;
    if (!checkAnalyticCompatible(*engine, *cfg, *il1, *dl1))
        return 2;

    // ---- telemetry requests (all off unless asked for)
    const std::string timeline_path = args.get("--timeline", "");
    const std::string events_path = args.get("--events", "");
    const std::string trace_path = args.get("--trace-events", "");
    const auto tl_interval =
        parseU64(args, "--timeline-interval", 10000);
    if (!tl_interval)
        return 2;
    if (*tl_interval == 0) {
        std::cerr << "rcache-sim: --timeline-interval must be > 0\n";
        return 2;
    }
    RunTelemetry telem;
    telem.timelineInterval =
        timeline_path.empty() ? 0 : *tl_interval;
    telem.resizeEvents = !events_path.empty();
    RunTelemetry *telem_ptr = telem.enabled() ? &telem : nullptr;
    std::optional<TraceEventRecorder> trace;
    if (!trace_path.empty())
        trace.emplace();

    const std::string label = args.has("--mix")
                                  ? args.get("--mix", "") + "/point"
                                  : mix.front().name + "/point";
    const auto span_begin =
        trace ? trace->now() : TraceEventRecorder::Clock::time_point{};

    if (cfg->cores > 1) {
        MultiCoreSystem sys(*cfg);
        const MultiCoreResult res =
            sys.run(mix, *insts, *il1, *dl1, *engine, telem_ptr);
        if (trace)
            trace->completeSpan(label, span_begin, trace->now(),
                                {{"label", label}});
        writeMultiCoreReport(std::cout, res);
    } else {
        RunJob job;
        job.label = label;
        job.profile = mix.front();
        job.cfg = *cfg;
        job.insts = *insts;
        job.il1 = *il1;
        job.dl1 = *dl1;
        job.engine = *engine;
        job.telemetry = telem_ptr;
        const RunResult res = executeRunJob(job);
        if (trace)
            trace->completeSpan(label, span_begin, trace->now(),
                                {{"label", label}});
        writeRunReport(std::cout, res);
    }

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
        const bool csv =
            timeline_path.size() >= 4 &&
            timeline_path.compare(timeline_path.size() - 4, 4,
                                  ".csv") == 0;
        std::ostringstream rec;
        if (csv) {
            writeTimelineCsvHeader(rec, false);
            writeTimelineCsv(rec, telem.timeline);
        } else {
            writeTimelineJsonl(rec, telem.timeline);
        }
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

int
cmdRecord(const Args &args)
{
    if (!args.has("--app") || !args.has("--out")) {
        std::cerr
            << "rcache-sim: record needs --app NAME and --out FILE\n";
        return 2;
    }
    const auto profile = lookupProfile(args.get("--app", ""));
    const auto count = parseInsts(args);
    if (!profile || !count)
        return 2;
    if (!profile->traceSpec.empty() &&
        !preflightTraceSpecs({profile->traceSpec}))
        return 2;
    const std::string path = args.get("--out", "");
    std::ofstream out(path);
    if (!out) {
        std::cerr << "rcache-sim: cannot write '" << path << "'\n";
        return 2;
    }
    const std::unique_ptr<Workload> wl = makeWorkload(*profile);
    writeTrace(out, *wl, *count);
    checkedFlush(out, path);
    std::cerr << "recorded " << *count << " instructions of "
              << wl->name() << " to " << path << '\n';
    return 0;
}

// ------------------------------------------------------------- convert

int
cmdConvert(const Args &args)
{
    if (!args.has("--in")) {
        std::cerr << "rcache-sim: convert needs --in "
                     "PATH|trace:PATH[:FORMAT]\n";
        return 2;
    }
    std::string in = args.get("--in", "");
    if (!isTraceSpec(in))
        in = "trace:" + in;
    TraceSpec spec;
    std::string err;
    if (!parseTraceSpec(in, &spec, &err)) {
        std::cerr << "rcache-sim: " << err << '\n';
        return 2;
    }
    const auto limit = parseU64(args, "--limit", 0);
    if (!limit)
        return 2;

    const std::string out_path = args.get("--out", "");
    std::ofstream file;
    if (!out_path.empty()) {
        file.open(out_path, std::ios::binary | std::ios::trunc);
        if (!file) {
            std::cerr << "rcache-sim: cannot write '" << out_path
                      << "'\n";
            return 2;
        }
    }
    std::ostream &os = out_path.empty() ? std::cout : file;
    if (!convertTraceToNative(spec, os, *limit, &err)) {
        std::cerr << "rcache-sim: " << err << '\n';
        return 2;
    }
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
    if (args.flags.count("--list")) {
        for (const auto &spec : rcache::bench::perfBenches())
            std::cout << spec.name << ": " << spec.description
                      << '\n';
        return 0;
    }

    rcache::bench::BenchOptions opts;
    if (args.flags.count("--quick")) {
        opts.items = 300000;
        opts.repetitions = 2;
    }
    const auto items = parseU64(args, "--insts", opts.items);
    const auto reps = parseU64(args, "--reps", opts.repetitions);
    if (!items || !reps)
        return 2;
    if (*items == 0 || *reps == 0) {
        std::cerr << "rcache-sim: bench --insts/--reps must be > 0\n";
        return 2;
    }
    opts.items = *items;
    opts.repetitions = static_cast<unsigned>(*reps);
    opts.filter = args.get("--filter", "");
    opts.outDir = args.get("--out-dir", ".");
    // Fail before timing anything, not once per result file after.
    std::error_code ec;
    if (!std::filesystem::is_directory(opts.outDir, ec)) {
        std::cerr << "rcache-sim: --out-dir '" << opts.outDir
                  << "' is not a directory\n";
        return 2;
    }
    return rcache::bench::runPerfBenches(opts);
}

// ------------------------------------------------------------- inspect

int
cmdInspect(const Args &args)
{
    if (!args.has("--timeline") && !args.has("--events")) {
        std::cerr << "rcache-sim: inspect needs --timeline FILE "
                     "and/or --events FILE\n";
        return 2;
    }
    const auto window = parseU64(args, "--window", 3);
    if (!window)
        return 2;
    if (*window == 0) {
        std::cerr << "rcache-sim: --window must be > 0\n";
        return 2;
    }

    // Missing and empty inputs get the standard one-line
    // "<path>:<line>:" diagnostic (an empty telemetry file always
    // means a wiring mistake — a run that wrote nothing — and a
    // silent empty summary would hide it).
    const auto openArtifact =
        [](const std::string &path,
           std::ifstream &in) {
            in.open(path, std::ios::binary);
            if (!in) {
                std::cerr << "rcache-sim: " << path
                          << ":1: cannot open\n";
                return false;
            }
            if (in.peek() == std::char_traits<char>::eof()) {
                std::cerr << "rcache-sim: " << path
                          << ":1: empty file\n";
                return false;
            }
            return true;
        };
    try {
        if (args.has("--timeline")) {
            const std::string path = args.get("--timeline", "");
            std::ifstream in;
            if (!openArtifact(path, in))
                return 2;
            printTimelineSummary(std::cout, summarizeTimeline(in));
        }
        if (args.has("--events")) {
            const std::string path = args.get("--events", "");
            std::ifstream in;
            if (!openArtifact(path, in))
                return 2;
            if (args.has("--timeline"))
                std::cout << '\n';
            printEventsSummary(std::cout,
                               summarizeEvents(in, *window));
        }
    } catch (const std::exception &e) {
        std::cerr << "rcache-sim: " << e.what() << '\n';
        return 2;
    }
    return 0;
}

int
cmdListApps()
{
    for (const auto &name : suiteNames())
        std::cout << name << '\n';
    std::cout << "\nAny app slot (run --app, sweep --apps, mixes) "
                 "also accepts trace:PATH[:FORMAT]\nto stream an "
                 "on-disk trace: formats native|rocksdb|lcs, '.gz' "
                 "for gzip\n(inferred from the extension when "
                 "FORMAT is omitted).\n";
    return 0;
}

int
cmdListFailpoints()
{
    std::size_t width = 0;
    for (const auto &site : fault::knownFailpoints())
        width = std::max(width, std::string(site.name).size());
    for (const auto &site : fault::knownFailpoints()) {
        std::cout << site.name;
        for (std::size_t pad = std::string(site.name).size();
             pad < width + 2; ++pad)
            std::cout << ' ';
        std::cout << site.description << '\n';
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 2);
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "help" || cmd == "-h")
        return usage(std::cout, 0);

    // The RC_FAILPOINT environment variable arms fault injection for
    // any subcommand (the CLI --failpoint option only exists on the
    // long-running drivers); a bad spec is a usage error.
    std::string fp_err;
    if (!fault::armFailpointsFromEnv(&fp_err)) {
        std::cerr << "rcache-sim: RC_FAILPOINT: " << fp_err << '\n';
        return 2;
    }

    const bool known_cmd =
        cmd == "sweep" || cmd == "tune" || cmd == "merge" ||
        cmd == "run" || cmd == "record" || cmd == "convert" ||
        cmd == "bench" || cmd == "scenario" || cmd == "inspect" ||
        cmd == "doctor" || cmd == "list-apps" ||
        cmd == "list-failpoints";
    if (!known_cmd) {
        std::cerr << "rcache-sim: unknown subcommand '" << cmd
                  << "' (try 'rcache-sim --help')\n";
        return 2;
    }

    // scenario, merge, and doctor take positional arguments; they
    // parse themselves.
    if (cmd == "scenario")
        return cmdScenario(argc, argv);
    if (cmd == "merge")
        return cmdMerge(argc, argv);
    if (cmd == "doctor")
        return cmdDoctor(argc, argv);
    if (cmd == "list-failpoints")
        return cmdListFailpoints();

    auto args = parseArgs(argc, argv, 2, cmd);
    if (!args)
        return 2;
    if (args->flags.count("--help"))
        return commandHelp(cmd);

    if (cmd == "sweep")
        return cmdSweep(*args);
    if (cmd == "tune")
        return cmdTune(*args);
    if (cmd == "run")
        return cmdRun(*args);
    if (cmd == "record")
        return cmdRecord(*args);
    if (cmd == "convert")
        return cmdConvert(*args);
    if (cmd == "bench")
        return cmdBench(*args);
    if (cmd == "inspect")
        return cmdInspect(*args);
    return cmdListApps();
}
