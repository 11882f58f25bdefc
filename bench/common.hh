/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench binary reads three knobs from the environment so the
 * full suite can be scaled to the machine at hand: RCACHE_INSTS
 * (instructions per simulated run; default 400000), RCACHE_APPS
 * (comma-separated app names; default the scenario's list or the
 * whole suite) and RCACHE_JOBS (sweep-runner worker threads; default
 * 1, 0 = all cores). A bad value is a one-line diagnostic and exit 2
 * before any simulation starts. The scenario-backed benches (fig4-9)
 * take their engine from the scenario's [engine] section: point
 * RCACHE_SCENARIO_DIR at a copy with one for sampled or analytic
 * tables. The paper ran 2 billion instructions per data point on
 * SimpleScalar; the shapes reported in EXPERIMENTS.md are stable from
 * a few hundred thousand instructions up.
 */

#ifndef RCACHE_BENCH_COMMON_HH
#define RCACHE_BENCH_COMMON_HH

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "runner/sweep_runner.hh"
#include "scenario/cell_eval.hh"
#include "scenario/scenario_spec.hh"
#include "sim/experiment.hh"
#include "sim/table.hh"
#include "util/logging.hh"
#include "util/numformat.hh"

namespace rcache::bench
{

/** Report a bad bench input on one line and exit 2. */
[[noreturn]] inline void
fail(const std::string &msg)
{
    std::cerr << "bench: " << msg << '\n';
    std::exit(2);
}

/** The environment knobs (see file comment), parsed once. */
struct Knobs
{
    /** RCACHE_INSTS (> 0); nullopt when unset. */
    std::optional<std::uint64_t> insts;
    /** RCACHE_APPS (at least one valid name); nullopt when unset. */
    std::optional<std::vector<std::string>> apps;
    /** RCACHE_JOBS. */
    unsigned jobs = 1;
};

/** The knobs, read and validated on first use. */
inline const Knobs &
knobs()
{
    static const Knobs parsed = [] {
        Knobs out;
        unsigned long long v = 0;
        if (const char *env = std::getenv("RCACHE_INSTS")) {
            if (!parseU64Strict(env, v) || v == 0)
                fail(std::string("RCACHE_INSTS wants a positive "
                                 "integer, got '") +
                     env + "'");
            out.insts = v;
        }
        if (const char *env = std::getenv("RCACHE_APPS")) {
            out.apps.emplace();
            std::stringstream ss(env);
            for (std::string app; std::getline(ss, app, ',');) {
                std::string err;
                if (app.empty())
                    fail(std::string("RCACHE_APPS has an empty "
                                     "entry: '") +
                         env + "'");
                if (!mixByName(app, &err))
                    fail("RCACHE_APPS: " + err);
                out.apps->push_back(app);
            }
            if (out.apps->empty())
                fail("RCACHE_APPS names no app");
        }
        if (const char *env = std::getenv("RCACHE_JOBS")) {
            if (!parseU64Strict(env, v) ||
                v > std::numeric_limits<unsigned>::max())
                fail(std::string("RCACHE_JOBS wants a worker count "
                                 "(0 = all cores), got '") +
                     env + "'");
            out.jobs = static_cast<unsigned>(v);
        }
        return out;
    }();
    return parsed;
}

/** Instructions per run (RCACHE_INSTS, default 400k). */
inline std::uint64_t
runInsts()
{
    return knobs().insts.value_or(400000);
}

/** Sweep-runner worker threads (RCACHE_JOBS). Results are identical
 *  for any value. */
inline unsigned
benchJobs()
{
    return knobs().jobs;
}

/** Profiles to run (RCACHE_APPS or the full suite) for the benches
 *  that drive single synthetic profiles: a mix or trace entry is
 *  rejected. */
inline std::vector<BenchmarkProfile>
suite()
{
    if (!knobs().apps)
        return spec2000Suite();
    const std::vector<std::string> names = suiteNames();
    std::vector<BenchmarkProfile> out;
    for (const std::string &name : *knobs().apps) {
        if (std::find(names.begin(), names.end(), name) == names.end())
            fail("RCACHE_APPS: this bench runs suite profiles only, "
                 "got '" + name + "'");
        out.push_back(profileByName(name));
    }
    return out;
}

/**
 * Directory holding the checked-in scenario files:
 * RCACHE_SCENARIO_DIR overrides the compile-time source-tree path
 * (so installed/relocated bench binaries still find them).
 */
inline std::string
scenarioDir()
{
    if (const char *env = std::getenv("RCACHE_SCENARIO_DIR"))
        return env;
#ifdef RCACHE_SCENARIO_SOURCE_DIR
    return RCACHE_SCENARIO_SOURCE_DIR;
#else
    return "scenarios";
#endif
}

/** A scenario's cells, evaluated (see evaluateScenario). */
struct ScenarioResult : ScenarioRows
{
    /** The scenario as evaluated (environment overrides applied). */
    ScenarioSpec spec;
};

/**
 * Evaluate every cell of @p spec through the shared entry point
 * (rcache::evaluateScenario) on RCACHE_JOBS workers. RCACHE_APPS and
 * RCACHE_INSTS override the spec's [workloads] list and insts; the
 * engine is the spec's own. @p where prefixes a rejection.
 */
inline ScenarioResult
evaluate(ScenarioSpec spec, const std::string &where)
{
    if (knobs().apps)
        spec.apps = *knobs().apps;
    if (knobs().insts)
        spec.insts = *knobs().insts;
    std::string err;
    auto rows = rcache::evaluateScenario(spec, benchJobs(), &err);
    if (!rows)
        fail(where + ": " + err);
    return {std::move(*rows), std::move(spec)};
}

/** evaluate() the checked-in scenarios/@p name. */
inline ScenarioResult
evaluateScenario(const std::string &name)
{
    const std::string path = scenarioDir() + "/" + name;
    std::string err;
    const auto spec = ScenarioSpec::parseFile(path, &err);
    if (!spec)
        fail(err);
    return evaluate(*spec, path);
}

/** Print the standard bench banner; a non-default @p engine gets a
 *  line of its own. */
inline void
banner(const std::string &what, const std::string &paper_ref,
       std::uint64_t insts = runInsts(), const EngineSpec &engine = {})
{
    std::cout << "=== " << what << " ===\n"
              << "reproduces: " << paper_ref << "\n"
              << "instructions/run: " << insts << "\n";
    if (engine.mode != EngineMode::Full)
        std::cout << "engine: " << engineArg(engine)
                  << " (not comparable to full-detail tables)\n";
    std::cout << '\n';
}

/**
 * Render a core x strategy scenario (fig7, fig8: core = inorder,ooo;
 * strategy = static,dynamic) as the paper's two per-core panels of
 * static vs dynamic size and energy-delay reductions.
 */
inline void
strategyPanels(const ScenarioResult &res)
{
    // Points are row-major over core x strategy, strategy innermost.
    const std::vector<Axis> &axes = res.spec.axes;
    rc_assert(axes.size() == 2 && axes[0].name == "core" &&
              axes[0].values ==
                  (std::vector<std::string>{"inorder", "ooo"}) &&
              axes[1].name == "strategy" &&
              axes[1].values ==
                  (std::vector<std::string>{"static", "dynamic"}));
    const char *titles[] = {
        "(a) in-order issue engine with blocking d-cache",
        "(b) out-of-order issue engine with nonblocking d-cache"};

    for (std::size_t c = 0; c < 2; ++c) {
        std::cout << titles[c] << "\n\n";
        TextTable t({"app", "static size-red", "dynamic size-red",
                     "static E*D-red", "dynamic E*D-red"});
        double ssz = 0, dsz = 0, sed = 0, ded = 0;
        for (std::size_t app = 0; app < res.apps(); ++app) {
            const SweepRecord &st = res.at(app, c * 2);
            const SweepRecord &dy = res.at(app, c * 2 + 1);
            ssz += st.sizeReductionPct;
            dsz += dy.sizeReductionPct;
            sed += st.edReductionPct;
            ded += dy.edReductionPct;
            t.addRow({st.app, TextTable::pct(st.sizeReductionPct),
                      TextTable::pct(dy.sizeReductionPct),
                      TextTable::pct(st.edReductionPct),
                      TextTable::pct(dy.edReductionPct)});
        }
        const double n = static_cast<double>(res.apps());
        t.addRow({"AVG", TextTable::pct(ssz / n),
                  TextTable::pct(dsz / n), TextTable::pct(sed / n),
                  TextTable::pct(ded / n)});
        t.print(std::cout);
        std::cout << '\n';
    }
}

} // namespace rcache::bench

#endif // RCACHE_BENCH_COMMON_HH
