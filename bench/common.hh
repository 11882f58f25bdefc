/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench binary reads RCACHE_INSTS (instructions per simulated
 * run; default 400000) and RCACHE_APPS (comma-separated subset of
 * profile names) from the environment so the full suite can be scaled
 * to the machine at hand. The scenario-backed benches (fig4, fig9)
 * take their engine from the scenario's [engine] section: point
 * RCACHE_SCENARIO_DIR at a copy with one for sampled or analytic
 * tables. The paper ran 2 billion instructions per data point on
 * SimpleScalar; the shapes reported in EXPERIMENTS.md are stable from
 * a few hundred thousand instructions up.
 */

#ifndef RCACHE_BENCH_COMMON_HH
#define RCACHE_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "runner/sweep_runner.hh"
#include "scenario/cell_eval.hh"
#include "scenario/param_space.hh"
#include "scenario/scenario_spec.hh"
#include "sim/experiment.hh"
#include "sim/table.hh"
#include "util/logging.hh"

namespace rcache::bench
{

/** Instructions per run (RCACHE_INSTS, default 400k). */
inline std::uint64_t
runInsts()
{
    if (const char *env = std::getenv("RCACHE_INSTS"))
        return std::strtoull(env, nullptr, 10);
    return 400000;
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

/** Sweep-runner worker threads (RCACHE_JOBS; default 1 = serial,
 *  0 = hardware concurrency). Results are identical either way. */
inline unsigned
benchJobs()
{
    if (const char *env = std::getenv("RCACHE_JOBS"))
        return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    return 1;
}

/** Profiles to run (RCACHE_APPS=ammp,gcc,... or the full suite). */
inline std::vector<BenchmarkProfile>
suite()
{
    const char *env = std::getenv("RCACHE_APPS");
    if (!env)
        return spec2000Suite();
    std::vector<BenchmarkProfile> out;
    std::stringstream ss(env);
    std::string name;
    while (std::getline(ss, name, ','))
        out.push_back(profileByName(name));
    return out;
}

/** A scenario's cells, evaluated (see evaluateScenario). */
struct ScenarioResult
{
    /** The scenario as evaluated (environment overrides applied). */
    ScenarioSpec spec;
    /** Design points per app. */
    std::size_t points = 0;
    /** One row per cell, app-major. */
    std::vector<SweepRecord> rows;

    std::size_t apps() const { return rows.size() / points; }
    /** App @p app's row at design point @p point. */
    const SweepRecord &at(std::size_t app, std::size_t point) const
    {
        return rows[app * points + point];
    }
};

/**
 * Evaluate every cell of scenarios/@p name through the one
 * cell-evaluation path (scenario/cell_eval.hh) on RCACHE_JOBS
 * workers; fatal with the parser/registry diagnostic on a bad file.
 * RCACHE_APPS and RCACHE_INSTS override the scenario's [workloads]
 * list and insts; the engine is the scenario's own.
 */
inline ScenarioResult
evaluateScenario(const std::string &name)
{
    const std::string path = scenarioDir() + "/" + name;
    ScenarioResult r;
    std::string err;
    auto spec = ScenarioSpec::parseFile(path, &err);
    if (!spec)
        rc_fatal(err);
    r.spec = *spec;
    if (const char *env = std::getenv("RCACHE_APPS")) {
        r.spec.apps.clear();
        std::stringstream ss(env);
        for (std::string app; std::getline(ss, app, ',');)
            r.spec.apps.push_back(app);
    }
    if (const char *env = std::getenv("RCACHE_INSTS"))
        r.spec.insts = std::strtoull(env, nullptr, 10);
    const auto space = ParamSpace::build(r.spec, &err);
    if (!space)
        rc_fatal(path + ": " + err);
    const std::vector<AppEntry> apps = resolveApps(r.spec, &err);
    if (apps.empty())
        rc_fatal(err);
    r.points = space->numPoints();
    std::vector<std::size_t> cells(apps.size() * r.points);
    std::iota(cells.begin(), cells.end(), 0);
    r.rows = evaluateCells(*space, apps, cells, benchJobs());
    return r;
}

/** Base config with the L1 associativity swapped (32K total kept). */
inline SystemConfig
baseWithAssoc(unsigned assoc)
{
    SystemConfig cfg = SystemConfig::base();
    cfg.il1.assoc = assoc;
    cfg.dl1.assoc = assoc;
    return cfg;
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

} // namespace rcache::bench

#endif // RCACHE_BENCH_COMMON_HH
