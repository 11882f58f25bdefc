/**
 * @file
 * Declarative scenario specs: the design-space description layer.
 *
 * A scenario file describes one design-space sweep — the base system,
 * the workloads, the swept axes, the simulation engine, and the
 * search configuration — in a line-oriented `key = value` format:
 *
 *     # fig4: static ways-vs-sets across associativities
 *     [scenario]
 *     name = fig4-organizations
 *     insts = 400000
 *
 *     [system]
 *     l2.size = 524288
 *
 *     [workloads]
 *     apps = all
 *
 *     [axes]
 *     side = dcache,icache
 *     assoc = 2,4,8,16
 *     org = ways,sets
 *
 *     [search]
 *     strategy = static
 *
 * A [cores] section (count/quantum/models) selects the
 * multi-programmed shared-L2 system, and [workloads] apps accepts
 * '+'-joined mixes ("gcc+m88ksim") cycled across the cores; see
 * sim/system.hh.
 *
 * An [engine] section selects the simulation engine (sim/engine.hh):
 * `mode = full|sampled|analytic`, with `interval`/`detail`/`warmup`
 * describing the period shape when mode is sampled.
 *
 * Sections may appear in any order and may be omitted (defaults
 * apply); every key inside a section must belong to that section.
 * Parsing is strict in the CLI's style: the first malformed line
 * stops the parse with exactly one `file:line: message` diagnostic.
 *
 * ScenarioSpec::print writes the canonical serialization: sections in
 * a fixed order, [system] keys only where they differ from the
 * defaults. The round-trip invariant `parse(print(spec)) == spec`
 * holds for every spec this parser can produce and is pinned by
 * tests/scenario/scenario_spec_test.cc.
 *
 * A scenario says *what* to simulate. How to run it (jobs, shard,
 * resume, claim) and where outputs go (the report, telemetry
 * sidecars) are command-line options of `rcache-sim sweep`/`tune`,
 * so one scenario file serves every way of running it.
 *
 * The axes themselves are enumerated by scenario/param_space.hh; this
 * header is pure data + (de)serialization.
 */

#ifndef RCACHE_SCENARIO_SCENARIO_SPEC_HH
#define RCACHE_SCENARIO_SCENARIO_SPEC_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/search_grid.hh"
#include "sim/system.hh"

namespace rcache
{

/** Which L1(s) a scenario's searches resize. */
enum class SweepSide
{
    ICache,
    DCache,
    /** Both caches, each at its individually profiled static level
     *  (the paper's Fig 9 methodology; static-only). */
    Both,
};

/** Printable side name ("icache" / "dcache" / "both"). */
std::string sweepSideName(SweepSide side);

/** One named sweep axis: an ordered list of values to enumerate. */
struct Axis
{
    /** Registry name ("org", "assoc", "lat.l2", "energy.clock", ...);
     *  scenario/param_space.hh holds the registry. */
    std::string name;
    /** Unparsed value tokens, in sweep order. */
    std::vector<std::string> values;

    bool operator==(const Axis &o) const = default;
};

/** How `rcache-sim tune` allocates runs across the design space. */
enum class SearchMode
{
    /** Every cell at the scenario's engine (the sweep default). */
    Exhaustive,
    /** Successive halving over the fidelity ladder (src/search/). */
    Adaptive,
};

/** Printable mode name ("exhaustive" / "adaptive"). */
std::string searchModeName(SearchMode mode);

/** Parse a mode name; nullopt on an unknown one. */
std::optional<SearchMode> parseSearchModeToken(const std::string &t);

/**
 * Adaptive-search configuration (`[search] mode = adaptive`): how
 * successive halving walks the engine fidelity ladder. Consumed by
 * src/search/adaptive_search.hh; ignored by exhaustive sweeps.
 */
struct AdaptiveSpec
{
    /**
     * Engine per round, cheapest first; the last rung verifies the
     * finalists and stamps the winner. Scenarios outside the
     * analytic envelope (dynamic strategies, multi-core) start the
     * ladder at `sampled` instead.
     */
    std::vector<EngineMode> ladder{EngineMode::Analytic,
                                   EngineMode::Sampled,
                                   EngineMode::Full};
    /**
     * Fraction of candidates promoted out of each non-final round,
     * one entry per rung transition (the last entry repeats if the
     * ladder is longer). Values lie in (0, 1].
     */
    std::vector<double> promote{0.25};
    /** Never promote fewer than this many candidates. */
    std::uint64_t minSurvivors = 4;
    /**
     * Early exit: stop after a non-first round whose top-K ranking
     * exactly matches the previous round's (0 = off).
     */
    std::uint64_t rankAgree = 0;
    /**
     * Sampled-rung period budget, instructions per period (0 = the
     * SamplingConfig default); detail and warmup follow the
     * documented defaulting rules.
     */
    std::uint64_t sampleInterval = 0;

    bool operator==(const AdaptiveSpec &o) const = default;
};

/**
 * Per-cell search configuration: the fixed design-point coordinates
 * (overridden by any axis of the same name) and the dynamic
 * controller's offline-profiling grid.
 */
struct SearchSpec
{
    Organization org = Organization::SelectiveSets;
    Strategy strategy = Strategy::Static;
    SweepSide side = SweepSide::DCache;

    /** The dynamic controller's profiling grid, fed straight into
     *  Experiment::setSearchGrid (sim/search_grid.hh holds the
     *  defaults — one source of truth for both layers). */
    SearchGrid dynGrid;

    /** Allocation mode for `rcache-sim tune` (sweeps are always
     *  exhaustive regardless of this field). */
    SearchMode mode = SearchMode::Exhaustive;
    /** Successive-halving knobs, meaningful under mode = adaptive. */
    AdaptiveSpec adaptive;

    bool operator==(const SearchSpec &o) const = default;
};

/** See file comment. */
struct ScenarioSpec
{
    std::string name = "unnamed";
    /** Instructions per simulated run. */
    std::uint64_t insts = 400000;
    /** Base system; axes perturb copies of it per design point. */
    SystemConfig system;
    /** Benchmark profile names; empty means the whole suite. */
    std::vector<std::string> apps;
    /** Swept axes, outermost first. */
    std::vector<Axis> axes;
    /**
     * Engine selection ([engine] section). Canonical form: the
     * sampling shape is default-constructed unless mode == Sampled.
     */
    EngineSpec engine;
    SearchSpec search;

    bool operator==(const ScenarioSpec &o) const = default;

    /**
     * Parse a scenario from @p in. On failure returns nullopt and
     * sets @p err to one "<filename>:<line>: <message>" line.
     * @param filename used only for diagnostics
     */
    static std::optional<ScenarioSpec> parse(std::istream &in,
                                             const std::string &filename,
                                             std::string *err);

    /** Parse @p text (convenience for tests and embedded specs). */
    static std::optional<ScenarioSpec>
    parseText(const std::string &text, const std::string &filename,
              std::string *err);

    /** Open and parse @p path; diagnostics carry the path. */
    static std::optional<ScenarioSpec>
    parseFile(const std::string &path, std::string *err);

    /** Write the canonical serialization (see file comment). */
    void print(std::ostream &os) const;

    /** print() into a string. */
    std::string printToString() const;
};

/**
 * Deterministic identity of a SystemConfig's scenario-visible state
 * (every [system] key plus the org fields). Two configs built from
 * the same scenario compare equal iff their keys are equal, which is
 * what the job memo's jobKey (scenario/cell_eval.hh) builds on. An
 * in-memory key only: it is never written out.
 */
std::string systemConfigKey(const SystemConfig &cfg);

/** @name Key tables
 * The single source of the scenario key registry, shared by the
 * parser, the printer, and the axis registry in param_space.cc so
 * the three cannot drift.
 */
/// @{

/** One integer-valued [system] key. */
struct SystemKeyU64
{
    const char *key;
    std::uint64_t (*get)(const SystemConfig &);
    void (*set)(SystemConfig &, std::uint64_t);
};

/** One EnergyParams field, addressed as "energy.<key>". */
struct EnergyKey
{
    const char *key;
    double EnergyParams::*field;
};

const std::vector<SystemKeyU64> &systemKeysU64();
const std::vector<EnergyKey> &energyKeys();
/// @}

/** @name Token parsers (shared with the CLI and the axis registry) */
/// @{
std::optional<Organization> parseOrganizationToken(const std::string &t);
std::optional<Strategy> parseStrategyToken(const std::string &t);
std::optional<SweepSide> parseSweepSideToken(const std::string &t);
std::optional<CoreModel> parseCoreModelToken(const std::string &t);
/** Short org token used in reports ("none"/"ways"/"sets"/"hybrid"). */
std::string organizationToken(Organization org);
std::string coreModelToken(CoreModel m);
/** '+'-joined per-core model list ("ooo+inorder"); nullopt on any
 *  unknown entry. */
std::optional<std::vector<CoreModel>>
parseCoreModelListToken(const std::string &t);
std::string coreModelListToken(const std::vector<CoreModel> &models);
/// @}

} // namespace rcache

#endif // RCACHE_SCENARIO_SCENARIO_SPEC_HH
