/**
 * @file
 * Cell evaluation: the one path from design-space cells to SweepRecord
 * rows.
 *
 * A "cell" is one (app, design point) pair with a stable app-major
 * global index. The paper picks each cell's design with an offline
 * profiling search: it runs the non-resizable baseline and every
 * candidate (each static level, or each dynamic miss-bound/size-bound
 * pair), keeps the minimum energy-delay point, and for side=both
 * reruns both caches together at their two profiled levels (Fig 9).
 * CellBatch is that procedure, laid out with Experiment's job
 * vocabulary (sim/experiment.hh), and evaluateCells, which lays cells
 * out a look-ahead window (one CellBatch) at a time, is the one
 * entry point every search calls: the exhaustive sweep
 * (scenario/scenario_sweep.cc), a claim unit (search/sweep_merge.hh),
 * each round of the adaptive search (search/adaptive_search.cc), and
 * evaluateScenario for the figure benches, the ablations and the
 * tests. So the adaptive winner row is byte-identical to the sweep's
 * row for the same cell under the same engine, by construction.
 *
 * Each distinct job runs once. A JobMemo keyed by the full job
 * identity (jobKey) holds every result a search has computed, so a
 * side=both cell reuses the per-side static sweeps its app's dcache
 * and icache cells already ran, in this batch or an earlier one. The
 * jobs a batch does execute run as one drain (runner/sweep_runner.hh):
 * they share their instruction streams as the lanes of lockstep
 * groups, and a side=both cell's combined rerun is released as soon
 * as its per-side sweeps finish. The layout stays logical: every job
 * counts and reports as laid out, whatever it reused, and a batch
 * cut into commit units reports and commits them in order as they
 * complete.
 *
 * The free helpers are the vocabulary around it: workload resolution
 * and preflight, mix attachment, memo keys, the record a finished cell
 * reports, and the check that rows written earlier are given cells'.
 */

#ifndef RCACHE_SCENARIO_CELL_EVAL_HH
#define RCACHE_SCENARIO_CELL_EVAL_HH

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runner/sweep_runner.hh"
#include "scenario/param_space.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace rcache
{

/**
 * Phase-1 jobs (baselines and candidates) a commit unit lays out at
 * least; the cell that reaches the bound ends the unit. A unit is
 * what one csv.chunk.flush writes, what --resume and a polite
 * interrupt leave whole, and what sidecar rows are ordered by, so it
 * does not depend on --jobs.
 */
inline constexpr std::size_t kCommitUnitJobs = 64;

/**
 * Phase-1 jobs evaluateCells lays out ahead, in whole commit units: a
 * window is one CellBatch and one drain. It bounds the jobs a huge
 * evaluation holds at once; every checked-in scenario fits one window
 * (fig6.scn, the largest, lays out 2448).
 */
inline constexpr std::size_t kSweepWindowJobs = 4096;

/** One [workloads] entry: a profile, or a '+'-joined mix. */
struct AppEntry
{
    /** The name as written (the CSV app column). */
    std::string name;
    /** Resolved components (size 1 for a plain profile). */
    std::vector<BenchmarkProfile> mix;
};

/**
 * Resolve a scenario's [workloads] list (empty = the whole SPEC2000
 * suite) into AppEntry rows, in enumeration order. On an unknown
 * name returns an empty vector and sets @p err.
 */
std::vector<AppEntry> resolveApps(const ScenarioSpec &spec,
                                  std::string *err);

/** Every cell of @p space and @p apps, ascending (app-major). */
std::vector<std::size_t> allCells(const ParamSpace &space,
                                  const std::vector<AppEntry> &apps);

/** preflightTraceSpecs of @p spec's apps and 'mix' axis values: the
 *  sweep, claim and tune entry points each call it once, before they
 *  run or claim anything. */
bool preflightTraces(const ScenarioSpec &spec, std::string *err);

/** The workload a cell actually simulates, after any 'mix' axis
 *  override. */
struct EffectiveWorkload
{
    /** Label profile handed to Experiment: the first component
     *  carrying the full mix name (what labels/memo keys show). */
    BenchmarkProfile label;
    std::vector<BenchmarkProfile> mix;
};

EffectiveWorkload effectiveWorkload(const AppEntry &entry,
                                    const DesignPoint &p);

/** Attach the mix to every job of a multi-programmed cell (a
 *  one-component mix rides on job.profile alone). */
void attachMix(std::vector<RunJob>::iterator begin,
               std::vector<RunJob>::iterator end,
               const EffectiveWorkload &eff);

/** The CacheSide a single-side sweep side resizes (not Both). */
CacheSide cacheSideOf(SweepSide side);

/** Identity of a cell's baseline: the full scenario-visible system
 *  identity (core count/quantum/models included via systemConfigKey)
 *  plus the engine selection (insts are sweep-constant). @p workload
 *  is the effective workload name — the mix override when a 'mix'
 *  axis set one, else the cell's app. CellBatch keys on jobKey;
 *  perfbench's layer split (perfbench/layers.cc) re-plans baselines
 *  by this coarser key. */
std::string baselineKey(const SystemConfig &cfg,
                        const EngineSpec &engine,
                        const std::string &workload);

/**
 * Memo key of @p job: everything executeRunJob reads — the profile
 * (or trace spec) and mix, the whole SystemConfig, the instruction
 * count, both ResizeSetups, and the engine. Equal keys give equal
 * results; the label, telemetry and trace point are not part of it.
 */
std::string jobKey(const RunJob &job);

/** What one executed job produced. */
struct JobRun
{
    RunResult result;
    /** Its timeline rows and resize events, when the memo records
     *  telemetry (else null). */
    std::shared_ptr<const RunTelemetry> telemetry;
};

/**
 * Every job a search has run, by jobKey. It spans one evaluateCells
 * call, every window of it (one app's dcache cell and its side=both
 * cell can land in different windows). Results are never "unrun": an
 * entry exists only for a job that finished.
 */
struct JobMemo
{
    /** @name Telemetry each executed job records
     * A timeline every timelineInterval instructions (0 = none) and
     * resize events; set before the first batch runs. Memo hits
     * report the telemetry of the run they reuse, so every run's rows
     * stay in the memo as long as it does.
     */
    /// @{
    std::uint64_t timelineInterval = 0;
    bool resizeEvents = false;
    /// @}
    std::map<std::string, JobRun> runs;

    const RunResult &result(const std::string &key) const
    {
        return runs.at(key).result;
    }
};

/** The CSV row a finished cell reports. CellBatch builds every row
 *  through this one function. Its identity columns (cell, app, org,
 *  strategy, side, axes, engine and policy) come from the cell alone:
 *  @p p carries the engine the cell runs at. */
SweepRecord cellRecord(std::size_t cell, const std::string &app,
                       const DesignPoint &p,
                       const SearchOutcome &out);

/**
 * The one check of rows written earlier, as both --resumes and the
 * claim protocol's read-back (search/sweep_merge.hh) adopt them: row
 * k of @p rows must carry the identity columns (cell, app, org,
 * strategy, side, axes, engine and policy) cellRecord writes for cell
 * @p cells[k], at @p engine when non-null (a tune rung's). A [system]
 * or insts value that no column shows cannot be checked from a row.
 * @return the first k that fails, with @p why ("COLUMN 'ROW' where
 * this scenario has 'CELL'", or a row past the last cell), or
 * rows.size().
 */
std::size_t firstForeignRow(const std::vector<SweepRecord> &rows,
                            const ParamSpace &space,
                            const std::vector<AppEntry> &apps,
                            const std::vector<std::size_t> &cells,
                            const EngineSpec *engine, std::string *why);

/** See file comment. */
class CellBatch
{
  public:
    /**
     * Runs a job list as a SweepRunner drain, whatever the engine. It
     * sees only the jobs the memo lacks, one per key, with their
     * telemetry bundles attached, then the combined reruns
     * @p finished releases; it returns every result it ran.
     */
    using Execute = std::function<std::vector<RunResult>(
        const std::vector<RunJob> &jobs,
        const SweepRunner::Finished &finished)>;
    /**
     * Told about every laid-out job once its commit unit has run, in
     * job order: the run it got its result from, and whether that run
     * happened for an earlier job (a memo hit) rather than for it.
     */
    using Report = std::function<void(const RunJob &job,
                                      const JobRun &run, bool reused)>;

    /** A commit unit whose every job has run (see cut()). */
    struct Unit
    {
        /** One row per cell, in add() order. */
        std::vector<SweepRecord> rows;
        /** The jobs it laid out: phase 1 plus one combined job per
         *  side=both cell, memo hits included. */
        std::size_t plannedJobs = 0;
        /** Labels of the baselines it laid out (not memoized when
         *  their cell was added), in jobKey order. */
        std::vector<std::string> newBaselineLabels;
    };

    /** What run() tells its caller as it goes. Every member is
     *  optional; calls are serialized but may come from the drain's
     *  worker threads. */
    struct Sink
    {
        /** Each unit's jobs, phase 1 and then each side=both cell's
         *  combined rerun, when the unit completes. */
        Report report;
        /** Each unit, in unit order, once report has heard of it. */
        std::function<void(const Unit &)> commit;
        /**
         * After every finished lane group, once the units it
         * completed have committed, and after units that commit
         * before the first group. Returning false starts no new
         * group: run() returns once the running groups finish.
         */
        std::function<bool()> heartbeat;
    };

    /**
     * @param space the scenario's design space (insts, search grid)
     * @param apps  resolveApps() of the same scenario
     * @param tracePoints stamp each job with its cell's coordinates
     *        for the runner's trace spans; off builds no strings
     */
    CellBatch(const ParamSpace &space,
              const std::vector<AppEntry> &apps,
              bool tracePoints = false);

    /**
     * Lay out global cell @p cell's jobs: its baseline unless @p memo
     * or this batch already has it, then the candidates of its side
     * (both sides' static sweeps for side=both). A non-null @p engine
     * overrides the point's (a tune rung).
     */
    void add(std::size_t cell, const JobMemo &memo,
             const EngineSpec *engine = nullptr);

    /**
     * Close the open commit unit: the cells added since the last cut.
     * Cells added after the last cut form one more unit, so a batch
     * never cut is one unit.
     */
    void cut();

    /** Phase-1 jobs (baselines and candidates) laid out so far. */
    std::size_t phase1Jobs() const { return jobs_.size(); }

    /**
     * Run every job through one drain of @p execute and @p memo: each
     * phase-1 key the memo lacks, once, in layout order, then, as
     * each side=both cell's phase-1 jobs finish, its combined rerun
     * at the two profiled levels (unless @p memo holds its key or the
     * drain already runs it). Reduce each cell to its cellRecord row,
     * and report and commit the units through @p sink in order as
     * they complete.
     * @return the committed units' rows, in add() order (every cell
     *         unless the heartbeat stopped the drain)
     */
    std::vector<SweepRecord> run(const Execute &execute, JobMemo &memo,
                                 const Sink &sink = {});

  private:
    struct Cell
    {
        std::size_t cell = 0;
        DesignPoint point;
        /** jobKey of the cell's baseline. */
        std::string baseKey;
        /** First of the cell's jobs in jobs_ (its laid-out baseline,
         *  if any, then its candidates). */
        std::size_t first = 0;
        /** Candidate slice of jobs_: [off, off+count). For side=both
         *  that is the d sweep and [ioff, ioff+icount) the i sweep. */
        std::size_t off = 0, count = 0;
        std::size_t ioff = 0, icount = 0;
        /** Single side only: what reduceSearch pairs results with. */
        std::vector<SearchCandidate> candidates;
    };

    const ParamSpace &space_;
    const std::vector<AppEntry> &apps_;
    bool tracePoints_;
    std::vector<Cell> cells_;
    std::vector<RunJob> jobs_;
    /** Baselines laid out here: jobKey -> job index. */
    std::map<std::string, std::size_t> newBases_;
    /** Where each cut() closed a unit: cells_ sizes, increasing. */
    std::vector<std::size_t> cuts_;
};

/**
 * The jobs a CellBatch of @p cells, added with one engine and an
 * empty memo, lays out, each counted once per core (a C-core job
 * measures C streams): phase 1 plus one combined rerun per side=both
 * cell, with each baseline counted once per identity, as add() lays
 * it out once. Nothing is laid out: each distinct design point among
 * the cells gives its candidate count (Experiment::searchCandidates,
 * both sides' static levels for side=both) and its baseline's system
 * identity once, and each app its workload identity once. Which jobs
 * a batch lays out does not depend on the engine: this count times
 * EngineSpec::detailedInstsFor(insts) is the timing-core instructions
 * the batch measures at any engine, memo hits included (the tuner's
 * cost accounting).
 */
std::uint64_t plannedCoreJobs(const ParamSpace &space,
                              const std::vector<AppEntry> &apps,
                              const std::vector<std::size_t> &cells);

/**
 * Lay @p cells out at @p engine when non-null (else each point's
 * own) a window at a time: one CellBatch of whole commit units, up to
 * kSweepWindowJobs phase-1 jobs, drained on @p runner and reported to
 * @p sink. @p memo spans the windows; the sink's heartbeat is also
 * asked before each window after the first, and false stops.
 * @return the cells committed: all of @p cells unless stopped
 */
std::size_t evaluateCells(const ParamSpace &space,
                          const std::vector<AppEntry> &apps,
                          const std::vector<std::size_t> &cells,
                          const SweepRunner &runner, JobMemo &memo,
                          const CellBatch::Sink &sink,
                          const EngineSpec *engine = nullptr);

/** evaluateCells on @p jobs workers with a fresh memo and
 *  @p heartbeat as the sink's. @return rows in @p cells order, fewer
 *  when the heartbeat stopped it */
std::vector<SweepRecord>
evaluateCells(const ParamSpace &space, const std::vector<AppEntry> &apps,
              const std::vector<std::size_t> &cells, unsigned jobs,
              const EngineSpec *engine = nullptr,
              const std::function<bool()> &heartbeat = {});

/** Every cell of a scenario, evaluated (see evaluateScenario). */
struct ScenarioRows
{
    /** Design points per app. */
    std::size_t points = 0;
    /** One row per cell, app-major (global cell order). */
    std::vector<SweepRecord> rows;

    std::size_t apps() const { return points ? rows.size() / points : 0; }
    /** App @p app's row at design point @p point. */
    const SweepRecord &at(std::size_t app, std::size_t point) const
    {
        return rows[app * points + point];
    }
};

/**
 * Evaluate every cell of @p spec at its own engine: one evaluateCells
 * call on @p jobs workers, so the rows are identical for any @p jobs.
 * On a spec ParamSpace::build or resolveApps rejects, returns nullopt
 * with @p err set.
 */
std::optional<ScenarioRows> evaluateScenario(const ScenarioSpec &spec,
                                             unsigned jobs,
                                             std::string *err);

} // namespace rcache

#endif // RCACHE_SCENARIO_CELL_EVAL_HH
