/**
 * @file
 * The scenario sweep engine: runs a ParamSpace's full design-space
 * search — every (app, design point) cell — on a SweepRunner and
 * reports one SweepRecord row per cell.
 *
 * Cells are enumerated app-major (all of app 0's design points, then
 * app 1's, ...), giving every cell a stable global index. Three
 * properties follow from each cell's result being a pure function of
 * its spec:
 *
 *  - parallelism identity: the report is byte-identical for any
 *    --jobs value (inherited from SweepRunner's determinism);
 *  - shard identity: `--shard i/N` runs only the cells whose index
 *    is congruent to i mod N; re-interleaving the N shard CSVs by
 *    cell index reproduces the unsharded CSV byte-for-byte;
 *  - resume identity: `--resume out.csv` verifies each row of the
 *    completed prefix of a prior (possibly truncated) CSV against the
 *    cell this scenario and shard put there (cellRowMismatch: cell,
 *    app, org, strategy, side, axes, engine and policy) and simulates
 *    only the remaining cells; the final file is byte-identical to an
 *    uninterrupted run. A row of another enumeration exits 2 and
 *    leaves the file as it was.
 *
 * A sweep plans apart from how it commits. It lays out its owned
 * cells a look-ahead window at a time (kSweepWindowJobs) as one
 * CellBatch (scenario/cell_eval.hh) at the scenario's engine, cut into
 * commit units of kCommitUnitJobs. The window's executed jobs run as
 * one SweepRunner drain at every engine, so each stream schedule
 * forms whole lane groups (an analytic one is a single pass), and a
 * side=both cell's phase-2 combined run (the paper's Fig 9
 * methodology) starts as soon as its per-side sweeps finish. Units
 * commit in cell order as the completed prefix grows: each unit's
 * rows are written and flushed at once. One job memo spans the sweep,
 * so no job runs twice: a side=both cell reuses the per-side sweeps
 * its app's dcache and icache cells ran, even from an earlier window.
 * An interrupted sweep therefore leaves every completed unit on disk
 * for --resume instead of losing the whole run. What stays here is
 * the sweep's own business: shard/resume bookkeeping, report
 * streaming and telemetry sidecars.
 */

#ifndef RCACHE_SCENARIO_SCENARIO_SWEEP_HH
#define RCACHE_SCENARIO_SCENARIO_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "runner/shard.hh"
#include "scenario/param_space.hh"
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
 * Phase-1 jobs a sweep lays out ahead, in whole commit units: a
 * window is one CellBatch and one drain. It bounds the jobs a huge
 * sweep holds at once; every checked-in scenario fits one window
 * (fig6.scn, the largest, lays out 2448).
 */
inline constexpr std::size_t kSweepWindowJobs = 4096;

/** How runScenarioSweep executes and reports. */
struct SweepOptions
{
    /** Worker threads (SweepRunner semantics: 0 = all cores). */
    unsigned jobs = 1;
    /** Cells this invocation owns (default: all). */
    ShardSpec shard;
    /**
     * Non-empty: resume into this CSV file (implies --format csv and
     * replaces outPath). A missing or empty file starts fresh.
     */
    std::string resumePath;
    /** csv | json | table. */
    std::string format = "csv";
    /** Report destination; empty = stdout. */
    std::string outPath;
    /** Per-job progress lines on stderr. */
    bool progress = false;
    /** Suppress the "sweep: N runs in ..." stderr summary (tests). */
    bool quiet = false;
    /**
     * The sweep's heartbeat, CellBatch::Sink::heartbeat's contract:
     * called after every finished lane group, once the commit units
     * it completed are flushed (and after units that commit before a
     * window's first group). Returning false starts no new group, so
     * the sweep stops as a polite interrupt stops it. Claim workers
     * pass their lease heartbeat; never affects the report bytes.
     */
    std::function<bool()> heartbeat;

    /**
     * @name Telemetry sidecars (see src/telemetry/). All off (empty)
     * by default; `sweep --timeline/--events/--trace-events/
     * --timeline-interval` set them. Enabling them never perturbs
     * the sweep CSV: the simulated runs are bit-identical with
     * telemetry on or off.
     *
     * Timeline/event rows stream out commit unit by commit unit:
     * each unit's phase-1 jobs in job order, then its side=both
     * cells' combined runs, for any --jobs. A job that reuses an
     * earlier run (the job memo) writes that run's rows under its own
     * label.
     */
    /// @{
    /** Interval-timeline JSONL path ("" = off). */
    std::string timelinePath;
    /** Resize-decision event-trace JSONL path ("" = off). */
    std::string eventsPath;
    /** Chrome trace-event JSON path for runner spans ("" = off). */
    std::string traceEventsPath;
    /** Timeline sampling interval, instructions per sample. */
    std::uint64_t timelineInterval = 10000;
    /// @}
};

/**
 * Run the sweep. Diagnostics go to stderr with the CLI's "rcache-sim:"
 * prefix; @return a process exit code (0 ok, 2 on configuration or
 * resume-validation errors, 128+signal after a polite interrupt, 1
 * when the heartbeat alone stopped it).
 */
int runScenarioSweep(const ParamSpace &space, const SweepOptions &opt);

/** Convenience: build the ParamSpace for @p spec first. */
int runScenarioSweep(const ScenarioSpec &spec, const SweepOptions &opt);

} // namespace rcache

#endif // RCACHE_SCENARIO_SCENARIO_SWEEP_HH
