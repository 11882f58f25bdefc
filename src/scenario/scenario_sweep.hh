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
 *  - shard identity: `--shard i/N` runs the i-th of N contiguous cell
 *    ranges (runner/shard.hh), the cells claim unit shard_i holds, and
 *    `rcache-sim merge` of the N shard CSVs reproduces the unsharded
 *    CSV byte-for-byte;
 *  - resume identity: `--resume out.csv` verifies each row of the
 *    completed prefix of a prior (possibly truncated) CSV against the
 *    cell this scenario and shard put there (firstForeignRow) and
 *    simulates only the remaining cells; the final file is
 *    byte-identical to an uninterrupted run. A row of another
 *    enumeration exits 2 and leaves the file as it was.
 *
 * The sweep's cells run through evaluateCells (scenario/cell_eval.hh),
 * a look-ahead window at a time, with one job memo across windows;
 * each commit unit's rows are written and flushed as soon as the
 * completed prefix reaches it, so an interrupted sweep leaves every
 * completed unit on disk for --resume. What stays here is the sweep's
 * own business: shard/resume bookkeeping, report streaming and
 * telemetry sidecars.
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
     * Called where evaluateCells asks its sink's heartbeat (after every
     * finished lane group, once the units it completed are flushed).
     * An observer: only a polite interrupt stops a sweep, and the hook
     * never affects the report bytes.
     */
    std::function<void()> heartbeat;

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
 * resume-validation errors, 128+signal after a polite interrupt).
 */
int runScenarioSweep(const ParamSpace &space, const SweepOptions &opt);

/** Convenience: build the ParamSpace for @p spec first. */
int runScenarioSweep(const ScenarioSpec &spec, const SweepOptions &opt);

} // namespace rcache

#endif // RCACHE_SCENARIO_SCENARIO_SWEEP_HH
