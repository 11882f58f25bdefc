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
 *  - resume identity: `--resume out.csv` verifies the completed
 *    prefix of a prior (possibly truncated) CSV — cell index, app,
 *    and every design-point coordinate — against the enumeration and
 *    simulates only the remaining cells; the final file is
 *    byte-identical to an uninterrupted run.
 *
 * A sweep is a chunked CellBatch (scenario/cell_eval.hh) at the
 * scenario's engine: cells are added to a batch until it holds enough
 * jobs to keep the workers busy across cell boundaries, the batch runs
 * (side=both cells with their phase-2 combined runs, the paper's Fig 9
 * methodology), and its rows are written and flushed before the next
 * chunk starts. One job memo spans the sweep, so no job runs twice:
 * a side=both cell reuses the per-side sweeps its app's dcache and
 * icache cells ran, even from an earlier chunk. An interrupted
 * sweep therefore leaves every completed chunk on disk for --resume
 * instead of losing the whole run. What stays here is the sweep's own
 * business: shard/resume bookkeeping, report streaming, telemetry
 * sidecars, and analytic pass registration.
 */

#ifndef RCACHE_SCENARIO_SCENARIO_SWEEP_HH
#define RCACHE_SCENARIO_SCENARIO_SWEEP_HH

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
     * Called after each chunk's rows are flushed (cells completed so
     * far). Claim workers use it as a lease heartbeat; never affects
     * the report bytes.
     */
    std::function<void(std::size_t)> chunkDone;

    /**
     * @name Telemetry sidecars (see src/telemetry/). All off (empty)
     * by default; `sweep --timeline/--events/--trace-events/
     * --timeline-interval` set them. Enabling them never perturbs
     * the sweep CSV: the simulated runs are bit-identical with
     * telemetry on or off.
     *
     * Row ordering caveat: timeline/event rows stream out chunk by
     * chunk in job order, and for side=both scenarios the job order
     * within a chunk depends on the chunk boundaries, which scale
     * with --jobs. Rows carry their job label, so consumers should
     * group by label rather than rely on file order. A job that
     * reuses an earlier run (the job memo) writes that run's rows
     * under its own label.
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
 * resume-validation errors).
 */
int runScenarioSweep(const ParamSpace &space, const SweepOptions &opt);

/** Convenience: build the ParamSpace for @p spec first. */
int runScenarioSweep(const ScenarioSpec &spec, const SweepOptions &opt);

} // namespace rcache

#endif // RCACHE_SCENARIO_SCENARIO_SWEEP_HH
