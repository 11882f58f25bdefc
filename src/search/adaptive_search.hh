/**
 * @file
 * Adaptive design-space search: successive halving over the engine
 * fidelity ladder (`rcache-sim tune`).
 *
 * The exhaustive sweep prices every (app, design point) cell at full
 * detail; this engine finds the best-E·D cell while running only a
 * small fraction of the grid there. Round 0 prices *every* candidate
 * with the ladder's cheapest rung (the analytic engine: one
 * stack-distance pass per workload stream key, a SweepRunner lane
 * group that prices every job of that stream),
 * ranks cells by relative E·D (best/baseline — the paper's metric,
 * comparable across apps), and promotes only the top fraction;
 * survivors advance to sampled runs, and only the finalists are
 * verified at full detail, whose winner row is byte-identical to the
 * exhaustive sweep's row for that cell. Promotion fractions, the
 * survivor floor, a rank-agreement early exit, and the sampled
 * rung's period budget all come from the scenario's
 * `[search] mode = adaptive` block (scenario/scenario_spec.hh).
 *
 * Every allocation decision is appended to the JSONL decision log
 * (search/decision_log.hh): candidate set, scores (with each
 * candidate's exact sweep-CSV row), promotion verdicts, engine per
 * round, and the final winner with detailed-instruction accounting.
 * The log and the winner CSV are byte-identical across --jobs
 * values, claim workers, and resumes.
 *
 * Cooperative mode: with a claim directory (runner/claim.hh), each
 * round becomes `shards` work units named r<round>_s<shard>, drained
 * by the same claim worker as a claim sweep's units
 * (drainClaimUnits): workers atomically claim units, evaluate their
 * candidate slice (a contiguous range of the round's app-major
 * candidates) while heartbeating the lease after every finished
 * lane group (so a live unit is never taken over), publish the slice
 * as a committed CSV, and barrier on the round before reading every
 * unit's CSV back and computing the (identical) promotion verdict
 * locally. A polite interrupt stops a claim round between lane
 * groups and releases the unit in flight; a local round finishes
 * first. N workers drain one tune with no coordinator, and every
 * worker writes the same decision log bytes.
 *
 * Resume: --resume replays completed rounds from the log's score
 * rows instead of re-running them and continues from the first
 * incomplete round; the regenerated log equals an uninterrupted
 * run's. The log is read by the one reader of its grammar
 * (readTuneLog, search/decision_log.hh). A log that ends inside a
 * round (a crash's cut) re-runs that round; a line the writer could
 * not have written there (a repeated or foreign score, a count that
 * disagrees with its scores, a missing verdict, a line after the
 * winner) moves the log aside as corrupt and starts fresh. A log of
 * another scenario exits 2 and stays where it is: its plan line
 * differs, a round's candidates differ, or a score row is not its
 * cell's row at the round's engine (cellRowMismatch,
 * scenario/cell_eval.hh). A claim round holds the unit rows it
 * gathers to the same check.
 */

#ifndef RCACHE_SEARCH_ADAPTIVE_SEARCH_HH
#define RCACHE_SEARCH_ADAPTIVE_SEARCH_HH

#include <cstdint>
#include <string>

#include "scenario/param_space.hh"
#include "sim/report.hh"

namespace rcache
{

/** How runAdaptiveSearch executes and reports. */
struct TuneOptions
{
    /** Worker threads for detailed/sampled rounds (SweepRunner
     *  semantics: 0 = all cores). */
    unsigned jobs = 1;
    /** Decision-log JSONL path ("" = no log file). */
    std::string logPath;
    /** Winner-row CSV destination; empty = stdout. */
    std::string outPath;
    /** Non-empty: replay completed rounds from this decision log. */
    std::string resumePath;
    /** Non-empty: cooperative mode over this manifest directory. */
    std::string claimDir;
    /** Shard count when creating a claim manifest (0 = join an
     *  existing one). */
    unsigned shards = 0;
    /** Stale-lease takeover threshold, seconds. */
    unsigned leaseTimeoutSecs = 300;
    /** Suppress the stderr summary (tests, benches). */
    bool quiet = false;
    /** When false, write neither the winner CSV nor the log file —
     *  the bench harness reads TuneStats instead. */
    bool emitOutputs = true;
};

/** What a finished tune measured (filled even when quiet). */
struct TuneStats
{
    std::size_t cells = 0;
    /** Rounds actually run (< ladder size on early exit). */
    std::size_t rounds = 0;
    bool earlyExit = false;
    /** Timing-core instructions the adaptive schedule simulates in
     *  detail, summed over every round's jobs and cores (plan
     *  arithmetic: plannedCoreJobs times the rung's detailed
     *  instructions per job; equals the measured total). */
    std::uint64_t detailedInsts = 0;
    /** The same accounting for an exhaustive sweep of the whole
     *  grid at the scenario's engine. */
    std::uint64_t exhaustiveDetailedInsts = 0;
    SweepRecord winner;
    /** The full decision log, byte-exact. */
    std::string logText;
};

/**
 * Run the adaptive search. Diagnostics go to stderr with the CLI's
 * "rcache-sim:" prefix; @return a process exit code (0 ok, 2 on
 * configuration, claim, or resume-validation errors).
 */
int runAdaptiveSearch(const ParamSpace &space, const TuneOptions &opt,
                      TuneStats *stats = nullptr);

/** Convenience: build the ParamSpace for @p spec first. */
int runAdaptiveSearch(const ScenarioSpec &spec,
                      const TuneOptions &opt,
                      TuneStats *stats = nullptr);

} // namespace rcache

#endif // RCACHE_SEARCH_ADAPTIVE_SEARCH_HH
