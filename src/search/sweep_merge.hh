/**
 * @file
 * The claim protocol every cooperative worker runs (`rcache-sim sweep
 * --claim`, each round of `rcache-sim tune --claim`) and the
 * shard-merge engine (`rcache-sim merge`).
 *
 * A claim round turns an ascending, app-major list of cells into N
 * work units that any number of independent worker processes drain
 * together: unit u of N takes the cells shard u/N takes
 * (runner/shard.hh), so it streams each of its few apps once. A claim
 * sweep is one round over every cell, with units shard_0 ...
 * shard_N-1; a tune round's units are r<round>_s<unit>, over the
 * round's candidates at the rung's engine.
 * claimRound drives the shared claim worker, drainClaimUnits
 * (runner/claim.hh has it and the lease protocol): it claims what is
 * free, evaluates the unit's cells (evaluateCells) while heartbeating
 * the lease after every finished lane group, publishes the unit's CSV
 * through a checked write to a private tmp file renamed into place
 * (readers never see a partial CSV), and marks it done. Workers take
 * over stale units of crashed peers, and no worker returns until
 * *every* unit is done, so a zero exit from any worker means the
 * whole round is drained.
 *
 * Then every worker reads every unit back (readClaimRound): row i of
 * a unit must be the row of the unit's i-th cell (firstForeignRow,
 * scenario/cell_eval.hh), so all workers gather the identical record
 * set and an edited or foreign unit exits 2 with one line naming the
 * unit file. `merge DIR` and `doctor DIR` read a directory's units
 * back through the same check, against MANIFEST.scn.
 *
 * Merge re-interleaves committed unit or shard CSVs by global cell
 * index into the unsharded report. Because every cell is a pure
 * function of its spec, the merged file is byte-identical to a
 * single-process `rcache-sim sweep` of the same scenario (pinned by
 * the claim tests and the CI orchestration smoke job). Loose shard
 * CSVs (`merge a.csv b.csv`, from `--shard i/N`) have no scenario to
 * be checked against: every input must parse, and the union of cells
 * must be exactly 0..k-1 with no duplicates. That refuses a repeated
 * or missing middle shard but not missing last shards, whose absence
 * leaves no gap: a CSV does not record its scenario's cell count.
 */

#ifndef RCACHE_SEARCH_SWEEP_MERGE_HH
#define RCACHE_SEARCH_SWEEP_MERGE_HH

#include <optional>
#include <string>
#include <vector>

#include "runner/claim.hh"
#include "runner/shard.hh"
#include "scenario/cell_eval.hh"
#include "scenario/scenario_spec.hh"
#include "sim/report.hh"

namespace rcache
{

/** How runClaimSweep coordinates. */
struct ClaimSweepOptions
{
    /** The manifest directory (required). */
    std::string dir;
    /** Shard count when creating the manifest; 0 = join an existing
     *  one. */
    unsigned shards = 0;
    /** Stale-lease takeover threshold, seconds. */
    unsigned leaseTimeoutSecs = 300;
    /** Worker threads per claimed unit (SweepRunner semantics). */
    unsigned jobs = 1;
    bool quiet = false;
};

/**
 * Run one cooperative sweep worker over @p opt.dir. With @p spec the
 * worker creates the manifest when none exists (requires
 * opt.shards > 0) or verifies an existing one matches; without, it
 * joins the manifest's scenario. Before it claims anything it opens
 * the scenario's traces once (preflightTraces), so a worker without
 * them exits 2 with one line and leaves no lease behind. Then it runs
 * one claimRound over every cell of the manifest's scenario, so it
 * returns 0 only once every unit of the manifest is done and reads
 * back as its range.
 * Diagnostics go to stderr with the CLI's "rcache-sim:" prefix;
 * @return a process exit code.
 */
int runClaimSweep(const std::optional<ScenarioSpec> &spec,
                  const ClaimSweepOptions &opt);

/** A manifest's scenario: its design space and its apps. */
struct ManifestScenario
{
    ParamSpace space;
    std::vector<AppEntry> apps;
};

/**
 * Parse and build the scenario @p info carries (MANIFEST.scn of
 * @p dir). @return nullopt with a one-line @p err naming the file.
 */
std::optional<ManifestScenario>
manifestScenario(const std::string &dir, const ManifestInfo &info,
                 std::string *err);

/**
 * One claim round: drain @p units (named by the caller) with this
 * worker's peers, unit u evaluating ShardSpec{u, N}.take(@p cells)
 * at @p engine when non-null (else each point's own) on @p jobs
 * workers, then read every unit back (readClaimRound). @p cells must
 * be ascending cells of @p space and @p apps. @return 0 with
 * @p records in @p cells order, or a process exit code: 128+signal
 * after a polite interrupt, 2 when a unit does not read back as its
 * cells (after a one-line diagnostic). A unit CSV this worker cannot
 * write exits the process with 3, as every checked write does.
 */
int claimRound(const ClaimDir &claims, const std::vector<std::string> &units,
               const ParamSpace &space, const std::vector<AppEntry> &apps,
               const std::vector<std::size_t> &cells,
               const EngineSpec *engine, unsigned jobs,
               std::vector<SweepRecord> &records);

/**
 * The read-back half of the protocol for one committed unit CSV
 * @p path: it must parse, and hold exactly the rows of *@p cells at
 * @p engine (firstForeignRow); a null @p cells holds each row to its
 * own cell (doctor, which cannot know a tune round's cells).
 * @return the rows, or nullopt with a one-line "<path>:LINE: why".
 */
std::optional<std::vector<SweepRecord>>
readClaimUnit(const std::string &path, const ParamSpace &space,
              const std::vector<AppEntry> &apps,
              const std::vector<std::size_t> *cells,
              const EngineSpec *engine, std::string *err);

/** Read every unit of a claim round back (readClaimUnit, unit u
 *  against ShardSpec{u, N}.take(@p cells)). @return the rows in
 *  @p cells order, or nullopt with @p err. */
std::optional<std::vector<SweepRecord>>
readClaimRound(const ClaimDir &claims, const std::vector<std::string> &units,
               const ParamSpace &space, const std::vector<AppEntry> &apps,
               const std::vector<std::size_t> &cells,
               const EngineSpec *engine, std::string *err);

/**
 * Merge into the unsharded report (@p outPath; empty = stdout).
 * @p inputs is either a list of shard CSV paths or a single manifest
 * directory, whose committed units are read back against its
 * MANIFEST.scn (every unit must be done). @return a process exit code
 * (0 ok, 2 on a missing, unparsable or mismatched input or a cell
 * cover with a gap or a repeat).
 */
int runSweepMerge(const std::vector<std::string> &inputs,
                  const std::string &outPath);

} // namespace rcache

#endif // RCACHE_SEARCH_SWEEP_MERGE_HH
