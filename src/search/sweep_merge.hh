/**
 * @file
 * The cooperative sweep worker (`rcache-sim sweep --claim`) and the
 * shard-merge engine (`rcache-sim merge`).
 *
 * A claim-mode sweep turns one scenario into `shards` work units
 * (shard_0 ... shard_N-1) that any number of independent worker
 * processes drain together. runClaimSweep drives the shared claim
 * worker, drainClaimUnits (runner/claim.hh has it and the lease
 * protocol): it claims what is free, sweeps the claimed shard into a
 * committed <unit>.csv (written to a private tmp file and renamed,
 * so readers never see a partial CSV), and marks it done. Workers
 * heartbeat their lease after every finished lane group and take
 * over stale units of crashed peers, and no worker exits
 * successfully until *every* unit is done — so a zero exit from any
 * worker means the whole scenario is drained.
 *
 * Merge re-interleaves committed shard CSVs by global cell index
 * into the unsharded report. Because every cell is a pure function
 * of its spec, the merged file is byte-identical to a single-process
 * `rcache-sim sweep` of the same scenario (pinned by the claim
 * tests and the CI orchestration smoke job). Validation is strict:
 * every input must parse, and the union of cells must be exactly
 * 0..N-1 with no duplicates — a missing shard or a foreign CSV is a
 * one-line `path:line:` diagnostic, not a silently short report.
 */

#ifndef RCACHE_SEARCH_SWEEP_MERGE_HH
#define RCACHE_SEARCH_SWEEP_MERGE_HH

#include <optional>
#include <string>
#include <vector>

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
    bool progress = false;
    bool quiet = false;
};

/**
 * Run one cooperative sweep worker over @p opt.dir. With @p spec the
 * worker creates the manifest when none exists (requires
 * opt.shards > 0) or verifies an existing one matches; without, it
 * joins the manifest's scenario. Then it drives drainClaimUnits over
 * the manifest's units, each a runScenarioSweep of its shard, so it
 * returns 0 only once every unit of the manifest is done.
 * Diagnostics go to stderr with the CLI's "rcache-sim:" prefix;
 * @return a process exit code.
 */
int runClaimSweep(const std::optional<ScenarioSpec> &spec,
                  const ClaimSweepOptions &opt);

/**
 * Read committed shard or claim-unit CSVs strictly and pool their
 * rows, sorted by cell. @return nullopt with a one-line
 * "<path>:N: why" @p err on the first input that cannot be opened or
 * does not parse.
 */
std::optional<std::vector<SweepRecord>>
readShardCsvs(const std::vector<std::string> &paths, std::string *err);

/**
 * Merge shard CSVs into the unsharded report (@p outPath; empty =
 * stdout). @p inputs is either a list of shard CSV paths or a single
 * manifest directory, whose committed unit CSVs are merged (every
 * unit must be done). @return a process exit code (0 ok, 2 on a
 * missing/unparsable input or an incomplete cell cover).
 */
int runSweepMerge(const std::vector<std::string> &inputs,
                  const std::string &outPath);

} // namespace rcache

#endif // RCACHE_SEARCH_SWEEP_MERGE_HH
