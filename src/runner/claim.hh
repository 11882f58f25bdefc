/**
 * @file
 * Cooperative sweep orchestration: a manifest directory plus an
 * atomic shard-claim protocol, so N independent processes (or
 * machines over a shared filesystem) drain one scenario without a
 * coordinator.
 *
 * A manifest directory holds the scenario's canonical text
 * (MANIFEST.scn), a small MANIFEST.meta (mode + shard count), and
 * one set of files per work unit:
 *
 *   <unit>.lease   held by the worker currently running the unit
 *   <unit>.csv     the unit's output (written tmp + rename)
 *   <unit>.done    commit marker: the output is complete
 *
 * Claiming is an O_CREAT|O_EXCL create of the lease file — the
 * filesystem's atomicity is the whole locking story, so the protocol
 * needs no daemon and survives worker crashes: a lease older than
 * the timeout with no done marker is *stale*, and any worker may
 * take it over by atomically renaming it aside (exactly one
 * contender's rename succeeds) and claiming afresh.
 *
 * Every claim worker, a sweep's (search/sweep_merge.hh) or a tune
 * round's (search/adaptive_search.hh), drains its units through one
 * loop, drainClaimUnits: claim a free unit, run it while
 * heartbeating its lease (mtime bump) after every finished lane
 * group, so a live unit of either kind is never stolen, publish its
 * CSV via write-to-tmp + rename, then write the done marker, so
 * readers never observe a partial CSV. A polite interrupt stops the
 * running unit between lane groups and releases its lease. The merge
 * tool (search/sweep_merge.hh) re-interleaves the committed shard
 * CSVs into the byte-identical unsharded report.
 */

#ifndef RCACHE_RUNNER_CLAIM_HH
#define RCACHE_RUNNER_CLAIM_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace rcache
{

/** What a manifest directory describes. */
struct ManifestInfo
{
    /** Canonical scenario text (ScenarioSpec::printToString). */
    std::string scenarioText;
    /** Work units the scenario is split into. */
    unsigned shards = 0;
    /** "sweep" (one unit per shard) or "tune" (one unit per
     *  round x shard; see search/adaptive_search.hh). */
    std::string mode = "sweep";
};

/**
 * Create @p dir (and parents) and write its manifest. Exactly one
 * concurrent creator wins; losers see the existing manifest via
 * readManifest and must verify it matches what they wanted.
 * @return false with @p err set when the manifest already exists or
 * cannot be written.
 */
bool writeManifest(const std::string &dir, const ManifestInfo &info,
                   std::string *err);

/**
 * Join the manifest a concurrent creator is committing, after losing
 * the writeManifest race: the winner creates MANIFEST.meta before it
 * writes it, so a loser can briefly see an empty or partial meta.
 * Re-reads for up to a second; a meta still incomplete after that
 * was torn by a crash. @return readManifest's last answer.
 */
std::optional<ManifestInfo> joinManifest(const std::string &dir,
                                         std::string *err);

/**
 * Read a manifest directory; nullopt with @p err on a missing or
 * malformed manifest. @p corrupt (optional) distinguishes the two
 * failures: true means the directory *has* manifest files but they
 * are damaged (torn meta, garbage, missing scenario text) — a
 * worker holding the scenario may quarantineManifest() and
 * re-create; false means there is simply no manifest yet.
 */
std::optional<ManifestInfo> readManifest(const std::string &dir,
                                         std::string *err,
                                         bool *corrupt = nullptr);

/**
 * Move a damaged MANIFEST.meta aside ("MANIFEST.meta.corrupt.<ts>")
 * so writeManifest can commit a fresh manifest over the directory.
 * @return false with @p err when the rename fails.
 */
bool quarantineManifest(const std::string &dir, std::string *err);

/**
 * The manifest a claim worker drains. Reads @p dir's manifest; when
 * there is none (or a damaged one, which is moved aside first) and
 * the worker carries the scenario (@p scenario_text), creates one
 * with @p shards units, or joins a concurrent creator's. Then checks
 * that the manifest is a @p mode manifest ("sweep" or "tune") for
 * that scenario with @p shards units (0: any count).
 * @return nullopt with a one-line @p err on any failure.
 */
std::optional<ManifestInfo>
openManifest(const std::string &dir, const std::string &mode,
             const std::optional<std::string> &scenario_text,
             unsigned shards, std::string *err);

/**
 * Lease bookkeeping for one manifest directory. All operations are
 * keyed by unit name ("shard_3", "r1_s0", ...); the class is
 * stateless beyond its configuration and safe to use from multiple
 * workers on the same directory — that is its purpose.
 */
class ClaimDir
{
  public:
    /** @param leaseTimeoutSecs age beyond which a lease with no done
     *  marker counts as stale (crashed worker). */
    ClaimDir(std::string dir, unsigned leaseTimeoutSecs);

    const std::string &dir() const { return dir_; }

    /** dir/<name> (for unit CSV paths etc.). */
    std::string path(const std::string &name) const;

    /**
     * Try to claim @p unit: take over a stale lease if one is
     * present, then create the lease atomically. @return true when
     * this worker now holds the lease.
     */
    bool tryClaim(const std::string &unit) const;

    /**
     * Bump the lease mtime (call per finished lane group). @return false
     * when the bump failed (logged at warn); kDegradedAfter
     * consecutive failures log a one-time worker-degraded error —
     * the lease is silently aging toward takeover.
     */
    bool heartbeat(const std::string &unit) const;

    /** Consecutive heartbeat failures before the worker counts as
     *  degraded. */
    static constexpr unsigned kDegradedAfter = 3;

    /**
     * Give @p unit back: unlink our lease (only when its recorded
     * pid is ours — a takeover may already own the name). The
     * graceful-interrupt path: a released unit is immediately
     * claimable instead of aging out.
     * @return true when the lease was ours and is gone.
     */
    bool release(const std::string &unit) const;

    /** Commit @p unit: create the done marker, drop the lease.
     *  @return false with @p err when the marker cannot be written. */
    bool markDone(const std::string &unit, std::string *err) const;

    bool isDone(const std::string &unit) const;

    /** A lease exists and is younger than the timeout. */
    bool leaseFresh(const std::string &unit) const;

  private:
    bool takeOverIfStale(const std::string &unit) const;

    std::string dir_;
    unsigned timeoutSecs_;
    /** Consecutive heartbeat failures (one worker per ClaimDir
     *  instance, whose heartbeats its drain serializes, so plain
     *  mutable state is race-free). */
    mutable unsigned hbFailures_ = 0;
};

/** The sweep work-unit name for shard @p i ("shard_<i>"). */
std::string sweepUnitName(unsigned shard);

/** The tune work-unit name for (round, shard) ("r<r>_s<i>"). */
std::string tuneUnitName(std::size_t round, unsigned shard);

/**
 * Runs unit @p index of a drainClaimUnits call: writes the unit's
 * whole CSV to @p tmpPath and calls @p heartbeat after every finished
 * lane group. The heartbeat renews the unit's lease and returns false
 * once a polite interrupt asks the run to start no new group.
 * @return 0 when the CSV is whole; otherwise a process exit code,
 * after printing its own diagnostic.
 */
using ClaimUnitRun = std::function<int(
    std::size_t index, const std::string &tmpPath,
    const std::function<bool()> &heartbeat)>;

/**
 * The claim worker. For each unit of @p units that is not done:
 * claim it, @p run it, publish its CSV as <unit>.csv (a tmp file
 * private to this call, renamed at the claim.unit.publish site) and
 * mark it done. Then wait for peers, taking over their stale units,
 * until every unit is done, so a zero return certifies the whole
 * set. Diagnostics go to stderr with the CLI's "rcache-sim:" prefix.
 * @return 0 once every unit is done; 128+signal after a polite
 * interrupt (the unit in flight releases its lease and leaves no tmp
 * file); a failed run's exit code (its lease is left to go stale);
 * 2 when a publish or a done marker fails.
 */
int drainClaimUnits(const ClaimDir &claims,
                    const std::vector<std::string> &units,
                    const ClaimUnitRun &run);

/**
 * Atomically publish @p text as @p path: write to a tmp file private
 * to this call, then rename over the target, so concurrent publishers
 * of one path (threads or processes) each publish a whole file.
 * @return false with @p err on any I/O failure.
 */
bool atomicWriteFile(const std::string &path, const std::string &text,
                     std::string *err);

} // namespace rcache

#endif // RCACHE_RUNNER_CLAIM_HH
