/** @file
 * Tests for the cooperative orchestration layer: manifest
 * create/join, the lease lifecycle with stale takeover, the one claim
 * worker's heartbeat and polite interrupt (of a bare unit loop and of
 * a claim sweep), merge validation, and the
 * byte-identity of claim-mode sweeps and tunes with their
 * single-process equivalents.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "fault/failpoint.hh"
#include "runner/claim.hh"
#include "scenario/scenario_sweep.hh"
#include "search/adaptive_search.hh"
#include "search/sweep_merge.hh"
#include "util/interrupt.hh"

namespace rcache
{

namespace
{

/** A fresh directory under the test tmpdir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
pathIn(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** 2 apps x org x strategy = 8 cells, short runs. */
ScenarioSpec
sweepSpec()
{
    std::string err;
    const auto spec = ScenarioSpec::parseText(R"([scenario]
name = claim-test
insts = 20000

[workloads]
apps = ammp,gcc

[axes]
org = ways,sets
strategy = static,dynamic

[search]
intervals = 1024
miss-fractions = 0.01
size-fractions = 0,1
)",
                                              "claim-test.scn",
                                              &err);
    EXPECT_TRUE(spec) << err;
    return *spec;
}

/** Adaptive variant for claim-mode tunes. */
ScenarioSpec
tuneSpec()
{
    std::string err;
    const auto spec = ScenarioSpec::parseText(R"([scenario]
name = claim-tune-test
insts = 30000

[workloads]
apps = gcc,m88ksim

[axes]
assoc = 2,4
org = ways,sets

[search]
strategy = static
side = dcache
mode = adaptive
ladder = analytic,full
promote = 0.5
min-survivors = 2
)",
                                              "claim-tune.scn",
                                              &err);
    EXPECT_TRUE(spec) << err;
    return *spec;
}

ClaimSweepOptions
workerOpts(const std::string &dir, unsigned shards)
{
    ClaimSweepOptions opt;
    opt.dir = dir;
    opt.shards = shards;
    opt.quiet = true;
    return opt;
}

} // namespace

TEST(ClaimTest, ManifestCreateReadAndDoubleCreate)
{
    const std::string dir = freshDir("claim_manifest");
    ManifestInfo info;
    info.mode = "sweep";
    info.shards = 3;
    info.scenarioText = "[scenario]\nname = x\n";

    std::string err;
    ASSERT_TRUE(writeManifest(dir, info, &err)) << err;
    const auto back = readManifest(dir, &err);
    ASSERT_TRUE(back) << err;
    EXPECT_EQ(back->mode, "sweep");
    EXPECT_EQ(back->shards, 3u);
    EXPECT_EQ(back->scenarioText, info.scenarioText);

    // The meta file is the commit point: a second creator loses.
    EXPECT_FALSE(writeManifest(dir, info, &err));
    EXPECT_NE(err.find("already exists"), std::string::npos);

    // Reading an absent manifest names the fix.
    EXPECT_FALSE(readManifest(freshDir("claim_nothing"), &err));
    EXPECT_NE(err.find("--shards"), std::string::npos);
}

TEST(ClaimTest, LeaseLifecycleAndStaleTakeover)
{
    const std::string dir = freshDir("claim_lease");
    std::filesystem::create_directories(dir);
    const ClaimDir claims(dir, 300);

    EXPECT_FALSE(claims.isDone("u0"));
    EXPECT_TRUE(claims.tryClaim("u0"));
    EXPECT_TRUE(claims.leaseFresh("u0"));
    // Held: a second claimant bounces.
    EXPECT_FALSE(claims.tryClaim("u0"));

    // Age the lease past the timeout; the next claimant takes over.
    std::filesystem::last_write_time(
        dir + "/u0.lease",
        std::filesystem::file_time_type::clock::now() -
            std::chrono::hours(2));
    EXPECT_FALSE(claims.leaseFresh("u0"));
    EXPECT_TRUE(claims.tryClaim("u0"));

    // A heartbeat keeps a lease fresh.
    std::filesystem::last_write_time(
        dir + "/u0.lease",
        std::filesystem::file_time_type::clock::now() -
            std::chrono::hours(2));
    claims.heartbeat("u0");
    EXPECT_TRUE(claims.leaseFresh("u0"));

    // Done units are never claimable again.
    std::string err;
    ASSERT_TRUE(claims.markDone("u0", &err)) << err;
    EXPECT_TRUE(claims.isDone("u0"));
    EXPECT_FALSE(claims.tryClaim("u0"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/u0.lease"));
}

TEST(ClaimTest, ClaimSweepPlusMergeMatchesSingleProcess)
{
    const ScenarioSpec spec = sweepSpec();

    SweepOptions so;
    so.outPath = pathIn("claim_ref.csv");
    so.quiet = true;
    ASSERT_EQ(runScenarioSweep(spec, so), 0);
    const std::string reference = slurp(so.outPath);

    const std::string dir = freshDir("claim_sweep_single");
    ASSERT_EQ(runClaimSweep(spec, workerOpts(dir, 3)), 0);
    for (unsigned u = 0; u < 3; ++u)
        EXPECT_TRUE(std::filesystem::exists(
            dir + "/" + sweepUnitName(u) + ".done"));

    // Manifest-directory merge and explicit-shard merge both
    // reproduce the unsharded CSV byte for byte.
    const std::string merged = pathIn("claim_merged.csv");
    ASSERT_EQ(runSweepMerge({dir}, merged), 0);
    EXPECT_EQ(slurp(merged), reference);

    std::vector<std::string> shard_csvs;
    for (unsigned u = 0; u < 3; ++u)
        shard_csvs.push_back(dir + "/" + sweepUnitName(u) + ".csv");
    const std::string merged2 = pathIn("claim_merged2.csv");
    ASSERT_EQ(runSweepMerge(shard_csvs, merged2), 0);
    EXPECT_EQ(slurp(merged2), reference);

    // Strict cover validation: a duplicated shard and a missing
    // shard are both hard errors.
    EXPECT_NE(runSweepMerge({shard_csvs[0], shard_csvs[0],
                             shard_csvs[1], shard_csvs[2]},
                            pathIn("claim_dup.csv")),
              0);
    EXPECT_NE(runSweepMerge({shard_csvs[0], shard_csvs[2]},
                            pathIn("claim_gap.csv")),
              0);
}

TEST(ClaimTest, TwoWorkersDrainOneManifest)
{
    const ScenarioSpec spec = sweepSpec();

    SweepOptions so;
    so.outPath = pathIn("claim_ref2.csv");
    so.quiet = true;
    ASSERT_EQ(runScenarioSweep(spec, so), 0);

    // Both workers race to create the manifest (the loser joins) and
    // drain units concurrently; each returns 0 only once every unit
    // is done.
    const std::string dir = freshDir("claim_sweep_pair");
    int rc1 = -1, rc2 = -1;
    std::thread w1(
        [&] { rc1 = runClaimSweep(spec, workerOpts(dir, 3)); });
    std::thread w2(
        [&] { rc2 = runClaimSweep(spec, workerOpts(dir, 3)); });
    w1.join();
    w2.join();
    EXPECT_EQ(rc1, 0);
    EXPECT_EQ(rc2, 0);

    const std::string merged = pathIn("claim_merged_pair.csv");
    ASSERT_EQ(runSweepMerge({dir}, merged), 0);
    EXPECT_EQ(slurp(merged), slurp(pathIn("claim_ref2.csv")));
}

TEST(ClaimTest, ClaimRejectsMismatchedJoin)
{
    const ScenarioSpec spec = sweepSpec();
    const std::string dir = freshDir("claim_mismatch");
    ASSERT_EQ(runClaimSweep(spec, workerOpts(dir, 2)), 0);

    // Joining with a different shard count or scenario is refused.
    EXPECT_NE(runClaimSweep(spec, workerOpts(dir, 3)), 0);
    ScenarioSpec other = spec;
    other.insts = 40000;
    EXPECT_NE(runClaimSweep(other, workerOpts(dir, 2)), 0);

    // Merge refuses a tune manifest.
    const std::string tdir = freshDir("claim_tune_manifest");
    TuneOptions topt;
    topt.quiet = true;
    topt.emitOutputs = false;
    topt.claimDir = tdir;
    topt.shards = 2;
    ASSERT_EQ(runAdaptiveSearch(tuneSpec(), topt, nullptr), 0);
    EXPECT_NE(runSweepMerge({tdir}, pathIn("claim_tune_merge.csv")),
              0);

    // A worker joining the drained tune adopts only rows that are its
    // rounds' cells: one unit row with another app is refused.
    const std::string unit = tdir + "/r0_s0.csv";
    std::string csv = slurp(unit);
    const std::size_t at = csv.find(",gcc,");
    ASSERT_NE(at, std::string::npos);
    csv.replace(at, 5, ",swim,");
    std::ofstream(unit, std::ios::binary | std::ios::trunc) << csv;
    testing::internal::CaptureStderr();
    EXPECT_EQ(runAdaptiveSearch(tuneSpec(), topt, nullptr), 2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("app 'swim' where this scenario has 'gcc'"),
              std::string::npos)
        << err;
}

TEST(ClaimTest, ConcurrentPublishesOfOnePathAllSucceed)
{
    // Racing publishers of one path (two claim workers creating the
    // same manifest, in one process or several) must each publish a
    // whole file: a tmp name shared between them lets one rename
    // take the other's tmp file away.
    const std::string dir = freshDir("atomic_publish");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/MANIFEST.scn";
    constexpr std::size_t kBytes = 4096;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (char fill = 'a'; fill < 'a' + 4; ++fill) {
        threads.emplace_back([&, fill] {
            const std::string text(kBytes, fill);
            for (int i = 0; i < 200; ++i) {
                std::string err;
                if (!atomicWriteFile(path, text, &err))
                    ++failures;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    const std::string got = slurp(path);
    ASSERT_EQ(got.size(), kBytes);
    EXPECT_EQ(got, std::string(kBytes, got[0]));
    // Every tmp file was renamed into place: no debris.
    std::size_t entries = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().filename(), "MANIFEST.scn");
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST(ClaimTest, RacingManifestCreatorsJoinOneManifest)
{
    // Two creators race for one directory: exactly one commits, and
    // the loser joins the committed manifest rather than reading the
    // winner's half-written meta as damage.
    ManifestInfo info;
    info.scenarioText = "[scenario]\nname = race\n";
    info.shards = 3;
    for (int round = 0; round < 100; ++round) {
        const std::string dir = freshDir("manifest_race");
        std::atomic<int> won{0}, joined{0};
        const auto create = [&] {
            std::string err;
            if (writeManifest(dir, info, &err)) {
                ++won;
                return;
            }
            const auto mf = joinManifest(dir, &err);
            if (mf && mf->shards == info.shards &&
                mf->scenarioText == info.scenarioText)
                ++joined;
        };
        std::thread a(create), b(create);
        a.join();
        b.join();
        ASSERT_EQ(won.load(), 1) << "round " << round;
        ASSERT_EQ(joined.load(), 1) << "round " << round;
    }
}

TEST(ClaimTest, ClaimTuneMatchesLocalTune)
{
    const ScenarioSpec spec = tuneSpec();

    TuneOptions local;
    local.quiet = true;
    local.outPath = pathIn("claim_tune_local.csv");
    local.logPath = pathIn("claim_tune_local.log");
    TuneStats ref;
    ASSERT_EQ(runAdaptiveSearch(spec, local, &ref), 0);

    // Two claim workers share every round's units; each computes the
    // same ranking from the committed records, so both logs and both
    // winner CSVs are byte-identical to the local run's.
    const std::string dir = freshDir("claim_tune_pair");
    auto claimed = [&](const std::string &tag) {
        TuneOptions opt;
        opt.quiet = true;
        opt.claimDir = dir;
        opt.shards = 2;
        opt.outPath = pathIn("claim_tune_" + tag + ".csv");
        opt.logPath = pathIn("claim_tune_" + tag + ".log");
        return opt;
    };
    int rc1 = -1, rc2 = -1;
    TuneStats s1, s2;
    std::thread w1([&] {
        rc1 = runAdaptiveSearch(spec, claimed("w1"), &s1);
    });
    std::thread w2([&] {
        rc2 = runAdaptiveSearch(spec, claimed("w2"), &s2);
    });
    w1.join();
    w2.join();
    ASSERT_EQ(rc1, 0);
    ASSERT_EQ(rc2, 0);

    EXPECT_EQ(s1.logText, ref.logText);
    EXPECT_EQ(s2.logText, ref.logText);
    EXPECT_EQ(slurp(pathIn("claim_tune_w1.csv")),
              slurp(pathIn("claim_tune_local.csv")));
    EXPECT_EQ(slurp(pathIn("claim_tune_w2.csv")),
              slurp(pathIn("claim_tune_local.csv")));
    EXPECT_EQ(s1.winner.cell, ref.winner.cell);
}

TEST(ClaimTest, ClaimTuneUnitsRenewTheirLease)
{
    // Armed to fire far beyond any run, so the site only counts.
    std::string err;
    ASSERT_TRUE(
        fault::armFailpoints("claim.heartbeat=io_error@1000000", &err))
        << err;
    TuneOptions opt;
    opt.quiet = true;
    opt.emitOutputs = false;
    opt.claimDir = freshDir("claim_tune_heartbeat");
    opt.shards = 2;
    TuneStats stats;
    const int rc = runAdaptiveSearch(tuneSpec(), opt, &stats);
    const std::uint64_t beats = fault::failpointHits("claim.heartbeat");
    fault::disarmFailpoints();
    ASSERT_EQ(rc, 0);
    // Every unit runs at least one lane group, and the worker beats
    // its lease after each.
    EXPECT_GE(beats, 2 * stats.rounds);
}

TEST(ClaimTest, InterruptedUnitReleasesItsLease)
{
    const std::string dir = freshDir("claim_interrupt");
    std::filesystem::create_directories(dir);
    const std::vector<std::string> units = {"u0", "u1"};

    // A child worker's first unit writes part of its CSV, then a
    // SIGINT arrives during its first lane group: the heartbeat after
    // that group says stop, and the unit gives up.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        installInterruptHandlers();
        const int rc = drainClaimUnits(
            ClaimDir(dir, 300), units,
            [](std::size_t, const std::string &tmp,
               const std::function<bool()> &heartbeat) {
                std::ofstream(tmp) << "partial\n";
                std::raise(SIGINT);
                return heartbeat() ? 0 : 1;
            });
        std::_Exit(rc);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 130);
    // The lease is released, nothing is committed, no tmp is left.
    EXPECT_FALSE(std::filesystem::exists(dir + "/u0.lease"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/u0.done"));
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
            << entry.path();

    // The released unit is claimable at once: a second drain
    // completes both units.
    const ClaimDir claims(dir, 300);
    ASSERT_EQ(drainClaimUnits(
                  claims, units,
                  [&](std::size_t u, const std::string &tmp,
                      const std::function<bool()> &heartbeat) {
                      std::ofstream(tmp) << units[u] << '\n';
                      return heartbeat() ? 0 : 1;
                  }),
              0);
    for (const std::string &unit : units) {
        EXPECT_TRUE(claims.isDone(unit)) << unit;
        EXPECT_EQ(slurp(dir + "/" + unit + ".csv"), unit + "\n");
    }
}

TEST(ClaimTest, InterruptedClaimSweepReleasesItsUnitAndOffersNoResume)
{
    const ScenarioSpec spec = sweepSpec();
    SweepOptions so;
    so.outPath = pathIn("claim_intr_ref.csv");
    so.quiet = true;
    ASSERT_EQ(runScenarioSweep(spec, so), 0);

    // A child claim-sweep worker whose every lease heartbeat sleeps
    // 2 s, so SIGINT lands while its first unit is in flight.
    const std::string dir = freshDir("claim_sweep_interrupt");
    const std::string err_path = pathIn("claim_intr.err");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const int fd = ::open(err_path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        std::string err;
        if (fd < 0 || ::dup2(fd, STDERR_FILENO) < 0 ||
            !fault::armFailpoints("claim.heartbeat=delay:2000", &err))
            std::_Exit(99);
        installInterruptHandlers();
        std::_Exit(runClaimSweep(spec, workerOpts(dir, 2)));
    }
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!std::filesystem::exists(dir + "/shard_0.lease") &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ::kill(pid, SIGINT);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 130);

    // The unit's CSV was a tmp file the worker removed: the worker
    // releases the unit and names no --resume path.
    const std::string err = slurp(err_path);
    EXPECT_NE(err.find("released 'shard_0'"), std::string::npos) << err;
    EXPECT_EQ(err.find("--resume"), std::string::npos) << err;
    EXPECT_FALSE(std::filesystem::exists(dir + "/shard_0.lease"));

    // A second worker finishes the manifest with the unsharded bytes.
    ASSERT_EQ(runClaimSweep(spec, workerOpts(dir, 2)), 0);
    const std::string merged = pathIn("claim_intr_merged.csv");
    ASSERT_EQ(runSweepMerge({dir}, merged), 0);
    EXPECT_EQ(slurp(merged), slurp(so.outPath));
}

} // namespace rcache
