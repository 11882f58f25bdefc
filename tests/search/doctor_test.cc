/** @file
 * Tests for `rcache-sim doctor`: the read-only claim-directory audit
 * must classify unit states, read committed unit CSVs back against
 * the manifest's scenario, inventory crash debris, audit decision
 * logs, and exit 0 only on a directory a rerun can safely continue
 * (2 on anything needing a human).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "runner/claim.hh"
#include "search/adaptive_search.hh"
#include "search/doctor.hh"
#include "search/sweep_merge.hh"

namespace rcache
{

namespace
{

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
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
spill(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
    ASSERT_TRUE(os) << path;
}

ScenarioSpec
sweepSpec()
{
    std::string err;
    const auto spec = ScenarioSpec::parseText(R"([scenario]
name = doctor-test
insts = 20000

[workloads]
apps = ammp,gcc

[axes]
assoc = 2,4
org = ways,sets

[engine]
mode = analytic

[search]
strategy = static
side = dcache
)",
                                              "doctor-test.scn",
                                              &err);
    EXPECT_TRUE(spec) << err;
    return *spec;
}

ScenarioSpec
tuneSpec()
{
    std::string err;
    const auto spec = ScenarioSpec::parseText(R"([scenario]
name = doctor-tune
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
                                              "doctor-tune.scn",
                                              &err);
    EXPECT_TRUE(spec) << err;
    return *spec;
}

/** Drain a 2-shard sweep into @p dir and return it. */
std::string
drainedSweepDir(const std::string &name)
{
    const std::string dir = freshDir(name);
    ClaimSweepOptions opt;
    opt.dir = dir;
    opt.shards = 2;
    opt.quiet = true;
    EXPECT_EQ(runClaimSweep(sweepSpec(), opt), 0);
    return dir;
}

/** runDoctor into a string; @p rc receives the verdict. */
std::string
doctorReport(const std::string &dir, const DoctorOptions &opt,
             int *rc)
{
    std::ostringstream out;
    *rc = runDoctor(dir, opt, out);
    return out.str();
}

} // namespace

TEST(DoctorTest, DrainedSweepDirIsConsistent)
{
    const std::string dir = drainedSweepDir("doctor_ok");
    int rc = -1;
    const std::string report = doctorReport(dir, {}, &rc);
    EXPECT_EQ(rc, 0) << report;
    EXPECT_NE(report.find("(sweep, 2 shard(s))"), std::string::npos)
        << report;
    EXPECT_NE(report.find("shard_0: done"), std::string::npos);
    EXPECT_NE(report.find("shard_1: done"), std::string::npos);
    EXPECT_NE(report.find("2 done, 0 claimed, 0 stale, 0 unclaimed "
                          "of 2"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("verdict: consistent"), std::string::npos);
}

TEST(DoctorTest, MissingOrDamagedManifestIsInconsistent)
{
    int rc = -1;
    std::string report =
        doctorReport(freshDir("doctor_absent"), {}, &rc);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(report.find("PROBLEM"), std::string::npos) << report;

    const std::string dir = freshDir("doctor_badmeta");
    std::filesystem::create_directories(dir);
    spill(dir + "/MANIFEST.scn", "[scenario]\nname = x\n");
    spill(dir + "/MANIFEST.meta", "garbage!");
    report = doctorReport(dir, {}, &rc);
    EXPECT_EQ(rc, 2);
    // The damaged-manifest report names the recovery procedure.
    EXPECT_NE(report.find("quarantine"), std::string::npos)
        << report;
}

TEST(DoctorTest, DoneWithoutReadableCsvIsInconsistent)
{
    const std::string dir = drainedSweepDir("doctor_gone_csv");
    std::filesystem::remove(dir + "/shard_0.csv");
    int rc = -1;
    const std::string report = doctorReport(dir, {}, &rc);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(report.find("marked done but"), std::string::npos)
        << report;
    EXPECT_NE(report.find("INCONSISTENT (1 problem(s))"),
              std::string::npos)
        << report;
}

TEST(DoctorTest, DamagedCommittedCsvIsInconsistent)
{
    const std::string dir = drainedSweepDir("doctor_bad_csv");
    spill(dir + "/shard_1.csv", "definitely,not\na sweep csv\n");
    int rc = -1;
    const std::string report = doctorReport(dir, {}, &rc);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(report.find("csv DAMAGED"), std::string::npos)
        << report;
}

TEST(DoctorTest, EditedUnitRowsAreProblems)
{
    // A sweep unit reads back against its range of the cells: row 0
    // of shard_0 is cell 0, ammp's.
    const std::string dir = drainedSweepDir("doctor_edited_sweep");
    int rc = -1;
    std::string report = doctorReport(dir, {}, &rc);
    ASSERT_EQ(rc, 0) << report;
    std::string csv = slurpFile(dir + "/shard_0.csv");
    std::size_t at = csv.find("\n0,ammp,");
    ASSERT_NE(at, std::string::npos);
    spill(dir + "/shard_0.csv", csv.replace(at, 8, "\n0,gcc,"));
    report = doctorReport(dir, {}, &rc);
    EXPECT_EQ(rc, 2) << report;
    EXPECT_NE(report.find("PROBLEM: " + dir +
                          "/shard_0.csv:2: cell 0: app 'gcc' where this "
                          "scenario has 'ammp'"),
              std::string::npos)
        << report;

    // Each row of a tune unit reads back against its own cell at the
    // unit's rung: round 1 runs at full detail.
    const std::string tdir = freshDir("doctor_edited_tune");
    TuneOptions opt;
    opt.quiet = true;
    opt.emitOutputs = false;
    opt.claimDir = tdir;
    opt.shards = 2;
    ASSERT_EQ(runAdaptiveSearch(tuneSpec(), opt, nullptr), 0);
    report = doctorReport(tdir, {}, &rc);
    ASSERT_EQ(rc, 0) << report;
    csv = slurpFile(tdir + "/r1_s0.csv");
    at = csv.find(",full,");
    ASSERT_NE(at, std::string::npos);
    spill(tdir + "/r1_s0.csv", csv.replace(at, 6, ",sampled,"));
    report = doctorReport(tdir, {}, &rc);
    EXPECT_EQ(rc, 2) << report;
    EXPECT_NE(report.find("r1_s0.csv:2: cell "), std::string::npos)
        << report;
    EXPECT_NE(report.find("engine 'sampled' where this scenario has "
                          "'full'"),
              std::string::npos)
        << report;
}

TEST(DoctorTest, LeaseStatesAndDebrisNotes)
{
    const std::string dir = freshDir("doctor_states");
    ManifestInfo info;
    info.mode = "sweep";
    info.shards = 3;
    info.scenarioText = sweepSpec().printToString();
    std::string err;
    ASSERT_TRUE(writeManifest(dir, info, &err)) << err;

    // shard_0 live, shard_1 stale, shard_2 unclaimed.
    const ClaimDir claims(dir, 300);
    ASSERT_TRUE(claims.tryClaim("shard_0"));
    ASSERT_TRUE(claims.tryClaim("shard_1"));
    std::filesystem::last_write_time(
        dir + "/shard_1.lease",
        std::filesystem::file_time_type::clock::now() -
            std::chrono::hours(2));
    // Crash debris: an orphan tmp and a renamed-aside file.
    spill(dir + "/shard_0.csv.tmp.12345", "partial");
    spill(dir + "/shard_1.lease.stale.99", "old");

    int rc = -1;
    const std::string report = doctorReport(dir, {}, &rc);
    // Unfinished but consistent: that is what reruns are for.
    EXPECT_EQ(rc, 0) << report;
    EXPECT_NE(report.find("shard_0: claimed (lease live)"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("shard_1: stale (takeover-able)"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("shard_2: unclaimed"), std::string::npos)
        << report;
    EXPECT_NE(report.find("0 done, 1 claimed, 1 stale, 1 unclaimed "
                          "of 3"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("orphan tmp"), std::string::npos);
    EXPECT_NE(report.find("renamed-aside"), std::string::npos);

    // The doctor's staleness clock honors --lease-timeout: with a
    // huge timeout the aged lease counts as live again.
    DoctorOptions lenient;
    lenient.leaseTimeoutSecs = 3600u * 24 * 365;
    const std::string report2 = doctorReport(dir, lenient, &rc);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(report2.find("0 done, 2 claimed, 0 stale"),
              std::string::npos)
        << report2;
}

TEST(DoctorTest, TuneUnitsEnumeratedFromDirectory)
{
    const std::string dir = freshDir("doctor_tune");
    TuneOptions opt;
    opt.quiet = true;
    opt.emitOutputs = false;
    opt.claimDir = dir;
    opt.shards = 2;
    ASSERT_EQ(runAdaptiveSearch(tuneSpec(), opt, nullptr), 0);

    int rc = -1;
    const std::string report = doctorReport(dir, {}, &rc);
    EXPECT_EQ(rc, 0) << report;
    EXPECT_NE(report.find("(tune, 2 shard(s))"), std::string::npos)
        << report;
    // Tune units are discovered from the directory, round by shard.
    EXPECT_NE(report.find("r0_s0: done"), std::string::npos)
        << report;
    EXPECT_NE(report.find("r0_s1: done"), std::string::npos);
    EXPECT_NE(report.find("r1_s0: done"), std::string::npos);
    EXPECT_NE(report.find("verdict: consistent"), std::string::npos);

    // A unit file whose round or shard does not fit 64 bits is no
    // name a worker writes: a problem, not a crash.
    for (const std::string name : {"r99999999999999999999999_s0.lease",
                                   "r0_s18446744073709551616.csv"}) {
        SCOPED_TRACE(name);
        spill(dir + "/" + name, "");
        const std::string bad = doctorReport(dir, {}, &rc);
        EXPECT_EQ(rc, 2) << bad;
        EXPECT_NE(bad.find("PROBLEM: '" + dir + "/" + name +
                           "': unit number out of range"),
                  std::string::npos)
            << bad;
        EXPECT_NE(bad.find("r1_s0: done"), std::string::npos) << bad;
        std::filesystem::remove(dir + "/" + name);
    }
}

TEST(DoctorTest, TuneLogIsHeldToThePromotionRule)
{
    // On a tune manifest, doctor --log replays the log's rounds
    // through the promotion rule, as tune --resume does. Editing one
    // round-0 best_edp of the golden log ranks cell 2 first, so round
    // 1 holds other candidates than the rule promotes, though every
    // line stays in the writer's order.
    const std::string golden =
        std::string(RCACHE_TEST_DATA_DIR) + "/../golden/";
    std::string err;
    const auto spec =
        ScenarioSpec::parseFile(golden + "tune_cores_micro.scn", &err);
    ASSERT_TRUE(spec) << err;
    const std::string dir = freshDir("doctor_tune_log");
    ManifestInfo info;
    info.mode = "tune";
    info.shards = 1;
    info.scenarioText = spec->printToString();
    ASSERT_TRUE(writeManifest(dir, info, &err)) << err;

    DoctorOptions opt;
    opt.logPath = golden + "tune_cores_micro.log.golden.jsonl";
    int rc = -1;
    std::string report = doctorReport(dir, opt, &rc);
    EXPECT_EQ(rc, 0) << report;
    EXPECT_NE(report.find("intact line(s)"), std::string::npos) << report;

    std::string log = slurpFile(opt.logPath);
    const std::string row = "2,swim,sets,static,dcache,strategy=static,0,"
                            "0,0,0,-0.07792347658546195,0,0,"
                            "875396671055.7761,";
    const std::size_t at = log.find(row + "876078810575.7761,");
    ASSERT_NE(at, std::string::npos);
    log.replace(at + row.size(), 1, "7");
    opt.logPath = pathIn("doctor_edited_tune.log");
    spill(opt.logPath, log);
    report = doctorReport(dir, opt, &rc);
    EXPECT_EQ(rc, 2) << report;
    EXPECT_NE(report.find("PROBLEM: decision log '" + opt.logPath +
                          "': round 1 candidates do not match"),
              std::string::npos)
        << report;
}

TEST(DoctorTest, DecisionLogAudit)
{
    const std::string dir = drainedSweepDir("doctor_log");
    TuneOptions topt;
    topt.quiet = true;
    topt.outPath = pathIn("doctor_tune_out.csv");
    topt.logPath = pathIn("doctor_tune_audit.log");
    ASSERT_EQ(runAdaptiveSearch(tuneSpec(), topt, nullptr), 0);

    DoctorOptions opt;
    opt.logPath = topt.logPath;
    int rc = -1;
    std::string report = doctorReport(dir, opt, &rc);
    EXPECT_EQ(rc, 0) << report;
    EXPECT_NE(report.find("intact line(s)"), std::string::npos)
        << report;

    // A torn tail is a note (resume handles it), damaged committed
    // lines and an unreadable log are problems.
    const std::string log = topt.logPath;
    std::ifstream in(log, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string full = buf.str();
    spill(pathIn("doctor_torn.log"),
          full.substr(0, full.size() - 3));
    opt.logPath = pathIn("doctor_torn.log");
    report = doctorReport(dir, opt, &rc);
    EXPECT_EQ(rc, 0) << report;
    EXPECT_NE(report.find("torn final line"), std::string::npos)
        << report;

    spill(pathIn("doctor_garbage.log"), "not json\nat all\n");
    opt.logPath = pathIn("doctor_garbage.log");
    report = doctorReport(dir, opt, &rc);
    EXPECT_EQ(rc, 2);

    // The log is read as tune --resume reads it: a line out of the
    // writer's order (a score line twice) is a problem, while a log
    // cut at a line boundary inside a round is a crash's cut.
    const std::size_t score = full.find("{\"event\":\"score\"");
    ASSERT_NE(score, std::string::npos);
    const std::size_t score_end = full.find('\n', score) + 1;
    spill(pathIn("doctor_dup.log"),
          full.substr(0, score_end) +
              full.substr(score, score_end - score) +
              full.substr(score_end));
    opt.logPath = pathIn("doctor_dup.log");
    report = doctorReport(dir, opt, &rc);
    EXPECT_EQ(rc, 2) << report;
    EXPECT_NE(report.find("PROBLEM: decision log"), std::string::npos)
        << report;
    EXPECT_NE(report.find("more scores than"), std::string::npos)
        << report;
    spill(pathIn("doctor_cut.log"), full.substr(0, score_end));
    opt.logPath = pathIn("doctor_cut.log");
    report = doctorReport(dir, opt, &rc);
    EXPECT_EQ(rc, 0) << report;

    opt.logPath = pathIn("doctor_no_such.log");
    report = doctorReport(dir, opt, &rc);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(report.find("cannot read decision log"),
              std::string::npos)
        << report;
}

} // namespace rcache
