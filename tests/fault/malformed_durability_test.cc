/** @file
 * Malformed-durability corpus: every torn, truncated, or garbage
 * on-disk artifact a crash can leave behind must be *detected*,
 * reported in one line, quarantined aside (never destroyed), and
 * recovered from — with the recovered output byte-identical to an
 * undisturbed run. Covers manifests, leases, sweep-CSV resume tails
 * torn at every byte offset, decision-log mid-record tails, and
 * decision logs whose lines break the writer's grammar (told apart
 * from logs cut at a line boundary, which are a crash's and resume
 * without an aside).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runner/claim.hh"
#include "scenario/scenario_sweep.hh"
#include "search/adaptive_search.hh"

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
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spill(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
    ASSERT_TRUE(os) << path;
}

/** Files in @p dir whose name contains @p needle. */
std::size_t
countContaining(const std::string &dir, const std::string &needle)
{
    std::size_t n = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().filename().string().find(needle) !=
            std::string::npos)
            ++n;
    return n;
}

/** Tiny analytic sweep: cheap enough to rerun per torn byte. */
ScenarioSpec
analyticSpec()
{
    std::string err;
    const auto spec = ScenarioSpec::parseText(R"([scenario]
name = fault-corpus
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
                                              "fault-corpus.scn",
                                              &err);
    EXPECT_TRUE(spec) << err;
    return *spec;
}

ScenarioSpec
tuneSpec()
{
    std::string err;
    const auto spec = ScenarioSpec::parseText(R"([scenario]
name = fault-tune
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
                                              "fault-tune.scn",
                                              &err);
    EXPECT_TRUE(spec) << err;
    return *spec;
}

} // namespace

TEST(MalformedDurabilityTest, ManifestDamageCorpus)
{
    // Every damaged-meta shape is detected, flagged corrupt (unlike
    // a merely absent manifest), and diagnosed in one line.
    const struct
    {
        const char *what;
        const char *meta;
        const char *needle;
    } corpus[] = {
        {"binary garbage", "\x7f\x45\x4c\x46\x01\x01", "malformed"},
        {"torn mid-value", "mode = swe", "unknown manifest mode"},
        {"torn mid-key", "mod", "malformed line"},
        {"unknown key", "mode = sweep\nfrobs = 2\n",
         "unknown manifest key 'frobs'"},
        {"zero shards", "mode = sweep\nshards = 0\n",
         "shards wants 1..4096"},
        {"junk shards", "mode = sweep\nshards = lots\n",
         "shards wants 1..4096"},
        {"missing shard count", "mode = sweep\n",
         "missing a shard count"},
    };
    for (const auto &c : corpus) {
        const std::string dir =
            freshDir(std::string("mf_corpus_") +
                     std::to_string(&c - corpus));
        std::filesystem::create_directories(dir);
        spill(dir + "/MANIFEST.scn", "[scenario]\nname = x\n");
        spill(dir + "/MANIFEST.meta", c.meta);
        std::string err;
        bool corrupt = false;
        EXPECT_FALSE(readManifest(dir, &err, &corrupt)) << c.what;
        EXPECT_TRUE(corrupt) << c.what << ": " << err;
        EXPECT_NE(err.find(c.needle), std::string::npos)
            << c.what << ": " << err;
        EXPECT_EQ(err.find('\n'), std::string::npos)
            << c.what << " diagnostic must be one line: " << err;
    }

    // Meta intact but the scenario text gone: also corrupt.
    const std::string noscn = freshDir("mf_noscn");
    std::filesystem::create_directories(noscn);
    spill(noscn + "/MANIFEST.meta", "mode = sweep\nshards = 2\n");
    std::string err;
    bool corrupt = false;
    EXPECT_FALSE(readManifest(noscn, &err, &corrupt));
    EXPECT_TRUE(corrupt);
    EXPECT_NE(err.find("MANIFEST.scn"), std::string::npos) << err;

    // An absent manifest is NOT corrupt — there is nothing to
    // quarantine, only something to create.
    EXPECT_FALSE(readManifest(freshDir("mf_absent"), &err, &corrupt));
    EXPECT_FALSE(corrupt);
}

TEST(MalformedDurabilityTest, QuarantineKeepsEvidenceAndUnblocks)
{
    const std::string dir = freshDir("mf_quarantine");
    std::filesystem::create_directories(dir);
    spill(dir + "/MANIFEST.scn", "[scenario]\nname = x\n");
    spill(dir + "/MANIFEST.meta", "garbage!");

    std::string err;
    ASSERT_TRUE(quarantineManifest(dir, &err)) << err;
    // The damaged bytes survive under .corrupt.<ts>; the slot is
    // free for a fresh manifest.
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/MANIFEST.meta"));
    EXPECT_EQ(countContaining(dir, "MANIFEST.meta.corrupt."), 1u);

    ManifestInfo info;
    info.mode = "sweep";
    info.shards = 2;
    info.scenarioText = "[scenario]\nname = x\n";
    ASSERT_TRUE(writeManifest(dir, info, &err)) << err;
    bool corrupt = true;
    const auto back = readManifest(dir, &err, &corrupt);
    ASSERT_TRUE(back) << err;
    EXPECT_FALSE(corrupt);
    EXPECT_EQ(back->shards, 2u);
}

TEST(MalformedDurabilityTest, GarbageLeaseNeverWronglyReleased)
{
    const std::string dir = freshDir("mf_lease");
    std::filesystem::create_directories(dir);
    const ClaimDir claims(dir, 300);

    // A fresh lease with garbage (or truncated) content still
    // excludes claimants — content is only consulted on release.
    spill(dir + "/u0.lease", "\xff\xfenot a pid");
    EXPECT_FALSE(claims.tryClaim("u0"));
    // release() must refuse a lease that does not carry our pid: a
    // takeover may own the name now.
    EXPECT_FALSE(claims.release("u0"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/u0.lease"));

    // Aged past the timeout it is taken over like any stale lease,
    // with the damaged bytes renamed aside as evidence.
    std::filesystem::last_write_time(
        dir + "/u0.lease",
        std::filesystem::file_time_type::clock::now() -
            std::chrono::hours(2));
    EXPECT_TRUE(claims.tryClaim("u0"));
    EXPECT_EQ(countContaining(dir, "u0.lease.stale."), 1u);

    // Our own (well-formed) lease releases cleanly.
    EXPECT_TRUE(claims.release("u0"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/u0.lease"));
}

TEST(MalformedDurabilityTest, CsvFinalLineTornAtEveryByteOffset)
{
    const ScenarioSpec spec = analyticSpec();

    SweepOptions ref_opt;
    ref_opt.quiet = true;
    ref_opt.outPath = pathIn("mf_csv_ref.csv");
    ASSERT_EQ(runScenarioSweep(spec, ref_opt), 0);
    const std::string ref = slurp(ref_opt.outPath);
    ASSERT_FALSE(ref.empty());
    ASSERT_EQ(ref.back(), '\n');

    // Last committed line (there are >= header + 2 rows).
    const std::size_t last_nl = ref.rfind('\n', ref.size() - 2);
    ASSERT_NE(last_nl, std::string::npos);
    const std::size_t row_start = last_nl + 1;

    // Tear the final row at every byte offset — from "row entirely
    // missing" through "all but the trailing newline present". Every
    // prefix must resume to the byte-identical CSV: complete lines
    // adopted, the torn tail silently dropped and recomputed.
    for (std::size_t cut = row_start; cut < ref.size(); ++cut) {
        const std::string torn_path = pathIn("mf_csv_torn.csv");
        spill(torn_path, ref.substr(0, cut));
        SweepOptions opt;
        opt.quiet = true;
        opt.resumePath = torn_path;
        ASSERT_EQ(runScenarioSweep(spec, opt), 0)
            << "torn at byte " << cut;
        EXPECT_EQ(slurp(torn_path), ref) << "torn at byte " << cut;
    }
}

TEST(MalformedDurabilityTest, GarbageResumeCsvQuarantinedAndRedone)
{
    const ScenarioSpec spec = analyticSpec();

    SweepOptions ref_opt;
    ref_opt.quiet = true;
    ref_opt.outPath = pathIn("mf_csv_ref2.csv");
    ASSERT_EQ(runScenarioSweep(spec, ref_opt), 0);
    const std::string ref = slurp(ref_opt.outPath);

    // A resume file whose *committed* part is unparsable (bad
    // header) cannot be adopted: it is moved aside, not deleted, and
    // the sweep starts fresh to the identical bytes.
    const std::string dir = freshDir("mf_csv_garbage");
    std::filesystem::create_directories(dir);
    const std::string resume = dir + "/resume.csv";
    spill(resume, "this,is,not\na sweep csv\x01\n");
    SweepOptions opt;
    opt.quiet = true;
    opt.resumePath = resume;
    ASSERT_EQ(runScenarioSweep(spec, opt), 0);
    EXPECT_EQ(slurp(resume), ref);
    EXPECT_EQ(countContaining(dir, "resume.csv.corrupt."), 1u);
}

TEST(MalformedDurabilityTest, DecisionLogMidRecordTails)
{
    const ScenarioSpec spec = tuneSpec();

    TuneOptions ref_opt;
    ref_opt.quiet = true;
    ref_opt.outPath = pathIn("mf_tune_ref.csv");
    ref_opt.logPath = pathIn("mf_tune_ref.log");
    TuneStats ref;
    ASSERT_EQ(runAdaptiveSearch(spec, ref_opt, &ref), 0);
    const std::string full_log = slurp(ref_opt.logPath);

    // Line-boundary prefixes are pinned elsewhere
    // (AdaptiveSearchTest.ResumeRegeneratesIdenticalLog); here the
    // tail ends mid-record — the exact shape a crash during an
    // unflushed append leaves. The torn record is dropped, the
    // complete prefix adopted, and the regenerated log and winner
    // are byte-identical.
    std::vector<std::size_t> line_starts{0};
    for (std::size_t i = 0; i + 1 < full_log.size(); ++i)
        if (full_log[i] == '\n')
            line_starts.push_back(i + 1);
    ASSERT_GT(line_starts.size(), 3u);

    for (const std::size_t start : line_starts) {
        // Three tears per record: 1 byte in, mid-record, all but
        // the newline.
        const std::size_t end = full_log.find('\n', start);
        ASSERT_NE(end, std::string::npos);
        for (const std::size_t cut :
             {start + 1, (start + end) / 2, end}) {
            const std::string torn_path = pathIn("mf_tune_torn.log");
            spill(torn_path, full_log.substr(0, cut));
            TuneOptions opt;
            opt.quiet = true;
            opt.outPath = pathIn("mf_tune_out.csv");
            opt.logPath = pathIn("mf_tune_out.log");
            opt.resumePath = torn_path;
            TuneStats rs;
            ASSERT_EQ(runAdaptiveSearch(spec, opt, &rs), 0)
                << "torn at byte " << cut;
            EXPECT_EQ(slurp(opt.logPath), full_log)
                << "torn at byte " << cut;
            EXPECT_EQ(rs.winner.cell, ref.winner.cell);
        }
    }
}

TEST(MalformedDurabilityTest, GarbageDecisionLogQuarantined)
{
    const ScenarioSpec spec = tuneSpec();

    TuneOptions ref_opt;
    ref_opt.quiet = true;
    ref_opt.outPath = pathIn("mf_tune_ref2.csv");
    ref_opt.logPath = pathIn("mf_tune_ref2.log");
    ASSERT_EQ(runAdaptiveSearch(spec, ref_opt, nullptr), 0);
    const std::string full_log = slurp(ref_opt.logPath);

    // A log whose *committed* lines are garbage cannot be adopted:
    // quarantine aside, start fresh, finish identically.
    const std::string dir = freshDir("mf_log_garbage");
    std::filesystem::create_directories(dir);
    const std::string resume = dir + "/resume.log";
    spill(resume, "{\"schema\":\"rcache-tune-v1\"\nnot json at all\n");
    TuneOptions opt;
    opt.quiet = true;
    opt.outPath = pathIn("mf_tune_out2.csv");
    opt.logPath = pathIn("mf_tune_out2.log");
    opt.resumePath = resume;
    ASSERT_EQ(runAdaptiveSearch(spec, opt, nullptr), 0);
    EXPECT_EQ(slurp(opt.logPath), full_log);
    EXPECT_EQ(countContaining(dir, "resume.log.corrupt."), 1u);
}

namespace
{

/** The lines of @p text, without their newlines. */
std::vector<std::string>
linesOf(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string text;
    for (const std::string &line : lines)
        text += line + '\n';
    return text;
}

/** Index of the first line of @p lines that starts with @p prefix. */
std::size_t
lineStartingWith(const std::vector<std::string> &lines,
                 const std::string &prefix)
{
    for (std::size_t i = 0; i < lines.size(); ++i)
        if (lines[i].compare(0, prefix.size(), prefix) == 0)
            return i;
    ADD_FAILURE() << "no line starts with " << prefix;
    return 0;
}

/** Resume tuneSpec() from @p log_text in a fresh directory @p name.
 *  Expects exit 0 with the reference log and winner; @return the
 *  number of the log's corrupt asides there and the stderr text. */
std::pair<std::size_t, std::string>
resumeFrom(const std::string &name, const std::string &log_text,
           const std::string &ref_log, const std::string &ref_csv)
{
    const std::string dir = freshDir(name);
    std::filesystem::create_directories(dir);
    const std::string resume = dir + "/resume.log";
    spill(resume, log_text);
    TuneOptions opt;
    opt.quiet = true;
    opt.outPath = dir + "/out.csv";
    opt.logPath = dir + "/out.log";
    opt.resumePath = resume;
    testing::internal::CaptureStderr();
    const int rc = runAdaptiveSearch(tuneSpec(), opt, nullptr);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 0) << err;
    EXPECT_EQ(slurp(opt.logPath), ref_log);
    EXPECT_EQ(slurp(opt.outPath), ref_csv);
    return {countContaining(dir, "resume.log.corrupt."), err};
}

} // namespace

TEST(MalformedDurabilityTest, DecisionLogOutOfGrammarQuarantined)
{
    TuneOptions ref_opt;
    ref_opt.quiet = true;
    ref_opt.outPath = pathIn("mf_tune_ref3.csv");
    ref_opt.logPath = pathIn("mf_tune_ref3.log");
    ASSERT_EQ(runAdaptiveSearch(tuneSpec(), ref_opt, nullptr), 0);
    const std::string ref_log = slurp(ref_opt.logPath);
    const std::string ref_csv = slurp(ref_opt.outPath);
    const std::vector<std::string> lines = linesOf(ref_log);

    // Every line below is well-formed JSON, but not the line the
    // writer would have written there: damage, not a crash's cut. The
    // resume moves the log aside with its reason and starts fresh
    // (it used to re-run every round without a word).
    const std::size_t header0 =
        lineStartingWith(lines, "{\"event\":\"round\",\"round\":0,");
    const std::size_t promote0 =
        lineStartingWith(lines, "{\"event\":\"promote\",\"round\":0,");
    const std::size_t score1 =
        lineStartingWith(lines, "{\"event\":\"score\",\"round\":1,");
    const std::size_t winner =
        lineStartingWith(lines, "{\"event\":\"winner\",");
    ASSERT_EQ(header0, 1u);
    ASSERT_LT(header0 + 3, promote0);
    ASSERT_EQ(winner + 1, lines.size());
    const auto recount = [&](long delta) {
        std::vector<std::string> v = lines;
        const std::string declared =
            std::to_string(promote0 - header0 - 1);
        const std::string field = "\"candidates\":" + declared + "}";
        const std::size_t at = v[header0].find(field);
        EXPECT_NE(at, std::string::npos) << v[header0];
        v[header0].replace(
            at, field.size(),
            "\"candidates\":" +
                std::to_string(static_cast<long>(promote0 - header0 - 1) +
                               delta) +
                "}");
        return v;
    };
    struct Case
    {
        const char *what;
        std::vector<std::string> lines;
        const char *reason;
    };
    std::vector<Case> cases;
    {
        std::vector<std::string> v = lines;
        v.insert(v.begin() + header0 + 3, v[header0 + 3]);
        cases.push_back({"a duplicated score line", v, "more scores"});
    }
    cases.push_back(
        {"a header declaring one score too many", recount(1),
         "scores where round 0 declares"});
    cases.push_back(
        {"a header declaring one score too few", recount(-1), "more scores"});
    {
        std::vector<std::string> v = lines;
        const std::string from = "{\"event\":\"score\",\"round\":1,";
        v[score1].replace(0, from.size(),
                          "{\"event\":\"score\",\"round\":0,");
        cases.push_back(
            {"a score labelled with the wrong round", v, "a score of round"});
    }
    {
        std::vector<std::string> v = lines;
        const std::string cell0 = "\"cell\":0,", row0 = "\"row\":\"0,";
        std::string &score0 = v[header0 + 1];
        ASSERT_NE(score0.find(cell0), std::string::npos) << score0;
        ASSERT_NE(score0.find(row0), std::string::npos) << score0;
        score0.replace(score0.find(cell0), cell0.size(), "\"cell\":99,");
        score0.replace(score0.find(row0), row0.size(), "\"row\":\"99,");
        cases.push_back({"a score of a cell the plan does not have", v,
                         "cell 99 beyond the plan's 8 cells"});
    }
    {
        std::vector<std::string> v = lines;
        v.erase(v.begin() + promote0);
        cases.push_back({"a missing promote between two rounds", v,
                         "expected round 0's verdict"});
    }
    {
        std::vector<std::string> v = lines;
        v.push_back(v[promote0]);
        cases.push_back(
            {"a line after the winner", v, "a line after the winner"});
    }
    for (std::size_t c = 0; c < cases.size(); ++c) {
        SCOPED_TRACE(cases[c].what);
        const auto [asides, err] =
            resumeFrom("mf_log_grammar" + std::to_string(c),
                       joinLines(cases[c].lines), ref_log, ref_csv);
        EXPECT_EQ(asides, 1u);
        EXPECT_NE(err.find(cases[c].reason), std::string::npos) << err;
        EXPECT_NE(err.find("moved aside"), std::string::npos) << err;
    }
}

TEST(MalformedDurabilityTest, DecisionLogCutAtLineBoundaryLeavesNoAside)
{
    TuneOptions ref_opt;
    ref_opt.quiet = true;
    ref_opt.outPath = pathIn("mf_tune_ref4.csv");
    ref_opt.logPath = pathIn("mf_tune_ref4.log");
    ASSERT_EQ(runAdaptiveSearch(tuneSpec(), ref_opt, nullptr), 0);
    const std::string ref_log = slurp(ref_opt.logPath);
    const std::string ref_csv = slurp(ref_opt.outPath);
    const std::vector<std::string> lines = linesOf(ref_log);

    // A log that ends at a line boundary, inside a round or after a
    // verdict, is a crash's cut: its complete rounds are adopted, the
    // rest re-run, and nothing is moved aside.
    for (std::size_t keep = 0; keep <= lines.size(); ++keep) {
        SCOPED_TRACE(std::to_string(keep) + "-line prefix");
        const std::vector<std::string> prefix(lines.begin(),
                                              lines.begin() + keep);
        const auto [asides, err] = resumeFrom(
            "mf_log_cut", joinLines(prefix), ref_log, ref_csv);
        EXPECT_EQ(asides, 0u) << err;
        EXPECT_EQ(err.find("moved aside"), std::string::npos) << err;
    }
}

} // namespace rcache
