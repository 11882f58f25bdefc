/** @file
 * Tests for the adaptive design-space autotuner: the winner property
 * against an exhaustive sweep (with a near-tie gate), decision-log
 * byte-identity across --jobs, resume identity, early exit, and the
 * promotion arithmetic surfaced through the log.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "scenario/scenario_sweep.hh"
#include "search/adaptive_search.hh"
#include "search/decision_log.hh"
#include "sim/report.hh"

namespace rcache
{

namespace
{

ScenarioSpec
parseSpec(const std::string &text)
{
    std::string err;
    const auto spec =
        ScenarioSpec::parseText(text, "adaptive-test.scn", &err);
    EXPECT_TRUE(spec) << err;
    return *spec;
}

/** 2 apps x assoc x org = 8 cells, short runs, 2-rung ladder. */
ScenarioSpec
microSpec()
{
    return parseSpec(R"([scenario]
name = tune-micro
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
)");
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

/** The tuner's objective, recomputed from a sweep record. */
double
scoreOf(const SweepRecord &r)
{
    return r.baselineEdp > 0
               ? r.bestEdp / r.baselineEdp
               : std::numeric_limits<double>::max();
}

/** Exhaustive sweep of @p spec, records in cell order. */
std::vector<SweepRecord>
exhaustiveRecords(const ScenarioSpec &spec, const std::string &tag)
{
    SweepOptions so;
    so.outPath = pathIn(tag + ".csv");
    so.quiet = true;
    EXPECT_EQ(runScenarioSweep(spec, so), 0);
    std::ifstream in(so.outPath, std::ios::binary);
    std::string err;
    const auto records = readSweepCsv(in, &err);
    EXPECT_TRUE(records) << err;
    return *records;
}

TuneOptions
quietTune()
{
    TuneOptions opt;
    opt.quiet = true;
    opt.emitOutputs = false;
    return opt;
}

} // namespace

TEST(AdaptiveSearchTest, WinnerMatchesExhaustiveSweep)
{
    const ScenarioSpec spec = microSpec();

    // The ground truth: every cell at full detail, ranked by the
    // tuner's own objective with its own tie-break.
    const auto records = exhaustiveRecords(spec, "adaptive_exh");
    std::vector<std::size_t> order(records.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const double sa = scoreOf(records[a]);
                  const double sb = scoreOf(records[b]);
                  if (sa != sb)
                      return sa < sb;
                  return records[a].cell < records[b].cell;
              });
    const double best = scoreOf(records[order[0]]);

    TuneStats stats;
    ASSERT_EQ(runAdaptiveSearch(spec, quietTune(), &stats), 0);
    EXPECT_EQ(stats.cells, records.size());
    EXPECT_LT(stats.detailedInsts, stats.exhaustiveDetailedInsts);

    // Near-tie gate: the adaptive winner must be the exhaustive
    // winner outright, unless the runner-up is within 0.1% relative
    // E.D — then any member of the tied set is a correct answer
    // (the paper's own figure treats such cells as equivalent).
    std::vector<std::uint64_t> acceptable;
    for (const std::size_t i : order)
        if (scoreOf(records[i]) <= best * 1.001)
            acceptable.push_back(records[i].cell);
    EXPECT_TRUE(std::find(acceptable.begin(), acceptable.end(),
                          stats.winner.cell) != acceptable.end())
        << "adaptive winner " << stats.winner.cell
        << " not in the exhaustive near-tie set";
    if (acceptable.size() == 1)
        EXPECT_EQ(stats.winner.cell, records[order[0]].cell);

    // The winner's record was produced at the final (full-detail)
    // rung, so when the cells agree the rows must be identical to
    // the exhaustive sweep's — byte for byte through the CSV writer.
    if (stats.winner.cell == records[order[0]].cell) {
        std::ostringstream a, b;
        writeSweepCsvRows(a, {stats.winner});
        writeSweepCsvRows(b, {records[order[0]]});
        EXPECT_EQ(a.str(), b.str());
    }
}

TEST(AdaptiveSearchTest, DecisionLogByteIdenticalAcrossJobs)
{
    const ScenarioSpec spec = microSpec();

    TuneOptions opt = quietTune();
    opt.emitOutputs = true;
    opt.outPath = pathIn("adaptive_j1.csv");
    opt.logPath = pathIn("adaptive_j1.log");
    opt.jobs = 1;
    TuneStats s1;
    ASSERT_EQ(runAdaptiveSearch(spec, opt, &s1), 0);

    opt.outPath = pathIn("adaptive_j4.csv");
    opt.logPath = pathIn("adaptive_j4.log");
    opt.jobs = 4;
    TuneStats s4;
    ASSERT_EQ(runAdaptiveSearch(spec, opt, &s4), 0);

    EXPECT_EQ(s1.logText, s4.logText);
    EXPECT_EQ(slurp(pathIn("adaptive_j1.log")),
              slurp(pathIn("adaptive_j4.log")));
    EXPECT_EQ(slurp(pathIn("adaptive_j1.csv")),
              slurp(pathIn("adaptive_j4.csv")));
    EXPECT_FALSE(s1.logText.empty());
}

TEST(AdaptiveSearchTest, ResumeRegeneratesIdenticalLog)
{
    const ScenarioSpec spec = microSpec();

    TuneOptions opt = quietTune();
    opt.emitOutputs = true;
    opt.outPath = pathIn("adaptive_resume_ref.csv");
    opt.logPath = pathIn("adaptive_resume_ref.log");
    TuneStats ref;
    ASSERT_EQ(runAdaptiveSearch(spec, opt, &ref), 0);
    const std::string full_log = slurp(opt.logPath);

    // Truncate the log at every line boundary; each prefix must
    // resume into a byte-identical log and the same winner —
    // complete rounds are adopted, incomplete ones re-run.
    std::vector<std::string> lines;
    std::istringstream is(full_log);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    ASSERT_GT(lines.size(), 3u);

    for (std::size_t keep = 1; keep < lines.size(); ++keep) {
        const std::string prefix_path =
            pathIn("adaptive_resume_prefix.log");
        std::ofstream prefix(prefix_path,
                             std::ios::binary | std::ios::trunc);
        for (std::size_t i = 0; i < keep; ++i)
            prefix << lines[i] << '\n';
        prefix.close();

        TuneOptions ropt = quietTune();
        ropt.emitOutputs = true;
        ropt.outPath = pathIn("adaptive_resume_out.csv");
        ropt.logPath = pathIn("adaptive_resume_out.log");
        ropt.resumePath = prefix_path;
        TuneStats rs;
        ASSERT_EQ(runAdaptiveSearch(spec, ropt, &rs), 0)
            << "resume from a " << keep << "-line prefix";
        EXPECT_EQ(slurp(ropt.logPath), full_log)
            << "resume from a " << keep << "-line prefix";
        EXPECT_EQ(rs.winner.cell, ref.winner.cell);
        EXPECT_EQ(slurp(ropt.outPath),
                  slurp(pathIn("adaptive_resume_ref.csv")));
    }

    // A foreign plan line is a hard error, not a silent restart.
    const std::string bad_path = pathIn("adaptive_resume_bad.log");
    std::ofstream bad(bad_path, std::ios::binary | std::ios::trunc);
    bad << "{\"schema\":\"rcache-tune-v1\",\"scenario\":\"other\"}\n";
    bad.close();
    TuneOptions bopt = quietTune();
    bopt.resumePath = bad_path;
    EXPECT_NE(runAdaptiveSearch(spec, bopt, nullptr), 0);

    // So is a log whose rows are another enumeration's cells under the
    // same plan line (the apps swapped), before anything is written:
    // the log stays as it was, even as its own --log, and nothing is
    // moved aside.
    ScenarioSpec swapped = spec;
    swapped.apps = {"m88ksim", "gcc"};
    const std::string dir = pathIn("adaptive_resume_swapped");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string swapped_path = dir + "/resume.log";
    std::filesystem::copy_file(pathIn("adaptive_resume_ref.log"),
                               swapped_path);
    bopt.emitOutputs = true;
    bopt.resumePath = swapped_path;
    bopt.logPath = swapped_path;
    bopt.outPath = dir + "/winner.csv";
    testing::internal::CaptureStderr();
    EXPECT_NE(runAdaptiveSearch(swapped, bopt, nullptr), 0);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("app 'gcc' where this scenario has 'm88ksim'"),
              std::string::npos)
        << err;
    EXPECT_EQ(slurp(swapped_path), full_log);
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator()),
              1);
}

TEST(AdaptiveSearchTest, QuotedNamesSurviveTheDecisionLog)
{
    // The plan line carries the scenario name as written; a quote in
    // it must be escaped, or the tuner's own reader rejects the log.
    const std::string name = "my \"best\" tune";
    std::istringstream plan(tunePlanLine(name, 1, 1, 1, 1, "full", "0.5",
                                         1, 0, 0) +
                            "\n");
    std::string err;
    const auto lines = readDecisionLog(plan, &err);
    ASSERT_TRUE(lines) << err;
    EXPECT_EQ((*lines)[0].get("scenario"), name);

    // ...so resuming a complete log replays it: no quarantine, the
    // same log bytes, the same winner.
    std::string text = microSpec().printToString();
    const std::string micro_name = "name = tune-micro";
    text.replace(text.find(micro_name), micro_name.size(),
                 "name = " + name);
    const ScenarioSpec spec = parseSpec(text);
    ASSERT_EQ(spec.name, name);
    const std::string dir = pathIn("adaptive_quoted");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    TuneOptions opt = quietTune();
    opt.emitOutputs = true;
    opt.outPath = dir + "/ref.csv";
    opt.logPath = dir + "/ref.log";
    TuneStats ref;
    ASSERT_EQ(runAdaptiveSearch(spec, opt, &ref), 0);

    TuneOptions ropt = opt;
    ropt.outPath = dir + "/resumed.csv";
    ropt.logPath = dir + "/resumed.log";
    ropt.resumePath = opt.logPath;
    TuneStats rs;
    ASSERT_EQ(runAdaptiveSearch(spec, ropt, &rs), 0);
    EXPECT_EQ(slurp(ropt.logPath), slurp(opt.logPath));
    EXPECT_EQ(slurp(ropt.outPath), slurp(opt.outPath));
    EXPECT_EQ(rs.winner.cell, ref.winner.cell);
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(entry.path().filename().string().find(".corrupt."),
                  std::string::npos)
            << entry.path();
}

TEST(AdaptiveSearchTest, RankAgreementExitsEarly)
{
    // Three rungs; the analytic and sampled rounds agree on the
    // top-3 for this grid, so the full-detail round never runs.
    const ScenarioSpec spec = parseSpec(R"([scenario]
name = tune-early
insts = 120000

[workloads]
apps = gcc,swim,m88ksim

[axes]
assoc = 2,4,8
org = ways,sets

[search]
strategy = static
side = dcache
mode = adaptive
ladder = analytic,sampled,full
promote = 0.5
rank-agree = 3
sample-interval = 30000
)");

    TuneStats stats;
    ASSERT_EQ(runAdaptiveSearch(spec, quietTune(), &stats), 0);
    EXPECT_TRUE(stats.earlyExit);
    EXPECT_LT(stats.rounds, 3u);
    EXPECT_NE(stats.logText.find("\"event\":\"early-exit\""),
              std::string::npos);
    // Skipping the full-detail round is where the >= 5x budget
    // reduction comes from; pin it structurally.
    EXPECT_GE(stats.exhaustiveDetailedInsts,
              5 * stats.detailedInsts);
}

TEST(AdaptiveSearchTest, DetailedInstsCountEveryCore)
{
    // A job on C cores measures C instruction streams, so the tuner
    // charges it C times the per-core detailed instructions, phase-2
    // (side=both) jobs included: the same grid on two cores costs
    // exactly twice the one-core work.
    const auto tune = [](unsigned cores, double promote) {
        ScenarioSpec spec = parseSpec(R"([scenario]
name = tune-cores
insts = 40000

[workloads]
apps = gcc

[axes]
org = ways,sets
side = dcache,both

[search]
strategy = static
mode = adaptive
ladder = sampled,full
min-survivors = 1
sample-interval = 20000
)");
        spec.system.cores = cores;
        spec.search.adaptive.promote = {promote};
        TuneStats stats;
        EXPECT_EQ(runAdaptiveSearch(spec, quietTune(), &stats), 0);
        return stats;
    };
    const TuneStats one = tune(1, 0.5);
    const TuneStats two = tune(2, 0.5);
    EXPECT_GT(one.exhaustiveDetailedInsts, 0u);
    EXPECT_EQ(two.exhaustiveDetailedInsts,
              2 * one.exhaustiveDetailedInsts);

    // With every cell promoted both schedules run the same jobs.
    const TuneStats one_all = tune(1, 1.0);
    const TuneStats two_all = tune(2, 1.0);
    EXPECT_EQ(two_all.detailedInsts, 2 * one_all.detailedInsts);
}

TEST(AdaptiveSearchTest, PromotionHonorsFractionAndFloor)
{
    // 8 cells at promote 0.5: ceil(0.5 * 8) = 4 survive round 0.
    TuneStats stats;
    ASSERT_EQ(runAdaptiveSearch(microSpec(), quietTune(), &stats),
              0);
    EXPECT_NE(stats.logText.find("\"keep\":4,\"dropped\":4"),
              std::string::npos)
        << stats.logText;

    // A tiny fraction bottoms out at min-survivors, never below.
    ScenarioSpec floor_spec = microSpec();
    floor_spec.search.adaptive.promote = {0.01};
    TuneStats floor_stats;
    ASSERT_EQ(
        runAdaptiveSearch(floor_spec, quietTune(), &floor_stats), 0);
    EXPECT_NE(
        floor_stats.logText.find("\"keep\":2,\"dropped\":6"),
        std::string::npos)
        << floor_stats.logText;
}

TEST(AdaptiveSearchTest, RejectsNonAdaptiveAndBadAxes)
{
    // Exhaustive scenarios are a sweep's job.
    ScenarioSpec exhaustive = microSpec();
    exhaustive.search.mode = SearchMode::Exhaustive;
    EXPECT_NE(runAdaptiveSearch(exhaustive, quietTune(), nullptr),
              0);

    // The tuner owns the fidelity ladder; a sample.interval axis
    // would fight it.
    ScenarioSpec axis_spec = microSpec();
    axis_spec.axes.push_back(Axis{"sample.interval", {"10000"}});
    EXPECT_NE(runAdaptiveSearch(axis_spec, quietTune(), nullptr), 0);

    // Resume and claim cannot both drive allocation.
    TuneOptions both = quietTune();
    both.resumePath = pathIn("nope.log");
    both.claimDir = pathIn("nope.claim");
    EXPECT_NE(runAdaptiveSearch(microSpec(), both, nullptr), 0);
}

} // namespace rcache
