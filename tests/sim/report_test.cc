/** @file Tests for the run report formatting. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/report.hh"
#include "workload/profiles.hh"

namespace rcache
{

namespace
{

RunResult
sampleRun()
{
    SyntheticWorkload wl(profileByName("ammp"));
    System sys(SystemConfig::base());
    return sys.run(wl, 30000);
}

} // namespace

TEST(ReportTest, RunReportContainsKeyFields)
{
    RunResult r = sampleRun();
    std::ostringstream os;
    writeRunReport(os, r);
    const std::string s = os.str();
    EXPECT_NE(s.find("ammp"), std::string::npos);
    EXPECT_NE(s.find("IPC"), std::string::npos);
    EXPECT_NE(s.find("miss ratios"), std::string::npos);
    EXPECT_NE(s.find("energy-delay product"), std::string::npos);
    EXPECT_NE(s.find(std::to_string(r.cycles)), std::string::npos);
}

namespace
{

SweepRecord
sampleRecord()
{
    SweepRecord r;
    r.cell = 7;
    r.app = "ammp";
    r.org = "sets";
    r.strategy = "static";
    r.side = "dcache";
    r.axes = "assoc=4;org=sets";
    r.bestLevel = 3;
    r.edReductionPct = 12.5;
    r.perfDegradationPct = 0.5722431103582171;
    r.sizeReductionPct = 50.0;
    r.baselineEdp = 2.5e11;
    r.bestEdp = 2.0e11;
    r.baselineCycles = 48406;
    r.bestCycles = 48683;
    r.avgIl1Bytes = 32768;
    r.avgDl1Bytes = 4096;
    return r;
}

} // namespace

TEST(ReportTest, SweepCsvIsStableAndParsable)
{
    std::ostringstream os;
    writeSweepCsv(os, {sampleRecord()});
    const std::string s = os.str();
    // Header + one row, integral values as plain integers, and the
    // non-integral double at round-trip precision.
    EXPECT_EQ(s.substr(0, 5), "cell,");
    EXPECT_NE(
        s.find("\n7,ammp,sets,static,dcache,assoc=4;org=sets,3,"),
        std::string::npos);
    EXPECT_NE(s.find(",50,"), std::string::npos);
    EXPECT_NE(s.find("0.5722431103582171"), std::string::npos);
    EXPECT_NE(s.find(",32768,"), std::string::npos);

    // Same record, same bytes.
    std::ostringstream again;
    writeSweepCsv(again, {sampleRecord()});
    EXPECT_EQ(s, again.str());
}

TEST(ReportTest, SweepCsvRoundTripsExactly)
{
    // write -> read -> write is byte-identical: what makes resumed
    // sweeps indistinguishable from uninterrupted ones.
    SweepRecord plain = sampleRecord();
    SweepRecord empty_axes = sampleRecord();
    empty_axes.cell = 8;
    empty_axes.axes.clear();
    empty_axes.engine = EngineMode::Sampled;
    empty_axes.policy = "wtlfu";
    std::ostringstream first;
    writeSweepCsv(first, {plain, empty_axes});

    std::istringstream back(first.str());
    std::string err;
    auto records = readSweepCsv(back, &err);
    ASSERT_TRUE(records) << err;
    ASSERT_EQ(records->size(), 2u);
    EXPECT_EQ(records->front().cell, 7u);
    EXPECT_EQ(records->front().axes, "assoc=4;org=sets");
    EXPECT_DOUBLE_EQ(records->front().perfDegradationPct,
                     0.5722431103582171);
    EXPECT_EQ(records->back().engine, EngineMode::Sampled);
    EXPECT_EQ(records->back().policy, "wtlfu");

    std::ostringstream second;
    writeSweepCsv(second, *records);
    EXPECT_EQ(first.str(), second.str());
}

TEST(ReportTest, SweepCsvReaderIsStrict)
{
    std::string err;

    std::istringstream bad_header("nope\n1,2\n");
    EXPECT_FALSE(readSweepCsv(bad_header, &err));
    EXPECT_NE(err.find("header"), std::string::npos);

    std::istringstream short_row(sweepCsvHeader() + "\n1,ammp\n");
    EXPECT_FALSE(readSweepCsv(short_row, &err));
    EXPECT_NE(err.find("21 fields"), std::string::npos);

    std::ostringstream good;
    writeSweepCsv(good, {sampleRecord()});
    std::istringstream bad_cell(
        good.str() + "x" + good.str().substr(sweepCsvHeader().size() +
                                             2));
    EXPECT_FALSE(readSweepCsv(bad_cell, &err));
}

TEST(ReportTest, SweepJsonCarriesAllFields)
{
    std::ostringstream os;
    writeSweepJson(os, {sampleRecord(), sampleRecord()});
    const std::string s = os.str();
    EXPECT_EQ(s.front(), '[');
    EXPECT_NE(s.find("\"app\": \"ammp\""), std::string::npos);
    EXPECT_NE(s.find("\"best_level\": 3"), std::string::npos);
    EXPECT_NE(s.find("\"ed_reduction_pct\": 12.5"),
              std::string::npos);
    // Two objects, comma-separated.
    EXPECT_NE(s.find("},\n"), std::string::npos);
}

TEST(ReportTest, SweepTableListsEveryRecord)
{
    std::ostringstream os;
    writeSweepTable(os, {sampleRecord()});
    const std::string s = os.str();
    EXPECT_NE(s.find("ammp"), std::string::npos);
    EXPECT_NE(s.find("sets"), std::string::npos);
    EXPECT_NE(s.find("4.0K"), std::string::npos);
}

TEST(ReportTest, SweepWritersCarryEngineProvenance)
{
    SweepRecord full = sampleRecord();
    SweepRecord sampled = sampleRecord();
    sampled.engine = EngineMode::Sampled;
    SweepRecord analytic = sampleRecord();
    analytic.engine = EngineMode::Analytic;

    std::ostringstream csv;
    writeSweepCsv(csv, {full, sampled, analytic});
    EXPECT_NE(csv.str().find(",engine,policy\n"), std::string::npos);
    EXPECT_NE(csv.str().find(",full,lru\n"), std::string::npos);
    EXPECT_NE(csv.str().find(",sampled,lru\n"), std::string::npos);
    EXPECT_NE(csv.str().find(",analytic,lru\n"), std::string::npos);

    std::ostringstream json;
    writeSweepJson(json, {analytic});
    EXPECT_NE(json.str().find("\"engine\": \"analytic\""),
              std::string::npos);

    std::ostringstream table;
    writeSweepTable(table, {sampled});
    EXPECT_NE(table.str().find("sampled"), std::string::npos);
}

} // namespace rcache
