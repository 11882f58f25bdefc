/** @file Tests for the scenario file parser/printer. */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "scenario/param_space.hh"
#include "scenario/scenario_spec.hh"

namespace rcache
{

namespace
{

/** Parse @p text expecting success. */
ScenarioSpec
parseOk(const std::string &text)
{
    std::string err;
    auto spec = ScenarioSpec::parseText(text, "test.scn", &err);
    EXPECT_TRUE(spec) << err;
    return spec ? *spec : ScenarioSpec{};
}

/** Parse @p text expecting failure; returns the diagnostic. */
std::string
parseErr(const std::string &text)
{
    std::string err;
    auto spec = ScenarioSpec::parseText(text, "test.scn", &err);
    EXPECT_FALSE(spec) << "unexpected parse success";
    return err;
}

const char *kFullText = R"(# exercise every section
[scenario]
name = everything
insts = 123456

[system]
core = inorder
policy = slru
il1.size = 16384
dl1.assoc = 4
l2.size = 1048576
lat.l2 = 16
energy.clock = 12.5

[workloads]
apps = ammp,gcc,swim

[axes]
org = ways,sets,hybrid
assoc = 2,4
lat.mem = 60,120

[engine]
mode = sampled
interval = 100000
detail = 10000
warmup = 20000

[search]
strategy = dynamic
side = icache
intervals = 2048
miss-fractions = 0.01,0.05
size-fractions = 0,0.5
)";

} // namespace

TEST(ScenarioSpecTest, ParseReadsEverySection)
{
    const ScenarioSpec spec = parseOk(kFullText);
    EXPECT_EQ(spec.name, "everything");
    EXPECT_EQ(spec.insts, 123456u);
    EXPECT_EQ(spec.system.coreModel, CoreModel::InOrder);
    EXPECT_EQ(spec.system.il1.size, 16384u);
    EXPECT_EQ(spec.system.dl1.assoc, 4u);
    EXPECT_EQ(spec.system.l2.size, 1048576u);
    EXPECT_EQ(spec.system.lat.l2Latency, 16u);
    EXPECT_EQ(spec.system.policy, "slru");
    EXPECT_DOUBLE_EQ(spec.system.energy.clockPerCycle, 12.5);
    EXPECT_EQ(spec.apps,
              (std::vector<std::string>{"ammp", "gcc", "swim"}));
    ASSERT_EQ(spec.axes.size(), 3u);
    EXPECT_EQ(spec.axes[0].name, "org");
    EXPECT_EQ(spec.axes[2].values,
              (std::vector<std::string>{"60", "120"}));
    EXPECT_TRUE(spec.engine.sampled());
    EXPECT_EQ(spec.engine.sampling.intervalInsts, 100000u);
    EXPECT_EQ(spec.search.strategy, Strategy::Dynamic);
    EXPECT_EQ(spec.search.side, SweepSide::ICache);
    EXPECT_EQ(spec.search.dynGrid.intervals,
              (std::vector<std::uint64_t>{2048}));
    EXPECT_EQ(spec.search.dynGrid.missFractions,
              (std::vector<double>{0.01, 0.05}));
    EXPECT_EQ(spec.search.dynGrid.sizeFractions,
              (std::vector<double>{0, 0.5}));
}

TEST(ScenarioSpecTest, PrintParseRoundTrips)
{
    // The invariant the subsystem is built on:
    // parse(print(spec)) == spec, for defaults-only and for a spec
    // touching every section.
    for (const std::string text :
         {std::string("[scenario]\nname = minimal\n"),
          std::string(kFullText)}) {
        const ScenarioSpec spec = parseOk(text);
        const ScenarioSpec again = parseOk(spec.printToString());
        EXPECT_EQ(spec, again) << spec.printToString();
        // And printing is a fixed point: print(parse(print)) is
        // byte-identical.
        EXPECT_EQ(spec.printToString(), again.printToString());
    }
}

TEST(ScenarioSpecTest, EngineSectionSelectsTheEngine)
{
    // [engine] is the canonical surface for all three modes.
    EXPECT_EQ(parseOk("[engine]\nmode = full\n").engine,
              EngineSpec{});
    EXPECT_TRUE(
        parseOk("[engine]\nmode = analytic\n").engine.analytic());
    const ScenarioSpec s = parseOk(
        "[engine]\nmode = sampled\ninterval = 50000\ndetail = "
        "5000\nwarmup = 10000\n");
    EXPECT_EQ(s.engine, EngineSpec::makeSampled(50000, 5000, 10000));
    // mode = sampled without a shape takes the default period.
    EXPECT_EQ(parseOk("[engine]\nmode = sampled\n").engine.sampling,
              SamplingConfig{});


    // Round-trip: parse(print(spec)) == spec for every mode.
    for (const char *text :
         {"[engine]\nmode = sampled\ninterval = 60000\ndetail = 6000\n",
          "[engine]\nmode = analytic\n",
          "[engine]\nmode = sampled\ninterval = 70000\n"}) {
        const ScenarioSpec spec = parseOk(text);
        const std::string printed = spec.printToString();
        EXPECT_EQ(parseOk(printed), spec) << printed;
    }
    // The full-detail default prints no [engine] section at all.
    EXPECT_EQ(parseOk("[engine]\nmode = full\n")
                  .printToString()
                  .find("[engine]"),
              std::string::npos);
}

TEST(ScenarioSpecTest, DiagnosticsCarryFileAndLine)
{
    EXPECT_EQ(parseErr("[scenario]\nbogus = 1\n").substr(0, 11),
              "test.scn:2:");
    EXPECT_NE(parseErr("[scenario]\nbogus = 1\n").find("bogus"),
              std::string::npos);
    EXPECT_EQ(parseErr("[nope]\n").substr(0, 11), "test.scn:1:");
    // Line numbers count comments and blanks.
    const std::string err =
        parseErr("# comment\n\n[system]\nil1.size = potato\n");
    EXPECT_EQ(err.substr(0, 11), "test.scn:4:");
    EXPECT_NE(err.find("potato"), std::string::npos);
}

TEST(ScenarioSpecTest, RejectsMalformedInput)
{
    EXPECT_NE(parseErr("key = 1\n").find("before any [section]"),
              std::string::npos);
    EXPECT_NE(parseErr("[scenario]\nno-equals-here\n")
                  .find("key = value"),
              std::string::npos);
    EXPECT_NE(parseErr("[scenario]\ninsts = 0\n").find("positive"),
              std::string::npos);
    EXPECT_NE(parseErr("[workloads]\napps = ammp,nosuchapp\n")
                  .find("unknown app"),
              std::string::npos);
    EXPECT_NE(parseErr("[axes]\norg = ways\norg = sets\n")
                  .find("duplicate axis"),
              std::string::npos);
    EXPECT_NE(parseErr("[axes]\nfrobnicate = 1,2\n")
                  .find("unknown axis"),
              std::string::npos);
    EXPECT_NE(parseErr("[axes]\norg = ways,bogus\n")
                  .find("ways|sets|hybrid"),
              std::string::npos);
    EXPECT_NE(parseErr("[engine]\nmode = full\ndetail = 100\n")
                  .find("only apply to mode = sampled"),
              std::string::npos);
    EXPECT_NE(parseErr("[engine]\nmode = sampled\ninterval = 1000\n"
                       "detail = 2000\n")
                  .find("fit in the sample period"),
              std::string::npos);
    EXPECT_NE(parseErr("[search]\nmiss-fractions = 0.5,2\n")
                  .find("(0, 1)"),
              std::string::npos);
    EXPECT_NE(parseErr("[engine]\ninterval = 10\n")
                  .find("needs a 'mode"),
              std::string::npos);
    EXPECT_NE(parseErr("[engine]\nmode = analytic\ninterval = 10\n")
                  .find("mode = sampled"),
              std::string::npos);
    // The retired [sampling] section is just an unknown section.
    EXPECT_EQ(parseErr("[engine]\nmode = full\n"
                       "[sampling]\ninterval = 10\n"),
              "test.scn:3: unknown section '[sampling]'");
    EXPECT_NE(parseErr("[system]\npolicy = plru\n")
                  .find("lru|random|fifo|slru|wtlfu"),
              std::string::npos);
}

TEST(ScenarioSpecTest, PolicyKeySelectsAndPrintsCanonically)
{
    // Default stays lru and is not printed; a non-default policy
    // round-trips through the canonical printer.
    const ScenarioSpec plain = parseOk("[scenario]\nname = p\n");
    EXPECT_EQ(plain.system.policy, "lru");
    EXPECT_EQ(plain.printToString().find("policy"),
              std::string::npos);

    const ScenarioSpec wt =
        parseOk("[system]\npolicy = wtlfu\n");
    EXPECT_EQ(wt.system.policy, "wtlfu");
    EXPECT_NE(wt.printToString().find("policy = wtlfu"),
              std::string::npos);
    EXPECT_EQ(parseOk(wt.printToString()), wt);
}

TEST(ScenarioSpecTest, CheckedInScenariosValidate)
{
#ifdef RCACHE_SCENARIO_SOURCE_DIR
    // Every shipped scenario, so a new file is covered by adding it.
    std::vector<std::string> paths;
    for (const auto &entry : std::filesystem::directory_iterator(
             RCACHE_SCENARIO_SOURCE_DIR))
        if (entry.path().extension() == ".scn")
            paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    EXPECT_GE(paths.size(), 10u);
    for (const std::string &path : paths) {
        std::string err;
        auto spec = ScenarioSpec::parseFile(path, &err);
        ASSERT_TRUE(spec) << err;
        EXPECT_TRUE(ParamSpace::build(*spec, &err)) << err;
        // Round-trip holds for the shipped files too.
        const ScenarioSpec again = parseOk(spec->printToString());
        EXPECT_EQ(*spec, again) << path;
    }
#else
    GTEST_SKIP() << "RCACHE_SCENARIO_SOURCE_DIR not defined";
#endif
}

TEST(ScenarioSpecTest, AdaptiveSearchKeysParseAndRoundTrip)
{
    const ScenarioSpec spec = parseOk(R"([search]
mode = adaptive
ladder = analytic,sampled,full
promote = 0.3,0.15
min-survivors = 2
rank-agree = 3
sample-interval = 25000
)");
    EXPECT_EQ(spec.search.mode, SearchMode::Adaptive);
    EXPECT_EQ(spec.search.adaptive.ladder,
              (std::vector<EngineMode>{EngineMode::Analytic,
                                       EngineMode::Sampled,
                                       EngineMode::Full}));
    EXPECT_EQ(spec.search.adaptive.promote,
              (std::vector<double>{0.3, 0.15}));
    EXPECT_EQ(spec.search.adaptive.minSurvivors, 2u);
    EXPECT_EQ(spec.search.adaptive.rankAgree, 3u);
    EXPECT_EQ(spec.search.adaptive.sampleInterval, 25000u);
    EXPECT_EQ(parseOk(spec.printToString()), spec);

    // Defaults: exhaustive mode, the documented ladder.
    const ScenarioSpec plain = parseOk("[scenario]\nname = p\n");
    EXPECT_EQ(plain.search.mode, SearchMode::Exhaustive);
    EXPECT_EQ(plain.search.adaptive, AdaptiveSpec{});

    // Malformed adaptive keys get one-line rejections.
    EXPECT_NE(parseErr("[search]\nmode = sideways\n").find("mode"),
              std::string::npos);
    EXPECT_NE(parseErr("[search]\nladder = analytic,analytic\n")
                  .find("repeats"),
              std::string::npos);
    EXPECT_NE(parseErr("[search]\npromote = 1.5\n").find("(0, 1]"),
              std::string::npos);
    EXPECT_NE(parseErr("[search]\nmin-survivors = 0\n")
                  .find("positive"),
              std::string::npos);
}

TEST(ScenarioSpecTest, SystemConfigKeyDistinguishesConfigs)
{
    SystemConfig a, b;
    EXPECT_EQ(systemConfigKey(a), systemConfigKey(b));
    b.lat.l2Latency = 20;
    EXPECT_NE(systemConfigKey(a), systemConfigKey(b));
    b = a;
    b.energy.clockPerCycle = 12;
    EXPECT_NE(systemConfigKey(a), systemConfigKey(b));
    b = a;
    b.dl1Org = Organization::SelectiveSets;
    EXPECT_NE(systemConfigKey(a), systemConfigKey(b));
}

} // namespace rcache
