/**
 * @file
 * The analytic engine's acceptance gate (ISSUE 7): on a fig4-shaped
 * size x assoc grid, the single-pass analytic engine must produce L1
 * access and miss counts *exactly equal* to the detailed timing
 * model's for every static LRU geometry, the best-size selection must
 * agree, and analytic sweeps must stay byte-identical across worker
 * counts and shard partitions (the same determinism contract the
 * detailed engine honors).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analytic/analytic_engine.hh"
#include "core/size_schedule.hh"
#include "scenario/scenario_sweep.hh"
#include "tests/scenario/scenario_rows.hh"
#include "workload/profiles.hh"

namespace rcache
{

namespace
{

constexpr std::uint64_t kInsts = 60000;

/**
 * The fig4-shaped micro grid: the full-size baseline plus every level
 * of the d-cache schedule, at two associativities, for one app.
 */
std::vector<RunJob>
microGrid(const std::string &app, Organization org)
{
    std::vector<RunJob> jobs;
    for (unsigned assoc : {2u, 8u}) {
        SystemConfig cfg = SystemConfig::base();
        cfg.il1.assoc = assoc;
        cfg.dl1.assoc = assoc;
        cfg.dl1Org = org;
        RunJob base;
        base.label = app + "/a" + std::to_string(assoc) + "/full";
        base.profile = profileByName(app);
        base.cfg = cfg;
        base.insts = kInsts;
        jobs.push_back(base);
        const auto sched = buildSchedule(cfg.dl1Org, cfg.dl1);
        for (unsigned lvl = 0; lvl < sched.size(); ++lvl) {
            RunJob j = base;
            j.label = app + "/a" + std::to_string(assoc) + "/L" +
                      std::to_string(lvl);
            j.dl1.strategy = Strategy::Static;
            j.dl1.staticLevel = lvl;
            jobs.push_back(j);
        }
    }
    return jobs;
}

} // namespace

TEST(AnalyticExactnessTest, LruMissCountsMatchDetailedPerGeometry)
{
    for (const Organization org :
         {Organization::SelectiveWays, Organization::SelectiveSets}) {
        for (const char *app : {"ammp", "gcc"}) {
            const auto jobs = microGrid(app, org);

            // One shared pass prices the whole grid...
            AnalyticPass pass(profileByName(app), kInsts);
            for (const RunJob &j : jobs)
                pass.addConfig(j.cfg);
            pass.run();

            for (const RunJob &job : jobs) {
                // ...against one detailed timing run per geometry.
                const RunResult detailed = executeRunJob(job);
                RunJob a = job;
                a.engine = EngineSpec::makeAnalytic();
                const RunResult analytic = priceAnalyticJob(a, pass);

                EXPECT_EQ(analytic.engine, EngineMode::Analytic);
                EXPECT_EQ(analytic.measuredInsts, 0u);
                EXPECT_EQ(analytic.insts, detailed.insts);
                EXPECT_EQ(analytic.il1Accesses, detailed.il1Accesses)
                    << job.label;
                EXPECT_EQ(analytic.il1Misses, detailed.il1Misses)
                    << job.label;
                EXPECT_EQ(analytic.dl1Accesses, detailed.dl1Accesses)
                    << job.label;
                EXPECT_EQ(analytic.dl1Misses, detailed.dl1Misses)
                    << job.label;
                // A static level is set once before the run: a
                // resize unless it is the full geometry (L0).
                EXPECT_EQ(analytic.il1Resizes, detailed.il1Resizes)
                    << job.label;
                EXPECT_EQ(analytic.dl1Resizes, detailed.dl1Resizes)
                    << job.label;
                // The instruction mix the energy model charges is the
                // same stream, so it must agree too.
                EXPECT_EQ(analytic.activity.loads,
                          detailed.activity.loads);
                EXPECT_EQ(analytic.activity.stores,
                          detailed.activity.stores);
                EXPECT_EQ(analytic.activity.branches,
                          detailed.activity.branches);
                EXPECT_EQ(analytic.activity.mispredicts,
                          detailed.activity.mispredicts);
            }
        }
    }
}

TEST(AnalyticExactnessTest, SingleJobDispatchMatchesSharedPass)
{
    // executeRunJob's analytic dispatch (a private single-job pass)
    // and the sweep's shared pass must price identically.
    const auto jobs = microGrid("vpr", Organization::SelectiveWays);
    AnalyticPass pass(profileByName("vpr"), kInsts);
    for (const RunJob &j : jobs)
        pass.addConfig(j.cfg);
    pass.run();

    for (const RunJob &job : jobs) {
        RunJob a = job;
        a.engine = EngineSpec::makeAnalytic();
        const RunResult shared = priceAnalyticJob(a, pass);
        const RunResult solo = executeRunJob(a);
        EXPECT_EQ(solo.il1Misses, shared.il1Misses) << job.label;
        EXPECT_EQ(solo.dl1Misses, shared.dl1Misses) << job.label;
        EXPECT_EQ(solo.cycles, shared.cycles) << job.label;
        EXPECT_DOUBLE_EQ(solo.energy.total(), shared.energy.total())
            << job.label;
    }
}

TEST(AnalyticExactnessTest, BestSizeSelectionAgreesWithDetailed)
{
    // The decision the engine exists to accelerate: which static
    // level minimizes E.D. Both engines must pick the same one.
    const std::string cells = R"([scenario]
insts = 60000

[workloads]
apps = ammp,gcc,swim

[search]
org = sets
strategy = static
side = dcache
)";
    const ScenarioRows detailed = scenarioRows(cells);
    const ScenarioRows analytic =
        scenarioRows(cells + "\n[engine]\nmode = analytic\n");
    ASSERT_EQ(detailed.rows.size(), 3u);
    ASSERT_EQ(analytic.rows.size(), 3u);
    for (std::size_t i = 0; i < detailed.rows.size(); ++i) {
        EXPECT_EQ(analytic.rows[i].engine, EngineMode::Analytic);
        EXPECT_EQ(analytic.rows[i].bestLevel, detailed.rows[i].bestLevel)
            << detailed.rows[i].app;
    }
}

TEST(AnalyticSweepTest, ByteIdenticalAcrossJobsAndShards)
{
    std::string err;
    auto spec = ScenarioSpec::parseText(R"([scenario]
name = analytic-micro
insts = 40000

[engine]
mode = analytic

[workloads]
apps = ammp,gcc

[axes]
assoc = 2,8
org = ways,sets

[search]
strategy = static
side = dcache
)",
                                        "analytic-micro.scn", &err);
    ASSERT_TRUE(spec) << err;

    auto pathIn = [](const std::string &name) {
        return testing::TempDir() + "/" + name;
    };
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    auto sweep = [&](const std::string &name, unsigned jobs) {
        SweepOptions o;
        o.outPath = pathIn(name);
        o.quiet = true;
        o.jobs = jobs;
        EXPECT_EQ(runScenarioSweep(*spec, o), 0);
        return slurp(pathIn(name));
    };

    const std::string serial = sweep("an-j1.csv", 1);
    const std::string parallel = sweep("an-j4.csv", 4);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find(",analytic,lru\n"), std::string::npos);
    EXPECT_NE(serial.find(",engine,policy\n"), std::string::npos);

    // Shard union: shard 0 holds the first half of the cells and
    // shard 1 the rest; compare against the unsharded run line by
    // line.
    auto shardSweep = [&](const std::string &name, unsigned i,
                          unsigned n) {
        SweepOptions o;
        o.outPath = pathIn(name);
        o.quiet = true;
        std::string serr;
        auto shard = ShardSpec::parse(std::to_string(i) + "/" +
                                          std::to_string(n),
                                      &serr);
        EXPECT_TRUE(shard) << serr;
        o.shard = *shard;
        EXPECT_EQ(runScenarioSweep(*spec, o), 0);
        return slurp(pathIn(name));
    };
    std::istringstream f(serial);
    std::istringstream s0(shardSweep("an-s0.csv", 0, 2));
    std::istringstream s1(shardSweep("an-s1.csv", 1, 2));
    std::string full_line, shard_line;
    ASSERT_TRUE(std::getline(f, full_line)); // header
    ASSERT_TRUE(std::getline(s0, shard_line));
    EXPECT_EQ(full_line, shard_line);
    ASSERT_TRUE(std::getline(s1, shard_line));
    EXPECT_EQ(full_line, shard_line);
    std::size_t cell = 0;
    while (std::getline(f, full_line)) {
        std::istream &shard_is =
            cell < 4 ? static_cast<std::istream &>(s0) : s1;
        ASSERT_TRUE(std::getline(shard_is, shard_line));
        EXPECT_EQ(full_line, shard_line) << "cell " << cell;
        ++cell;
    }
    EXPECT_EQ(cell, 8u); // 2 apps x 2 assoc values x 2 orgs
    EXPECT_FALSE(std::getline(s0, shard_line));
    EXPECT_FALSE(std::getline(s1, shard_line));
}

} // namespace rcache
