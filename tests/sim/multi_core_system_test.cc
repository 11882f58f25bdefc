/** @file
 * Tests for a System of several cores over a shared L2: determinism,
 * per-core/shared-L2 attribution consistency, lane isolation vs a
 * single-core System, mixed core models, sampling, and executeRunJob
 * on several cores.
 */

#include <gtest/gtest.h>

#include "runner/sweep_runner.hh"
#include "scenario/scenario_sweep.hh"
#include "sim/system.hh"

#include <fstream>
#include <sstream>

namespace rcache
{

namespace
{

constexpr std::uint64_t kInsts = 60000;

std::vector<BenchmarkProfile>
mixOf(const std::string &name)
{
    auto mix = mixByName(name);
    EXPECT_TRUE(mix) << name;
    return *mix;
}

SystemResult
runMix(const std::string &mix, unsigned cores,
       const EngineSpec &engine = {})
{
    SystemConfig cfg = SystemConfig::base();
    cfg.cores = cores;
    System sys(cfg);
    return sys.run(mixOf(mix), kInsts, {}, {}, engine);
}

} // namespace

TEST(MultiCoreSystemTest, DeterministicAcrossRuns)
{
    const SystemResult a = runMix("gcc+m88ksim", 2);
    const SystemResult b = runMix("gcc+m88ksim", 2);

    EXPECT_EQ(a.aggregate.cycles, b.aggregate.cycles);
    EXPECT_DOUBLE_EQ(a.aggregate.energy.total(),
                     b.aggregate.energy.total());
    EXPECT_EQ(a.l2Totals.accesses, b.l2Totals.accesses);
    EXPECT_EQ(a.l2Totals.misses, b.l2Totals.misses);
    for (unsigned c = 0; c < 2; ++c) {
        EXPECT_EQ(a.perCore[c].cycles, b.perCore[c].cycles);
        EXPECT_DOUBLE_EQ(a.perCore[c].energy.total(),
                         b.perCore[c].energy.total());
    }
}

TEST(MultiCoreSystemTest, PerCoreAttributionSumsToSharedTotals)
{
    SystemConfig cfg = SystemConfig::base();
    cfg.cores = 4;
    System sys(cfg);
    const SystemResult r =
        sys.run(mixOf("gcc+swim"), kInsts);

    // Total L2 accesses == sum of the per-core attributions == the
    // shared cache's own counter (the acceptance identity).
    SharedL2CoreStats sum;
    for (const SharedL2CoreStats &s : r.l2PerCore) {
        sum.accesses += s.accesses;
        sum.hits += s.hits;
        sum.misses += s.misses;
        sum.memReads += s.memReads;
        sum.memWrites += s.memWrites;
    }
    EXPECT_EQ(sum.accesses, r.l2Totals.accesses);
    EXPECT_EQ(sum.misses, r.l2Totals.misses);
    EXPECT_EQ(r.l2Totals.accesses, sys.sharedL2()->cache().accesses());
    EXPECT_EQ(r.l2Totals.misses, sys.sharedL2()->cache().misses());
    EXPECT_EQ(r.l2Totals.hits + r.l2Totals.misses,
              r.l2Totals.accesses);

    // The makespan is the slowest core; instructions sum.
    std::uint64_t max_cycles = 0, insts = 0;
    for (const RunResult &c : r.perCore) {
        max_cycles = std::max(max_cycles, c.cycles);
        insts += c.insts;
    }
    EXPECT_EQ(r.aggregate.cycles, max_cycles);
    EXPECT_EQ(r.aggregate.insts, insts);
    EXPECT_EQ(r.aggregate.insts, 4 * kInsts);
    EXPECT_GT(r.aggregate.energy.total(), 0.0);
}

TEST(MultiCoreSystemTest, LaneMatchesSingleCoreStream)
{
    // Private L1s + private predictor + disjoint address spaces: a
    // core's instruction-stream statistics are untouched by its
    // neighbors. (Cycles may differ slightly at quantum boundaries;
    // the stream-derived counts must not differ at all.)
    const SystemResult mc = runMix("gcc+m88ksim", 2);

    SyntheticWorkload wl(profileByName("gcc"));
    System solo(SystemConfig::base());
    const RunResult s = solo.run(wl, kInsts);

    const RunResult &lane = mc.perCore[0];
    EXPECT_EQ(lane.workload, "gcc");
    EXPECT_EQ(lane.activity.loads, s.activity.loads);
    EXPECT_EQ(lane.activity.stores, s.activity.stores);
    EXPECT_EQ(lane.activity.branches, s.activity.branches);
    EXPECT_EQ(lane.activity.mispredicts, s.activity.mispredicts);
    // The d-cache sees the identical access sequence (contents carry
    // across quanta); the i-cache re-probes its current block once
    // per quantum restart, so its ratio may drift by that epsilon.
    EXPECT_DOUBLE_EQ(lane.dl1MissRatio, s.dl1MissRatio);
    EXPECT_NEAR(lane.il1MissRatio, s.il1MissRatio, 1e-4);
}

TEST(MultiCoreSystemTest, SmallSharedL2ShowsCrossCoreEvictions)
{
    // Two streaming FP apps over an 8 KB shared L2: capacity
    // contention must surface as cross-core evictions.
    SystemConfig cfg = SystemConfig::base();
    cfg.cores = 2;
    cfg.l2 = CacheGeometry{8 * 1024, 4, 32, 1024};
    System sys(cfg);
    const SystemResult r = sys.run(mixOf("swim+tomcatv"), kInsts);

    EXPECT_GT(r.l2Totals.evictionsByOthers, 0u);
    EXPECT_EQ(r.l2Totals.evictionsByOthers, r.l2Totals.evictedOthers);
    for (const SharedL2CoreStats &s : r.l2PerCore)
        EXPECT_EQ(s.fills - s.evictionsBySelf - s.evictionsByOthers,
                  s.residentBlocks);
}

TEST(MultiCoreSystemTest, MixCyclesAcrossCores)
{
    const SystemResult r = runMix("gcc+m88ksim", 3);
    ASSERT_EQ(r.perCore.size(), 3u);
    EXPECT_EQ(r.perCore[0].workload, "gcc");
    EXPECT_EQ(r.perCore[1].workload, "m88ksim");
    EXPECT_EQ(r.perCore[2].workload, "gcc");
}

TEST(MultiCoreSystemTest, MixedCoreModels)
{
    SystemConfig cfg = SystemConfig::base();
    cfg.cores = 2;
    cfg.coreModels = {CoreModel::OutOfOrder, CoreModel::InOrder};
    System sys(cfg);
    const SystemResult r = sys.run(mixOf("ammp"), kInsts);

    EXPECT_TRUE(r.perCore[0].activity.outOfOrder);
    EXPECT_FALSE(r.perCore[1].activity.outOfOrder);
    // Same stream, blocking d-cache: the in-order lane is slower.
    EXPECT_GT(r.perCore[1].cycles, r.perCore[0].cycles);
}

TEST(MultiCoreSystemTest, SampledRunExtrapolatesPerCore)
{
    const EngineSpec engine =
        EngineSpec::makeSampled(20000, 2000, 4000);
    const SystemResult r = runMix("gcc+m88ksim", 2, engine);
    const SystemResult again = runMix("gcc+m88ksim", 2, engine);

    EXPECT_EQ(r.aggregate.cycles, again.aggregate.cycles);
    EXPECT_DOUBLE_EQ(r.aggregate.energy.total(),
                     again.aggregate.energy.total());
    for (const RunResult &c : r.perCore) {
        EXPECT_EQ(c.engine, EngineMode::Sampled);
        EXPECT_EQ(c.insts, kInsts);
        EXPECT_GT(c.measuredInsts, 0u);
        EXPECT_LT(c.measuredInsts, kInsts);
        EXPECT_GT(c.cycles, 0u);
    }
    EXPECT_EQ(r.l2Totals.accesses,
              r.l2PerCore[0].accesses + r.l2PerCore[1].accesses);
}

TEST(MultiCoreSystemTest, FullShapePeriodsEqualQuantumInterleave)
{
    // A sampling period that is all measured window, one quantum
    // long, is a full-detail quantum turn: the cores take the same
    // turns over the shared L2 through the same lane loop, so the
    // results must match bit for bit apart from the engine stamp.
    // kInsts is not a multiple of the quantum, so the short last turn
    // is covered too.
    constexpr std::uint64_t kQuantum = 7000;
    SystemConfig cfg = SystemConfig::base();
    cfg.cores = 2;
    cfg.quantumInsts = kQuantum;
    cfg.dl1Org = Organization::SelectiveSets;
    ResizeSetup dyn;
    dyn.strategy = Strategy::Dynamic;
    dyn.dyn.intervalAccesses = 2000;
    dyn.dyn.missBound = 200;
    const auto run = [&](const EngineSpec &engine) {
        System sys(cfg);
        return sys.run(mixOf("gcc+m88ksim"), kInsts, {}, dyn, engine);
    };
    const SystemResult full = run({});
    SystemResult sampled =
        run(EngineSpec::makeSampled(kQuantum, kQuantum, 0));

    ASSERT_EQ(sampled.perCore.size(), full.perCore.size());
    EXPECT_EQ(sampled.aggregate.engine, EngineMode::Sampled);
    sampled.aggregate.engine = full.aggregate.engine;
    for (std::size_t c = 0; c < full.perCore.size(); ++c) {
        EXPECT_EQ(sampled.perCore[c].engine, EngineMode::Sampled);
        sampled.perCore[c].engine = full.perCore[c].engine;
        EXPECT_TRUE(sampled.perCore[c] == full.perCore[c])
            << "core " << c << ": cycles " << sampled.perCore[c].cycles
            << " vs " << full.perCore[c].cycles;
    }
    EXPECT_TRUE(sampled.aggregate == full.aggregate)
        << "cycles " << sampled.aggregate.cycles << " vs "
        << full.aggregate.cycles << ", energy "
        << sampled.aggregate.energy.total() << " vs "
        << full.aggregate.energy.total();
    EXPECT_TRUE(sampled.l2PerCore == full.l2PerCore);
    EXPECT_GT(full.aggregate.dl1Resizes, 0u);
}

TEST(MultiCoreSystemTest, ExecuteRunJobDispatchesOnCores)
{
    RunJob job;
    job.profile = profileByName("ammp");
    job.cfg = SystemConfig::base();
    job.cfg.cores = 2;
    job.insts = 20000;
    const RunResult r = executeRunJob(job);
    EXPECT_EQ(r.insts, 2 * job.insts);
    EXPECT_EQ(r.workload, "ammp");

    // With an explicit mix, components cycle across the cores.
    job.mixProfiles = mixOf("ammp+vpr");
    const RunResult m = executeRunJob(job);
    EXPECT_EQ(m.workload, "ammp+vpr");
    EXPECT_EQ(m.insts, 2 * job.insts);
}

TEST(MultiCoreSweepTest, ShardUnionEqualsFullMulticoreSweep)
{
    std::string err;
    auto spec = ScenarioSpec::parseText(R"([scenario]
name = mc-sweep
insts = 20000

[workloads]
apps = ammp+vpr,gcc+m88ksim

[axes]
cores = 2,4
org = sets

[engine]
mode = sampled
interval = 10000
detail = 1000
warmup = 2000

[search]
strategy = static
)",
                                        "mc-sweep.scn", &err);
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
    auto opts = [&](const std::string &path, unsigned i, unsigned n) {
        SweepOptions o;
        o.outPath = pathIn(path);
        o.quiet = true;
        std::string serr;
        auto shard =
            ShardSpec::parse(std::to_string(i) + "/" +
                             std::to_string(n), &serr);
        EXPECT_TRUE(shard) << serr;
        o.shard = *shard;
        return o;
    };

    SweepOptions full;
    full.outPath = pathIn("mc-full.csv");
    full.quiet = true;
    ASSERT_EQ(runScenarioSweep(*spec, full), 0);
    ASSERT_EQ(runScenarioSweep(*spec, opts("mc-s0.csv", 0, 2)), 0);
    ASSERT_EQ(runScenarioSweep(*spec, opts("mc-s1.csv", 1, 2)), 0);

    // Shard 0 holds the first half of the cells, shard 1 the rest.
    std::istringstream f(slurp(pathIn("mc-full.csv")));
    std::istringstream s0(slurp(pathIn("mc-s0.csv")));
    std::istringstream s1(slurp(pathIn("mc-s1.csv")));
    std::string full_line, l0, l1;
    ASSERT_TRUE(std::getline(f, full_line)); // header
    ASSERT_TRUE(std::getline(s0, l0));
    ASSERT_TRUE(std::getline(s1, l1));
    EXPECT_EQ(full_line, l0);
    EXPECT_EQ(full_line, l1);
    std::size_t cell = 0;
    while (std::getline(f, full_line)) {
        std::string &shard_line = cell < 2 ? l0 : l1;
        std::istream &shard_is =
            cell < 2 ? static_cast<std::istream &>(s0) : s1;
        ASSERT_TRUE(std::getline(shard_is, shard_line));
        EXPECT_EQ(full_line, shard_line) << "cell " << cell;
        ++cell;
    }
    EXPECT_EQ(cell, 4u); // 2 apps x 2 cores-axis values
    EXPECT_FALSE(std::getline(s0, l0));
    EXPECT_FALSE(std::getline(s1, l1));
}

} // namespace rcache
