/**
 * @file
 * Split invariance of the measurement windows (cpu/core.hh): feeding
 * a window whole, in fixed segments of 1, 3, 128 or 1000
 * instructions, or in seeded random segments is the same
 * computation. For OooCore, InOrderCore and FunctionalCore, two
 * consecutive windows over a gcc stream, with a dynamic controller
 * resizing the d-cache and a probe sampling every 1000 instructions,
 * must leave identical activity, cache counters, resize decisions and
 * probe samples under every segmentation.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/dynamic_controller.hh"
#include "core/resizable_cache.hh"
#include "cpu/functional_core.hh"
#include "cpu/inorder_core.hh"
#include "cpu/ooo_core.hh"
#include "sim/system.hh"
#include "util/random.hh"
#include "workload/profiles.hh"
#include "workload/synthetic.hh"

namespace rcache
{

namespace
{

constexpr std::uint64_t kInsts = 20000;
/** The first window's length: not a multiple of the sample stride,
 *  so it closes with a tail sample. */
constexpr std::uint64_t kFirstWindow = 7001;
constexpr std::uint64_t kSampleInterval = 1000;

/** A probe that records every sample it hears. */
class RecordingProbe final : public CoreProbe
{
  public:
    struct Sample
    {
        bool warmup = false;
        std::uint64_t insts = 0;
        std::uint64_t cycle = 0;
        CoreActivity activity;
        double dl1Misses = 0;

        bool operator==(const Sample &o) const = default;
    };

    explicit RecordingProbe(const Cache &dl1) : dl1_(dl1) {}

    std::uint64_t sampleInterval() const override
    {
        return kSampleInterval;
    }
    void onSample(std::uint64_t insts, std::uint64_t cycle,
                  const CoreActivity &activity) override
    {
        samples.push_back({false, insts, cycle, activity,
                           static_cast<double>(dl1_.misses())});
    }
    void onWarmupSample(std::uint64_t insts) override
    {
        samples.push_back({true, insts, 0, {},
                           static_cast<double>(dl1_.misses())});
    }

    std::vector<Sample> samples;

  private:
    const Cache &dl1_;
};

/** What a run leaves behind, compared with ==. */
struct Outcome
{
    std::vector<CoreActivity> windows;
    std::vector<double> counters;
    std::vector<unsigned> dl1Levels;
    std::vector<RecordingProbe::Sample> samples;

    bool operator==(const Outcome &o) const = default;
};

enum class Model
{
    OutOfOrder,
    InOrder,
    Functional,
};

/** One core over fresh resizable L1s, a dynamic d-cache controller
 *  and a recording probe. */
struct Rig
{
    SystemConfig cfg = SystemConfig::base();
    ResizableCache il1{"il1", cfg.il1, Organization::SelectiveWays};
    ResizableCache dl1{"dl1", cfg.dl1, Organization::SelectiveSets};
    Hierarchy hier{&il1.cache(), &dl1.cache(), cfg.l2, cfg.lat};
    DynamicMissRatioController dyn{dl1, hier.l1WritebackSink(),
                                   [] {
                                       DynamicParams p;
                                       p.intervalAccesses = 512;
                                       p.missBound = 16;
                                       return p;
                                   }()};
    RecordingProbe probe{dl1.cache()};
    /** The FunctionalCore's predictor (a timing core owns its own). */
    BranchPredictor bpred{cfg.core.bpred};
    std::unique_ptr<Core> core;
    std::unique_ptr<FunctionalCore> func;

    explicit Rig(Model model)
    {
        if (model == Model::OutOfOrder)
            core = std::make_unique<OooCore>(cfg.core, hier, nullptr,
                                             &dyn);
        else if (model == Model::InOrder)
            core = std::make_unique<InOrderCore>(cfg.core, hier,
                                                 nullptr, &dyn);
        if (core) {
            core->setProbe(&probe);
        } else {
            func = std::make_unique<FunctionalCore>(
                hier, bpred, cfg.core.fetchWidth, nullptr, &dyn);
            func->setProbe(&probe);
        }
    }
};

/** Run two windows over @p stream, fed in segments @p next picks. */
Outcome
runSplit(Model model, const std::vector<MicroInst> &stream,
         const std::function<std::size_t()> &next)
{
    Rig rig(model);
    Outcome out;
    std::size_t at = 0;
    for (const std::uint64_t end : {kFirstWindow, kInsts}) {
        if (rig.core) {
            rig.core->resetTiming();
            rig.core->beginWindow();
        } else {
            rig.func->invalidateFetchBlock();
            rig.func->beginWindow();
        }
        while (at < end) {
            const std::size_t n =
                std::min<std::size_t>(next(), end - at);
            if (rig.core)
                rig.core->consume(stream.data() + at, n);
            else
                rig.func->consume(stream.data() + at, n);
            at += n;
        }
        if (rig.core) {
            out.windows.push_back(rig.core->endWindow());
        } else {
            CoreActivity act;
            act.insts = rig.func->endWindow();
            out.windows.push_back(act);
        }
    }
    for (const ResizableCache *c : {&rig.il1, &rig.dl1}) {
        const CacheActivity a = CacheActivity::of(c->cache());
        out.counters.insert(
            out.counters.end(),
            {a.accesses, a.misses, a.prechargeEvents, a.wayReads,
             static_cast<double>(c->cache().writebacks()),
             static_cast<double>(c->cache().resizes())});
    }
    out.counters.push_back(static_cast<double>(rig.hier.l2Accesses()));
    out.counters.push_back(static_cast<double>(rig.hier.l2Misses()));
    out.dl1Levels = rig.dyn.levelTrace();
    out.samples = rig.probe.samples;
    return out;
}

std::vector<MicroInst>
gccStream()
{
    SyntheticWorkload wl(profileByName("gcc"));
    std::vector<MicroInst> v(kInsts);
    wl.nextBatch(v.data(), v.size());
    return v;
}

class CoreWindowTest : public testing::TestWithParam<Model>
{
};

} // namespace

TEST_P(CoreWindowTest, EverySegmentationIsTheSameComputation)
{
    const std::vector<MicroInst> stream = gccStream();
    const Outcome whole =
        runSplit(GetParam(), stream, [] { return kInsts; });
    // The run did something worth comparing: both windows ran, the
    // probe sampled, and the controller resized.
    ASSERT_EQ(whole.windows.size(), 2u);
    EXPECT_EQ(whole.windows[0].insts, kFirstWindow);
    EXPECT_EQ(whole.samples.size(), 8u + 13u);
    EXPECT_GT(whole.dl1Levels.size(), 2u);

    for (const std::size_t seg : {1, 3, 128, 1000}) {
        SCOPED_TRACE("segments of " + std::to_string(seg));
        EXPECT_EQ(runSplit(GetParam(), stream, [seg] { return seg; }),
                  whole);
    }
    for (const std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE("random segments, seed " + std::to_string(seed));
        Rng rng(seed);
        EXPECT_EQ(runSplit(GetParam(), stream,
                           [&rng] {
                               return static_cast<std::size_t>(
                                   1 + rng.nextBelow(2500));
                           }),
                  whole);
    }
}

INSTANTIATE_TEST_SUITE_P(Models, CoreWindowTest,
                         testing::Values(Model::OutOfOrder,
                                         Model::InOrder,
                                         Model::Functional),
                         [](const auto &info) {
                             switch (info.param) {
                               case Model::OutOfOrder:
                                 return std::string("OutOfOrder");
                               case Model::InOrder:
                                 return std::string("InOrder");
                               case Model::Functional:
                                 return std::string("Functional");
                             }
                             return std::string();
                         });

} // namespace rcache
