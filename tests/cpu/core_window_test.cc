/**
 * @file
 * Split invariance of the measurement windows (cpu/core.hh): feeding
 * a window whole, in fixed segments of 1, 3, 128 or 1000
 * instructions, or in seeded random segments is the same
 * computation. For OooCore, InOrderCore and FunctionalCore, two
 * consecutive windows over a marked gcc stream, with a dynamic
 * controller resizing the d-cache, must leave identical activity,
 * cache counters and resize decisions under every segmentation, and
 * a FrontEnd (cpu/front_end.hh) must mark the stream alike. One
 * level up, a CoreLane (sim/system.hh) alternating warmup and
 * measured windows must write the same timeline rows, measured sums
 * and result under every segmentation: the lane, not the segments,
 * puts the samples.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dynamic_controller.hh"
#include "core/resizable_cache.hh"
#include "cpu/front_end.hh"
#include "cpu/functional_core.hh"
#include "cpu/inorder_core.hh"
#include "cpu/ooo_core.hh"
#include "sim/system.hh"
#include "telemetry/run_telemetry.hh"
#include "util/random.hh"
#include "workload/profiles.hh"
#include "workload/synthetic.hh"

namespace rcache
{

namespace
{

constexpr std::uint64_t kInsts = 20000;
/** The first window's length: not a multiple of the timeline
 *  interval, so a lane closes it with a tail sample. */
constexpr std::uint64_t kFirstWindow = 7001;
constexpr std::uint64_t kSampleInterval = 1000;

/** A dynamic controller that resizes often over kInsts. */
DynamicParams
busyController()
{
    DynamicParams p;
    p.intervalAccesses = 512;
    p.missBound = 64;
    return p;
}

/** What a run leaves behind, compared with ==. */
struct Outcome
{
    std::vector<CoreActivity> windows;
    std::vector<double> counters;
    std::vector<unsigned> dl1Levels;
    /** The stream as a FrontEnd model marked it (else empty). */
    std::vector<MicroInst> marks;

    bool operator==(const Outcome &o) const = default;
};

enum class Model
{
    OutOfOrder,
    InOrder,
    Functional,
    FrontEnd,
};

/** One consumer over fresh resizable L1s and a dynamic d-cache
 *  controller. */
struct Rig
{
    SystemConfig cfg = SystemConfig::base();
    ResizableCache il1{"il1", cfg.il1, Organization::SelectiveWays};
    ResizableCache dl1{"dl1", cfg.dl1, Organization::SelectiveSets};
    Hierarchy hier{&il1.cache(), &dl1.cache(), cfg.l2, cfg.lat};
    DynamicMissRatioController dyn{dl1, hier.l1WritebackSink(),
                                   busyController()};
    std::unique_ptr<Core> core;
    std::unique_ptr<FunctionalCore> func;
    std::unique_ptr<FrontEnd> front;

    explicit Rig(Model model)
    {
        if (model == Model::OutOfOrder)
            core = std::make_unique<OooCore>(cfg.core, hier, nullptr,
                                             &dyn);
        else if (model == Model::InOrder)
            core = std::make_unique<InOrderCore>(cfg.core, hier,
                                                 nullptr, &dyn);
        else if (model == Model::Functional)
            func = std::make_unique<FunctionalCore>(hier, nullptr, &dyn);
        else
            front = std::make_unique<FrontEnd>(cfg.frontEnd());
    }
};

/**
 * Run two windows over @p stream, fed in segments @p next picks. The
 * cores read @p stream's marks; a FrontEnd model marks a copy with
 * the marks cleared, restarting its cadence at each window.
 */
Outcome
runSplit(Model model, const std::vector<MicroInst> &stream,
         const std::function<std::size_t()> &next)
{
    Rig rig(model);
    Outcome out;
    if (rig.front) {
        out.marks = stream;
        for (MicroInst &inst : out.marks)
            inst.probe = inst.mispredict = false;
    }
    std::size_t at = 0;
    for (const std::uint64_t end : {kFirstWindow, kInsts}) {
        const std::size_t start = at;
        if (rig.core) {
            rig.core->resetTiming();
            rig.core->beginWindow();
        } else if (rig.front) {
            rig.front->restart();
        }
        while (at < end) {
            const std::size_t n =
                std::min<std::size_t>(next(), end - at);
            if (rig.core)
                rig.core->consume(stream.data() + at, n);
            else if (rig.func)
                rig.func->consume(stream.data() + at, n);
            else
                rig.front->mark(out.marks.data() + at, n);
            at += n;
        }
        if (rig.core) {
            out.windows.push_back(rig.core->windowActivity());
        } else {
            CoreActivity act;
            act.insts = at - start;
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
    return out;
}

/**
 * kInsts of gcc, marked by one FrontEnd of the base shape whose
 * cadence restarts at each of @p phase_starts, as runLockstep's
 * restarts at each phase.
 */
std::vector<MicroInst>
gccStream(std::vector<std::size_t> phase_starts)
{
    SyntheticWorkload wl(profileByName("gcc"));
    std::vector<MicroInst> v(kInsts);
    wl.nextBatch(v.data(), v.size());
    FrontEnd front(SystemConfig::base().frontEnd());
    phase_starts.push_back(v.size());
    for (std::size_t p = 0; p + 1 < phase_starts.size(); ++p) {
        front.restart();
        front.mark(v.data() + phase_starts[p],
                   phase_starts[p + 1] - phase_starts[p]);
    }
    return v;
}

class CoreWindowTest : public testing::TestWithParam<Model>
{
};

} // namespace

TEST_P(CoreWindowTest, EverySegmentationIsTheSameComputation)
{
    const std::vector<MicroInst> stream = gccStream({0, kFirstWindow});
    const Outcome whole =
        runSplit(GetParam(), stream, [] { return kInsts; });
    // The run did something worth comparing: both windows ran and
    // the controller resized, or the front end marked the stream as
    // gccStream did.
    ASSERT_EQ(whole.windows.size(), 2u);
    EXPECT_EQ(whole.windows[0].insts, kFirstWindow);
    if (GetParam() == Model::FrontEnd)
        EXPECT_EQ(whole.marks, stream);
    else
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
                                         Model::Functional,
                                         Model::FrontEnd),
                         [](const auto &info) {
                             switch (info.param) {
                               case Model::OutOfOrder:
                                 return std::string("OutOfOrder");
                               case Model::InOrder:
                                 return std::string("InOrder");
                               case Model::Functional:
                                 return std::string("Functional");
                               case Model::FrontEnd:
                                 return std::string("FrontEnd");
                             }
                             return std::string();
                         });

namespace
{

/** What a lane run leaves behind, compared with ==. */
struct LaneOutcome
{
    std::vector<TimelineRow> rows;
    CoreLane::Measured measured;
    RunResult result;

    bool operator==(const LaneOutcome &o) const = default;
};

/**
 * One sampled-engine lane (so it has a FunctionalCore) with a dynamic
 * d-cache and a 1000-instruction timeline, through warmup and
 * measured windows of unequal lengths, fed @p stream (marked with a
 * restart at each window) in segments @p next picks.
 */
LaneOutcome
runLane(const std::vector<MicroInst> &stream,
        const std::function<std::size_t()> &next)
{
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;
    CoreLane lane(cfg);
    RunTelemetry telemetry;
    telemetry.timelineInterval = kSampleInterval;
    lane.start({}, {Strategy::Dynamic, 0, busyController()},
               EngineSpec::makeSampled(kInsts, 4000, 4000), &telemetry);

    using Phase = CoreLane::Phase;
    const std::pair<Phase, std::size_t> windows[] = {
        {Phase::Warmup, kFirstWindow},
        {Phase::Measure, 4000},
        {Phase::Warmup, 4000},
        {Phase::Measure, kInsts - kFirstWindow - 8000},
    };
    std::size_t at = 0;
    for (const auto &[phase, len] : windows) {
        lane.begin(phase);
        for (const std::size_t end = at + len; at < end;) {
            const std::size_t n = std::min<std::size_t>(next(), end - at);
            lane.feed(stream.data() + at, n);
            at += n;
        }
        lane.end();
    }
    LaneOutcome out;
    out.measured = lane.measured();
    out.result = lane.finish("gcc", kInsts);
    out.rows = telemetry.timeline;
    return out;
}

} // namespace

TEST(CoreWindowLaneTest, SamplesDoNotDependOnSegmentation)
{
    const std::vector<MicroInst> stream =
        gccStream({0, kFirstWindow, kFirstWindow + 4000, kFirstWindow + 8000});
    const LaneOutcome whole = runLane(stream, [] { return kInsts; });
    // Every window sampled, the 7001- and 4999-instruction windows
    // with a tail sample each, and the controller resized.
    EXPECT_EQ(whole.rows.size(), 8u + 4u + 4u + 5u);
    EXPECT_EQ(whole.rows.back().insts, kInsts);
    EXPECT_EQ(whole.measured.activity.insts, kInsts - kFirstWindow - 4000);
    EXPECT_GT(whole.result.dl1Resizes, 2u);

    for (const std::size_t seg : {1, 3, 128, 1000}) {
        SCOPED_TRACE("segments of " + std::to_string(seg));
        EXPECT_EQ(runLane(stream, [seg] { return seg; }), whole);
    }
    for (const std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE("random segments, seed " + std::to_string(seed));
        Rng rng(seed);
        EXPECT_EQ(runLane(stream,
                          [&rng] {
                              return static_cast<std::size_t>(
                                  1 + rng.nextBelow(2500));
                          }),
                  whole);
    }
}

} // namespace rcache
