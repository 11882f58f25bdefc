/**
 * @file
 * One FrontEnd's marks feed every consumer alike: a sampled run's
 * warmup (FunctionalCore) must leave the hierarchy and the resize
 * controllers exactly as a timing core leaves them, under every L1
 * replacement policy. SLRU promotes a block on every hit and
 * W-TinyLFU's sketch counts every access, so a warmup that skipped
 * the i-cache re-probes a timing core makes would leave different
 * state; an i-cache controller that shrinks mid-group would make the
 * skipped re-probe a miss.
 *
 * One gcc stream is marked once and fed to a FunctionalCore, an
 * OooCore and an InOrderCore, each over its own hierarchy with a
 * dynamic d-cache controller and an i-cache that misses often: a
 * 2 KB 2-way geometry (the selective-sets floor of the default il1),
 * or the default il1 under a dynamic controller bounded at that
 * floor. Their event counters, writebacks, L2 and memory traffic and
 * level traces must be equal; so must those of one more identical
 * OooCore window on each hierarchy, which reads the replacement
 * order, dirty bits and sketch the first window left.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/dynamic_controller.hh"
#include "core/resizable_cache.hh"
#include "cpu/front_end.hh"
#include "cpu/functional_core.hh"
#include "cpu/inorder_core.hh"
#include "cpu/ooo_core.hh"
#include "sim/system.hh"
#include "workload/profiles.hh"
#include "workload/synthetic.hh"

namespace rcache
{

namespace
{

constexpr std::size_t kWarmInsts = 200000;
constexpr std::size_t kNextInsts = 100000;
constexpr std::uint64_t kIl1FloorBytes = 2 * 1024;

enum class Model
{
    Functional,
    OutOfOrder,
    InOrder,
};

/** Everything a consumer leaves in the hierarchy and controllers. */
struct State
{
    HierarchyActivity caches;
    std::uint64_t il1Writebacks = 0;
    std::uint64_t dl1Writebacks = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::vector<unsigned> il1Levels;
    std::vector<unsigned> dl1Levels;

    bool operator==(const State &o) const = default;
};

void
PrintTo(const State &s, std::ostream *os)
{
    *os << "il1 " << s.caches.il1.accesses << " accesses, "
        << s.caches.il1.misses << " misses; dl1 " << s.caches.dl1.accesses
        << ", " << s.caches.dl1.misses << "; l2 " << s.caches.l2Accesses
        << ", " << s.caches.l2Misses << "; writebacks " << s.il1Writebacks
        << " + " << s.dl1Writebacks << "; " << s.il1Levels.size() << " + "
        << s.dl1Levels.size() << " intervals";
}

/** A hierarchy whose L1s run @p policy: a small il1, or the default
 *  one shrinking under a controller; a resizing dl1 either way. */
struct Rig
{
    SystemConfig cfg = SystemConfig::base();
    ResizableCache il1;
    ResizableCache dl1;
    Hierarchy hier;
    std::unique_ptr<DynamicMissRatioController> il1Dyn;
    DynamicMissRatioController dl1Dyn;

    Rig(const std::string &policy, bool small_il1)
        : il1("il1",
              small_il1 ? CacheGeometry{kIl1FloorBytes, 2, 32, 1024}
                        : cfg.il1,
              small_il1 ? Organization::None
                        : Organization::SelectiveSets,
              policy),
          dl1("dl1", cfg.dl1, Organization::SelectiveSets, policy),
          hier(&il1.cache(), &dl1.cache(), cfg.l2, cfg.lat),
          dl1Dyn(dl1, hier.l1WritebackSink(), {2048, 64, 0, 1.0})
    {
        if (!small_il1)
            il1Dyn = std::make_unique<DynamicMissRatioController>(
                il1, hier.l1WritebackSink(),
                DynamicParams{2048, 1000, kIl1FloorBytes, 1.0});
    }

    /** A window of @p model over @p insts[0..n). */
    void
    run(Model model, const MicroInst *insts, std::size_t n)
    {
        if (model == Model::Functional) {
            FunctionalCore(hier, il1Dyn.get(), &dl1Dyn).consume(insts, n);
            return;
        }
        std::unique_ptr<Core> core;
        if (model == Model::OutOfOrder)
            core = std::make_unique<OooCore>(cfg.core, hier, il1Dyn.get(),
                                             &dl1Dyn);
        else
            core = std::make_unique<InOrderCore>(cfg.core, hier,
                                                 il1Dyn.get(), &dl1Dyn);
        core->beginWindow();
        core->consume(insts, n);
    }

    State
    state() const
    {
        State s;
        s.caches = HierarchyActivity::of(hier);
        // Only timing runs accrue the enabled-size integral.
        s.caches.il1.byteCycles = s.caches.dl1.byteCycles = 0;
        s.il1Writebacks = il1.cache().writebacks();
        s.dl1Writebacks = dl1.cache().writebacks();
        s.memReads = hier.memReads();
        s.memWrites = hier.memWrites();
        if (il1Dyn)
            s.il1Levels = il1Dyn->levelTrace();
        s.dl1Levels = dl1Dyn.levelTrace();
        return s;
    }
};

/** gcc, marked by one FrontEnd that restarts at each window. */
std::vector<MicroInst>
markedGcc()
{
    SyntheticWorkload wl(profileByName("gcc"));
    std::vector<MicroInst> v(kWarmInsts + kNextInsts);
    wl.nextBatch(v.data(), v.size());
    FrontEnd front(SystemConfig::base().frontEnd());
    front.mark(v.data(), kWarmInsts);
    front.restart();
    front.mark(v.data() + kWarmInsts, kNextInsts);
    return v;
}

class WarmupMatchesTimingTest : public testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(WarmupMatchesTimingTest, FunctionalCoreLeavesWhatTimingCoresLeave)
{
    const std::vector<MicroInst> stream = markedGcc();
    for (const bool small_il1 : {true, false}) {
        SCOPED_TRACE(small_il1 ? "2 KB il1" : "shrinking il1");
        Rig functional(GetParam(), small_il1);
        Rig ooo(GetParam(), small_il1);
        Rig inorder(GetParam(), small_il1);
        functional.run(Model::Functional, stream.data(), kWarmInsts);
        ooo.run(Model::OutOfOrder, stream.data(), kWarmInsts);
        inorder.run(Model::InOrder, stream.data(), kWarmInsts);

        const State warm = functional.state();
        // The window did something worth comparing: the i-cache
        // misses often, the d-cache writes back, and the controllers
        // resized (the i-cache's down to a quarter or less).
        EXPECT_GT(warm.caches.il1.misses, warm.caches.il1.accesses / 4);
        EXPECT_GT(warm.dl1Writebacks, 0u);
        EXPECT_NE(std::count(warm.dl1Levels.begin(), warm.dl1Levels.end(),
                             0u),
                  std::ssize(warm.dl1Levels));
        if (!small_il1)
            EXPECT_GE(*std::max_element(warm.il1Levels.begin(),
                                        warm.il1Levels.end()),
                      2u);
        EXPECT_EQ(ooo.state(), warm);
        EXPECT_EQ(inorder.state(), warm);

        // The next window reads what the first one left.
        for (Rig *rig : {&functional, &ooo, &inorder})
            rig->run(Model::OutOfOrder, stream.data() + kWarmInsts,
                     kNextInsts);
        const State next = functional.state();
        EXPECT_EQ(ooo.state(), next);
        EXPECT_EQ(inorder.state(), next);
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, WarmupMatchesTimingTest,
                         testing::Values("lru", "random", "fifo", "slru",
                                         "wtlfu"),
                         [](const auto &info) { return info.param; });

} // namespace rcache
