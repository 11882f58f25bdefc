#include "analytic/analytic_engine.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "cache/hierarchy.hh"
#include "core/size_schedule.hh"
#include "cpu/front_end.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

namespace
{

/** Every organization whose schedule a registered config might price. */
constexpr Organization allOrgs[] = {
    Organization::None,
    Organization::SelectiveWays,
    Organization::SelectiveSets,
    Organization::Hybrid,
};

std::string
geometryKey(const CacheGeometry &g)
{
    std::ostringstream os;
    os << g.size << 'x' << g.assoc << 'x' << g.blockSize << 'x'
       << g.subarraySize;
    return os.str();
}

/** Key of the fields a baseline context depends on. */
std::string
contextKeyOf(const SystemConfig &cfg)
{
    std::ostringstream os;
    os << geometryKey(cfg.il1) << '|' << geometryKey(cfg.dl1) << '|'
       << geometryKey(cfg.l2) << '|' << cfg.lat.l1Latency << ','
       << cfg.lat.l2Latency << ',' << cfg.lat.memBaseLatency << ','
       << cfg.lat.memCyclesPer8Bytes;
    return os.str();
}

/**
 * The geometry a static design point actually runs at: Strategy::None
 * is the full geometry, Strategy::Static is schedule level
 * setup.staticLevel of the side's organization. A detailed static run
 * sets that level once, before the run, and never resizes again, so
 * pricing that one geometry for the whole stream is exact, not an
 * approximation.
 */
ResizeConfig
staticGeometry(Organization org, const CacheGeometry &g,
               const ResizeSetup &setup)
{
    switch (setup.strategy) {
      case Strategy::None:
        return {g.numSets(), g.assoc};
      case Strategy::Static: {
        const std::vector<ResizeConfig> sched = buildSchedule(org, g);
        rc_assert(setup.staticLevel < sched.size());
        return sched[setup.staticLevel];
      }
      case Strategy::Dynamic:
        break;
    }
    rc_fatal("the analytic engine prices static geometries only; "
             "Strategy::Dynamic needs the detailed engine");
}

} // namespace

struct AnalyticPass::Context
{
    SystemConfig cfg;
    Cache il1;
    Cache dl1;
    Hierarchy hier;
    std::uint64_t il1MissL2Hit = 0;
    std::uint64_t dl1MissL2Hit = 0;

    explicit Context(const SystemConfig &c)
        : cfg(c),
          il1("analytic_il1", c.il1),
          dl1("analytic_dl1", c.dl1),
          hier(&il1, &dl1, c.l2, c.lat)
    {
    }
};

AnalyticPass::AnalyticPass(const BenchmarkProfile &profile,
                           std::uint64_t insts)
    : profile_(profile), insts_(insts)
{
}

AnalyticPass::~AnalyticPass() = default;

std::string
AnalyticPass::streamKey(const SystemConfig &cfg,
                        const std::string &workload,
                        std::uint64_t insts)
{
    return workload + '|' + std::to_string(insts) + '|' +
           frontEndKey(cfg.frontEnd()) + '|' +
           std::to_string(cfg.dl1.blockBits());
}

void
AnalyticPass::addConfig(const SystemConfig &cfg)
{
    rc_assert(!ran_);
    if (cfg.cores != 1)
        rc_fatal("the analytic engine supports single-core "
                 "configurations only");
    if (cfg.policy != "lru")
        rc_fatal("the analytic engine models true-LRU caches only; "
                 "got replacement policy '" + cfg.policy + "'");

    const std::string key =
        streamKey(cfg, profile_.name, insts_);
    if (key_.empty()) {
        key_ = key;
        frontEnd_ = cfg.frontEnd();
        dl1BlockBits_ = cfg.dl1.blockBits();
    } else if (key != key_) {
        rc_fatal("AnalyticPass stream key mismatch: pass built for '" +
                 key_ + "', config needs '" + key + "'");
    }

    // Requirement superset: whatever organization a job later names,
    // its schedule is covered. The union costs a handful of profiles
    // per side (one per distinct set count).
    for (Organization org : allOrgs) {
        for (const ResizeConfig &rc : buildSchedule(org, cfg.il1)) {
            unsigned &ways = il1Req_[rc.sets];
            ways = std::max(ways, rc.ways);
        }
        for (const ResizeConfig &rc : buildSchedule(org, cfg.dl1)) {
            unsigned &ways = dl1Req_[rc.sets];
            ways = std::max(ways, rc.ways);
        }
    }

    configs_.try_emplace(contextKeyOf(cfg), cfg);
}

void
AnalyticPass::il1Event(Addr pc)
{
    for (StackDistanceProfile &p : il1Profiles_)
        p.access(pc);
    for (auto &[key, ctx] : contexts_) {
        const MemAccessResult res = ctx->hier.instAccess(pc);
        if (!res.l1Hit && res.l2Hit)
            ++ctx->il1MissL2Hit;
    }
}

void
AnalyticPass::dl1Event(Addr addr, bool is_write)
{
    for (StackDistanceProfile &p : dl1Profiles_)
        p.access(addr);
    for (auto &[key, ctx] : contexts_) {
        const MemAccessResult res = ctx->hier.dataAccess(addr, is_write);
        if (!res.l1Hit && res.l2Hit)
            ++ctx->dl1MissL2Hit;
    }
}

void
AnalyticPass::run()
{
    rc_assert(!ran_);
    rc_assert(!configs_.empty());
    for (const auto &[key, cfg] : configs_)
        contexts_.emplace(key, std::make_unique<Context>(cfg));

    il1Profiles_.reserve(il1Req_.size());
    for (const auto &[sets, ways] : il1Req_)
        il1Profiles_.emplace_back(sets, ways, frontEnd_.il1BlockBits);
    dl1Profiles_.reserve(dl1Req_.size());
    for (const auto &[sets, ways] : dl1Req_)
        dl1Profiles_.emplace_back(sets, ways, dl1BlockBits_);

    // The timing cores' reference stream: the FrontEnd marks the same
    // il1 probes (in-block re-probes included, so the Cache access
    // counters line up, not just the misses) and mispredicts.
    const auto count = [&](const MicroInst &inst) {
        ++mix_.insts;
        if (inst.probe)
            il1Event(inst.pc);
        switch (inst.op) {
          case OpClass::IntAlu:
            ++mix_.intOps;
            break;
          case OpClass::FpAlu:
            ++mix_.fpOps;
            break;
          case OpClass::Load:
            ++mix_.loads;
            dl1Event(inst.effAddr, false);
            break;
          case OpClass::Store:
            ++mix_.stores;
            dl1Event(inst.effAddr, true);
            break;
          case OpClass::Branch:
            // The timing cores also charge branches as int-ALU work
            // (energy).
            ++mix_.branches;
            ++mix_.intOps;
            mix_.mispredicts += inst.mispredict;
            break;
        }
    };
    FrontEnd front(frontEnd_);
    const std::unique_ptr<Workload> wl = makeWorkload(profile_);
    MicroInst batch[workloadBatchSize];
    forEachSegment(*wl, insts_, batch, workloadBatchSize,
                   [&](MicroInst *insts, std::size_t n) {
                       front.mark(insts, n);
                       std::for_each(insts, insts + n, count);
                   });
    ran_ = true;

    // Cross-check the two independent machineries against each other:
    // at each context's full geometry the stack profiles must agree
    // with the real Cache models to the event.
    for (auto &[key, ctx] : contexts_) {
        const Cache &i = ctx->il1;
        const Cache &d = ctx->dl1;
        rc_assert(il1Accesses() == i.accesses());
        rc_assert(dl1Accesses() == d.accesses());
        rc_assert(il1MissesAt(ctx->cfg.il1.numSets(),
                              ctx->cfg.il1.assoc) == i.misses());
        rc_assert(dl1MissesAt(ctx->cfg.dl1.numSets(),
                              ctx->cfg.dl1.assoc) == d.misses());

        BaselineStats &b = baselines_[key];
        b.il1Accesses = i.accesses();
        b.il1Misses = i.misses();
        b.dl1Accesses = d.accesses();
        b.dl1Misses = d.misses();
        b.dl1Writebacks = d.writebacks();
        b.l2Accesses = ctx->hier.l2().accesses();
        b.l2Misses = ctx->hier.l2().misses();
        b.memAccesses =
            ctx->hier.memReads() + ctx->hier.memWrites();
        b.il1MissL2Hits = ctx->il1MissL2Hit;
        b.dl1MissL2Hits = ctx->dl1MissL2Hit;
        b.l2HitPenalty = ctx->hier.l2HitPenalty();
        b.memPenalty = ctx->hier.memPenalty();
    }
    contexts_.clear();
}

const StackDistanceProfile &
AnalyticPass::profileFor(const std::vector<StackDistanceProfile> &side,
                         std::uint64_t sets, unsigned ways) const
{
    for (const StackDistanceProfile &p : side)
        if (p.sets() == sets && ways <= p.maxWays())
            return p;
    rc_fatal("analytic pass has no profile covering " +
             std::to_string(sets) + " sets x " +
             std::to_string(ways) + " ways (geometry never "
             "registered via addConfig)");
}

std::uint64_t
AnalyticPass::il1Accesses() const
{
    rc_assert(ran_);
    return il1Profiles_.front().accesses();
}

std::uint64_t
AnalyticPass::dl1Accesses() const
{
    rc_assert(ran_);
    return dl1Profiles_.front().accesses();
}

std::uint64_t
AnalyticPass::il1MissesAt(std::uint64_t sets, unsigned ways) const
{
    rc_assert(ran_);
    return profileFor(il1Profiles_, sets, ways).misses(ways);
}

std::uint64_t
AnalyticPass::dl1MissesAt(std::uint64_t sets, unsigned ways) const
{
    rc_assert(ran_);
    return profileFor(dl1Profiles_, sets, ways).misses(ways);
}

const CoreActivity &
AnalyticPass::mix() const
{
    rc_assert(ran_);
    return mix_;
}

const AnalyticPass::BaselineStats &
AnalyticPass::baseline(const SystemConfig &cfg) const
{
    rc_assert(ran_);
    const auto it = baselines_.find(contextKeyOf(cfg));
    if (it == baselines_.end())
        rc_fatal("analytic pass has no baseline context for this "
                 "configuration (addConfig was never called with it)");
    return it->second;
}

bool
AnalyticPass::covers(const RunJob &job) const
{
    return ran_ &&
           streamKey(job.cfg, job.profile.name, job.insts) == key_ &&
           baselines_.count(contextKeyOf(job.cfg));
}

namespace
{

/**
 * Cycle-model constants, per core model. Miss counts are exact;
 * cycles are this CPI model, least-squares calibrated against the
 * detailed engine over the full SPEC2000 suite on fig4/fig9-shaped
 * static grids (R^2 ~ 0.99) so that E.D orderings — and with them
 * best-size selections — agree. baseCpi covers issue/dependence
 * limits, the exposures are the fraction of a miss's latency the
 * machine fails to hide (the frontend blocks on i-side misses, so
 * those are nearly fully exposed; the OoO window plus MSHR overlap
 * hide most d-side latency), and mispredicts pay the frontend refill.
 */
struct CycleModel
{
    double baseCpi;
    double il1Exposure;
    double dl1L2Exposure;
    double dl1MemExposure;
    double mispredictExtra;
};

constexpr CycleModel oooModel{0.14, 0.92, 0.09, 0.19, 4.3};
constexpr CycleModel inOrderModel{1.05, 1.0, 1.0, 1.0, 1.0};

/**
 * Split one side's miss count into L2-hit and memory-bound cycle
 * charges. Misses up to the baseline count keep the baseline's
 * observed L2/memory split; misses *beyond* it are conflict/capacity
 * misses of a smaller L1 whose blocks still live in the unchanged L2,
 * so they are charged as L2 hits. (Pricing the old way — the whole
 * count at the baseline's blended penalty — overcharges shrunk
 * geometries of memory-bound apps by an order of magnitude.)
 */
struct MissCharge
{
    double l2HitCycles = 0;
    double memCycles = 0;
};

MissCharge
missCharge(std::uint64_t misses, std::uint64_t base_misses,
           std::uint64_t base_l2_hits, double fallback_mem_frac,
           const AnalyticPass::BaselineStats &b)
{
    const double base_part = static_cast<double>(
        std::min<std::uint64_t>(misses, base_misses));
    const double mem_frac =
        base_misses
            ? static_cast<double>(base_misses - base_l2_hits) /
                  static_cast<double>(base_misses)
            : fallback_mem_frac;
    const double mem_misses = base_part * mem_frac;
    return {(static_cast<double>(misses) - mem_misses) *
                static_cast<double>(b.l2HitPenalty),
            mem_misses * static_cast<double>(b.memPenalty)};
}

/** Per-access enabled data subarrays (cache.cc
 *  updateAccessConstants). */
std::uint64_t
enabledSubarrays(const ResizeConfig &rc, const CacheGeometry &g)
{
    const std::uint64_t per_way = std::max<std::uint64_t>(
        1, rc.sets * g.blockSize / g.subarraySize);
    return per_way * rc.ways;
}

CacheActivity
l1Activity(std::uint64_t accesses, std::uint64_t misses,
           const ResizeConfig &rc, const CacheGeometry &g,
           std::uint64_t cycles)
{
    CacheActivity act;
    act.accesses = static_cast<double>(accesses);
    act.misses = static_cast<double>(misses);
    act.prechargeEvents = static_cast<double>(accesses) *
                          static_cast<double>(enabledSubarrays(rc, g));
    act.wayReads =
        static_cast<double>(accesses) * static_cast<double>(rc.ways);
    act.byteCycles =
        static_cast<double>(rc.sizeBytes(g.blockSize)) *
        static_cast<double>(cycles);
    return act;
}

} // namespace

RunResult
priceAnalyticJob(const RunJob &job, const AnalyticPass &pass)
{
    rc_assert(job.engine.analytic());
    rc_assert(pass.ran());
    if (job.cfg.cores != 1)
        rc_fatal("the analytic engine supports single-core "
                 "configurations only");

    const SystemConfig &cfg = job.cfg;
    const ResizeConfig gi =
        staticGeometry(cfg.il1Org, cfg.il1, job.il1);
    const ResizeConfig gd =
        staticGeometry(cfg.dl1Org, cfg.dl1, job.dl1);

    const std::uint64_t acc_i = pass.il1Accesses();
    const std::uint64_t acc_d = pass.dl1Accesses();
    const std::uint64_t miss_i = pass.il1MissesAt(gi.sets, gi.ways);
    const std::uint64_t miss_d = pass.dl1MissesAt(gd.sets, gd.ways);
    const AnalyticPass::BaselineStats &b = pass.baseline(cfg);

    // Downstream traffic: writebacks track d-side misses (an eviction
    // per miss at the baseline dirty fraction) and L2 accesses are L1
    // misses plus writebacks by construction. Memory traffic does NOT
    // scale with L2 pressure — misses beyond the baseline count are
    // conflict misses of a smaller L1 whose blocks still live in the
    // unchanged L2, so the memory access count stays the baseline's
    // (the detailed engine's memory energy is flat across schedule
    // levels for exactly this reason). At the baseline geometry every
    // count reproduces the detailed run's exactly.
    const double wb_scale =
        b.dl1Misses ? static_cast<double>(miss_d) /
                          static_cast<double>(b.dl1Misses)
                    : 0.0;
    const std::uint64_t wb = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(b.dl1Writebacks) * wb_scale));
    const std::uint64_t l2_acc = miss_i + miss_d + wb;
    const double mem_acc = static_cast<double>(b.memAccesses);

    const CycleModel &cm =
        cfg.modelOfCore(0) == CoreModel::OutOfOrder ? oooModel
                                                    : inOrderModel;
    const double fallback_mem_frac =
        b.l2Accesses ? static_cast<double>(b.l2Misses) /
                           static_cast<double>(b.l2Accesses)
                     : 0.0;
    const MissCharge chg_i = missCharge(
        miss_i, b.il1Misses, b.il1MissL2Hits, fallback_mem_frac, b);
    const MissCharge chg_d = missCharge(
        miss_d, b.dl1Misses, b.dl1MissL2Hits, fallback_mem_frac, b);

    CoreActivity act = pass.mix();
    act.outOfOrder = cfg.modelOfCore(0) == CoreModel::OutOfOrder;

    const double modeled =
        static_cast<double>(act.insts) * cm.baseCpi +
        static_cast<double>(act.mispredicts) *
            (cfg.core.frontendDepth + cm.mispredictExtra) +
        cm.il1Exposure * (chg_i.l2HitCycles + chg_i.memCycles) +
        cm.dl1L2Exposure * chg_d.l2HitCycles +
        cm.dl1MemExposure * chg_d.memCycles;
    // The commit width is a hard throughput bound in the detailed
    // model; keep the analytic estimate above it.
    const double floor_cycles = static_cast<double>(act.insts) /
                                static_cast<double>(cfg.core.commitWidth);
    const std::uint64_t cycles = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(std::max(modeled, floor_cycles))));
    act.cycles = cycles;

    const CacheActivity il1_act =
        l1Activity(acc_i, miss_i, gi, cfg.il1, cycles);
    const CacheActivity dl1_act =
        l1Activity(acc_d, miss_d, gd, cfg.dl1, cycles);

    const ProcessorEnergyModel energy(cfg.energy);

    RunResult res;
    res.workload = job.profile.name;
    res.insts = act.insts;
    res.cycles = cycles;
    res.activity = act;
    res.energy = energy.compute(
        act, il1_act, extraTagBits(cfg.il1Org, cfg.il1), dl1_act,
        extraTagBits(cfg.dl1Org, cfg.dl1),
        static_cast<double>(l2_acc), cfg.l2.size, mem_acc);
    res.avgIl1Bytes =
        static_cast<double>(gi.sizeBytes(cfg.il1.blockSize));
    res.avgDl1Bytes =
        static_cast<double>(gd.sizeBytes(cfg.dl1.blockSize));
    res.il1MissRatio =
        acc_i ? static_cast<double>(miss_i) / acc_i : 0.0;
    res.dl1MissRatio =
        acc_d ? static_cast<double>(miss_d) / acc_d : 0.0;
    // L2 contents under a resized L1 are not replayed; the modelled
    // L2 keeps the baseline's miss *count* (extra L1 misses hit it)
    // over the scaled access count (exact at the baseline geometry).
    res.l2MissRatio =
        l2_acc ? static_cast<double>(b.l2Misses) /
                     static_cast<double>(l2_acc)
               : 0.0;
    // A detailed static run sets its level once, before the run, and
    // Cache::resizeTo counts that only when the level's geometry is
    // not the full one; None keeps the full geometry.
    res.il1Resizes =
        gi == ResizeConfig{cfg.il1.numSets(), cfg.il1.assoc} ? 0 : 1;
    res.dl1Resizes =
        gd == ResizeConfig{cfg.dl1.numSets(), cfg.dl1.assoc} ? 0 : 1;
    res.engine = EngineMode::Analytic;
    res.measuredInsts = 0;
    res.warmupInsts = 0;
    res.il1Accesses = acc_i;
    res.il1Misses = miss_i;
    res.dl1Accesses = acc_d;
    res.dl1Misses = miss_d;
    return res;
}

std::vector<RunResult>
runAnalyticGroup(const std::vector<const RunJob *> &members,
                 std::shared_ptr<const AnalyticPass> &pass)
{
    const auto covers = [&](const RunJob *job) {
        return pass->covers(*job);
    };
    if (!pass || !std::all_of(members.begin(), members.end(), covers)) {
        const RunJob &lead = *members.front();
        auto fresh =
            std::make_shared<AnalyticPass>(lead.profile, lead.insts);
        for (const RunJob *job : members)
            fresh->addConfig(job->cfg);
        fresh->run();
        pass = std::move(fresh);
    }
    std::vector<RunResult> out;
    out.reserve(members.size());
    for (const RunJob *job : members)
        out.push_back(priceAnalyticJob(*job, *pass));
    return out;
}

RunResult
runAnalyticJob(const RunJob &job)
{
    std::shared_ptr<const AnalyticPass> pass;
    return runAnalyticGroup({&job}, pass).front();
}

} // namespace rcache
