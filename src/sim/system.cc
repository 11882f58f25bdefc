#include "sim/system.hh"

#include <algorithm>
#include <cmath>

#include "cpu/functional_core.hh"
#include "cpu/inorder_core.hh"
#include "cpu/ooo_core.hh"
#include "telemetry/run_telemetry.hh"
#include "telemetry/timeline.hh"
#include "workload/workload_factory.hh"

namespace rcache
{

namespace
{

/**
 * Apply @p setup to @p cache before the run: a static level is set
 * now (the cache is empty, so the flush is vacuous, but the resize is
 * counted unless the level is the full size), and only a dynamic
 * setup returns a controller to resize it during the run.
 */
std::unique_ptr<DynamicMissRatioController>
applySetup(ResizableCache &cache, Hierarchy &hier,
           const ResizeSetup &setup)
{
    switch (setup.strategy) {
      case Strategy::None:
        return nullptr;
      case Strategy::Static:
        rc_assert(cache.organization() != Organization::None ||
                  setup.staticLevel == 0);
        cache.setLevel(setup.staticLevel, hier.l1WritebackSink());
        return nullptr;
      case Strategy::Dynamic:
        rc_assert(cache.organization() != Organization::None);
        return std::make_unique<DynamicMissRatioController>(
            cache, hier.l1WritebackSink(), setup.dyn);
    }
    rc_panic("bad strategy");
}

/**
 * A core's private view of its workload: the stream with every
 * address shifted into the core's own high-address window, so
 * concurrent programs never alias in the shared L2. The offset leaves
 * all index/tag-low bits untouched: each stream's L1 and alias-set
 * behavior is bit-identical to the unshifted stream.
 */
class AddressSpaceWorkload final : public Workload
{
  public:
    AddressSpaceWorkload(std::unique_ptr<Workload> inner, Addr base)
        : inner_(std::move(inner)), base_(base)
    {
    }

    MicroInst
    next() override
    {
        MicroInst inst = inner_->next();
        relocate(inst);
        return inst;
    }

    void
    nextBatch(MicroInst *buf, std::size_t n) override
    {
        inner_->nextBatch(buf, n);
        for (std::size_t k = 0; k < n; ++k)
            relocate(buf[k]);
    }

    void reset() override { inner_->reset(); }
    void skip(std::uint64_t n) override { inner_->skip(n); }
    std::string name() const override { return inner_->name(); }

  private:
    void
    relocate(MicroInst &inst) const
    {
        inst.pc += base_;
        inst.effAddr += base_;
        inst.target += base_;
    }

    std::unique_ptr<Workload> inner_;
    Addr base_;
};

} // namespace

std::string
coreModelName(CoreModel m)
{
    switch (m) {
      case CoreModel::OutOfOrder:
        return "out-of-order/non-blocking";
      case CoreModel::InOrder:
        return "in-order/blocking";
    }
    rc_panic("bad core model");
}

CoreLane::CoreLane(const SystemConfig &cfg)
    : model_(cfg.coreModel),
      coreParams_(cfg.core),
      frontEnd_(cfg.frontEnd()),
      energy_(cfg.energy),
      frames_(std::make_unique<FrameMapping>(
          l1FrameBytes(cfg) + FrameMapping::bytesFor(cfg.l2))),
      il1_("il1", cfg.il1, cfg.il1Org, cfg.policy, 0, frames_.get()),
      dl1_("dl1", cfg.dl1, cfg.dl1Org, cfg.policy, 0, frames_.get()),
      hier_(&il1_.cache(), &dl1_.cache(), cfg.l2, cfg.lat, frames_.get())
{
}

CoreLane::CoreLane(const SystemConfig &cfg, unsigned id, SharedL2 &l2,
                   FrameMapping &frames)
    : model_(cfg.modelOfCore(id)),
      coreParams_(cfg.core),
      frontEnd_(cfg.frontEnd()),
      energy_(cfg.energy),
      il1_("il1", cfg.il1, cfg.il1Org, cfg.policy, id, &frames),
      dl1_("dl1", cfg.dl1, cfg.dl1Org, cfg.policy, id, &frames),
      hier_(&il1_.cache(), &dl1_.cache(), l2, id, cfg.lat)
{
}

std::size_t
CoreLane::l1FrameBytes(const SystemConfig &cfg)
{
    return FrameMapping::bytesFor(cfg.il1) + FrameMapping::bytesFor(cfg.dl1);
}

CoreLane::~CoreLane() = default;

void
CoreLane::start(const ResizeSetup &il1_setup,
                const ResizeSetup &dl1_setup, const EngineSpec &engine,
                RunTelemetry *telemetry)
{
    rc_assert(!core_);
    engine_ = engine;
    telemetry_ = telemetry;
    il1Dyn_ = applySetup(il1_, hier_, il1_setup);
    dl1Dyn_ = applySetup(dl1_, hier_, dl1_setup);
    if (model_ == CoreModel::OutOfOrder) {
        core_ = std::make_unique<OooCore>(coreParams_, hier_,
                                          il1Dyn_.get(), dl1Dyn_.get());
    } else {
        core_ = std::make_unique<InOrderCore>(coreParams_, hier_,
                                              il1Dyn_.get(),
                                              dl1Dyn_.get());
    }
    if (engine_.sampled()) {
        func_ = std::make_unique<FunctionalCore>(hier_, il1Dyn_.get(),
                                                 dl1Dyn_.get());
    }
    if (!telemetry)
        return;

    if (telemetry->resizeEvents) {
        const ResizeTelemetry sink{&telemetry->events, hier_.coreId(),
                                   coreParams_.wbDrainLatency};
        for (DynamicMissRatioController *dyn :
             {il1Dyn_.get(), dl1Dyn_.get()})
            if (dyn)
                dyn->setTelemetry(sink);
    }
    if (telemetry->wantsTimeline()) {
        TimelineSources src;
        src.hier = &hier_;
        src.il1ExtraTagBits = il1_.extraTagBits();
        src.dl1ExtraTagBits = dl1_.extraTagBits();
        src.timingCore = core_.get();
        src.energy = &energy_;
        recorder_ = std::make_unique<TimelineRecorder>(
            src, telemetry->timelineInterval);
    }
}

void
CoreLane::begin(Phase phase)
{
    rc_assert(core_);
    phase_ = phase;
    phaseInsts_ = 0;
    if (phase == Phase::Warmup)
        return;
    // A fresh timing window: cycle 0, empty structural pools,
    // byte-cycle integrals re-anchored. On a fresh lane both restarts
    // leave everything as constructed.
    core_->resetTiming();
    il1_.cache().restartTimeAccounting();
    dl1_.cache().restartTimeAccounting();
    pre_ = HierarchyActivity::of(hier_);
    core_->beginWindow();
}

void
CoreLane::sample()
{
    if (phase_ == Phase::Warmup)
        recorder_->sampleWarmup(phaseInsts_);
    else
        recorder_->sample(core_->windowActivity());
}

void
CoreLane::feed(const MicroInst *insts, std::size_t n)
{
    while (n > 0) {
        // With a timeline on, stop at each sample point.
        std::size_t span = n;
        if (recorder_) {
            const std::uint64_t every = recorder_->interval();
            span = std::min<std::uint64_t>(n, every - phaseInsts_ % every);
        }
        if (phase_ == Phase::Warmup)
            func_->consume(insts, span);
        else
            core_->consume(insts, span);
        insts += span;
        n -= span;
        phaseInsts_ += span;
        if (recorder_ && phaseInsts_ % recorder_->interval() == 0)
            sample();
    }
}

void
CoreLane::end()
{
    if (recorder_) {
        // A phase whose last stretch is short of a full interval
        // still ends with a sample, so the recorder can close it.
        if (phaseInsts_ % recorder_->interval() != 0)
            sample();
        recorder_->closeWindow();
    }
    if (phase_ == Phase::Warmup) {
        measured_.warmupInsts += phaseInsts_;
        return;
    }
    const CoreActivity act = core_->windowActivity();
    il1_.cache().accumulateEnabledTime(act.cycles);
    dl1_.cache().accumulateEnabledTime(act.cycles);

    Measured &m = measured_;
    m.caches += HierarchyActivity::of(hier_) - pre_;
    m.activity.addCounts(act);
    m.activity.cycles += act.cycles;
}

RunResult
CoreLane::finish(const std::string &workload, std::uint64_t total_insts)
{
    const Measured &m = measured_;
    rc_assert(m.activity.insts > 0);

    RunResult r;
    r.workload = workload;
    r.engine = engine_.mode;
    r.measuredInsts = m.activity.insts;
    r.warmupInsts = m.warmupInsts;

    // Extrapolate the measured windows to the whole stream (scale
    // exactly 1 when every instruction was measured). Counts are
    // rounded once here, never per window, so the estimate does not
    // depend on the window count for a fixed measured fraction.
    const double scale = static_cast<double>(total_insts) /
                         static_cast<double>(m.activity.insts);
    const auto scaleCount = [scale](auto v) {
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(v) * scale));
    };
    r.activity.outOfOrder = m.activity.outOfOrder;
    r.activity.insts = total_insts;
    r.activity.cycles = scaleCount(m.activity.cycles);
    r.activity.intOps = scaleCount(m.activity.intOps);
    r.activity.fpOps = scaleCount(m.activity.fpOps);
    r.activity.loads = scaleCount(m.activity.loads);
    r.activity.stores = scaleCount(m.activity.stores);
    r.activity.branches = scaleCount(m.activity.branches);
    r.activity.mispredicts = scaleCount(m.activity.mispredicts);
    r.insts = r.activity.insts;
    r.cycles = r.activity.cycles;

    // Priced from this core's own events: its L1s plus its share of
    // the L2/memory traffic, with the L2's size-proportional term over
    // this core's cycles.
    const HierarchyActivity &c = m.caches;
    r.energy = ProcessorEnergyModel(energy_).compute(
        r.activity, c.il1.scaled(scale), il1_.extraTagBits(),
        c.dl1.scaled(scale), dl1_.extraTagBits(),
        static_cast<double>(c.l2Accesses) * scale,
        hier_.l2().geometry().size,
        static_cast<double>(c.memAccesses) * scale);

    const double cyc = static_cast<double>(m.activity.cycles);
    r.avgIl1Bytes = cyc > 0 ? c.il1.byteCycles / cyc : 0.0;
    r.avgDl1Bytes = cyc > 0 ? c.dl1.byteCycles / cyc : 0.0;
    r.il1MissRatio = c.il1.missRatio();
    r.dl1MissRatio = c.dl1.missRatio();
    r.l2MissRatio = c.l2Accesses > 0
                        ? static_cast<double>(c.l2Misses) /
                              static_cast<double>(c.l2Accesses)
                        : 0.0;
    r.il1Accesses = scaleCount(c.il1.accesses);
    r.il1Misses = scaleCount(c.il1.misses);
    r.dl1Accesses = scaleCount(c.dl1.accesses);
    r.dl1Misses = scaleCount(c.dl1.misses);
    r.il1Resizes = il1_.cache().resizes();
    r.dl1Resizes = dl1_.cache().resizes();
    if (il1Dyn_)
        r.il1LevelTrace = il1Dyn_->levelTrace();
    if (dl1Dyn_)
        r.dl1LevelTrace = dl1Dyn_->levelTrace();

    if (recorder_) {
        auto rows = recorder_->takeRows();
        telemetry_->timeline.insert(telemetry_->timeline.end(),
                                    rows.begin(), rows.end());
    }
    return r;
}

void
runLockstep(const std::vector<Workload *> &streams,
            const std::vector<std::vector<CoreLane *>> &members,
            std::uint64_t insts, std::uint64_t quantum,
            const EngineSpec &engine)
{
    // One front end per slot, whose marks every lane of the slot reads.
    std::vector<FrontEnd> fronts;
    for (std::size_t c = 0; c < streams.size(); ++c) {
        fronts.emplace_back(members.front()[c]->frontEnd());
        for (const auto &lanes : members)
            rc_assert(lanes[c]->frontEnd() == members.front()[c]->frontEnd());
    }
    std::vector<MicroInst> segment(laneSegmentInsts);
    // One phase of slot c's turn, marked and fed to every lane c.
    const auto phase = [&](std::size_t c, CoreLane::Phase ph,
                           std::uint64_t n) {
        for (const auto &lanes : members)
            lanes[c]->begin(ph);
        FrontEnd &front = fronts[c];
        front.restart();
        forEachSegment(*streams[c], n, segment.data(), segment.size(),
                       [&](MicroInst *seg, std::size_t len) {
                           front.mark(seg, len);
                           for (const auto &lanes : members)
                               lanes[c]->feed(seg, len);
                       });
        for (const auto &lanes : members)
            lanes[c]->end();
    };

    // Deterministic round-robin turns: one quantum (full detail) or
    // one whole sampling period (sampled) per slot per turn, so a
    // shared L2's interleave is a pure function of the configuration
    // in both modes.
    std::vector<std::uint64_t> remaining(streams.size(), insts);
    for (bool work_left = true; work_left;) {
        work_left = false;
        for (std::size_t c = 0; c < streams.size(); ++c) {
            if (remaining[c] == 0)
                continue;
            const SamplingConfig::PeriodShape shape =
                engine.period(remaining[c], quantum);
            // Fast-forward: stream position only; nothing simulated.
            if (shape.fastForward)
                streams[c]->skip(shape.fastForward);
            if (shape.warmup)
                phase(c, CoreLane::Phase::Warmup, shape.warmup);
            phase(c, CoreLane::Phase::Measure, shape.detailed);
            remaining[c] -=
                shape.fastForward + shape.warmup + shape.detailed;
            work_left = work_left || remaining[c] != 0;
        }
    }
}

System::System(const SystemConfig &cfg) : cfg_(cfg)
{
    rc_assert(cfg_.cores >= 1);
    if (cfg_.cores == 1) {
        lanes_.push_back(std::make_unique<CoreLane>(cfg_));
        return;
    }
    rc_assert(cfg_.quantumInsts > 0);
    frames_.emplace(FrameMapping::bytesFor(cfg_.l2) +
                    cfg_.cores * CoreLane::l1FrameBytes(cfg_));
    l2_.emplace(cfg_.l2, cfg_.cores, &*frames_);
    for (unsigned c = 0; c < cfg_.cores; ++c)
        lanes_.push_back(std::make_unique<CoreLane>(cfg_, c, *l2_, *frames_));
}

System::~System() = default;

System::Streams
System::openStreams(const std::vector<BenchmarkProfile> &mix,
                    unsigned cores)
{
    rc_assert(!mix.empty());
    Streams streams;
    for (unsigned c = 0; c < cores; ++c) {
        std::unique_ptr<Workload> stream = makeWorkload(mix[c % mix.size()]);
        if (addressSpaceBase(c) != 0)
            stream = std::make_unique<AddressSpaceWorkload>(
                std::move(stream), addressSpaceBase(c));
        streams.push_back(std::move(stream));
    }
    return streams;
}

std::vector<CoreLane *>
System::start(const ResizeSetup &il1_setup, const ResizeSetup &dl1_setup,
              const EngineSpec &engine, RunTelemetry *telemetry)
{
    rc_assert(!ran_);
    ran_ = true;
    engine.validate();
    if (engine.analytic())
        rc_fatal("the analytic engine does not run Systems; dispatch "
                 "through executeRunJob");
    engine_ = engine;
    std::vector<CoreLane *> lanes;
    for (const auto &lane : lanes_) {
        lane->start(il1_setup, dl1_setup, engine, telemetry);
        lanes.push_back(lane.get());
    }
    return lanes;
}

SystemResult
System::run(const std::vector<BenchmarkProfile> &mix,
            std::uint64_t insts_per_core, const ResizeSetup &il1_setup,
            const ResizeSetup &dl1_setup, const EngineSpec &engine,
            RunTelemetry *telemetry)
{
    rc_assert(insts_per_core > 0);
    const std::vector<CoreLane *> lanes =
        start(il1_setup, dl1_setup, engine, telemetry);
    const Streams streams = openStreams(mix, cfg_.cores);
    std::vector<Workload *> slots;
    for (const auto &s : streams)
        slots.push_back(s.get());
    runLockstep(slots, {lanes}, insts_per_core,
                quantum(cfg_, insts_per_core), engine);
    return finish(mix, streams, insts_per_core);
}

RunResult
System::run(Workload &workload, std::uint64_t num_insts,
            const ResizeSetup &il1_setup, const ResizeSetup &dl1_setup,
            const EngineSpec &engine, RunTelemetry *telemetry)
{
    rc_assert(cfg_.cores == 1);
    const std::vector<CoreLane *> lanes =
        start(il1_setup, dl1_setup, engine, telemetry);
    runLockstep({&workload}, {lanes}, num_insts,
                quantum(cfg_, num_insts), engine);
    return lanes.front()->finish(workload.name(), num_insts);
}

SystemResult
System::finish(const std::vector<BenchmarkProfile> &mix,
               const Streams &streams, std::uint64_t insts_per_core)
{
    rc_assert(!mix.empty() && streams.size() == lanes_.size());
    // ---- per-core results; timelines are handed over in core order
    SystemResult out;
    out.perCore.reserve(lanes_.size());
    for (std::size_t c = 0; c < lanes_.size(); ++c)
        out.perCore.push_back(
            lanes_[c]->finish(streams[c]->name(), insts_per_core));
    if (!l2_) {
        out.aggregate = out.perCore.front();
        return out;
    }

    // ---- shared-L2 attribution
    out.l2PerCore.reserve(cfg_.cores);
    for (unsigned c = 0; c < cfg_.cores; ++c)
        out.l2PerCore.push_back(l2_->coreStats(c));
    out.l2Totals = l2_->totals();

    // ---- the aggregate the sweep machinery reduces on
    RunResult &agg = out.aggregate;
    {
        std::string name;
        for (std::size_t i = 0; i < mix.size(); ++i)
            name += (i ? "+" : "") + mix[i].name;
        agg.workload = std::move(name);
    }
    agg.engine = engine_.mode;
    double total_l2_accesses = 0;
    for (const RunResult &r : out.perCore) {
        agg.insts += r.insts;
        agg.il1Accesses += r.il1Accesses;
        agg.il1Misses += r.il1Misses;
        agg.dl1Accesses += r.dl1Accesses;
        agg.dl1Misses += r.dl1Misses;
        agg.cycles = std::max(agg.cycles, r.cycles);
        agg.activity.addCounts(r.activity);
        agg.activity.cycles =
            std::max(agg.activity.cycles, r.activity.cycles);
        agg.energy.icache += r.energy.icache;
        agg.energy.dcache += r.energy.dcache;
        agg.energy.memory += r.energy.memory;
        agg.energy.core += r.energy.core;
        agg.energy.clock += r.energy.clock;
        agg.avgIl1Bytes += r.avgIl1Bytes;
        agg.avgDl1Bytes += r.avgDl1Bytes;
        agg.il1Resizes += r.il1Resizes;
        agg.dl1Resizes += r.dl1Resizes;
        agg.measuredInsts += r.measuredInsts;
        agg.warmupInsts += r.warmupInsts;
    }
    agg.activity.insts = agg.insts;
    // The shared L2 is one physical structure: charge its switching
    // for the total attributed traffic and its size-proportional term
    // once, over the makespan.
    for (const auto &lane : lanes_) {
        const CoreLane::Measured &m = lane->measured();
        const double scale = static_cast<double>(insts_per_core) /
                             static_cast<double>(m.activity.insts);
        total_l2_accesses +=
            static_cast<double>(m.caches.l2Accesses) * scale;
    }
    const CacheEnergyModel cache_energy(cfg_.energy);
    agg.energy.l2 = cache_energy.l2Energy(
        total_l2_accesses, l2_->cache().geometry().size,
        static_cast<double>(agg.cycles));
    {
        double l1i_m = 0, l1i_a = 0, l1d_m = 0, l1d_a = 0;
        for (const auto &lane : lanes_) {
            const CoreLane::Measured &m = lane->measured();
            l1i_m += m.caches.il1.misses;
            l1i_a += m.caches.il1.accesses;
            l1d_m += m.caches.dl1.misses;
            l1d_a += m.caches.dl1.accesses;
        }
        agg.il1MissRatio = l1i_a > 0 ? l1i_m / l1i_a : 0;
        agg.dl1MissRatio = l1d_a > 0 ? l1d_m / l1d_a : 0;
    }
    agg.l2MissRatio =
        out.l2Totals.accesses > 0
            ? static_cast<double>(out.l2Totals.misses) /
                  static_cast<double>(out.l2Totals.accesses)
            : 0;
    return out;
}

} // namespace rcache
