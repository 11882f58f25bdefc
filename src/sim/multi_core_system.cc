#include "sim/multi_core_system.hh"

#include <algorithm>

#include "workload/synthetic.hh"

namespace rcache
{

namespace
{

/**
 * A core's private view of its workload: the stream with every
 * address shifted into the core's own high-address window, so
 * concurrent programs never alias in the shared L2. The offset leaves
 * all index/tag-low bits untouched — each stream's L1 and alias-set
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

MultiCoreSystem::MultiCoreSystem(const SystemConfig &cfg)
    : cfg_(cfg),
      frames_(FrameMapping::bytesFor(cfg.l2) +
              cfg.cores * CoreLane::l1FrameBytes(cfg)),
      l2_(cfg.l2, cfg.cores, &frames_)
{
    rc_assert(cfg_.cores >= 2);
    rc_assert(cfg_.quantumInsts > 0);
}

MultiCoreSystem::Streams
MultiCoreSystem::openStreams(const std::vector<BenchmarkProfile> &mix,
                             unsigned cores)
{
    rc_assert(!mix.empty());
    Streams streams;
    for (unsigned c = 0; c < cores; ++c)
        streams.push_back(std::make_unique<AddressSpaceWorkload>(
            makeWorkload(mix[c % mix.size()]), addressSpaceBase(c)));
    return streams;
}

std::vector<CoreLane *>
MultiCoreSystem::start(const ResizeSetup &il1_setup,
                       const ResizeSetup &dl1_setup,
                       const EngineSpec &engine, RunTelemetry *telemetry)
{
    rc_assert(lanes_.empty());
    engine.validate();
    if (engine.analytic())
        rc_fatal("the analytic engine supports single-core runs only");
    engine_ = engine;
    std::vector<CoreLane *> lanes;
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        lanes_.push_back(std::make_unique<CoreLane>(cfg_, c, l2_, frames_));
        lanes_.back()->start(il1_setup, dl1_setup, engine, telemetry);
        lanes.push_back(lanes_.back().get());
    }
    return lanes;
}

MultiCoreResult
MultiCoreSystem::run(const std::vector<BenchmarkProfile> &mix,
                     std::uint64_t insts_per_core,
                     const ResizeSetup &il1_setup,
                     const ResizeSetup &dl1_setup,
                     const EngineSpec &engine,
                     RunTelemetry *telemetry)
{
    rc_assert(insts_per_core > 0);
    const std::vector<CoreLane *> lanes =
        start(il1_setup, dl1_setup, engine, telemetry);
    const Streams streams = openStreams(mix, cfg_.cores);
    std::vector<Workload *> slots;
    for (const auto &s : streams)
        slots.push_back(s.get());
    runLockstep(slots, {lanes}, insts_per_core, cfg_.quantumInsts,
                engine);
    return finish(mix, streams, insts_per_core);
}

MultiCoreResult
MultiCoreSystem::finish(const std::vector<BenchmarkProfile> &mix,
                        const Streams &streams,
                        std::uint64_t insts_per_core)
{
    rc_assert(!mix.empty() && lanes_.size() == cfg_.cores);
    // ---- per-core results; timelines are handed over in core order
    MultiCoreResult out;
    out.perCore.reserve(cfg_.cores);
    for (unsigned c = 0; c < cfg_.cores; ++c)
        out.perCore.push_back(
            lanes_[c]->finish(streams[c]->name(), insts_per_core));

    // ---- shared-L2 attribution
    out.l2PerCore.reserve(cfg_.cores);
    for (unsigned c = 0; c < cfg_.cores; ++c)
        out.l2PerCore.push_back(l2_.coreStats(c));
    out.l2Totals = l2_.totals();

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
        total_l2_accesses, l2_.cache().geometry().size,
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
