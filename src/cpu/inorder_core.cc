#include "cpu/inorder_core.hh"

namespace rcache
{

InOrderCore::InOrderCore(const CoreParams &params, Hierarchy &hier,
                         DynamicMissRatioController *il1_dyn,
                         DynamicMissRatioController *dl1_dyn)
    : Core(params, hier, il1_dyn, dl1_dyn),
      win_(params),
      completeRing_(depRing, 0)
{
}

void
InOrderCore::beginWindow()
{
    win_ = Window(params_);
    std::fill(completeRing_.begin(), completeRing_.end(), 0);
}

void
InOrderCore::consume(const MicroInst *insts, std::size_t n)
{
    Window w = win_;
    std::uint64_t *const complete_ring = completeRing_.data();

    const auto body = [&](const MicroInst &inst) {
        const std::uint64_t fc = fetchInst(inst);

        // The ring reads are safe for any dep distance (the
        // index wraps), so the unpredictable "has a producer"
        // tests can resolve as conditional moves.
        std::uint64_t ready =
            std::max({fc + params_.frontendDepth, w.lastIssue,
                      w.stallUntil});
        const bool use1 = inst.dep1 && inst.dep1 <= w.i;
        const std::uint64_t p1 =
            complete_ring[(w.i - inst.dep1) % depRing];
        ready = std::max(ready, use1 ? p1 : 0);
        const bool use2 = inst.dep2 && inst.dep2 <= w.i;
        const std::uint64_t p2 =
            complete_ring[(w.i - inst.dep2) % depRing];
        ready = std::max(ready, use2 ? p2 : 0);

        const std::uint64_t ic = w.issueSlots.alloc(ready);
        w.lastIssue = ic;

        // Execute (the instruction-mix tallies ride along so the
        // op class is dispatched once, not twice).
        CoreActivity &activity = w.activity;
        ++activity.insts;
        std::uint64_t complete;
        switch (inst.op) {
          case OpClass::Load:
          case OpClass::Store: {
            const bool is_write = inst.op == OpClass::Store;
            if (is_write)
                ++activity.stores;
            else
                ++activity.loads;
            MemAccessResult res =
                hier_.dataAccess(inst.effAddr, is_write);
            notifyDl1(res.l1Hit, ic);
            complete = ic + res.latency;
            if (!res.l1Hit) {
                // Blocking: the whole pipeline waits for the
                // fill.
                w.stallUntil = std::max(w.stallUntil, complete);
            }
            if (res.writeback) {
                const std::uint64_t start = wb_.insert(ic);
                w.stallUntil = std::max(w.stallUntil, start);
            }
            break;
          }
          case OpClass::Branch:
            ++activity.branches;
            ++activity.intOps;
            complete = ic + inst.latency;
            break;
          case OpClass::FpAlu:
            ++activity.fpOps;
            complete = ic + inst.latency;
            break;
          case OpClass::IntAlu:
            ++activity.intOps;
            complete = ic + inst.latency;
            break;
          default:
            complete = ic + inst.latency;
            break;
        }

        if (inst.op == OpClass::Branch) {
            if (resolveBranch(inst, complete)) {
                ++activity.mispredicts;
                w.stallUntil = std::max(w.stallUntil, complete);
            }
        }

        complete_ring[w.i % depRing] = complete;
        w.lastComplete = std::max(w.lastComplete, complete);
        ++w.i;
    };

    for (std::size_t k = 0; k < n; ++k)
        body(insts[k]);
    win_ = w;
}

CoreActivity
InOrderCore::windowActivity() const
{
    CoreActivity activity = win_.activity;
    activity.cycles = win_.lastComplete + 1;
    return activity;
}

} // namespace rcache
