#include "cpu/ooo_core.hh"

namespace rcache
{

OooCore::OooCore(const CoreParams &params, Hierarchy &hier,
                 DynamicMissRatioController *il1_dyn,
                 DynamicMissRatioController *dl1_dyn)
    : Core(params, hier, il1_dyn, dl1_dyn),
      win_(params),
      completeRing_(depRing, 0),
      commitRing_(params.robSize, 0),
      lsqRing_(params.lsqSize, 0)
{
}

void
OooCore::beginWindow()
{
    win_ = Window(params_);
    for (auto *ring : {&completeRing_, &commitRing_, &lsqRing_})
        std::fill(ring->begin(), ring->end(), 0);
}

void
OooCore::consume(const MicroInst *insts, std::size_t n)
{
    Window w = win_;
    std::uint64_t *const complete_ring = completeRing_.data();
    std::uint64_t *const commit_ring = commitRing_.data();
    std::uint64_t *const lsq_ring = lsqRing_.data();
    const unsigned dblock_bits = hier_.dl1().geometry().blockBits();

    const auto body = [&](const MicroInst &inst) {
        const std::uint64_t fc = fetchInst(inst);

        // Dispatch: frontend depth, bandwidth, ROB and LSQ
        // occupancy.
        std::uint64_t dmin = fc + params_.frontendDepth;
        if (w.i >= params_.robSize) {
            dmin = std::max(dmin, commit_ring[w.robIdx] + 1);
        }
        const bool is_mem =
            inst.op == OpClass::Load || inst.op == OpClass::Store;
        if (is_mem && w.memCount >= params_.lsqSize) {
            dmin = std::max(dmin, lsq_ring[w.lsqIdx] + 1);
        }
        const std::uint64_t dc = w.dispatchSlots.alloc(dmin);

        // Ready when producers complete. The ring reads are safe
        // for any dep distance (the index wraps), so the
        // unpredictable "has a producer" tests can resolve as
        // conditional moves instead of branches.
        std::uint64_t ready = dc;
        const bool use1 = inst.dep1 && inst.dep1 <= w.i;
        const std::uint64_t p1 =
            complete_ring[(w.i - inst.dep1) % depRing];
        ready = std::max(ready, use1 ? p1 : 0);
        const bool use2 = inst.dep2 && inst.dep2 <= w.i;
        const std::uint64_t p2 =
            complete_ring[(w.i - inst.dep2) % depRing];
        ready = std::max(ready, use2 ? p2 : 0);

        // Execute (the instruction-mix tallies ride along so the
        // op class is dispatched once, not twice).
        CoreActivity &activity = w.activity;
        ++activity.insts;
        std::uint64_t complete;
        switch (inst.op) {
          case OpClass::Load: {
            ++activity.loads;
            MemAccessResult res =
                hier_.dataAccess(inst.effAddr, false);
            notifyDl1(res.l1Hit, ready);
            if (res.l1Hit) {
                complete = ready + res.latency;
            } else {
                // Non-blocking: the fill occupies an MSHR;
                // secondary misses merge; a full MSHR file
                // delays the fill.
                complete = mshr_.miss(inst.effAddr >> dblock_bits,
                                      ready, res.latency);
            }
            if (res.writeback)
                complete =
                    std::max(complete, wb_.insert(ready) + 1);
            break;
          }
          case OpClass::Store:
            // Address generation only; the cache is written at
            // commit.
            ++activity.stores;
            complete = ready + 1;
            break;
          case OpClass::Branch:
            ++activity.branches;
            ++activity.intOps;
            complete = ready + inst.latency;
            break;
          case OpClass::FpAlu:
            ++activity.fpOps;
            complete = ready + inst.latency;
            break;
          case OpClass::IntAlu:
            ++activity.intOps;
            complete = ready + inst.latency;
            break;
          default:
            complete = ready + inst.latency;
            break;
        }

        // Commit in order.
        const std::uint64_t cc = w.commitSlots.alloc(
            std::max({complete + 1, w.lastCommit, w.commitFloor}));
        w.lastCommit = cc;

        if (inst.op == OpClass::Store) {
            MemAccessResult res =
                hier_.dataAccess(inst.effAddr, true);
            notifyDl1(res.l1Hit, cc);
            if (!res.l1Hit) {
                // The fill occupies an MSHR but does not hold
                // commit.
                mshr_.miss(inst.effAddr >> dblock_bits, cc,
                           res.latency);
            }
            if (res.writeback) {
                const std::uint64_t start = wb_.insert(cc);
                w.commitFloor = std::max(w.commitFloor, start);
            }
        }

        if (inst.op == OpClass::Branch) {
            if (resolveBranch(inst, complete))
                ++activity.mispredicts;
        }

        complete_ring[w.i % depRing] = complete;
        commit_ring[w.robIdx] = cc;
        if (++w.robIdx == params_.robSize)
            w.robIdx = 0;
        if (is_mem) {
            lsq_ring[w.lsqIdx] = cc;
            if (++w.lsqIdx == params_.lsqSize)
                w.lsqIdx = 0;
            ++w.memCount;
        }
        ++w.i;
    };

    for (std::size_t k = 0; k < n; ++k)
        body(insts[k]);
    win_ = w;
}

CoreActivity
OooCore::windowActivity() const
{
    CoreActivity activity = win_.activity;
    activity.cycles = win_.lastCommit + 1;
    return activity;
}

} // namespace rcache
