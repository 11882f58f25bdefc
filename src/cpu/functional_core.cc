#include "cpu/functional_core.hh"

namespace rcache
{

FunctionalCore::FunctionalCore(Hierarchy &hier, BranchPredictor &bpred,
                               unsigned fetch_width,
                               ResizePolicy *il1_policy,
                               ResizePolicy *dl1_policy)
    : hier_(hier),
      bpred_(bpred),
      il1Policy_(il1_policy),
      dl1Policy_(dl1_policy),
      fetchWidth_(fetch_width)
{
    rc_assert(fetchWidth_ > 0);
}

void
FunctionalCore::consume(const MicroInst *insts, std::size_t n)
{
    // Resize policies receive now_cycle == 0: time does not advance
    // during fast-forward, and Cache::accumulateEnabledTime clamps
    // non-monotonic cycles, so the byte-cycle integral is untouched.
    const unsigned block_bits = hier_.il1().geometry().blockBits();

    const auto body = [&](const MicroInst &inst) {
        // Fetch: real hierarchy access on block transitions;
        // group re-reads of the current (hence MRU) block are
        // guaranteed hits, so only the policy hears about them.
        const Addr blk = inst.pc >> block_bits;
        if (blk != curFetchBlock_) {
            MemAccessResult res = hier_.instAccess(inst.pc);
            if (il1Policy_)
                il1Policy_->onAccess(!res.l1Hit, 0);
            curFetchBlock_ = blk;
            groupRemaining_ = fetchWidth_;
        } else if (groupRemaining_ == 0) {
            if (il1Policy_)
                il1Policy_->onAccess(false, 0);
            groupRemaining_ = fetchWidth_;
        }
        --groupRemaining_;

        switch (inst.op) {
          case OpClass::Load:
          case OpClass::Store: {
            MemAccessResult res = hier_.dataAccess(
                inst.effAddr, inst.op == OpClass::Store);
            if (dl1Policy_)
                dl1Policy_->onAccess(!res.l1Hit, 0);
            break;
          }
          case OpClass::Branch: {
            const bool correct = bpred_.predictAndUpdate(
                inst.pc, inst.taken, inst.target);
            // The timing cores redirect on mispredicts and taken
            // branches, breaking the fetch group.
            if (!correct || inst.taken)
                invalidateFetchBlock();
            break;
          }
          default:
            break;
        }
    };

    for (std::size_t k = 0; k < n; ++k)
        body(insts[k]);
}

} // namespace rcache
