#include "cpu/functional_core.hh"

namespace rcache
{

FunctionalCore::FunctionalCore(Hierarchy &hier, ResizePolicy *il1_policy,
                               ResizePolicy *dl1_policy)
    : hier_(hier), il1Policy_(il1_policy), dl1Policy_(dl1_policy)
{
}

void
FunctionalCore::consume(const MicroInst *insts, std::size_t n)
{
    // Resize policies receive now_cycle == 0: time does not advance
    // during fast-forward, and Cache::accumulateEnabledTime clamps
    // non-monotonic cycles, so the byte-cycle integral is untouched.
    for (std::size_t k = 0; k < n; ++k) {
        const MicroInst &inst = insts[k];
        if (inst.probe) {
            const MemAccessResult res = hier_.instAccess(inst.pc);
            if (il1Policy_)
                il1Policy_->onAccess(!res.l1Hit, 0);
        }
        if (inst.op == OpClass::Load || inst.op == OpClass::Store) {
            const MemAccessResult res = hier_.dataAccess(
                inst.effAddr, inst.op == OpClass::Store);
            if (dl1Policy_)
                dl1Policy_->onAccess(!res.l1Hit, 0);
        }
    }
}

} // namespace rcache
