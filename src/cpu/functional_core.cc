#include "cpu/functional_core.hh"

namespace rcache
{

FunctionalCore::FunctionalCore(Hierarchy &hier,
                               DynamicMissRatioController *il1_dyn,
                               DynamicMissRatioController *dl1_dyn)
    : hier_(hier), il1Dyn_(il1_dyn), dl1Dyn_(dl1_dyn)
{
}

void
FunctionalCore::consume(const MicroInst *insts, std::size_t n)
{
    // The controllers receive now_cycle == 0: time does not advance
    // during fast-forward, and Cache::accumulateEnabledTime clamps
    // non-monotonic cycles, so the byte-cycle integral is untouched.
    for (std::size_t k = 0; k < n; ++k) {
        const MicroInst &inst = insts[k];
        if (inst.probe) {
            const MemAccessResult res = hier_.instAccess(inst.pc);
            if (il1Dyn_)
                il1Dyn_->onAccess(!res.l1Hit, 0);
        }
        if (inst.op == OpClass::Load || inst.op == OpClass::Store) {
            const MemAccessResult res = hier_.dataAccess(
                inst.effAddr, inst.op == OpClass::Store);
            if (dl1Dyn_)
                dl1Dyn_->onAccess(!res.l1Hit, 0);
        }
    }
}

} // namespace rcache
