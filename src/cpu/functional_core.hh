/**
 * @file
 * FunctionalCore: advance machine *state* without timing.
 *
 * The sampling engine (sim/sampling.hh) skips between detailed
 * measurement windows and re-warms state before each one. For warming
 * only state that outlives a window matters: cache tags, replacement
 * state and dirty bits (via the hierarchy), and the resize
 * controllers' interval/miss counters. This core drives exactly those
 * and computes no cycles, which is what makes it several times
 * cheaper per instruction than the timing cores. The stream's
 * FrontEnd (cpu/front_end.hh) warms the branch predictor.
 *
 * Fidelity contract, for every replacement policy: this core makes
 * the timing cores' L1 accesses in their order (the i-cache at every
 * instruction the FrontEnd marked as a probe, the d-cache at every
 * load and store), so N functional instructions leave the hierarchy,
 * its event counters and the dynamic controllers exactly as N
 * detailed ones would. Only the byte-cycle integrals differ: no
 * cycles pass.
 */

#ifndef RCACHE_CPU_FUNCTIONAL_CORE_HH
#define RCACHE_CPU_FUNCTIONAL_CORE_HH

#include "cache/hierarchy.hh"
#include "core/dynamic_controller.hh"
#include "workload/inst.hh"

namespace rcache
{

/** See file comment. */
class FunctionalCore
{
  public:
    /** @p il1_dyn and @p dl1_dyn, the dynamic controllers, observe
     *  the L1 accesses; either is null for a cache that no one
     *  resizes during the run. */
    FunctionalCore(Hierarchy &hier, DynamicMissRatioController *il1_dyn,
                   DynamicMissRatioController *dl1_dyn);

    /**
     * Advance state over @p insts[0..n), marked by the stream's
     * FrontEnd. Any segmentation of a stretch of the stream is the
     * same computation, as in the timing cores' windows.
     */
    void consume(const MicroInst *insts, std::size_t n);

  private:
    Hierarchy &hier_;
    DynamicMissRatioController *il1Dyn_;
    DynamicMissRatioController *dl1Dyn_;
};

} // namespace rcache

#endif // RCACHE_CPU_FUNCTIONAL_CORE_HH
