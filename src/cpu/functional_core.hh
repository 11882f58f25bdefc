/**
 * @file
 * FunctionalCore: advance machine *state* without timing.
 *
 * The sampling engine (sim/sampling.hh) skips between detailed
 * measurement windows and re-warms state before each one. For warming
 * only state that outlives a window matters: cache tags/LRU/dirty
 * bits (via the hierarchy), branch-predictor tables, and the resize
 * controllers' interval/miss counters. This core drives exactly those
 * and computes no cycles, which is what makes it several times
 * cheaper per instruction than the timing cores.
 *
 * Fidelity contract: after N functional instructions the cache
 * contents (tags, LRU order, dirty bits) and the resize policies'
 * access/miss counts equal what N detailed instructions would leave.
 * The timing cores re-read the i-cache SRAM once per fetch group and
 * after every redirect; those repeat reads hit the block that is
 * already most-recently-used, so this core notifies the i-cache
 * policy of the guaranteed hit without re-walking the hierarchy.
 * Only event counters used for energy (which fast-forward intervals
 * never contribute to the extrapolation) diverge.
 */

#ifndef RCACHE_CPU_FUNCTIONAL_CORE_HH
#define RCACHE_CPU_FUNCTIONAL_CORE_HH

#include "cache/hierarchy.hh"
#include "core/resize_policy.hh"
#include "cpu/branch_predictor.hh"
#include "workload/inst.hh"

namespace rcache
{

/** See file comment. */
class FunctionalCore
{
  public:
    /**
     * @param bpred the *shared* predictor also used by the timing
     *        core, so its tables stay warm across mode switches
     * @param fetch_width group size for the i-cache access cadence
     * @param il1_policy,dl1_policy resizing policies observing the L1
     *        accesses; either may be null
     */
    FunctionalCore(Hierarchy &hier, BranchPredictor &bpred,
                   unsigned fetch_width, ResizePolicy *il1_policy,
                   ResizePolicy *dl1_policy);

    /**
     * Advance state over @p insts[0..n). Same contract as the timing
     * cores' windows (cpu/core.hh): any segmentation of a stretch of
     * the stream is the same computation.
     */
    void consume(const MicroInst *insts, std::size_t n);

    /**
     * Forget the current fetch block so the next instruction re-probes
     * the i-cache. Call when a detailed window ran in between (its
     * fetch engine moved the stream).
     */
    void invalidateFetchBlock()
    {
        curFetchBlock_ = ~Addr{0};
        groupRemaining_ = 0;
    }

  private:
    Hierarchy &hier_;
    BranchPredictor &bpred_;
    ResizePolicy *il1Policy_;
    ResizePolicy *dl1Policy_;
    unsigned fetchWidth_;

    Addr curFetchBlock_ = ~Addr{0};
    unsigned groupRemaining_ = 0;
};

} // namespace rcache

#endif // RCACHE_CPU_FUNCTIONAL_CORE_HH
