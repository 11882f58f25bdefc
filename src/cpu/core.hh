/**
 * @file
 * Shared machinery for the instruction-driven CPU timing models.
 *
 * Both cores process the dynamic instruction stream once, computing
 * each instruction's fetch/issue/complete/commit cycles from its
 * producers and from structural resources (widths, ROB/LSQ occupancy,
 * MSHRs, writeback buffer). This reproduces the timing phenomena the
 * paper's strategy comparison rests on — miss-latency exposure and
 * overlap — at a small fraction of the cost of a cycle-driven model.
 *
 * A core measures in windows: beginWindow() opens one, consume() feeds
 * it instructions, and windowActivity() reads what it has run so far.
 * Every value the loop carries from one instruction to the next is
 * window state, so feeding a window whole or in segments of any sizes
 * is the same computation. That is what lets one pass over a stream
 * feed many cores (runLockstep in sim/system.hh), and what lets the
 * lane that feeds a core sample it at any instruction (CoreLane, same
 * file).
 *
 * Known simplifications (documented in DESIGN.md): issue bandwidth is
 * enforced at dispatch rather than separately at the scheduler, and
 * wrong-path fetch is not simulated.
 */

#ifndef RCACHE_CPU_CORE_HH
#define RCACHE_CPU_CORE_HH

#include <algorithm>
#include <cstdint>

#include "cache/hierarchy.hh"
#include "cache/mshr.hh"
#include "core/dynamic_controller.hh"
#include "cpu/branch_predictor.hh"
#include "energy/energy_model.hh"
#include "workload/workload.hh"

namespace rcache
{

/** Pipeline configuration (Table 2 defaults). */
struct CoreParams
{
    unsigned fetchWidth = 4;
    unsigned dispatchWidth = 4;
    unsigned commitWidth = 4;
    unsigned robSize = 64;
    unsigned lsqSize = 32;
    /** Fetch-to-dispatch depth (mispredict refill penalty source). */
    unsigned frontendDepth = 3;
    unsigned mshrs = 8;
    unsigned wbEntries = 8;
    /** Cycles to drain one writeback into L2. */
    unsigned wbDrainLatency = 12;
    BranchPredictorParams bpred;

    bool operator==(const CoreParams &o) const = default;
};

/**
 * Bandwidth limiter for a pipeline stage: at most @c width events per
 * cycle, requests arriving in (mostly) non-decreasing time order.
 * A request earlier than the allocator's current cycle is served at
 * the current cycle, which is the conservative choice.
 */
class SlotAllocator
{
  public:
    explicit SlotAllocator(unsigned width) : width_(width) {}

    std::uint64_t
    alloc(std::uint64_t t)
    {
        // Branchless: request times hover around the allocator's
        // cycle, so the three-way split is unpredictable and cmovs
        // beat branches here.
        const bool newer = t > cycle_;
        const bool full = used_ >= width_;
        cycle_ = newer ? t : (full ? cycle_ + 1 : cycle_);
        used_ = (newer || full) ? 1 : used_ + 1;
        return cycle_;
    }

    void
    reset()
    {
        cycle_ = 0;
        used_ = 0;
    }

  private:
    unsigned width_;
    std::uint64_t cycle_ = 0;
    unsigned used_ = 0;
};

/**
 * Base class: owns fetch timing (probe latency, bandwidth, redirects
 * at the stream's FrontEnd marks, cpu/front_end.hh) and the d-cache
 * structural resources; subclasses implement the backend discipline.
 */
class Core
{
  public:
    /**
     * @param il1_dyn,dl1_dyn the dynamic controllers observing the L1
     *        accesses; null for a cache that no one resizes during
     *        the run (non-resizable, or a static size set before it)
     */
    Core(const CoreParams &params, Hierarchy &hier,
         DynamicMissRatioController *il1_dyn,
         DynamicMissRatioController *dl1_dyn);
    virtual ~Core() = default;

    /** @name Measurement window (see file comment) */
    /// @{
    /** Open a window at cycle 0 of the current timing state. */
    virtual void beginWindow() = 0;
    /** Run @p insts[0..n) in the open window. */
    virtual void consume(const MicroInst *insts, std::size_t n) = 0;
    /** The open window's activity so far, cycles included (after its
     *  last consume(), the whole window's). */
    virtual CoreActivity windowActivity() const = 0;
    /// @}

    /** One window of @p num_insts instructions of @p workload. */
    CoreActivity run(Workload &workload, std::uint64_t num_insts);

    /**
     * Restart the timing machinery at cycle 0 for a fresh measurement
     * window: fetch engine, bandwidth allocators, MSHRs, writeback
     * buffer. Warm state (the caches, which live in the hierarchy) is
     * untouched. CoreLane (sim/system.hh) calls this before every
     * measured window. On a fresh core it changes nothing.
     */
    void resetTiming();

    const MshrFile &mshrs() const { return mshr_; }
    const WritebackBuffer &writebackBuffer() const { return wb_; }

  protected:
    /**
     * Fetch one instruction: reads the i-cache if it is marked as a
     * probe, applies fetch bandwidth, and returns the fetch cycle.
     * Inline: runs once per simulated instruction.
     */
    std::uint64_t
    fetchInst(const MicroInst &inst)
    {
        if (inst.probe) {
            const std::uint64_t t = nextFetchCycle_;
            MemAccessResult res = hier_.instAccess(inst.pc);
            notifyIl1(res.l1Hit, t);
            blockReady_ = t + res.latency - 1;
        }
        const std::uint64_t fc = fetchSlots_.alloc(blockReady_);
        nextFetchCycle_ = std::max(nextFetchCycle_, fc);
        return fc;
    }

    /**
     * Redirect fetch after the branch @p inst, completing at
     * @p complete_cycle: a mispredict refetches once it resolves (the
     * refill penalty comes out of frontendDepth), a predicted taken
     * branch from the next cycle. @return true if mispredicted.
     */
    bool
    resolveBranch(const MicroInst &inst, std::uint64_t complete_cycle)
    {
        if (inst.mispredict)
            nextFetchCycle_ = std::max(nextFetchCycle_, complete_cycle + 1);
        else if (inst.taken)
            ++nextFetchCycle_;
        return inst.mispredict;
    }

    void
    notifyIl1(bool hit, std::uint64_t cycle)
    {
        if (il1Dyn_)
            il1Dyn_->onAccess(!hit, cycle);
    }

    void
    notifyDl1(bool hit, std::uint64_t cycle)
    {
        if (dl1Dyn_)
            dl1Dyn_->onAccess(!hit, cycle);
    }

    CoreParams params_;
    Hierarchy &hier_;
    DynamicMissRatioController *il1Dyn_;
    DynamicMissRatioController *dl1Dyn_;

    MshrFile mshr_;
    WritebackBuffer wb_;

    SlotAllocator fetchSlots_;

    /** Fetch engine state. */
    std::uint64_t nextFetchCycle_ = 0;
    std::uint64_t blockReady_ = 0;
};

} // namespace rcache

#endif // RCACHE_CPU_CORE_HH
