/**
 * @file
 * Four-wide out-of-order core with a non-blocking data cache.
 *
 * Instructions dispatch into a ROB-bounded window, issue when their
 * producers complete, and commit in order. Load misses allocate MSHRs
 * so independent misses overlap (the paper's "miss latency taken off
 * the critical path"); the window and MSHR count bound that overlap.
 * Stores access the cache at commit, after which they only occupy the
 * writeback path.
 */

#ifndef RCACHE_CPU_OOO_CORE_HH
#define RCACHE_CPU_OOO_CORE_HH

#include <vector>

#include "cpu/core.hh"

namespace rcache
{

/** See file comment. */
class OooCore : public Core
{
  public:
    /** @p il1_dyn and @p dl1_dyn as Core's: null (the default) for
     *  a cache that no one resizes during the run. */
    OooCore(const CoreParams &params, Hierarchy &hier,
            DynamicMissRatioController *il1_dyn = nullptr,
            DynamicMissRatioController *dl1_dyn = nullptr);

    void beginWindow() override;
    void consume(const MicroInst *insts, std::size_t n) override;
    CoreActivity windowActivity() const override;

  private:
    /** Completion-time history ring for dependence resolution. */
    static constexpr std::size_t depRing = 256;

    /**
     * The open window's loop-carried scalars. consume() works on a
     * local copy and writes it back (the HotState idiom of
     * workload/synthetic.hh), so they live in registers.
     */
    struct Window
    {
        explicit Window(const CoreParams &p)
            : dispatchSlots(p.dispatchWidth), commitSlots(p.commitWidth)
        {
        }

        SlotAllocator dispatchSlots;
        SlotAllocator commitSlots;
        /** Instructions, and memory operations, run so far. */
        std::uint64_t i = 0;
        std::uint64_t memCount = 0;
        std::uint64_t lastCommit = 0;
        /** Earliest cycle the next commit may happen (writeback
         *  stalls). */
        std::uint64_t commitFloor = 0;
        /** Rolling ring cursors: robSize/lsqSize are runtime values,
         *  so `i % size` would be a hardware divide per instruction;
         *  increment-and-wrap tracks the same index for one compare. */
        std::size_t robIdx = 0;
        std::size_t lsqIdx = 0;
        CoreActivity activity;
    };

    Window win_;
    /** Completion cycle per instruction (dependences), and commit
     *  cycle per ROB slot and per LSQ slot. */
    std::vector<std::uint64_t> completeRing_;
    std::vector<std::uint64_t> commitRing_;
    std::vector<std::uint64_t> lsqRing_;
};

} // namespace rcache

#endif // RCACHE_CPU_OOO_CORE_HH
