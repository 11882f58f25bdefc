/**
 * @file
 * Four-wide in-order core with a blocking data cache.
 *
 * Instructions issue in program order once their producers complete;
 * any data-cache miss stalls the pipeline until the fill returns
 * (blocking cache: miss latency fully exposed, the configuration the
 * paper uses to contrast with the out-of-order/non-blocking core).
 */

#ifndef RCACHE_CPU_INORDER_CORE_HH
#define RCACHE_CPU_INORDER_CORE_HH

#include <vector>

#include "cpu/core.hh"

namespace rcache
{

/** See file comment. */
class InOrderCore : public Core
{
  public:
    /** @p il1_dyn and @p dl1_dyn as Core's: null (the default) for
     *  a cache that no one resizes during the run. */
    InOrderCore(const CoreParams &params, Hierarchy &hier,
                DynamicMissRatioController *il1_dyn = nullptr,
                DynamicMissRatioController *dl1_dyn = nullptr);

    void beginWindow() override;
    void consume(const MicroInst *insts, std::size_t n) override;
    CoreActivity windowActivity() const override;

  private:
    static constexpr std::size_t depRing = 256;

    /** The open window's loop-carried scalars; consume() works on a
     *  local copy (see OooCore::Window). */
    struct Window
    {
        explicit Window(const CoreParams &p) : issueSlots(p.dispatchWidth)
        {
            activity.outOfOrder = false;
        }

        SlotAllocator issueSlots;
        std::uint64_t i = 0;
        std::uint64_t lastIssue = 0;
        /** Blocking d-cache: no instruction issues before this
         *  cycle. */
        std::uint64_t stallUntil = 0;
        std::uint64_t lastComplete = 0;
        CoreActivity activity;
    };

    Window win_;
    /** Completion cycle per instruction (dependences). */
    std::vector<std::uint64_t> completeRing_;
};

} // namespace rcache

#endif // RCACHE_CPU_INORDER_CORE_HH
