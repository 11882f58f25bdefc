#include "cpu/core.hh"

namespace rcache
{

Core::Core(const CoreParams &params, Hierarchy &hier,
           ResizePolicy *il1_policy, ResizePolicy *dl1_policy)
    : params_(params),
      hier_(hier),
      il1Policy_(il1_policy),
      dl1Policy_(dl1_policy),
      bpred_(params.bpred),
      mshr_(params.mshrs),
      wb_(params.wbEntries, params.wbDrainLatency),
      fetchSlots_(params.fetchWidth),
      il1BlockBits_(hier.il1().geometry().blockBits())
{
}

CoreActivity
Core::run(Workload &workload, std::uint64_t num_insts)
{
    beginWindow();
    MicroInst batch[workloadBatchSize];
    forEachSegment(workload, num_insts, batch, workloadBatchSize,
                   [this](const MicroInst *insts, std::size_t n) {
                       consume(insts, n);
                   });
    return windowActivity();
}

void
Core::resetTiming()
{
    mshr_.reset();
    wb_.reset();
    fetchSlots_.reset();
    nextFetchCycle_ = 0;
    curFetchBlock_ = ~Addr{0};
    blockReady_ = 0;
    groupRemaining_ = 0;
}

void
Core::redirectFetch(std::uint64_t cycle)
{
    curFetchBlock_ = ~Addr{0};
    groupRemaining_ = 0;
    nextFetchCycle_ = std::max(nextFetchCycle_, cycle);
}

bool
Core::resolveBranch(const MicroInst &inst,
                    std::uint64_t complete_cycle)
{
    const bool correct =
        bpred_.predictAndUpdate(inst.pc, inst.taken, inst.target);
    if (!correct) {
        // Redirect when the branch resolves; the frontend refill
        // penalty comes out of frontendDepth.
        redirectFetch(complete_cycle + 1);
    } else if (inst.taken) {
        // Correctly predicted taken: the fetch group breaks and the
        // target block is fetched from the next cycle.
        redirectFetch(nextFetchCycle_ + 1);
    }
    return !correct;
}

} // namespace rcache
