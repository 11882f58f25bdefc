#include "cpu/core.hh"

#include "cpu/front_end.hh"

namespace rcache
{

Core::Core(const CoreParams &params, Hierarchy &hier,
           DynamicMissRatioController *il1_dyn,
           DynamicMissRatioController *dl1_dyn)
    : params_(params),
      hier_(hier),
      il1Dyn_(il1_dyn),
      dl1Dyn_(dl1_dyn),
      mshr_(params.mshrs),
      wb_(params.wbEntries, params.wbDrainLatency),
      fetchSlots_(params.fetchWidth)
{
}

CoreActivity
Core::run(Workload &workload, std::uint64_t num_insts)
{
    FrontEnd front({params_.fetchWidth, hier_.il1().geometry().blockBits(),
                    params_.bpred});
    beginWindow();
    MicroInst batch[workloadBatchSize];
    forEachSegment(workload, num_insts, batch, workloadBatchSize,
                   [&](MicroInst *insts, std::size_t n) {
                       front.mark(insts, n);
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
    blockReady_ = 0;
}

} // namespace rcache
