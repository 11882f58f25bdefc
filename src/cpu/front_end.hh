/**
 * @file
 * FrontEnd: the fetch-group cadence and the branch predictor of one
 * instruction stream.
 *
 * Whether an instruction reads the i-cache SRAM, and whether a branch
 * mispredicts, depends only on the stream and the front-end shape,
 * never on timing. A FrontEnd decides both once per instruction and
 * marks it (MicroInst::probe, MicroInst::mispredict) for every lane
 * that reads it; each consumer applies only its own consequence: the
 * timing cores charge the probe latency and redirect fetch, the
 * FunctionalCore probes the hierarchy, the analytic pass feeds its
 * profiles.
 */

#ifndef RCACHE_CPU_FRONT_END_HH
#define RCACHE_CPU_FRONT_END_HH

#include <cstddef>
#include <string>

#include "cpu/branch_predictor.hh"
#include "workload/inst.hh"

namespace rcache
{

/** What fixes a stream's marks. */
struct FrontEndShape
{
    unsigned fetchWidth = 4;
    /** log2 of the i-cache block size. */
    unsigned il1BlockBits = 5;
    BranchPredictorParams bpred;

    bool operator==(const FrontEndShape &o) const = default;
};

/** @p shape as a key: runs with equal keys read equal marks from one
 *  stream. */
std::string frontEndKey(const FrontEndShape &shape);

/** See file comment. */
class FrontEnd
{
  public:
    explicit FrontEnd(const FrontEndShape &shape);

    /**
     * Open a fresh fetch group at the next instruction, as a timing
     * core does when a window starts: every phase of a run begins
     * with an i-cache probe. The predictor's tables carry over.
     */
    void
    restart()
    {
        curBlock_ = ~Addr{0};
        groupLeft_ = 0;
    }

    /**
     * Mark @p insts[0..n), the stream's next instructions. The i-cache
     * is probed at every block change and again after every
     * fetchWidth instructions from one block; a taken or mispredicted
     * branch ends the group. Any segmentation marks a stretch alike.
     */
    void mark(MicroInst *insts, std::size_t n);

  private:
    FrontEndShape shape_;
    BranchPredictor bpred_;
    Addr curBlock_ = ~Addr{0};
    /** Instructions left in the current fetch group. */
    unsigned groupLeft_ = 0;
};

} // namespace rcache

#endif // RCACHE_CPU_FRONT_END_HH
