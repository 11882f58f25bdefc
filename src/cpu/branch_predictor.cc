#include "cpu/branch_predictor.hh"

#include "util/logging.hh"

namespace rcache
{

BranchPredictor::BranchPredictor(const BranchPredictorParams &params)
    : params_(params),
      bimodal_(params.bimodalEntries, 1),
      gshare_(params.gshareEntries, 1),
      chooser_(params.chooserEntries, 2),
      btb_(params.btbEntries)
{
    rc_assert(isPowerOfTwo(params.bimodalEntries) &&
              isPowerOfTwo(params.gshareEntries) &&
              isPowerOfTwo(params.chooserEntries) &&
              isPowerOfTwo(params.btbEntries));
}

} // namespace rcache
