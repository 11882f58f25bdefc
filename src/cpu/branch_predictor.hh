/**
 * @file
 * Combination branch predictor (Table 2: "combination").
 *
 * Bimodal + gshare components with a chooser, plus a small BTB. A
 * taken branch whose target misses in the BTB counts as a
 * misprediction (the frontend cannot redirect without the target).
 */

#ifndef RCACHE_CPU_BRANCH_PREDICTOR_HH
#define RCACHE_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "util/bitops.hh"

namespace rcache
{

/** Configuration for the combination predictor. */
struct BranchPredictorParams
{
    unsigned bimodalEntries = 2048;
    unsigned gshareEntries = 2048;
    unsigned chooserEntries = 2048;
    unsigned historyBits = 8;
    unsigned btbEntries = 512;

    bool operator==(const BranchPredictorParams &o) const = default;
};

/** See file comment. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(
        const BranchPredictorParams &params = {});

    /**
     * Predict the branch at @p pc, then update with the actual
     * outcome. Inline: called once per simulated branch (~15% of the
     * stream), and the body is a handful of masked table reads.
     *
     * @param taken actual direction
     * @param target actual target (used for the BTB)
     * @return true iff the prediction (direction and, if taken,
     *         target) was correct
     */
    bool
    predictAndUpdate(Addr pc, bool taken, Addr target)
    {
        const std::uint64_t pc_idx = pc >> 2;
        auto &bim = bimodal_[pc_idx & (params_.bimodalEntries - 1)];
        const std::uint64_t gidx =
            (pc_idx ^ (history_ & lowMask(params_.historyBits))) &
            (params_.gshareEntries - 1);
        auto &gsh = gshare_[gidx];
        auto &cho = chooser_[pc_idx & (params_.chooserEntries - 1)];

        const bool bim_pred = counterTaken(bim);
        const bool gsh_pred = counterTaken(gsh);
        const bool pred = counterTaken(cho) ? gsh_pred : bim_pred;

        // Chooser trains toward whichever component was right.
        if (bim_pred != gsh_pred)
            bump(cho, gsh_pred == taken);
        bump(bim, taken);
        bump(gsh, taken);
        history_ = (history_ << 1) | (taken ? 1 : 0);

        bool correct = pred == taken;

        // BTB: a correctly predicted taken branch still needs the
        // target.
        if (taken) {
            auto &entry = btb_[pc_idx & (params_.btbEntries - 1)];
            const bool btb_hit = entry.valid && entry.pc == pc &&
                                 entry.target == target;
            if (!btb_hit)
                correct = false;
            entry = {pc, target, true};
        }
        return correct;
    }

  private:
    static bool counterTaken(std::uint8_t c) { return c >= 2; }

    static void
    bump(std::uint8_t &c, bool taken)
    {
        if (taken) {
            if (c < 3)
                ++c;
        } else {
            if (c > 0)
                --c;
        }
    }

    BranchPredictorParams params_;
    std::vector<std::uint8_t> bimodal_;
    std::vector<std::uint8_t> gshare_;
    std::vector<std::uint8_t> chooser_;
    struct BtbEntry
    {
        Addr pc = 0;
        Addr target = 0;
        bool valid = false;
    };
    std::vector<BtbEntry> btb_;
    std::uint64_t history_ = 0;
};

} // namespace rcache

#endif // RCACHE_CPU_BRANCH_PREDICTOR_HH
