#include "cpu/front_end.hh"

#include "util/logging.hh"

namespace rcache
{

std::string
frontEndKey(const FrontEndShape &s)
{
    std::string key;
    for (unsigned v : {s.fetchWidth, s.il1BlockBits, s.bpred.bimodalEntries,
                       s.bpred.gshareEntries, s.bpred.chooserEntries,
                       s.bpred.historyBits, s.bpred.btbEntries})
        key += std::to_string(v) + ',';
    return key;
}

FrontEnd::FrontEnd(const FrontEndShape &shape)
    : shape_(shape), bpred_(shape.bpred)
{
    rc_assert(shape.fetchWidth > 0);
}

void
FrontEnd::mark(MicroInst *insts, std::size_t n)
{
    // The cadence lives in locals: the predictor's byte tables may
    // alias anything, so members would be reloaded after every branch.
    Addr cur = curBlock_;
    unsigned left = groupLeft_;
    for (std::size_t k = 0; k < n; ++k) {
        MicroInst &inst = insts[k];
        const Addr blk = inst.pc >> shape_.il1BlockBits;
        inst.probe = blk != cur || left == 0;
        if (inst.probe) {
            cur = blk;
            left = shape_.fetchWidth;
        }
        --left;
        inst.mispredict = inst.op == OpClass::Branch &&
                          !bpred_.predictAndUpdate(inst.pc, inst.taken,
                                                   inst.target);
        if (inst.mispredict || (inst.op == OpClass::Branch && inst.taken)) {
            cur = ~Addr{0};
            left = 0;
        }
    }
    curBlock_ = cur;
    groupLeft_ = left;
}

} // namespace rcache
