#include "cache/hierarchy.hh"

namespace rcache
{

Hierarchy::Hierarchy(Cache *il1, Cache *dl1,
                     const CacheGeometry &l2_geom,
                     const HierarchyParams &params, FrameMapping *frames)
    : il1_(il1),
      dl1_(dl1),
      ownedL2_(std::make_unique<Cache>("l2", l2_geom, nullptr, frames)),
      l2_(ownedL2_.get()),
      params_(params)
{
    rc_assert(il1_ && dl1_);
}

Hierarchy::Hierarchy(Cache *il1, Cache *dl1, SharedL2 &shared_l2,
                     unsigned core_id, const HierarchyParams &params)
    : il1_(il1),
      dl1_(dl1),
      l2_(&shared_l2.cache()),
      sharedL2_(&shared_l2),
      coreId_(core_id),
      params_(params)
{
    rc_assert(il1_ && dl1_);
    rc_assert(core_id < shared_l2.numCores());
}

std::uint64_t
Hierarchy::memPenalty() const
{
    return params_.l2Latency + params_.memBaseLatency +
           params_.memCyclesPer8Bytes *
               (l2_->geometry().blockSize / 8);
}

bool
Hierarchy::l2Access(Addr addr, bool is_write)
{
    if (sharedL2_) {
        const SharedL2Outcome r =
            sharedL2_->access(coreId_, addr, is_write);
        if (r.memRead)
            ++memReads_;
        if (r.memWrite)
            ++memWrites_;
        return r.hit;
    }
    AccessResult r = l2_->access(addr, is_write);
    if (!r.hit)
        ++memReads_; // block fill from memory
    if (r.writeback)
        ++memWrites_; // dirty L2 victim drains to memory
    return r.hit;
}

WritebackSink
Hierarchy::l1WritebackSink()
{
    return [this](Addr block_addr) { l2Access(block_addr, true); };
}

} // namespace rcache
