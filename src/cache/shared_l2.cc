#include "cache/shared_l2.hh"

#include <algorithm>

namespace rcache
{

SharedL2::SharedL2(const CacheGeometry &geom, unsigned num_cores,
                   FrameMapping *frames)
    : cache_("l2", geom, nullptr, frames), numCores_(num_cores),
      stats_(num_cores)
{
    rc_assert(num_cores >= 1);
    // Bound the owner map's load factor by the only population it can
    // ever hold: one entry per resident block.
    owner_.reserve(geom.numSets() * geom.assoc);
    cache_.setEvictionObserver(
        [this](Addr block_addr, bool) { onEviction(block_addr); });
}

void
SharedL2::onEviction(Addr block_addr)
{
    const auto it = owner_.find(block_addr);
    // Every resident block was registered by the fill that brought it
    // in, so an eviction always finds its owner.
    rc_assert(it != owner_.end());
    const unsigned owner = it->second;
    owner_.erase(it);

    --stats_[owner].residentBlocks;
    if (owner == accessor_) {
        ++stats_[owner].evictionsBySelf;
    } else {
        ++stats_[owner].evictionsByOthers;
        ++stats_[accessor_].evictedOthers;
    }
}

SharedL2Outcome
SharedL2::access(unsigned core, Addr addr, bool is_write)
{
    rc_assert(core < numCores_);
    accessor_ = core;
    SharedL2CoreStats &s = stats_[core];
    ++s.accesses;

    const AccessResult r = cache_.access(addr, is_write);

    SharedL2Outcome out;
    out.hit = r.hit;
    if (r.hit) {
        ++s.hits;
    } else {
        ++s.misses;
        ++s.memReads;
        ++s.fills;
        // Register the filled block under its block-aligned byte
        // address (the form the eviction observer reports).
        const unsigned block_bits = cache_.geometry().blockBits();
        owner_[(addr >> block_bits) << block_bits] = core;
        ++s.residentBlocks;
        s.peakResidentBlocks =
            std::max(s.peakResidentBlocks, s.residentBlocks);
        out.memRead = true;
    }
    if (r.writeback) {
        ++s.memWrites;
        out.memWrite = true;
    }
    return out;
}

SharedL2CoreStats
SharedL2::totals() const
{
    SharedL2CoreStats t;
    for (const SharedL2CoreStats &s : stats_) {
        t.accesses += s.accesses;
        t.hits += s.hits;
        t.misses += s.misses;
        t.memReads += s.memReads;
        t.memWrites += s.memWrites;
        t.fills += s.fills;
        t.evictionsBySelf += s.evictionsBySelf;
        t.evictionsByOthers += s.evictionsByOthers;
        t.evictedOthers += s.evictedOthers;
        t.residentBlocks += s.residentBlocks;
        t.peakResidentBlocks += s.peakResidentBlocks;
    }
    return t;
}

} // namespace rcache
