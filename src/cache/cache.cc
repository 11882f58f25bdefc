#include "cache/cache.hh"

#include <sys/mman.h>

#include <cstdlib>
#include <sstream>
#include <type_traits>
#include <vector>

// AddressSanitizer checks indexing only into heap memory.
#if defined(__SANITIZE_ADDRESS__)
#define RCACHE_HEAP_FRAMES 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RCACHE_HEAP_FRAMES 1
#endif
#endif

namespace rcache
{

namespace
{

/**
 * @p bytes of zeroed frames. An anonymous private mapping reads as
 * zero and makes a page resident only when it is first written, so
 * allocating writes nothing; huge pages are declined, or one write
 * would make 2 MB resident. Under AddressSanitizer the frames come
 * from the heap instead, so an out-of-range frame index still lands
 * in a redzone.
 */
void *
allocateFrames(std::size_t bytes)
{
#ifdef RCACHE_HEAP_FRAMES
    void *frames = std::calloc(bytes, 1);
    if (!frames)
        rc_fatal("cache: out of memory for " + std::to_string(bytes) +
                 " bytes of frames");
#else
    void *frames = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (frames == MAP_FAILED)
        rc_fatal("cache: cannot map " + std::to_string(bytes) +
                 " bytes of frames");
    ::madvise(frames, bytes, MADV_NOHUGEPAGE);
#endif
    return frames;
}

} // namespace

void
Cache::FrameRelease::operator()(Block *frames) const
{
#ifdef RCACHE_HEAP_FRAMES
    std::free(frames);
#else
    ::munmap(frames, bytes);
#endif
}

std::string
CacheGeometry::validate() const
{
    std::ostringstream err;
    if (!isPowerOfTwo(size))
        err << "size " << size << " not a power of two; ";
    if (assoc == 0 || size % assoc != 0)
        err << "assoc " << assoc << " does not divide size; ";
    if (!isPowerOfTwo(blockSize))
        err << "blockSize " << blockSize << " not a power of two; ";
    if (!isPowerOfTwo(subarraySize))
        err << "subarraySize " << subarraySize
            << " not a power of two; ";
    if (assoc && size % assoc == 0) {
        if (waySize() % subarraySize != 0)
            err << "subarraySize does not divide way size; ";
        if (subarraySize % blockSize != 0)
            err << "blockSize does not divide subarraySize; ";
        if (!isPowerOfTwo(numSets()))
            err << "numSets not a power of two; ";
    }
    return err.str();
}

Cache::Cache(const std::string &name, const CacheGeometry &geom,
             std::unique_ptr<ReplacementPolicy> policy)
    : name_(name),
      geom_(geom),
      policy_(policy ? std::move(policy)
                     : std::make_unique<LruPolicy>()),
      enabledSets_(geom.numSets()),
      enabledWays_(geom.assoc)
{
    std::string err = geom_.validate();
    if (!err.empty())
        rc_fatal("cache " + name_ + ": invalid geometry: " + err);

    static_assert(sizeof(Block) == 16 &&
                  std::is_trivially_copyable_v<Block>);
    const std::size_t bytes = frameCount() * sizeof(Block);
    blocks_ = std::unique_ptr<Block[], FrameRelease>(
        static_cast<Block *>(allocateFrames(bytes)), FrameRelease{bytes});
    blockBits_ = geom_.blockBits();
    updateAccessConstants();
}

void
Cache::updateAccessConstants()
{
    setMask_ = enabledSets_ - 1;

    // Each way keeps at least one subarray enabled; above that the
    // enabled sets of a way span ceil(sets*blockSize / subarraySize)
    // subarrays (always exact because legal set counts are powers of
    // two >= setsPerSubarray). Recomputed only on resize so the
    // per-access path pays neither the division nor the branches.
    const std::uint64_t bytes_per_way = enabledSets_ * geom_.blockSize;
    const std::uint64_t per_way =
        std::max<std::uint64_t>(1, bytes_per_way / geom_.subarraySize);
    enabledSubarrays_ = static_cast<unsigned>(per_way * enabledWays_);

    replKind_ = policy_->kind();
    lruFast_ = replKind_ == ReplKind::Lru
                   ? static_cast<LruPolicy *>(policy_.get())
                   : nullptr;
    rndFast_ = replKind_ == ReplKind::Random
                   ? static_cast<RandomPolicy *>(policy_.get())
                   : nullptr;
    wantsAccessStream_ = policy_->wantsAccessStream();
}

unsigned
Cache::victimWay(const Block *row)
{
    switch (replKind_) {
      case ReplKind::Lru: {
        // Inline LRU scan straight over the blocks: no choice
        // marshalling, no virtual call.
        unsigned best = 0;
        for (unsigned w = 1; w < enabledWays_; ++w) {
            if (row[w].replMeta() < row[best].replMeta())
                best = w;
        }
        return best;
      }
      case ReplKind::Random:
        return rndFast_->pickWay(enabledWays_);
      case ReplKind::Custom:
        break;
    }

    // Generic policies see the classic per-way view, marshalled into
    // a fixed stack buffer (no per-eviction allocation) unless the
    // configuration is wider than any we model.
    constexpr unsigned stack_ways = 64;
    ReplChoice stack_buf[stack_ways];
    std::vector<ReplChoice> heap_buf;
    ReplChoice *choices = stack_buf;
    if (enabledWays_ > stack_ways) {
        heap_buf.resize(enabledWays_);
        choices = heap_buf.data();
    }
    for (unsigned w = 0; w < enabledWays_; ++w)
        choices[w] = {row[w].valid(), row[w].replMeta()};
    return policy_->victim(choices, enabledWays_);
}

AccessResult
Cache::fillOnMiss(Block *row, Addr block_addr, bool is_write)
{
    AccessResult res;

    // Miss: allocate. Prefer an invalid enabled way.
    ++misses_;
    unsigned victim_way = enabledWays_;
    for (unsigned w = 0; w < enabledWays_; ++w) {
        if (!row[w].valid()) {
            victim_way = w;
            break;
        }
    }
    if (victim_way == enabledWays_) {
        victim_way = victimWay(row);
        rc_assert(victim_way < enabledWays_);
        // Admission-gated policies may refuse the exchange: the miss
        // stands, the victim stays, nothing is written back. Only the
        // Custom path can gate (the built-ins always admit).
        if (replKind_ == ReplKind::Custom &&
            !policy_->admit(block_addr, row[victim_way].blockAddr))
            return res;
    }

    Block &victim = row[victim_way];
    if (victim.valid()) {
        if (victim.dirty()) {
            ++writebacks_;
            res.writeback = true;
            res.writebackAddr = victim.blockAddr << blockBits_;
        }
        if (evictionObserver_)
            evictionObserver_(victim.blockAddr << blockBits_,
                              victim.dirty());
    }

    victim.blockAddr = block_addr;
    victim.fill(is_write, fillMeta(victim.replMeta()));
    return res;
}

bool
Cache::probe(Addr addr) const
{
    const Addr block_addr = addr >> geom_.blockBits();
    const std::uint64_t set = indexOf(block_addr);
    for (unsigned w = 0; w < enabledWays_; ++w) {
        const Block &b = blockAt(set, w);
        if (b.valid() && b.blockAddr == block_addr)
            return true;
    }
    return false;
}

void
Cache::evict(Block &b, const WritebackSink &sink, FlushResult &out)
{
    if (!b.valid())
        return;
    ++out.invalidated;
    if (b.dirty()) {
        ++out.writebacks;
        if (sink)
            sink(b.blockAddr << geom_.blockBits());
    }
    if (evictionObserver_)
        evictionObserver_(b.blockAddr << geom_.blockBits(), b.dirty());
    b.clearValidDirty();
}

FlushResult
Cache::resizeTo(std::uint64_t enabled_sets, unsigned enabled_ways,
                const WritebackSink &sink)
{
    rc_assert(isPowerOfTwo(enabled_sets));
    rc_assert(enabled_sets >= geom_.minSets() &&
              enabled_sets <= geom_.numSets());
    rc_assert(enabled_ways >= 1 && enabled_ways <= geom_.assoc);

    FlushResult out;
    if (enabled_sets == enabledSets_ && enabled_ways == enabledWays_)
        return out;

    ++resizes_;

    const std::uint64_t old_sets = enabledSets_;
    const unsigned old_ways = enabledWays_;

    // 1. Ways being disabled: flush their blocks in enabled sets.
    for (std::uint64_t s = 0; s < old_sets; ++s)
        for (unsigned w = enabled_ways; w < old_ways; ++w)
            evict(blockAt(s, w), sink, out);

    // 2. Sets being disabled (downsizing): flush everything there.
    for (std::uint64_t s = enabled_sets; s < old_sets; ++s)
        for (unsigned w = 0; w < std::min(old_ways, enabled_ways); ++w)
            evict(blockAt(s, w), sink, out);

    // 3. Sets being enabled (upsizing): surviving blocks whose index
    //    changes under the wider set mask can no longer be found;
    //    flush them, clean or dirty, as the paper requires.
    if (enabled_sets > old_sets) {
        for (std::uint64_t s = 0; s < old_sets; ++s) {
            for (unsigned w = 0; w < std::min(old_ways, enabled_ways);
                 ++w) {
                Block &b = blockAt(s, w);
                if (b.valid() &&
                    (b.blockAddr & (enabled_sets - 1)) != s) {
                    evict(b, sink, out);
                }
            }
        }
    }

    enabledSets_ = enabled_sets;
    enabledWays_ = enabled_ways;
    updateAccessConstants();
    return out;
}

FlushResult
Cache::flushAll(const WritebackSink &sink)
{
    FlushResult out;
    for (std::uint64_t f = 0; f < frameCount(); ++f)
        evict(blocks_[f], sink, out);
    return out;
}

void
Cache::accumulateEnabledTime(std::uint64_t now_cycle)
{
    // Notification cycles from an out-of-order core are only mostly
    // monotonic; clamp instead of asserting.
    if (now_cycle <= lastAccountedCycle_)
        return;
    byteCycles_ += static_cast<double>(enabledSize()) *
                   static_cast<double>(now_cycle - lastAccountedCycle_);
    lastAccountedCycle_ = now_cycle;
}

bool
Cache::checkInvariants() const
{
    for (std::uint64_t s = 0; s < geom_.numSets(); ++s) {
        for (unsigned w = 0; w < geom_.assoc; ++w) {
            const Block &b = blockAt(s, w);
            if (!b.valid())
                continue;
            if (s >= enabledSets_ || w >= enabledWays_)
                return false; // valid block in a disabled frame
            if (indexOf(b.blockAddr) != s)
                return false; // block not findable at its set
        }
    }
    return true;
}

} // namespace rcache
