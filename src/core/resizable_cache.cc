#include "core/resizable_cache.hh"

namespace rcache
{

namespace
{

/** FNV-1a over the cache name: deterministic across platforms and
 *  library implementations (std::hash is neither). */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** splitmix64 finalizer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Per-cache policy seed: a function of the cache's identity (name +
 * caller salt), so seeded policies (random's rng, wtlfu's sketch
 * hashes) never share a stream across caches — the old fixed-constant
 * seeding made every random-policy cache replay the identical way
 * sequence.
 */
std::uint64_t
policySeed(const std::string &name, std::uint64_t salt)
{
    return fnv1a(name) ^ mix64(salt + 1);
}

} // namespace

std::string
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::None:
        return "none";
      case Strategy::Static:
        return "static";
      case Strategy::Dynamic:
        return "dynamic";
    }
    rc_panic("bad strategy");
}

ResizableCache::ResizableCache(const std::string &name,
                               const CacheGeometry &geom,
                               Organization org,
                               const std::string &policy,
                               std::uint64_t seed_salt,
                               FrameMapping *frames)
    : org_(org),
      schedule_(buildSchedule(org, geom)),
      extraTagBits_(rcache::extraTagBits(org, geom) +
                    replacementPolicyStateBits(policy)),
      cache_(name, geom,
             makeReplacementPolicy(
                 policy, policySeed(name, seed_salt),
                 geom.numSets() * geom.assoc),
             frames)
{
    rc_assert(!schedule_.empty());
    rc_assert(schedule_.front().sets == geom.numSets() &&
              schedule_.front().ways == geom.assoc);
}

FlushResult
ResizableCache::setLevel(unsigned level, const WritebackSink &sink)
{
    rc_assert(level < levels());
    FlushResult out =
        cache_.resizeTo(schedule_[level].sets, schedule_[level].ways,
                        sink);
    level_ = level;
    return out;
}

FlushResult
ResizableCache::upsize(const WritebackSink &sink)
{
    if (!canUpsize())
        return {};
    return setLevel(level_ - 1, sink);
}

FlushResult
ResizableCache::downsize(const WritebackSink &sink)
{
    if (!canDownsize())
        return {};
    return setLevel(level_ + 1, sink);
}

std::uint64_t
ResizableCache::minSizeBytes() const
{
    return schedule_.back().sizeBytes(cache_.geometry().blockSize);
}

std::uint64_t
ResizableCache::maxSizeBytes() const
{
    return schedule_.front().sizeBytes(cache_.geometry().blockSize);
}

unsigned
ResizableCache::levelForMinSize(std::uint64_t bytes) const
{
    unsigned best = 0;
    for (unsigned i = 0; i < levels(); ++i) {
        if (schedule_[i].sizeBytes(cache_.geometry().blockSize) >=
            bytes) {
            best = i;
        } else {
            break;
        }
    }
    return best;
}

} // namespace rcache
