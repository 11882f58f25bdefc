/**
 * @file
 * ResizableCache: a cache plus an organization's offered-size schedule
 * and the mask state ("level") selecting the current configuration.
 *
 * Levels index the schedule: level 0 is full size, higher levels are
 * smaller. upsize()/downsize() move one level at a time (the paper's
 * dynamic controller steps one size per interval); setLevel() jumps,
 * which a lane does once before the run for a static setup (the
 * paper's size mask, loaded before the program runs).
 */

#ifndef RCACHE_CORE_RESIZABLE_CACHE_HH
#define RCACHE_CORE_RESIZABLE_CACHE_HH

#include <memory>
#include <string>

#include "cache/cache.hh"
#include "core/size_schedule.hh"

namespace rcache
{

/** The resizing strategies compared by the paper (Section 2.2). */
enum class Strategy
{
    /** Non-resizable (baseline). */
    None,
    /** One profiled size per application (Albonesi), set once before
     *  the run. */
    Static,
    /** Miss-ratio-based interval controller (Yang et al.). */
    Dynamic,
};

/** Printable strategy name. */
std::string strategyName(Strategy s);

/**
 * Owns a Cache and drives its resizing according to one organization's
 * schedule.
 */
class ResizableCache
{
  public:
    /**
     * @param name cache/stat name (e.g. "dl1")
     * @param geom full-size geometry
     * @param org which organization's schedule to offer
     * @param policy replacement policy name (replacement.hh registry)
     * @param seed_salt disambiguates same-named caches (a multi-core
     *        lane passes its core id): seeded policies derive their
     *        stream from hash(name) ^ mix(salt), never a shared
     *        constant
     * @param frames the lane's frame mapping, or null (see Cache)
     */
    ResizableCache(const std::string &name, const CacheGeometry &geom,
                   Organization org, const std::string &policy = "lru",
                   std::uint64_t seed_salt = 0,
                   FrameMapping *frames = nullptr);

    /** The wrapped cache (the hierarchy and CPU access through this). */
    Cache &cache() { return cache_; }
    const Cache &cache() const { return cache_; }

    Organization organization() const { return org_; }
    const std::vector<ResizeConfig> &schedule() const
    {
        return schedule_;
    }

    /** Number of offered configurations. */
    unsigned levels() const
    {
        return static_cast<unsigned>(schedule_.size());
    }
    unsigned currentLevel() const { return level_; }

    /**
     * Jump to schedule index @p level, flushing per the semantics in
     * Cache::resizeTo. @p sink receives dirty writebacks.
     */
    FlushResult setLevel(unsigned level, const WritebackSink &sink = {});

    /** One step larger (toward level 0). No-op result at full size. */
    FlushResult upsize(const WritebackSink &sink = {});
    /** One step smaller. No-op result at the minimum size. */
    FlushResult downsize(const WritebackSink &sink = {});

    bool canUpsize() const { return level_ > 0; }
    bool canDownsize() const { return level_ + 1 < levels(); }

    /** Extra tag bits this organization carries, plus the
     *  replacement policy's per-block state bits (energy overhead). */
    unsigned extraTagBits() const { return extraTagBits_; }

    /** Smallest offered size in bytes. */
    std::uint64_t minSizeBytes() const;
    /** Full size in bytes. */
    std::uint64_t maxSizeBytes() const;

    /**
     * Schedule index of the smallest offered size that is >= @p bytes
     * (clamped to the smallest size if nothing is that small). Used to
     * express dynamic resizing's size-bound.
     */
    unsigned levelForMinSize(std::uint64_t bytes) const;

  private:
    Organization org_;
    std::vector<ResizeConfig> schedule_;
    unsigned extraTagBits_;
    Cache cache_;
    unsigned level_ = 0;
};

} // namespace rcache

#endif // RCACHE_CORE_RESIZABLE_CACHE_HH
