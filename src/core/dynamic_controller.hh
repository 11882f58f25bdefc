/**
 * @file
 * Miss-ratio-based dynamic resizing (paper Section 2.2, from Yang et
 * al., HPCA 2001).
 *
 * Hardware monitors the cache in fixed-length intervals measured in
 * cache accesses. A miss counter accumulates misses within the
 * interval; at each interval boundary the controller compares it with
 * the profiled miss-bound:
 *
 *   misses > missBound            -> upsize one level
 *   misses < missBound * hysteresis -> downsize one level, unless that
 *                                      would shrink below the profiled
 *                                      size-bound
 *
 * Switching between two adjacent levels across intervals is exactly
 * the paper's "unavailable size emulation".
 *
 * This controller is the one run-time resizer. A static size is set
 * once, before the first instruction (CoreLane::start in
 * sim/system.hh), and a cache no controller resizes gives the cores a
 * null pointer to test on each access.
 */

#ifndef RCACHE_CORE_DYNAMIC_CONTROLLER_HH
#define RCACHE_CORE_DYNAMIC_CONTROLLER_HH

#include <vector>

#include "core/resizable_cache.hh"
#include "telemetry/resize_events.hh"

namespace rcache
{

/** Tunables for DynamicMissRatioController (profiled offline). */
struct DynamicParams
{
    /** Interval length in cache accesses. */
    std::uint64_t intervalAccesses = 100000;
    /** Miss count per interval above which the cache upsizes. */
    std::uint64_t missBound = 1000;
    /**
     * Smallest size (bytes) the controller may select; 0 means the
     * organization's minimum. Prevents thrashing (paper).
     */
    std::uint64_t sizeBoundBytes = 0;
    /**
     * Downsize only when misses < missBound * downsizeFraction.
     * 1.0 reproduces the paper's plain higher/lower comparison;
     * values below 1.0 add hysteresis (quantified by the ablation
     * bench — it parks the controller in a dead zone more often than
     * it saves flush churn).
     */
    double downsizeFraction = 1.0;

    bool operator==(const DynamicParams &o) const = default;
};

/** The paper's dynamic resizing framework; see file comment. */
class DynamicMissRatioController
{
  public:
    /**
     * @param cache the resizable cache this controller resizes
     * @param sink where flush writebacks go (normally into L2)
     */
    DynamicMissRatioController(ResizableCache &cache,
                               WritebackSink sink,
                               const DynamicParams &params);

    /**
     * Observe one access to the controlled cache.
     * @param miss whether the access missed
     * @param now_cycle current simulated cycle
     */
    void onAccess(bool miss, std::uint64_t now_cycle);

    const DynamicParams &params() const { return params_; }

    std::uint64_t intervals() const { return intervals_; }
    std::uint64_t upsizes() const { return upsizes_; }
    std::uint64_t downsizes() const { return downsizes_; }

    /**
     * Level selected at each interval boundary (recorded for the
     * adaptation-trace example and tests).
     */
    const std::vector<unsigned> &levelTrace() const
    {
        return levelTrace_;
    }

    /**
     * Attach resize-decision telemetry (telemetry off = default
     * null recorder, which keeps interval boundaries on their
     * untouched fast path — one pointer test per boundary, nothing
     * per access).
     */
    void setTelemetry(const ResizeTelemetry &telemetry)
    {
        telem_ = telemetry;
    }

  private:
    ResizableCache &cache_;
    WritebackSink sink_;
    DynamicParams params_;
    unsigned sizeBoundLevel_;
    ResizeTelemetry telem_;

    std::uint64_t accessesInInterval_ = 0;
    std::uint64_t missesInInterval_ = 0;

    std::uint64_t intervals_ = 0;
    std::uint64_t upsizes_ = 0;
    std::uint64_t downsizes_ = 0;
    std::vector<unsigned> levelTrace_;
};

} // namespace rcache

#endif // RCACHE_CORE_DYNAMIC_CONTROLLER_HH
