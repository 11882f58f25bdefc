/**
 * @file
 * CoreProbe: the hook the timing/functional cores sample telemetry
 * through.
 *
 * A probe is attached to a core with setProbe(); the core's
 * measurement windows (cpu/core.hh) then call onSample() at the
 * window's SampleCadence: right after every sampleInterval()-th
 * instruction, and once more at the window's end when its last chunk
 * is partial. Sampling is invisible to the simulation: a window
 * carries all its state across the sample points, exactly as it does
 * across the segments it is fed in, so a probed run retires the
 * identical instruction stream with identical timing, cycle for
 * cycle. Unprobed, the cadence costs a zero test or two per segment.
 */

#ifndef RCACHE_TELEMETRY_PROBE_HH
#define RCACHE_TELEMETRY_PROBE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "energy/energy_model.hh"

namespace rcache
{

/** See file comment. */
class CoreProbe
{
  public:
    virtual ~CoreProbe() = default;

    /** Instructions between samples (> 0). */
    virtual std::uint64_t sampleInterval() const = 0;

    /**
     * One timing-core sample. All values are relative to the current
     * run() window (multi-core quanta and sampled detailed windows
     * each open a fresh window at cycle 0); the probe detects window
     * turnover by @p window_insts not increasing.
     *
     * @param window_insts instructions retired in this window so far
     * @param window_cycle current cycle within this window
     * @param window_activity event counts of this window so far
     *        (the cycles field is not yet final; use @p window_cycle)
     */
    virtual void onSample(std::uint64_t window_insts,
                          std::uint64_t window_cycle,
                          const CoreActivity &window_activity) = 0;

    /**
     * One FunctionalCore (warmup) sample: state advanced with no
     * timing. @p window_insts counts this warmup window's
     * instructions.
     */
    virtual void onWarmupSample(std::uint64_t window_insts) = 0;
};

/** Where a window's probe samples fall (see file comment). */
class SampleCadence
{
  public:
    /** No probe: no samples. */
    explicit SampleCadence(const CoreProbe *probe = nullptr)
        : stride_(probe ? std::max<std::uint64_t>(
                              1, probe->sampleInterval())
                        : 0)
    {
    }

    /** How many of @p n more instructions a window that has run
     *  @p done runs before its next sample. */
    std::size_t
    span(std::uint64_t done, std::size_t n) const
    {
        return stride_ ? static_cast<std::size_t>(std::min<std::uint64_t>(
                             n, stride_ - done % stride_))
                       : n;
    }

    /** A sample falls right after instruction @p done (> 0). */
    bool due(std::uint64_t done) const
    {
        return stride_ && done % stride_ == 0;
    }

    /** A window closing after @p done instructions owes one more
     *  sample (its last chunk is partial). */
    bool owesTail(std::uint64_t done) const
    {
        return stride_ && done % stride_ != 0;
    }

  private:
    std::uint64_t stride_;
};

} // namespace rcache

#endif // RCACHE_TELEMETRY_PROBE_HH
