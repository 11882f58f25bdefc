#include "sim/sampling.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"

namespace rcache
{

const char *
SamplingConfig::shapeError(std::uint64_t interval,
                           std::uint64_t detailed,
                           std::uint64_t warmup)
{
    if (detailed == 0)
        return "sample detail must be > 0";
    // Overflow-safe form of detailed + warmup > interval.
    if (detailed > interval || warmup > interval - detailed)
        return "sample detail + warmup must fit in the sample period";
    return nullptr;
}

SamplingConfig::PeriodShape
SamplingConfig::periodShape(std::uint64_t remaining) const
{
    PeriodShape s;
    if (remaining >= intervalInsts) {
        s.detailed = detailedInsts;
        s.warmup = warmupInsts;
        s.fastForward = intervalInsts - s.warmup - s.detailed;
    } else {
        s.detailed = std::min(detailedInsts, remaining);
        s.warmup = std::min(warmupInsts, remaining - s.detailed);
        s.fastForward = remaining - s.detailed - s.warmup;
    }
    return s;
}

std::uint64_t
SamplingConfig::measuredInsts(std::uint64_t total) const
{
    validate();
    std::uint64_t measured = 0;
    // Full periods all measure detailedInsts; only the tail differs.
    // Collapsing them keeps this O(1) for any total/interval ratio.
    if (total >= intervalInsts) {
        const std::uint64_t full = total / intervalInsts;
        measured += full * detailedInsts;
        total -= full * intervalInsts;
    }
    while (total > 0) {
        const PeriodShape s = periodShape(total);
        measured += s.detailed;
        total -= s.fastForward + s.warmup + s.detailed;
    }
    return measured;
}

void
SamplingConfig::validate() const
{
    if (const char *err =
            shapeError(intervalInsts, detailedInsts, warmupInsts))
        rc_fatal(std::string("bad sampling config: ") + err);
}

} // namespace rcache
