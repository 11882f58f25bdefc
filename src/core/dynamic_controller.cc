#include "core/dynamic_controller.hh"

namespace rcache
{

DynamicMissRatioController::DynamicMissRatioController(
    ResizableCache &cache, WritebackSink sink,
    const DynamicParams &params)
    : cache_(cache), sink_(std::move(sink)), params_(params)
{
    rc_assert(params_.intervalAccesses > 0);
    sizeBoundLevel_ =
        params_.sizeBoundBytes == 0
            ? cache_.levels() - 1
            : cache_.levelForMinSize(params_.sizeBoundBytes);
}

void
DynamicMissRatioController::onAccess(bool miss, std::uint64_t now_cycle)
{
    ++accessesInInterval_;
    if (miss)
        ++missesInInterval_;

    if (accessesInInterval_ < params_.intervalAccesses)
        return;

    ++intervals_;

    // Account elapsed enabled-size time before any resize so the
    // leakage/average-size integral sees the old size.
    cache_.cache().accumulateEnabledTime(now_cycle);

    // Telemetry rides along without steering: the decision logic
    // below is byte-for-byte the untraced one, and the reason/flush
    // capture only runs with a recorder attached.
    ResizeReason reason = ResizeReason::hold;
    FlushResult flush;

    if (missesInInterval_ > params_.missBound) {
        if (cache_.canUpsize()) {
            flush = cache_.upsize(sink_);
            ++upsizes_;
            reason = ResizeReason::grow;
        } else {
            reason = ResizeReason::growAtMax;
        }
    } else if (static_cast<double>(missesInInterval_) <
               params_.missBound * params_.downsizeFraction) {
        if (cache_.canDownsize() &&
            cache_.currentLevel() < sizeBoundLevel_) {
            flush = cache_.downsize(sink_);
            ++downsizes_;
            reason = ResizeReason::shrink;
        } else if (!cache_.canDownsize()) {
            reason = ResizeReason::shrinkAtMin;
        } else {
            reason = ResizeReason::shrinkSizeBound;
        }
    }

    if (telem_.recorder) {
        ResizeEvent ev;
        ev.core = telem_.core;
        ev.cache = cache_.cache().name();
        ev.interval = intervals_;
        ev.cycle = now_cycle;
        ev.accesses = accessesInInterval_;
        ev.misses = missesInInterval_;
        ev.missBound = params_.missBound;
        ev.downsizeFraction = params_.downsizeFraction;
        ev.reason = reason;
        ev.toLevel = cache_.currentLevel();
        ev.fromLevel = ev.toLevel;
        if (reason == ResizeReason::grow)
            ev.fromLevel = ev.toLevel + 1;
        else if (reason == ResizeReason::shrink)
            ev.fromLevel = ev.toLevel - 1;
        ev.toBytes = cache_.cache().enabledSize();
        ev.fromBytes =
            ev.fromLevel == ev.toLevel
                ? ev.toBytes
                : cache_.schedule()[ev.fromLevel].sizeBytes(
                      cache_.cache().geometry().blockSize);
        ev.flushInvalidated = flush.invalidated;
        ev.flushWritebacks = flush.writebacks;
        ev.transitionCycles =
            flush.writebacks * telem_.drainCyclesPerWriteback;
        telem_.recorder->record(ev);
    }

    levelTrace_.push_back(cache_.currentLevel());
    accessesInInterval_ = 0;
    missesInInterval_ = 0;
}

} // namespace rcache
