/**
 * @file
 * Sampled simulation: functional fast-forward between short detailed
 * measurement windows (SMARTS-style systematic sampling).
 *
 * A sampled run carves the instruction stream into fixed periods of
 * @c intervalInsts instructions. Each period is simulated as
 *
 *     [ fast-forward | warmup | detailed ]
 *
 * Fast-forward advances only the *workload position* (Workload::skip,
 * O(1) for the synthetic generators) — nothing is simulated, which is
 * where the order-of-magnitude speedup comes from. Warmup runs on the
 * FunctionalCore: caches (tags, replacement state, dirty bits) and
 * the resize controllers' interval/miss counters advance with no
 * timing, exactly as a timing core would advance them, while the
 * stream's FrontEnd (cpu/front_end.hh) warms the branch predictor,
 * rebuilding the state the skip left stale.
 * The detailed window is measured on the timing core: cycles,
 * instruction mix, and per-cache counter deltas accumulate across all
 * windows and are extrapolated (scaled by total/measured
 * instructions) to full-run estimates. The loop that runs the periods
 * is runLockstep (sim/system.hh), the same one full-detail and
 * multi-core runs go through; this file only says how periods carve
 * up.
 *
 * The accuracy trade-off is explicit: state inside a skipped span is
 * never observed (a resize controller sleeps through it — see the
 * interval-skip tests), and warmup length bounds how much of the L1/L2
 * working set is re-established before measurement. The accuracy gate
 * in tests/sim/sampling_test.cc pins both effects.
 *
 * The whole procedure is a pure function of (workload, config), so
 * sampled sweeps stay bit-identical across thread counts exactly like
 * full-detail sweeps.
 *
 * A sampled run is selected only through the engine
 * (sim/engine.hh): `--engine sampled:interval=N,...` or a scenario's
 * `[engine] mode = sampled`. Sweeps, tune rungs, and the benches then
 * evaluate their cells through the one CellBatch path
 * (scenario/cell_eval.hh), which stamps that engine on every job of a
 * cell, baseline included, so sampled cells are normalized against
 * sampled baselines.
 */

#ifndef RCACHE_SIM_SAMPLING_HH
#define RCACHE_SIM_SAMPLING_HH

#include <cstdint>

namespace rcache
{

/**
 * Shape of one sampling period. Pure shape: whether a run samples at
 * all is the engine's call (EngineSpec in sim/engine.hh, which
 * replaced the old SampleMode enum) — this struct only says how the
 * periods carve up once it does.
 */
struct SamplingConfig
{
    /** Total instructions per period (fast-forward + warmup +
     *  detailed). */
    std::uint64_t intervalInsts = 100000;
    /** Measured instructions at the end of each period. */
    std::uint64_t detailedInsts = 10000;
    /** Instructions warming cache/predictor/controller state before
     *  each detailed window (no timing, not measured). */
    std::uint64_t warmupInsts = 20000;

    bool operator==(const SamplingConfig &o) const = default;

    /**
     * Why (interval, detailed, warmup) is not a valid sampled shape,
     * or nullptr if it is. The single source of the shape rules —
     * validate(), --engine parsing, and the scenario [engine] section
     * all call this, so the layers cannot drift. Overflow-safe for
     * any uint64 inputs.
     */
    static const char *shapeError(std::uint64_t interval,
                                  std::uint64_t detailed,
                                  std::uint64_t warmup);

    /** Fatal on a malformed shape. */
    void validate() const;

    /** A config with the given shape. */
    static SamplingConfig sampled(std::uint64_t interval,
                                  std::uint64_t detailed,
                                  std::uint64_t warmup)
    {
        return {interval, detailed, warmup};
    }

    /**
     * How one period carves up when @p remaining instructions are
     * left: full periods use the configured split; a short tail keeps
     * the measurement window at the expense of fast-forward so every
     * period ends measured. runLockstep (sim/system.hh) takes
     * every sampled period from here, for single-core and multi-core
     * runs alike.
     */
    struct PeriodShape
    {
        std::uint64_t fastForward = 0;
        std::uint64_t warmup = 0;
        std::uint64_t detailed = 0;
    };
    PeriodShape periodShape(std::uint64_t remaining) const;

    /**
     * Timing-core instructions a sampled run of @p total
     * instructions measures — the sum of every period's detailed
     * window, walked with periodShape so it equals a single-core
     * run's RunResult::measuredInsts exactly. Pure plan-time
     * arithmetic; the adaptive search and benches use it to account
     * detailed-simulation cost without running anything.
     */
    std::uint64_t measuredInsts(std::uint64_t total) const;

    /** @name Derived defaults
     * The single source for the documented detail/warmup defaulting
     * rules, shared by --engine, the scenario [engine] section, and
     * the tuner's sampled rung so they cannot drift apart.
     */
    /// @{
    /** Default measured window: a tenth of the period, at least 1. */
    static std::uint64_t defaultDetail(std::uint64_t interval)
    {
        return interval / 10 > 0 ? interval / 10 : 1;
    }
    /** Default functional warmup: a fifth of the period. */
    static std::uint64_t defaultWarmup(std::uint64_t interval)
    {
        return interval / 5;
    }
    /// @}
};

} // namespace rcache

#endif // RCACHE_SIM_SAMPLING_HH
