/**
 * @file
 * Engine selection: how a run turns a workload into a RunResult.
 *
 * Three engines share one result contract (RunResult):
 *
 *  - full:     every instruction through the timing core. The
 *              reference semantics; everything else is validated
 *              against it.
 *  - sampled:  fast-forward / warmup / detailed periods
 *              (sim/sampling.hh); cycles and energy are
 *              extrapolations of the measured windows.
 *  - analytic: one stack-distance pass over the workload prices every
 *              LRU sets x ways geometry at once (src/analytic/);
 *              hit/miss counts are exact for LRU, cycles come from an
 *              analytical CPI model.
 *
 * EngineSpec is the single selection surface: the CLI's --engine
 * flag, the scenario [engine] section, RunJob, Experiment and
 * System::run all carry one. Full and
 * sampled runs then share one loop, runLockstep (sim/system.hh),
 * which is the only place the engine decides how a run carves into
 * measured windows.
 *
 * Canonical-form invariant: `sampling` holds the period shape only
 * when mode == Sampled; full and analytic specs always carry the
 * default-constructed shape. Every factory and parser below maintains
 * this, which is what makes operator== and the scenario round-trip
 * (parse(print(spec)) == spec) behave.
 */

#ifndef RCACHE_SIM_ENGINE_HH
#define RCACHE_SIM_ENGINE_HH

#include <algorithm>
#include <optional>
#include <string>

#include "sim/sampling.hh"

namespace rcache
{

/** See file comment. */
enum class EngineMode
{
    /** Every instruction through the timing core (the default). */
    Full,
    /** Fast-forward / warmup / detailed periods (sim/sampling.hh). */
    Sampled,
    /** Single-pass stack-distance pricing (src/analytic/). */
    Analytic,
};

/** Printable engine name ("full" / "sampled" / "analytic"). The
 *  successor of the retired sampleModeName. */
std::string engineName(EngineMode mode);

/** Parse an engine name; nullopt on an unknown one. */
std::optional<EngineMode> parseEngineModeToken(const std::string &t);

/** See file comment. */
struct EngineSpec
{
    EngineMode mode = EngineMode::Full;
    /** Period shape, meaningful only when mode == Sampled (canonical
     *  form keeps the defaults otherwise; see file comment). */
    SamplingConfig sampling;

    bool sampled() const { return mode == EngineMode::Sampled; }
    bool analytic() const { return mode == EngineMode::Analytic; }

    /**
     * Timing-core instructions a run of @p insts under this engine
     * simulates in detail: all of them (full), the measured windows
     * (sampled; equals RunResult::measuredInsts), or none
     * (analytic). The adaptive search's cost accounting.
     */
    std::uint64_t detailedInstsFor(std::uint64_t insts) const
    {
        if (mode == EngineMode::Full)
            return insts;
        if (mode == EngineMode::Analytic)
            return 0;
        return sampling.measuredInsts(insts);
    }

    /**
     * The next period of a run with @p remaining instructions left: a
     * sampling period (SamplingConfig::periodShape) under a sampled
     * engine, else a measured window of min(@p quantum, remaining)
     * instructions. runLockstep (sim/system.hh) runs one per turn.
     */
    SamplingConfig::PeriodShape period(std::uint64_t remaining,
                                       std::uint64_t quantum) const
    {
        if (sampled())
            return sampling.periodShape(remaining);
        return {0, 0, std::min(quantum, remaining)};
    }

    bool operator==(const EngineSpec &o) const = default;

    /** Fatal on a malformed spec (sampled with a bad period shape, or
     *  a non-sampled spec smuggling a non-default shape). */
    void validate() const;

    /** A sampled spec with the given period shape. */
    static EngineSpec
    makeSampled(std::uint64_t interval, std::uint64_t detailed,
                std::uint64_t warmup)
    {
        EngineSpec e;
        e.mode = EngineMode::Sampled;
        e.sampling = SamplingConfig::sampled(interval, detailed,
                                             warmup);
        return e;
    }

    /** A sampled spec with an existing shape. */
    static EngineSpec makeSampled(const SamplingConfig &shape)
    {
        EngineSpec e;
        e.mode = EngineMode::Sampled;
        e.sampling = shape;
        return e;
    }

    /** The analytic engine (no parameters). */
    static EngineSpec makeAnalytic()
    {
        EngineSpec e;
        e.mode = EngineMode::Analytic;
        return e;
    }
};

/**
 * Parse the CLI's one engine surface:
 *
 *     full
 *     sampled[:interval=N[,detail=N][,warmup=N]]
 *     analytic
 *
 * `sampled` without options uses the default period shape; detail and
 * warmup default from the interval per SamplingConfig's rules.
 * Options after `full:`/`analytic:` and unknown keys are rejected.
 * On failure returns nullopt and fills @p err with one line.
 */
std::optional<EngineSpec> parseEngineArg(const std::string &text,
                                         std::string *err);

/** Canonical inverse of parseEngineArg ("full", "analytic",
 *  "sampled:interval=N,detail=N,warmup=N"). */
std::string engineArg(const EngineSpec &spec);

} // namespace rcache

#endif // RCACHE_SIM_ENGINE_HH
