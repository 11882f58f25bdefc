/**
 * @file
 * ParamSpace: generic enumeration of a scenario's design points.
 *
 * A scenario's axes span a grid; ParamSpace enumerates its cross
 * product in row-major order (first axis outermost) and materializes
 * each point as a DesignPoint — a complete SystemConfig plus the
 * search coordinates (side, organization, strategy) and engine
 * selection, ready for the experiment driver to expand into
 * per-level / per-parameter ResizeSetup candidates.
 *
 * The axis registry maps axis names onto the scenario key tables
 * (scenario_spec.hh), so everything that can be fixed in [system] /
 * [search] / [engine] can also be swept:
 *
 *   org, strategy, side, core       enum axes
 *   assoc                           both L1 associativities at once
 *   il1.* / dl1.* / l2.*            geometry fields
 *   lat.*                           hierarchy latencies
 *   core.*                          core widths/buffers
 *   energy.<key>                    energy-model constants
 *   sample.interval                 sampled engine period (0 = full
 *                                   detail; not valid with analytic)
 *   cores                           core count (multi-core system)
 *   quantum                         round-robin quantum (insts)
 *   mix                             workload mix ("gcc+m88ksim")
 *
 * Validation happens at build() time (and per-axis at parse time via
 * validateAxis), so a ParamSpace that builds cleanly can enumerate
 * every point without error.
 */

#ifndef RCACHE_SCENARIO_PARAM_SPACE_HH
#define RCACHE_SCENARIO_PARAM_SPACE_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario_spec.hh"

namespace rcache
{

/** One fully resolved design point of a scenario. */
struct DesignPoint
{
    SystemConfig cfg;
    SweepSide side = SweepSide::DCache;
    Organization org = Organization::SelectiveSets;
    Strategy strategy = Strategy::Static;
    EngineSpec engine;
    /**
     * Workload-mix override from a 'mix' axis ("gcc+m88ksim"); empty
     * means the cell's app names the workload. When non-empty the
     * cell's app is only an enumeration label — the sweep engine
     * simulates this mix instead (validated at build() time).
     */
    std::string mix;
    /**
     * Axis coordinates that produced this point, as
     * "name=value;name=value" in axis order (empty for an axis-free
     * scenario). Carried into every SweepRecord row.
     */
    std::string axes;
};

/**
 * Check that @p axis names a registered axis and that every value
 * parses for its type. On failure fills @p err with a one-line
 * explanation (no file:line prefix; the scenario parser adds it).
 */
bool validateAxis(const Axis &axis, std::string *err);

/** See file comment. */
class ParamSpace
{
  public:
    /**
     * Build the space for @p spec. Re-validates the axes and checks
     * cross-cutting constraints the per-line parse cannot see (every
     * point's geometry must validate; side=both is static-only).
     * On failure returns nullopt and fills @p err with one line.
     */
    static std::optional<ParamSpace> build(const ScenarioSpec &spec,
                                           std::string *err);

    /** Number of design points (product of axis sizes; >= 1). */
    std::size_t numPoints() const { return numPoints_; }

    /** Materialize point @p idx (row-major, first axis outermost). */
    DesignPoint point(std::size_t idx) const;

    /** Per-axis coordinates of @p idx, outermost first. */
    std::vector<std::size_t> coords(std::size_t idx) const;

    const ScenarioSpec &spec() const { return spec_; }

  private:
    ParamSpace() = default;

    /** One parsed axis value: applies itself to a draft point. */
    using Applier = std::function<void(DesignPoint &)>;

    ScenarioSpec spec_;
    /** appliers_[axis][value]. */
    std::vector<std::vector<Applier>> appliers_;
    std::size_t numPoints_ = 1;
};

} // namespace rcache

#endif // RCACHE_SCENARIO_PARAM_SPACE_HH
