#include "scenario/param_space.hh"

#include <limits>

#include "cache/replacement.hh"
#include "util/logging.hh"
#include "util/numformat.hh"
#include "workload/profiles.hh"

namespace rcache
{

namespace
{

using Applier = std::function<void(DesignPoint &)>;

std::optional<Applier>
failAxis(const std::string &axis, const std::string &why,
         std::string *err)
{
    if (err)
        *err = "axis '" + axis + "': " + why;
    return std::nullopt;
}

/**
 * Resolve one (axis name, value token) pair into its applier. The
 * single place axis semantics live; validateAxis and ParamSpace both
 * call it, so validation and enumeration cannot disagree.
 */
std::optional<Applier>
makeApplier(const std::string &name, const std::string &value,
            std::string *err)
{
    if (name == "org") {
        auto org = parseOrganizationToken(value);
        if (!org || *org == Organization::None)
            return failAxis(name, "wants ways|sets|hybrid, got '" +
                                      value + "'",
                            err);
        return Applier([org = *org](DesignPoint &p) { p.org = org; });
    }
    if (name == "strategy") {
        auto s = parseStrategyToken(value);
        if (!s || *s == Strategy::None)
            return failAxis(name, "wants static|dynamic, got '" +
                                      value + "'",
                            err);
        return Applier(
            [s = *s](DesignPoint &p) { p.strategy = s; });
    }
    if (name == "side") {
        auto side = parseSweepSideToken(value);
        if (!side)
            return failAxis(name, "wants icache|dcache|both, got '" +
                                      value + "'",
                            err);
        return Applier(
            [side = *side](DesignPoint &p) { p.side = side; });
    }
    if (name == "core") {
        auto m = parseCoreModelToken(value);
        if (!m)
            return failAxis(name, "wants ooo|inorder, got '" + value +
                                      "'",
                            err);
        return Applier(
            [m = *m](DesignPoint &p) { p.cfg.coreModel = m; });
    }
    if (name == "policy") {
        if (!isReplacementPolicyName(value))
            return failAxis(name, "wants " + replacementPolicyList() +
                                      ", got '" + value + "'",
                            err);
        return Applier(
            [value](DesignPoint &p) { p.cfg.policy = value; });
    }
    if (name == "assoc") {
        unsigned long long v = 0;
        if (!parseU64Strict(value, v) || v == 0 || v > 64)
            return failAxis(name, "wants 1..64, got '" + value + "'",
                            err);
        return Applier([v](DesignPoint &p) {
            p.cfg.il1.assoc = static_cast<unsigned>(v);
            p.cfg.dl1.assoc = static_cast<unsigned>(v);
        });
    }
    if (name == "cores") {
        unsigned long long v = 0;
        if (!parseU64Strict(value, v) || v == 0 || v > 64)
            return failAxis(name, "wants 1..64 cores, got '" + value +
                                      "'",
                            err);
        return Applier([v](DesignPoint &p) {
            p.cfg.cores = static_cast<unsigned>(v);
        });
    }
    if (name == "quantum") {
        unsigned long long v = 0;
        if (!parseU64Strict(value, v) || v == 0)
            return failAxis(name,
                            "wants a positive instruction count, "
                            "got '" +
                                value + "'",
                            err);
        return Applier(
            [v](DesignPoint &p) { p.cfg.quantumInsts = v; });
    }
    if (name == "mix") {
        std::string why;
        if (!mixByName(value, &why))
            return failAxis(name, why, err);
        return Applier([value](DesignPoint &p) { p.mix = value; });
    }
    if (name == "sample.interval") {
        unsigned long long v = 0;
        if (!parseU64Strict(value, v))
            return failAxis(name,
                            "wants a non-negative integer "
                            "(0 = full detail), got '" +
                                value + "'",
                            err);
        if (v == 0)
            return Applier(
                [](DesignPoint &p) { p.engine = EngineSpec{}; });
        const std::uint64_t detail = SamplingConfig::defaultDetail(v);
        const std::uint64_t warmup = SamplingConfig::defaultWarmup(v);
        if (const char *why =
                SamplingConfig::shapeError(v, detail, warmup))
            return failAxis(name, why, err);
        return Applier([v, detail, warmup](DesignPoint &p) {
            p.engine = EngineSpec::makeSampled(v, detail, warmup);
        });
    }
    for (const auto &k : systemKeysU64()) {
        if (name != k.key)
            continue;
        unsigned long long v = 0;
        if (!parseU64Strict(value, v) || v == 0)
            return failAxis(name, "wants a positive integer, got '" +
                                      value + "'",
                            err);
        return Applier(
            [set = k.set, v](DesignPoint &p) { set(p.cfg, v); });
    }
    if (name.rfind("energy.", 0) == 0) {
        const std::string sub = name.substr(7);
        for (const auto &k : energyKeys()) {
            if (sub != k.key)
                continue;
            double v = 0;
            if (!parseDoubleStrict(value, v) || v < 0)
                return failAxis(name,
                                "wants a non-negative number, got '" +
                                    value + "'",
                                err);
            return Applier([field = k.field, v](DesignPoint &p) {
                p.cfg.energy.*field = v;
            });
        }
    }
    return failAxis(name, "unknown axis name", err);
}

} // namespace

bool
validateAxis(const Axis &axis, std::string *err)
{
    for (const std::string &value : axis.values)
        if (!makeApplier(axis.name, value, err))
            return false;
    return true;
}

std::optional<ParamSpace>
ParamSpace::build(const ScenarioSpec &spec, std::string *err)
{
    ParamSpace space;
    space.spec_ = spec;
    for (const Axis &axis : spec.axes) {
        if (axis.values.empty()) {
            if (err)
                *err = "axis '" + axis.name +
                       "': wants at least one value";
            return std::nullopt;
        }
        std::vector<Applier> appliers;
        for (const std::string &value : axis.values) {
            auto a = makeApplier(axis.name, value, err);
            if (!a)
                return std::nullopt;
            appliers.push_back(std::move(*a));
        }
        if (space.numPoints_ >
            std::numeric_limits<std::size_t>::max() /
                appliers.size()) {
            if (err)
                *err = "design space overflows size_t";
            return std::nullopt;
        }
        space.numPoints_ *= appliers.size();
        space.appliers_.push_back(std::move(appliers));
    }

    // Cross-cutting constraints the per-axis value checks cannot
    // see. Both are checked WITHOUT walking the full cross product —
    // a sharded million-point sweep must not pay O(numPoints) at
    // startup in every shard:
    //
    //  - side=both is static-only, and side/strategy combine freely,
    //    so the conflict exists iff 'both' and 'dynamic' are each
    //    reachable on their axis (or fixed in [search]);
    //  - geometry validity depends only on the geometry-affecting
    //    axes, so it suffices to validate their (usually tiny)
    //    sub-product with every other axis at its base value.
    auto findAxis = [&](const char *name) -> const Axis * {
        for (const Axis &axis : spec.axes)
            if (axis.name == name)
                return &axis;
        return nullptr;
    };
    auto hasValue = [](const Axis *axis, const char *value) {
        return std::find(axis->values.begin(), axis->values.end(),
                         value) != axis->values.end();
    };
    // An axis shadows the [search] fixed value completely: a point's
    // side/strategy is the axis value whenever the axis exists.
    const Axis *side_axis = findAxis("side");
    const Axis *strat_axis = findAxis("strategy");
    const bool both_reachable =
        side_axis ? hasValue(side_axis, "both")
                  : spec.search.side == SweepSide::Both;
    const bool dynamic_reachable =
        strat_axis ? hasValue(strat_axis, "dynamic")
                   : spec.search.strategy == Strategy::Dynamic;
    if (both_reachable && dynamic_reachable) {
        if (err)
            *err = "side 'both' supports only strategy 'static' "
                   "(each side is profiled separately)";
        return std::nullopt;
    }

    // A 'mix' axis replaces the workload dimension: enumerating it
    // against several apps would duplicate every mix cell once per
    // app. Insist the app list is a single label.
    const Axis *mix_axis = findAxis("mix");
    if (mix_axis && spec.apps.size() != 1) {
        if (err)
            *err = "a 'mix' axis names the workloads itself; pin "
                   "[workloads] apps to exactly one (label) app";
        return std::nullopt;
    }

    // A K-program mix needs K cores in every cell it can land in —
    // cycling fills extra cores, but a missing core would silently
    // drop programs from the simulation. Mixes and core counts
    // combine freely (independent axes), so worst cell = widest mix
    // vs fewest cores.
    std::size_t widest_mix = 1;
    std::string widest_name;
    const auto noteMix = [&](const std::string &name) {
        const std::size_t n =
            1 + static_cast<std::size_t>(
                    std::count(name.begin(), name.end(), '+'));
        if (n > widest_mix) {
            widest_mix = n;
            widest_name = name;
        }
    };
    if (mix_axis) {
        for (const std::string &v : mix_axis->values)
            noteMix(v);
    } else {
        for (const std::string &app : spec.apps)
            noteMix(app);
    }
    const Axis *cores_axis = findAxis("cores");
    std::uint64_t fewest_cores = spec.system.cores;
    std::uint64_t most_cores = spec.system.cores;
    if (cores_axis) {
        fewest_cores = ~std::uint64_t{0};
        most_cores = 0;
        for (const std::string &v : cores_axis->values) {
            unsigned long long n = 0;
            parseU64Strict(v, n); // validated by makeApplier above
            fewest_cores = std::min<std::uint64_t>(fewest_cores, n);
            most_cores = std::max<std::uint64_t>(most_cores, n);
        }
    }
    const bool multi_core_reachable = most_cores > 1;
    if (widest_mix > fewest_cores) {
        if (err)
            *err = "mix '" + widest_name + "' runs " +
                   std::to_string(widest_mix) +
                   " programs but only " +
                   std::to_string(fewest_cores) +
                   " core(s) are configured; set [cores] count or a "
                   "cores axis to at least " +
                   std::to_string(widest_mix);
        return std::nullopt;
    }

    // Multi-core-only settings on a space whose every point has one
    // core would be silently ignored: a single core runs [system]
    // core, never the models list, and a single-core run is never
    // split into quanta (a quantum axis would enumerate identical
    // cells).
    if (!multi_core_reachable) {
        const char *why = nullptr;
        if (!spec.system.coreModels.empty())
            why = "[cores] models has no effect on a single core (it "
                  "runs [system] core)";
        else if (findAxis("quantum"))
            why = "a 'quantum' axis has no effect on a single core "
                  "(it has no interleave)";
        else if (spec.system.quantumInsts != SystemConfig{}.quantumInsts)
            why = "[cores] quantum has no effect on a single core (it "
                  "has no interleave)";
        if (why) {
            if (err)
                *err = std::string(why) +
                       "; set [cores] count or a cores axis above 1";
            return std::nullopt;
        }
    }

    // The round-robin quantum only governs full-detail runs (sampled
    // runs interleave whole sampling periods), so a quantum axis in
    // an always-sampled scenario would enumerate cells whose rows are
    // all identical, and a fixed [cores] quantum would change nothing.
    const bool quantum_set =
        spec.system.quantumInsts != SystemConfig{}.quantumInsts;
    if (findAxis("quantum") || quantum_set) {
        const Axis *si = findAxis("sample.interval");
        const bool full_detail_reachable =
            si ? hasValue(si, "0")
               : spec.engine.mode == EngineMode::Full;
        if (!full_detail_reachable) {
            const char *what =
                findAxis("quantum") ? "a 'quantum' axis" : "[cores] quantum";
            if (err)
                *err = std::string(what) +
                       " has no effect under a sampled engine "
                       "(cores interleave whole sampling periods); "
                       "drop it or sweep sample.interval with a 0 "
                       "(full-detail) value";
            return std::nullopt;
        }
    }

    // The analytic engine prices static single-core geometries only
    // (src/analytic/). A sample.interval axis is rejected outright:
    // its values silently switch the whole cell to another engine,
    // which under an analytic scenario can only be a mistake.
    if (spec.engine.analytic()) {
        if (dynamic_reachable) {
            if (err)
                *err = "the analytic engine prices static "
                       "geometries only; strategy 'dynamic' needs "
                       "the full or sampled engine";
            return std::nullopt;
        }
        if (multi_core_reachable) {
            if (err)
                *err = "the analytic engine supports single-core "
                       "configurations only; drop [cores] / the "
                       "cores axis or use the full engine";
            return std::nullopt;
        }
        if (findAxis("sample.interval")) {
            if (err)
                *err = "a 'sample.interval' axis cannot combine "
                       "with the analytic engine (its values would "
                       "silently switch engines per cell)";
            return std::nullopt;
        }
        // The single-pass stack-distance math is exact for true LRU
        // and meaningless for any other policy, so reject non-lru
        // policies up front instead of reporting wrong miss counts.
        const Axis *policy_axis = findAxis("policy");
        bool non_lru_reachable = spec.system.policy != "lru";
        if (policy_axis)
            for (const std::string &v : policy_axis->values)
                non_lru_reachable |= v != "lru";
        if (non_lru_reachable) {
            if (err)
                *err = "the analytic engine models true-LRU caches "
                       "only; drop the [system] policy / policy axis "
                       "or use the full or sampled engine";
            return std::nullopt;
        }
    }

    std::vector<std::size_t> geom_axes;
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        const std::string &name = spec.axes[i].name;
        if (name == "assoc" || name.rfind("il1.", 0) == 0 ||
            name.rfind("dl1.", 0) == 0 || name.rfind("l2.", 0) == 0)
            geom_axes.push_back(i);
    }
    std::size_t geom_points = 1;
    for (std::size_t i : geom_axes)
        geom_points *= spec.axes[i].values.size();
    for (std::size_t g = 0; g < geom_points; ++g) {
        DesignPoint p;
        p.cfg = spec.system;
        std::string label;
        std::size_t rest = g;
        for (std::size_t k = geom_axes.size(); k-- > 0;) {
            const std::size_t i = geom_axes[k];
            const std::size_t v = rest % spec.axes[i].values.size();
            rest /= spec.axes[i].values.size();
            space.appliers_[i][v](p);
            label = spec.axes[i].name + "=" +
                    spec.axes[i].values[v] +
                    (label.empty() ? "" : ";" + label);
        }
        struct NamedGeom
        {
            const char *name;
            const CacheGeometry &geom;
        };
        for (const NamedGeom ng :
             {NamedGeom{"il1", p.cfg.il1}, NamedGeom{"dl1", p.cfg.dl1},
              NamedGeom{"l2", p.cfg.l2}}) {
            const std::string why = ng.geom.validate();
            if (!why.empty()) {
                if (err)
                    *err = "design point '" +
                           (label.empty() ? "<base>" : label) +
                           "': " + ng.name + ": " + why;
                return std::nullopt;
            }
        }
    }
    return space;
}

std::vector<std::size_t>
ParamSpace::coords(std::size_t idx) const
{
    rc_assert(idx < numPoints_);
    std::vector<std::size_t> c(appliers_.size(), 0);
    for (std::size_t i = appliers_.size(); i-- > 0;) {
        c[i] = idx % appliers_[i].size();
        idx /= appliers_[i].size();
    }
    return c;
}

DesignPoint
ParamSpace::point(std::size_t idx) const
{
    DesignPoint p;
    p.cfg = spec_.system;
    p.side = spec_.search.side;
    p.org = spec_.search.org;
    p.strategy = spec_.search.strategy;
    p.engine = spec_.engine;

    const auto c = coords(idx);
    std::string axes;
    for (std::size_t i = 0; i < appliers_.size(); ++i) {
        appliers_[i][c[i]](p);
        if (i)
            axes += ';';
        axes += spec_.axes[i].name + "=" + spec_.axes[i].values[c[i]];
    }
    p.axes = std::move(axes);
    return p;
}

} // namespace rcache
