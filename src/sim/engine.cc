#include "sim/engine.hh"

#include "util/logging.hh"
#include "util/numformat.hh"

namespace rcache
{

std::string
engineName(EngineMode mode)
{
    switch (mode) {
      case EngineMode::Full:
        return "full";
      case EngineMode::Sampled:
        return "sampled";
      case EngineMode::Analytic:
        return "analytic";
    }
    rc_panic("bad EngineMode");
}

std::optional<EngineMode>
parseEngineModeToken(const std::string &t)
{
    if (t == "full")
        return EngineMode::Full;
    if (t == "sampled")
        return EngineMode::Sampled;
    if (t == "analytic")
        return EngineMode::Analytic;
    return std::nullopt;
}

void
EngineSpec::validate() const
{
    if (sampled()) {
        sampling.validate();
        return;
    }
    // Canonical-form invariant (see header): non-sampled specs carry
    // the default shape, so equality and printing stay meaningful.
    if (!(sampling == SamplingConfig{}))
        rc_fatal("engine '" + engineName(mode) +
                 "' carries a sampling shape; only the sampled "
                 "engine takes one");
}

std::optional<EngineSpec>
parseEngineArg(const std::string &text, std::string *err)
{
    const std::size_t colon = text.find(':');
    const std::string head = text.substr(0, colon);
    const std::optional<EngineMode> mode = parseEngineModeToken(head);
    if (!mode) {
        if (err)
            *err = "unknown engine '" + head +
                   "' (expected full, sampled, or analytic)";
        return std::nullopt;
    }
    if (colon == std::string::npos) {
        if (*mode != EngineMode::Sampled)
            return EngineSpec{*mode, {}};
        return EngineSpec::makeSampled(SamplingConfig{});
    }
    if (*mode != EngineMode::Sampled) {
        if (err)
            *err = "engine '" + head + "' takes no options";
        return std::nullopt;
    }

    std::optional<std::uint64_t> interval, detail, warmup;
    std::string rest = text.substr(colon + 1);
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string item = rest.substr(0, comma);
        rest = comma == std::string::npos ? std::string()
                                          : rest.substr(comma + 1);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            if (err)
                *err = "bad engine option '" + item +
                       "' (expected key=value)";
            return std::nullopt;
        }
        const std::string key = item.substr(0, eq);
        const std::string val = item.substr(eq + 1);
        std::optional<std::uint64_t> *slot = nullptr;
        if (key == "interval")
            slot = &interval;
        else if (key == "detail")
            slot = &detail;
        else if (key == "warmup")
            slot = &warmup;
        if (!slot) {
            if (err)
                *err = "unknown engine option '" + key +
                       "' (expected interval, detail, or warmup)";
            return std::nullopt;
        }
        if (slot->has_value()) {
            if (err)
                *err = "duplicate engine option '" + key + "'";
            return std::nullopt;
        }
        unsigned long long v = 0;
        if (!parseU64Strict(val, v)) {
            if (err)
                *err = "bad value for engine option '" + key + "': '" +
                       val + "'";
            return std::nullopt;
        }
        *slot = v;
    }

    SamplingConfig shape; // defaults when no options given
    if (interval) {
        if (*interval == 0) {
            if (err)
                *err = "engine option 'interval' must be > 0 "
                       "(use --engine full for unsampled runs)";
            return std::nullopt;
        }
        shape = SamplingConfig::sampled(
            *interval,
            detail.value_or(SamplingConfig::defaultDetail(*interval)),
            warmup.value_or(SamplingConfig::defaultWarmup(*interval)));
    } else if (detail || warmup) {
        if (err)
            *err = "engine options detail/warmup need interval=N";
        return std::nullopt;
    }
    if (const char *shape_err = SamplingConfig::shapeError(
            shape.intervalInsts, shape.detailedInsts,
            shape.warmupInsts)) {
        if (err)
            *err = shape_err;
        return std::nullopt;
    }
    return EngineSpec::makeSampled(shape);
}

std::string
engineArg(const EngineSpec &spec)
{
    if (!spec.sampled())
        return engineName(spec.mode);
    return "sampled:interval=" +
           std::to_string(spec.sampling.intervalInsts) +
           ",detail=" + std::to_string(spec.sampling.detailedInsts) +
           ",warmup=" + std::to_string(spec.sampling.warmupInsts);
}

} // namespace rcache
