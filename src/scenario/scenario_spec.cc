#include "scenario/scenario_spec.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "cache/replacement.hh"
#include "scenario/param_space.hh"
#include "util/numformat.hh"
#include "workload/profiles.hh"

namespace rcache
{

std::string
sweepSideName(SweepSide side)
{
    switch (side) {
      case SweepSide::ICache:
        return "icache";
      case SweepSide::DCache:
        return "dcache";
      case SweepSide::Both:
        return "both";
    }
    return "?";
}

std::optional<Organization>
parseOrganizationToken(const std::string &t)
{
    if (t == "none")
        return Organization::None;
    if (t == "ways")
        return Organization::SelectiveWays;
    if (t == "sets")
        return Organization::SelectiveSets;
    if (t == "hybrid")
        return Organization::Hybrid;
    return std::nullopt;
}

std::optional<Strategy>
parseStrategyToken(const std::string &t)
{
    if (t == "none")
        return Strategy::None;
    if (t == "static")
        return Strategy::Static;
    if (t == "dynamic")
        return Strategy::Dynamic;
    return std::nullopt;
}

std::optional<SweepSide>
parseSweepSideToken(const std::string &t)
{
    if (t == "icache")
        return SweepSide::ICache;
    if (t == "dcache")
        return SweepSide::DCache;
    if (t == "both")
        return SweepSide::Both;
    return std::nullopt;
}

std::string
searchModeName(SearchMode mode)
{
    return mode == SearchMode::Adaptive ? "adaptive" : "exhaustive";
}

std::optional<SearchMode>
parseSearchModeToken(const std::string &t)
{
    if (t == "exhaustive")
        return SearchMode::Exhaustive;
    if (t == "adaptive")
        return SearchMode::Adaptive;
    return std::nullopt;
}

std::optional<CoreModel>
parseCoreModelToken(const std::string &t)
{
    if (t == "ooo")
        return CoreModel::OutOfOrder;
    if (t == "inorder")
        return CoreModel::InOrder;
    return std::nullopt;
}

std::string
organizationToken(Organization org)
{
    switch (org) {
      case Organization::None:
        return "none";
      case Organization::SelectiveWays:
        return "ways";
      case Organization::SelectiveSets:
        return "sets";
      case Organization::Hybrid:
        return "hybrid";
    }
    return "?";
}

std::string
coreModelToken(CoreModel m)
{
    return m == CoreModel::InOrder ? "inorder" : "ooo";
}

std::optional<std::vector<CoreModel>>
parseCoreModelListToken(const std::string &t)
{
    std::vector<CoreModel> models;
    for (const std::string &item : splitPlusList(t)) {
        auto m = parseCoreModelToken(item);
        if (!m)
            return std::nullopt;
        models.push_back(*m);
    }
    return models;
}

std::string
coreModelListToken(const std::vector<CoreModel> &models)
{
    std::string out;
    for (std::size_t i = 0; i < models.size(); ++i) {
        // Two appends, not "+" + token: GCC 12 reports a false
        // -Wrestrict on the inlined operator+.
        if (i)
            out += '+';
        out += coreModelToken(models[i]);
    }
    return out;
}

const std::vector<SystemKeyU64> &
systemKeysU64()
{
    // One entry per integer [system] key. Geometry fields first (in
    // cache order), then latencies, then core widths.
    static const std::vector<SystemKeyU64> keys = {
        {"il1.size", [](const SystemConfig &c) { return c.il1.size; },
         [](SystemConfig &c, std::uint64_t v) { c.il1.size = v; }},
        {"il1.assoc",
         [](const SystemConfig &c) {
             return std::uint64_t(c.il1.assoc);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.il1.assoc = static_cast<unsigned>(v);
         }},
        {"il1.block",
         [](const SystemConfig &c) {
             return std::uint64_t(c.il1.blockSize);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.il1.blockSize = static_cast<unsigned>(v);
         }},
        {"il1.subarray",
         [](const SystemConfig &c) {
             return std::uint64_t(c.il1.subarraySize);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.il1.subarraySize = static_cast<unsigned>(v);
         }},
        {"dl1.size", [](const SystemConfig &c) { return c.dl1.size; },
         [](SystemConfig &c, std::uint64_t v) { c.dl1.size = v; }},
        {"dl1.assoc",
         [](const SystemConfig &c) {
             return std::uint64_t(c.dl1.assoc);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.dl1.assoc = static_cast<unsigned>(v);
         }},
        {"dl1.block",
         [](const SystemConfig &c) {
             return std::uint64_t(c.dl1.blockSize);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.dl1.blockSize = static_cast<unsigned>(v);
         }},
        {"dl1.subarray",
         [](const SystemConfig &c) {
             return std::uint64_t(c.dl1.subarraySize);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.dl1.subarraySize = static_cast<unsigned>(v);
         }},
        {"l2.size", [](const SystemConfig &c) { return c.l2.size; },
         [](SystemConfig &c, std::uint64_t v) { c.l2.size = v; }},
        {"l2.assoc",
         [](const SystemConfig &c) {
             return std::uint64_t(c.l2.assoc);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.l2.assoc = static_cast<unsigned>(v);
         }},
        {"l2.block",
         [](const SystemConfig &c) {
             return std::uint64_t(c.l2.blockSize);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.l2.blockSize = static_cast<unsigned>(v);
         }},
        {"l2.subarray",
         [](const SystemConfig &c) {
             return std::uint64_t(c.l2.subarraySize);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.l2.subarraySize = static_cast<unsigned>(v);
         }},
        {"lat.l1",
         [](const SystemConfig &c) {
             return std::uint64_t(c.lat.l1Latency);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.lat.l1Latency = static_cast<unsigned>(v);
         }},
        {"lat.l2",
         [](const SystemConfig &c) {
             return std::uint64_t(c.lat.l2Latency);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.lat.l2Latency = static_cast<unsigned>(v);
         }},
        {"lat.mem",
         [](const SystemConfig &c) {
             return std::uint64_t(c.lat.memBaseLatency);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.lat.memBaseLatency = static_cast<unsigned>(v);
         }},
        {"lat.mem-per-8b",
         [](const SystemConfig &c) {
             return std::uint64_t(c.lat.memCyclesPer8Bytes);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.lat.memCyclesPer8Bytes = static_cast<unsigned>(v);
         }},
        {"core.fetch-width",
         [](const SystemConfig &c) {
             return std::uint64_t(c.core.fetchWidth);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.core.fetchWidth = static_cast<unsigned>(v);
         }},
        {"core.dispatch-width",
         [](const SystemConfig &c) {
             return std::uint64_t(c.core.dispatchWidth);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.core.dispatchWidth = static_cast<unsigned>(v);
         }},
        {"core.commit-width",
         [](const SystemConfig &c) {
             return std::uint64_t(c.core.commitWidth);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.core.commitWidth = static_cast<unsigned>(v);
         }},
        {"core.rob",
         [](const SystemConfig &c) {
             return std::uint64_t(c.core.robSize);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.core.robSize = static_cast<unsigned>(v);
         }},
        {"core.lsq",
         [](const SystemConfig &c) {
             return std::uint64_t(c.core.lsqSize);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.core.lsqSize = static_cast<unsigned>(v);
         }},
        {"core.mshrs",
         [](const SystemConfig &c) {
             return std::uint64_t(c.core.mshrs);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.core.mshrs = static_cast<unsigned>(v);
         }},
        {"core.wb-entries",
         [](const SystemConfig &c) {
             return std::uint64_t(c.core.wbEntries);
         },
         [](SystemConfig &c, std::uint64_t v) {
             c.core.wbEntries = static_cast<unsigned>(v);
         }},
    };
    return keys;
}

const std::vector<EnergyKey> &
energyKeys()
{
    static const std::vector<EnergyKey> keys = {
        {"l1-precharge", &EnergyParams::l1PrechargePerSubarray},
        {"l1-read-per-way", &EnergyParams::l1ReadPerWay},
        {"l1-decode", &EnergyParams::l1DecodePerAccess},
        {"l1-tag-bit", &EnergyParams::l1TagBitPerWayRead},
        {"l2-access", &EnergyParams::l2PerAccess},
        {"mem-access", &EnergyParams::memPerAccess},
        {"l1-per-byte-cycle", &EnergyParams::l1PerByteCycle},
        {"l2-per-byte-cycle", &EnergyParams::l2PerByteCycle},
        {"fetch-decode-rename", &EnergyParams::fetchDecodeRenamePerInst},
        {"fetch-decode-inorder",
         &EnergyParams::fetchDecodePerInstInOrder},
        {"rob", &EnergyParams::robPerInst},
        {"regfile", &EnergyParams::regfilePerInst},
        {"int-alu", &EnergyParams::intAluOp},
        {"fp-alu", &EnergyParams::fpAluOp},
        {"lsq", &EnergyParams::lsqPerMemOp},
        {"bpred", &EnergyParams::bpredPerBranch},
        {"result-bus", &EnergyParams::resultBusPerInst},
        {"clock", &EnergyParams::clockPerCycle},
    };
    return keys;
}

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Comma-split with trimming; empty items are preserved as "" so the
 *  caller can reject them with a precise diagnostic. */
std::vector<std::string>
splitCommas(const std::string &csv)
{
    std::vector<std::string> out;
    std::string item;
    std::stringstream ss(csv);
    while (std::getline(ss, item, ','))
        out.push_back(trim(item));
    if (!csv.empty() && csv.back() == ',')
        out.push_back("");
    return out;
}

/** Line-by-line parser state; see ScenarioSpec::parse. */
class Parser
{
  public:
    Parser(const std::string &filename, std::string *err)
        : file_(filename), err_(err)
    {
    }

    std::optional<ScenarioSpec> run(std::istream &in);

  private:
    bool fail(const std::string &msg)
    {
        if (err_)
            *err_ = file_ + ":" + std::to_string(line_) + ": " + msg;
        return false;
    }

    bool handleSection(const std::string &name);
    bool handleKey(const std::string &key, const std::string &value);
    bool keyScenario(const std::string &key, const std::string &value);
    bool keySystem(const std::string &key, const std::string &value);
    bool keyCores(const std::string &key, const std::string &value);
    bool keyWorkloads(const std::string &key, const std::string &value);
    bool keyAxes(const std::string &key, const std::string &value);
    bool keyEngine(const std::string &key, const std::string &value);
    bool keySearch(const std::string &key, const std::string &value);
    bool finishEngine();

    bool parseListU64(const std::string &value,
                      std::vector<std::uint64_t> &out);
    bool parseListDouble(const std::string &value,
                         std::vector<double> &out);

    std::string file_;
    std::string *err_;
    int line_ = 0;
    std::string section_;
    ScenarioSpec spec_;

    /** [engine] accumulators, resolved in finishEngine(). */
    bool sawEngine_ = false;
    std::optional<EngineMode> engMode_;
    std::uint64_t sampInterval_ = 0;
    std::optional<std::uint64_t> sampDetail_, sampWarmup_;
    int engineLine_ = 0;
};

bool
Parser::handleSection(const std::string &name)
{
    static const char *known[] = {"scenario", "system", "cores",
                                  "workloads", "axes", "engine",
                                  "search"};
    if (std::find_if(std::begin(known), std::end(known),
                     [&](const char *k) { return name == k; }) ==
        std::end(known)) {
        return fail("unknown section '[" + name + "]'");
    }
    section_ = name;
    if (name == "engine") {
        sawEngine_ = true;
        engineLine_ = line_;
    }
    return true;
}

bool
Parser::keyScenario(const std::string &key, const std::string &value)
{
    if (key == "name") {
        if (value.empty())
            return fail("scenario name must not be empty");
        spec_.name = value;
        return true;
    }
    if (key == "insts") {
        unsigned long long v = 0;
        if (!parseU64Strict(value, v) || v == 0)
            return fail("insts wants a positive integer, got '" +
                        value + "'");
        spec_.insts = v;
        return true;
    }
    return fail("unknown key '" + key + "' in [scenario]");
}

bool
Parser::keySystem(const std::string &key, const std::string &value)
{
    if (key == "core") {
        auto m = parseCoreModelToken(value);
        if (!m)
            return fail("core wants ooo|inorder, got '" + value + "'");
        spec_.system.coreModel = *m;
        return true;
    }
    if (key == "policy") {
        if (!isReplacementPolicyName(value))
            return fail("policy wants " + replacementPolicyList() +
                        ", got '" + value + "'");
        spec_.system.policy = value;
        return true;
    }
    for (const auto &k : systemKeysU64()) {
        if (key != k.key)
            continue;
        unsigned long long v = 0;
        if (!parseU64Strict(value, v) || v == 0)
            return fail(std::string(k.key) +
                        " wants a positive integer, got '" + value +
                        "'");
        k.set(spec_.system, v);
        return true;
    }
    if (key.rfind("energy.", 0) == 0) {
        const std::string sub = key.substr(7);
        for (const auto &k : energyKeys()) {
            if (sub != k.key)
                continue;
            double v = 0;
            if (!parseDoubleStrict(value, v) || v < 0)
                return fail(key + " wants a non-negative number, got '" +
                            value + "'");
            spec_.system.energy.*(k.field) = v;
            return true;
        }
    }
    return fail("unknown key '" + key + "' in [system]");
}

bool
Parser::keyCores(const std::string &key, const std::string &value)
{
    if (key == "count") {
        unsigned long long v = 0;
        if (!parseU64Strict(value, v) || v == 0 || v > 64)
            return fail("count wants 1..64 cores, got '" + value +
                        "'");
        spec_.system.cores = static_cast<unsigned>(v);
        return true;
    }
    if (key == "quantum") {
        unsigned long long v = 0;
        if (!parseU64Strict(value, v) || v == 0)
            return fail("quantum wants a positive instruction count, "
                        "got '" +
                        value + "'");
        spec_.system.quantumInsts = v;
        return true;
    }
    if (key == "models") {
        auto models = parseCoreModelListToken(value);
        if (!models)
            return fail("models wants '+'-joined ooo|inorder entries "
                        "(e.g. ooo+inorder), got '" +
                        value + "'");
        spec_.system.coreModels = std::move(*models);
        return true;
    }
    return fail("unknown key '" + key + "' in [cores]");
}

bool
Parser::keyWorkloads(const std::string &key, const std::string &value)
{
    if (key != "apps")
        return fail("unknown key '" + key + "' in [workloads]");
    if (value == "all") {
        spec_.apps.clear();
        return true;
    }
    std::vector<std::string> apps;
    for (const std::string &item : splitCommas(value)) {
        if (item.empty())
            return fail("apps wants 'all' or a comma-separated list "
                        "of profile or mix names");
        // An app may be a '+'-joined multi-programmed mix; validate
        // every component.
        std::string why;
        if (!mixByName(item, &why))
            return fail(why);
        apps.push_back(item);
    }
    if (apps.empty())
        return fail("apps wants 'all' or at least one profile name");
    spec_.apps = std::move(apps);
    return true;
}

bool
Parser::keyAxes(const std::string &key, const std::string &value)
{
    for (const Axis &ax : spec_.axes)
        if (ax.name == key)
            return fail("duplicate axis '" + key + "'");
    Axis axis;
    axis.name = key;
    for (const std::string &item : splitCommas(value)) {
        if (item.empty())
            return fail("axis '" + key +
                        "' wants a comma-separated value list");
        axis.values.push_back(item);
    }
    if (axis.values.empty())
        return fail("axis '" + key + "' wants at least one value");
    std::string why;
    if (!validateAxis(axis, &why))
        return fail(why);
    spec_.axes.push_back(std::move(axis));
    return true;
}

bool
Parser::keyEngine(const std::string &key, const std::string &value)
{
    if (key == "mode") {
        if (engMode_)
            return fail("duplicate 'mode' key in [engine]");
        auto mode = parseEngineModeToken(value);
        if (!mode)
            return fail("mode wants full|sampled|analytic, got '" +
                        value + "'");
        engMode_ = *mode;
        return true;
    }
    unsigned long long v = 0;
    const bool ok = parseU64Strict(value, v);
    if (key == "interval") {
        if (!ok || v == 0)
            return fail("interval wants a positive instruction "
                        "count, got '" +
                        value + "'");
        sampInterval_ = v;
        return true;
    }
    if (key == "detail") {
        if (!ok || v == 0)
            return fail("detail wants a positive integer, got '" +
                        value + "'");
        sampDetail_ = v;
        return true;
    }
    if (key == "warmup") {
        if (!ok)
            return fail("warmup wants a non-negative integer, got '" +
                        value + "'");
        sampWarmup_ = v;
        return true;
    }
    return fail("unknown key '" + key + "' in [engine]");
}

bool
Parser::keySearch(const std::string &key, const std::string &value)
{
    if (key == "org") {
        auto org = parseOrganizationToken(value);
        if (!org || *org == Organization::None)
            return fail("org wants ways|sets|hybrid, got '" + value +
                        "'");
        spec_.search.org = *org;
        return true;
    }
    if (key == "strategy") {
        auto s = parseStrategyToken(value);
        if (!s || *s == Strategy::None)
            return fail("strategy wants static|dynamic, got '" +
                        value + "'");
        spec_.search.strategy = *s;
        return true;
    }
    if (key == "side") {
        auto side = parseSweepSideToken(value);
        if (!side)
            return fail("side wants icache|dcache|both, got '" +
                        value + "'");
        spec_.search.side = *side;
        return true;
    }
    if (key == "intervals") {
        std::vector<std::uint64_t> v;
        if (!parseListU64(value, v))
            return fail("intervals wants a comma-separated list of "
                        "positive integers");
        spec_.search.dynGrid.intervals = std::move(v);
        return true;
    }
    if (key == "miss-fractions") {
        std::vector<double> v;
        if (!parseListDouble(value, v))
            return fail("miss-fractions wants a comma-separated list "
                        "of numbers");
        for (double f : v)
            if (f <= 0 || f >= 1)
                return fail("miss-fractions must lie in (0, 1)");
        spec_.search.dynGrid.missFractions = std::move(v);
        return true;
    }
    if (key == "size-fractions") {
        std::vector<double> v;
        if (!parseListDouble(value, v))
            return fail("size-fractions wants a comma-separated list "
                        "of numbers");
        for (double f : v)
            if (f < 0 || f > 1)
                return fail("size-fractions must lie in [0, 1] "
                            "(0 = unbounded)");
        spec_.search.dynGrid.sizeFractions = std::move(v);
        return true;
    }
    if (key == "mode") {
        auto mode = parseSearchModeToken(value);
        if (!mode)
            return fail("mode wants exhaustive|adaptive, got '" +
                        value + "'");
        spec_.search.mode = *mode;
        return true;
    }
    if (key == "ladder") {
        std::vector<EngineMode> rungs;
        for (const std::string &item : splitCommas(value)) {
            auto m = parseEngineModeToken(item);
            if (!m)
                return fail("ladder wants a comma-separated list of "
                            "full|sampled|analytic, got '" + item +
                            "'");
            if (std::find(rungs.begin(), rungs.end(), *m) !=
                rungs.end())
                return fail("ladder repeats rung '" + item + "'");
            rungs.push_back(*m);
        }
        if (rungs.empty())
            return fail("ladder wants at least one rung");
        spec_.search.adaptive.ladder = std::move(rungs);
        return true;
    }
    if (key == "promote") {
        std::vector<double> v;
        if (!parseListDouble(value, v))
            return fail("promote wants a comma-separated list of "
                        "fractions");
        for (double f : v)
            if (f <= 0 || f > 1)
                return fail("promote fractions must lie in (0, 1]");
        spec_.search.adaptive.promote = std::move(v);
        return true;
    }
    if (key == "min-survivors") {
        unsigned long long v = 0;
        if (!parseU64Strict(value, v) || v == 0)
            return fail("min-survivors wants a positive integer, "
                        "got '" + value + "'");
        spec_.search.adaptive.minSurvivors = v;
        return true;
    }
    if (key == "rank-agree") {
        unsigned long long v = 0;
        if (!parseU64Strict(value, v))
            return fail("rank-agree wants a non-negative integer "
                        "(0 = off), got '" + value + "'");
        spec_.search.adaptive.rankAgree = v;
        return true;
    }
    if (key == "sample-interval") {
        unsigned long long v = 0;
        if (!parseU64Strict(value, v))
            return fail("sample-interval wants an instruction count "
                        "(0 = default), got '" + value + "'");
        spec_.search.adaptive.sampleInterval = v;
        return true;
    }
    return fail("unknown key '" + key + "' in [search]");
}

bool
Parser::parseListU64(const std::string &value,
                     std::vector<std::uint64_t> &out)
{
    for (const std::string &item : splitCommas(value)) {
        unsigned long long v = 0;
        if (item.empty() || !parseU64Strict(item, v) || v == 0)
            return false;
        out.push_back(v);
    }
    return !out.empty();
}

bool
Parser::parseListDouble(const std::string &value,
                        std::vector<double> &out)
{
    for (const std::string &item : splitCommas(value)) {
        double v = 0;
        if (item.empty() || !parseDoubleStrict(item, v))
            return false;
        out.push_back(v);
    }
    return !out.empty();
}

bool
Parser::handleKey(const std::string &key, const std::string &value)
{
    if (section_.empty())
        return fail("key '" + key +
                    "' before any [section] header");
    if (section_ == "scenario")
        return keyScenario(key, value);
    if (section_ == "system")
        return keySystem(key, value);
    if (section_ == "cores")
        return keyCores(key, value);
    if (section_ == "workloads")
        return keyWorkloads(key, value);
    if (section_ == "axes")
        return keyAxes(key, value);
    if (section_ == "engine")
        return keyEngine(key, value);
    return keySearch(key, value);
}

bool
Parser::finishEngine()
{
    line_ = engineLine_;
    if (!engMode_)
        return fail("[engine] needs a 'mode = full|sampled|analytic' "
                    "key");
    if (*engMode_ != EngineMode::Sampled) {
        if (sampInterval_ || sampDetail_ || sampWarmup_)
            return fail("interval/detail/warmup only apply to "
                        "mode = sampled");
        spec_.engine = EngineSpec{*engMode_, {}};
        return true;
    }
    const std::uint64_t interval =
        sampInterval_ ? sampInterval_
                      : SamplingConfig{}.intervalInsts;
    const std::uint64_t detail =
        sampDetail_ ? *sampDetail_
                    : SamplingConfig::defaultDetail(interval);
    const std::uint64_t warmup =
        sampWarmup_ ? *sampWarmup_
                    : SamplingConfig::defaultWarmup(interval);
    if (const char *why =
            SamplingConfig::shapeError(interval, detail, warmup))
        return fail(why);
    spec_.engine = EngineSpec::makeSampled(interval, detail, warmup);
    return true;
}

std::optional<ScenarioSpec>
Parser::run(std::istream &in)
{
    std::string raw;
    while (std::getline(in, raw)) {
        ++line_;
        std::string text = raw;
        const std::size_t hash = text.find('#');
        if (hash != std::string::npos)
            text.resize(hash);
        text = trim(text);
        if (text.empty())
            continue;
        if (text.front() == '[') {
            if (text.back() != ']') {
                fail("malformed section header '" + text + "'");
                return std::nullopt;
            }
            if (!handleSection(trim(text.substr(1, text.size() - 2))))
                return std::nullopt;
            continue;
        }
        const std::size_t eq = text.find('=');
        if (eq == std::string::npos) {
            fail("expected 'key = value', got '" + text + "'");
            return std::nullopt;
        }
        const std::string key = trim(text.substr(0, eq));
        const std::string value = trim(text.substr(eq + 1));
        if (key.empty()) {
            fail("missing key before '='");
            return std::nullopt;
        }
        if (!handleKey(key, value))
            return std::nullopt;
    }
    if (sawEngine_ && !finishEngine())
        return std::nullopt;
    return spec_;
}

void
printList(std::ostream &os, const char *key,
          const std::vector<std::string> &items)
{
    os << key << " = ";
    for (std::size_t i = 0; i < items.size(); ++i)
        os << (i ? "," : "") << items[i];
    os << '\n';
}

} // namespace

std::optional<ScenarioSpec>
ScenarioSpec::parse(std::istream &in, const std::string &filename,
                    std::string *err)
{
    return Parser(filename, err).run(in);
}

std::optional<ScenarioSpec>
ScenarioSpec::parseText(const std::string &text,
                        const std::string &filename, std::string *err)
{
    std::istringstream in(text);
    return parse(in, filename, err);
}

std::optional<ScenarioSpec>
ScenarioSpec::parseFile(const std::string &path, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = path + ": cannot open scenario file";
        return std::nullopt;
    }
    return parse(in, path, err);
}

void
ScenarioSpec::print(std::ostream &os) const
{
    const SystemConfig base;

    os << "[scenario]\n"
       << "name = " << name << '\n'
       << "insts = " << insts << '\n';

    // [system]: only keys that differ from the Table 2 base config,
    // so canonical prints stay as compact as hand-written files.
    std::ostringstream sys;
    if (system.coreModel != base.coreModel)
        sys << "core = " << coreModelToken(system.coreModel) << '\n';
    if (system.policy != base.policy)
        sys << "policy = " << system.policy << '\n';
    for (const auto &k : systemKeysU64())
        if (k.get(system) != k.get(base))
            sys << k.key << " = " << k.get(system) << '\n';
    for (const auto &k : energyKeys())
        if (system.energy.*(k.field) != base.energy.*(k.field))
            sys << "energy." << k.key << " = "
                << shortestDouble(system.energy.*(k.field)) << '\n';
    if (!sys.str().empty())
        os << "\n[system]\n" << sys.str();

    // [cores]: likewise only the keys that differ from the
    // single-core defaults.
    std::ostringstream cores;
    if (system.cores != base.cores)
        cores << "count = " << system.cores << '\n';
    if (system.quantumInsts != base.quantumInsts)
        cores << "quantum = " << system.quantumInsts << '\n';
    if (system.coreModels != base.coreModels)
        cores << "models = " << coreModelListToken(system.coreModels)
              << '\n';
    if (!cores.str().empty())
        os << "\n[cores]\n" << cores.str();

    os << "\n[workloads]\n";
    if (apps.empty())
        os << "apps = all\n";
    else
        printList(os, "apps", apps);

    if (!axes.empty()) {
        os << "\n[axes]\n";
        for (const Axis &ax : axes)
            printList(os, ax.name.c_str(), ax.values);
    }

    // Full detail (the default) prints no [engine] section.
    if (engine.mode != EngineMode::Full) {
        os << "\n[engine]\n"
           << "mode = " << engineName(engine.mode) << '\n';
        if (engine.mode == EngineMode::Sampled) {
            os << "interval = " << engine.sampling.intervalInsts
               << '\n'
               << "detail = " << engine.sampling.detailedInsts << '\n'
               << "warmup = " << engine.sampling.warmupInsts << '\n';
        }
    }

    const SearchGrid default_grid;
    os << "\n[search]\n"
       << "org = " << organizationToken(search.org) << '\n'
       << "strategy = " << strategyName(search.strategy) << '\n'
       << "side = " << sweepSideName(search.side) << '\n';
    auto joinU64 = [&](const char *key,
                       const std::vector<std::uint64_t> &v) {
        os << key << " = ";
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? "," : "") << v[i];
        os << '\n';
    };
    auto joinDouble = [&](const char *key,
                          const std::vector<double> &v) {
        os << key << " = ";
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? "," : "") << shortestDouble(v[i]);
        os << '\n';
    };
    if (search.dynGrid.intervals != default_grid.intervals)
        joinU64("intervals", search.dynGrid.intervals);
    if (search.dynGrid.missFractions != default_grid.missFractions)
        joinDouble("miss-fractions", search.dynGrid.missFractions);
    if (search.dynGrid.sizeFractions != default_grid.sizeFractions)
        joinDouble("size-fractions", search.dynGrid.sizeFractions);

    // Adaptive-search keys: only where they differ from the
    // defaults, so exhaustive scenarios keep their exact bytes.
    const AdaptiveSpec default_adaptive;
    if (search.mode != SearchMode::Exhaustive)
        os << "mode = " << searchModeName(search.mode) << '\n';
    if (search.adaptive.ladder != default_adaptive.ladder) {
        os << "ladder = ";
        for (std::size_t i = 0; i < search.adaptive.ladder.size();
             ++i)
            os << (i ? "," : "")
               << engineName(search.adaptive.ladder[i]);
        os << '\n';
    }
    if (search.adaptive.promote != default_adaptive.promote)
        joinDouble("promote", search.adaptive.promote);
    if (search.adaptive.minSurvivors !=
        default_adaptive.minSurvivors)
        os << "min-survivors = " << search.adaptive.minSurvivors
           << '\n';
    if (search.adaptive.rankAgree != default_adaptive.rankAgree)
        os << "rank-agree = " << search.adaptive.rankAgree << '\n';
    if (search.adaptive.sampleInterval !=
        default_adaptive.sampleInterval)
        os << "sample-interval = " << search.adaptive.sampleInterval
           << '\n';
}

std::string
ScenarioSpec::printToString() const
{
    std::ostringstream os;
    print(os);
    return os.str();
}

std::string
systemConfigKey(const SystemConfig &cfg)
{
    std::string key;
    appendKeyField(key, coreModelToken(cfg.coreModel));
    for (const auto &k : systemKeysU64())
        appendKeyField(key, k.get(cfg));
    for (const auto &k : energyKeys())
        appendKeyField(key, cfg.energy.*(k.field));
    appendKeyField(key, organizationToken(cfg.il1Org));
    appendKeyField(key, organizationToken(cfg.dl1Org));
    appendKeyField(key, cfg.cores);
    appendKeyField(key, cfg.quantumInsts);
    appendKeyField(key, coreModelListToken(cfg.coreModels));
    appendKeyField(key, cfg.policy);
    return key;
}

} // namespace rcache
