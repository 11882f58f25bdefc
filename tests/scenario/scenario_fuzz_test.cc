/** @file
 * Property tests for the scenario layer.
 *
 * 1. Round-trip: for a few hundred randomized-but-valid
 *    ScenarioSpecs (random [system]/[cores] overrides, apps and
 *    mixes, axes drawn from the registry, engine selections, search
 *    grids), parse(print(spec)) == spec bit-for-bit — the canonical
 *    serialization loses nothing, including shortest-round-trip
 *    doubles.
 *
 * 2. Malformed corpus: a catalogue of broken inputs must each fail
 *    with exactly one `file:line: message` diagnostic and no crash.
 *
 * The generator uses the project Rng with a fixed seed, so a failure
 * reproduces deterministically; the failing spec's canonical text is
 * printed by the assertion message.
 */

#include <gtest/gtest.h>

#include <regex>

#include "scenario/param_space.hh"
#include "scenario/scenario_spec.hh"
#include "util/random.hh"
#include "workload/profiles.hh"

namespace rcache
{

namespace
{

/** One randomized valid spec. */
ScenarioSpec
randomSpec(Rng &rng, int idx)
{
    ScenarioSpec spec;
    spec.name = "fuzz-" + std::to_string(idx);
    spec.insts = 1 + rng.nextBelow(1000000000);

    // ---- [system]: flip a few integer keys and energy constants.
    const auto &keys = systemKeysU64();
    for (const auto &k : keys) {
        if (rng.chance(0.15))
            k.set(spec.system, 1 + rng.nextBelow(1000000));
    }
    if (rng.chance(0.3))
        spec.system.coreModel = rng.chance(0.5)
                                    ? CoreModel::InOrder
                                    : CoreModel::OutOfOrder;
    for (const auto &k : energyKeys()) {
        if (rng.chance(0.1))
            spec.system.energy.*(k.field) = rng.nextDouble() * 10;
    }

    // ---- [cores]
    if (rng.chance(0.4)) {
        spec.system.cores =
            1 + static_cast<unsigned>(rng.nextBelow(64));
        if (rng.chance(0.5))
            spec.system.quantumInsts = 1 + rng.nextBelow(1000000);
        if (rng.chance(0.5)) {
            const std::size_t n = 1 + rng.nextBelow(3);
            for (std::size_t i = 0; i < n; ++i)
                spec.system.coreModels.push_back(
                    rng.chance(0.5) ? CoreModel::OutOfOrder
                                    : CoreModel::InOrder);
        }
    }

    // ---- [workloads]: all, a subset, or mixes.
    const std::vector<std::string> names = suiteNames();
    auto randomApp = [&]() { return names[rng.nextBelow(names.size())]; };
    auto randomMix = [&]() {
        std::string mix = randomApp();
        const std::size_t extra = rng.nextBelow(3);
        for (std::size_t i = 0; i < extra; ++i)
            mix += "+" + randomApp();
        return mix;
    };
    if (rng.chance(0.6)) {
        const std::size_t n = 1 + rng.nextBelow(4);
        for (std::size_t i = 0; i < n; ++i) {
            const std::string app =
                rng.chance(0.4) ? randomMix() : randomApp();
            // The parser accepts duplicates; keep them out so the
            // spec stays meaningful.
            if (std::find(spec.apps.begin(), spec.apps.end(), app) ==
                spec.apps.end())
                spec.apps.push_back(app);
        }
    }

    // ---- [axes]: a subset of the registry, valid values each.
    auto addAxis = [&](const char *name,
                       std::vector<std::string> values) {
        if (values.empty())
            return;
        spec.axes.push_back(Axis{name, std::move(values)});
    };
    auto someOf = [&](std::initializer_list<const char *> pool) {
        std::vector<std::string> out;
        for (const char *v : pool)
            if (rng.chance(0.5))
                out.push_back(v);
        return out;
    };
    if (rng.chance(0.5))
        addAxis("org", someOf({"ways", "sets", "hybrid"}));
    if (rng.chance(0.4))
        addAxis("strategy", someOf({"static", "dynamic"}));
    if (rng.chance(0.4))
        addAxis("side", someOf({"icache", "dcache", "both"}));
    if (rng.chance(0.3))
        addAxis("core", someOf({"ooo", "inorder"}));
    if (rng.chance(0.3)) {
        std::vector<std::string> v;
        const std::size_t n = 1 + rng.nextBelow(3);
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(std::to_string(1 + rng.nextBelow(64)));
        addAxis("assoc", std::move(v));
    }
    if (rng.chance(0.25)) {
        std::vector<std::string> v;
        const std::size_t n = 1 + rng.nextBelow(3);
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(std::to_string(1 + rng.nextBelow(64)));
        addAxis("cores", std::move(v));
    }
    if (rng.chance(0.2))
        addAxis("quantum",
                {std::to_string(1 + rng.nextBelow(100000))});
    if (rng.chance(0.25)) {
        std::vector<std::string> v;
        const std::size_t n = 1 + rng.nextBelow(2);
        for (std::size_t i = 0; i < n; ++i) {
            const std::string mix = randomMix();
            if (std::find(v.begin(), v.end(), mix) == v.end())
                v.push_back(mix);
        }
        addAxis("mix", std::move(v));
    }
    if (rng.chance(0.2))
        addAxis("sample.interval",
                {std::to_string(rng.nextBelow(500000))});
    if (rng.chance(0.2))
        addAxis("lat.l2",
                {std::to_string(1 + rng.nextBelow(64))});

    // ---- [engine]: full (the default), a valid sampled shape, or
    // analytic (build() may reject analytic spaces — the round-trip
    // only needs parse/print, and the build fuzz tolerates both).
    if (rng.chance(0.5)) {
        if (rng.chance(0.3)) {
            spec.engine = EngineSpec::makeAnalytic();
        } else {
            const std::uint64_t interval = 1 + rng.nextBelow(1000000);
            const std::uint64_t detail = 1 + rng.nextBelow(interval);
            const std::uint64_t warmup =
                rng.nextBelow(interval - detail + 1);
            EXPECT_EQ(
                SamplingConfig::shapeError(interval, detail, warmup),
                nullptr);
            spec.engine =
                EngineSpec::makeSampled(interval, detail, warmup);
        }
    }

    // ---- [search]
    const Organization orgs[] = {Organization::SelectiveWays,
                                 Organization::SelectiveSets,
                                 Organization::Hybrid};
    spec.search.org = orgs[rng.nextBelow(3)];
    spec.search.strategy = rng.chance(0.5) ? Strategy::Static
                                           : Strategy::Dynamic;
    const SweepSide sides[] = {SweepSide::ICache, SweepSide::DCache,
                               SweepSide::Both};
    spec.search.side = sides[rng.nextBelow(3)];
    if (rng.chance(0.3)) {
        spec.search.dynGrid.intervals.clear();
        const std::size_t n = 1 + rng.nextBelow(4);
        for (std::size_t i = 0; i < n; ++i)
            spec.search.dynGrid.intervals.push_back(
                1 + rng.nextBelow(100000));
    }
    if (rng.chance(0.3)) {
        spec.search.dynGrid.missFractions.clear();
        const std::size_t n = 1 + rng.nextBelow(4);
        for (std::size_t i = 0; i < n; ++i)
            spec.search.dynGrid.missFractions.push_back(
                static_cast<double>(1 + rng.nextBelow(999)) / 1000.0);
    }
    if (rng.chance(0.3)) {
        spec.search.dynGrid.sizeFractions.clear();
        const std::size_t n = 1 + rng.nextBelow(4);
        for (std::size_t i = 0; i < n; ++i)
            spec.search.dynGrid.sizeFractions.push_back(
                static_cast<double>(rng.nextBelow(1001)) / 1000.0);
    }

    // ---- [search] adaptive-tune knobs: mode and the successive-
    // halving configuration (printed only when non-default, so they
    // exercise both the emit and the omit paths).
    if (rng.chance(0.4))
        spec.search.mode = SearchMode::Adaptive;
    if (rng.chance(0.4)) {
        // A random non-repeating ladder: shuffle the three rungs and
        // keep a non-empty prefix (the parser rejects repeats).
        std::vector<EngineMode> rungs{EngineMode::Analytic,
                                      EngineMode::Sampled,
                                      EngineMode::Full};
        for (std::size_t i = rungs.size(); i > 1; --i)
            std::swap(rungs[i - 1], rungs[rng.nextBelow(i)]);
        rungs.resize(1 + rng.nextBelow(rungs.size()));
        spec.search.adaptive.ladder = std::move(rungs);
    }
    if (rng.chance(0.4)) {
        spec.search.adaptive.promote.clear();
        const std::size_t n = 1 + rng.nextBelow(3);
        for (std::size_t i = 0; i < n; ++i)
            spec.search.adaptive.promote.push_back(
                static_cast<double>(1 + rng.nextBelow(1000)) /
                1000.0);
    }
    if (rng.chance(0.3))
        spec.search.adaptive.minSurvivors = 1 + rng.nextBelow(16);
    if (rng.chance(0.3))
        spec.search.adaptive.rankAgree = rng.nextBelow(8);
    if (rng.chance(0.3))
        spec.search.adaptive.sampleInterval =
            1000 + rng.nextBelow(1000000);
    return spec;
}

} // namespace

TEST(ScenarioFuzzTest, PrintParseRoundTripsRandomSpecs)
{
    Rng rng(0xf0220ed);
    for (int i = 0; i < 300; ++i) {
        const ScenarioSpec spec = randomSpec(rng, i);
        const std::string text = spec.printToString();

        std::string err;
        const auto back =
            ScenarioSpec::parseText(text, "fuzz.scn", &err);
        ASSERT_TRUE(back) << "iteration " << i << ": " << err
                          << "\n--- canonical text ---\n"
                          << text;
        EXPECT_TRUE(*back == spec)
            << "iteration " << i << " round-trip mismatch"
            << "\n--- canonical text ---\n"
            << text << "\n--- reprint ---\n"
            << back->printToString();

        // The canonical form is a fixed point of print o parse.
        EXPECT_EQ(back->printToString(), text) << "iteration " << i;
    }
}

TEST(ScenarioFuzzTest, MalformedInputsGetOneLineDiagnostics)
{
    const char *corpus[] = {
        "[bogus]\n",
        "name = early\n",
        "[scenario]\nname =\n",
        "[scenario]\ninsts = abc\n",
        "[scenario]\ninsts = 0\n",
        "[scenario]\nnope = 1\n",
        "[scenario\nname = x\n",
        "just some words\n",
        "= value\n",
        "[system]\nil1.size = 0\n",
        "[system]\nil1.size = -4\n",
        "[system]\nunknown.key = 1\n",
        "[system]\ncore = fast\n",
        "[system]\nenergy.clock = -1\n",
        "[system]\nenergy.nosuch = 1\n",
        "[cores]\ncount = 0\n",
        "[cores]\ncount = 65\n",
        "[cores]\ncount = two\n",
        "[cores]\nquantum = 0\n",
        "[cores]\nmodels = fast+slow\n",
        "[cores]\nmodels = ooo+\n",
        "[cores]\nwidth = 4\n",
        "[workloads]\napps = nosuchapp\n",
        "[workloads]\napps = gcc+nope\n",
        "[workloads]\napps = gcc+\n",
        "[workloads]\napps =\n",
        "[workloads]\nmixes = gcc\n",
        "[axes]\norg = none\n",
        "[axes]\norg = ways\norg = sets\n",
        "[axes]\ncores = 0\n",
        "[axes]\ncores = 99\n",
        "[axes]\nquantum = 0\n",
        "[axes]\nmix = gcc+bogus\n",
        "[axes]\nmix = +gcc\n",
        "[axes]\nnosuch = 1\n",
        "[axes]\nassoc = 0\n",
        "[axes]\nside = left\n",
        "[telemetry]\ninterval = 0\n",
        "[telemetry]\ninterval = soon\n",
        "[telemetry]\ntimeline =\n",
        "[telemetry]\nnosuch = 1\n",
        "[engine]\nmode = sampled\ninterval = x\n",
        "[engine]\nmode = full\ndetail = 5\n",
        "[engine]\nmode = sampled\ninterval = 10\nwarmup = 20\n",
        "[engine]\nmode = sampled\nperiod = 10\n",
        "[engine]\ninterval = 10\n",
        "[engine]\nmode = quick\n",
        "[engine]\nmode = full\ninterval = 10\n",
        "[engine]\nmode = analytic\ndetail = 5\n",
        "[engine]\nmode = sampled\ninterval = 0\n",
        "[engine]\nmode = sampled\ninterval = 10\ndetail = 20\n",
        "[engine]\nmode = full\nmode = sampled\n",
        "[engine]\nnosuch = 1\n",
        "[search]\nmode = quickest\n",
        "[search]\nladder =\n",
        "[search]\nladder = analytic,analytic\n",
        "[search]\nladder = analytic,quick\n",
        "[search]\npromote = 0\n",
        "[search]\npromote = 1.5\n",
        "[search]\npromote = half\n",
        "[search]\nmin-survivors = 0\n",
        "[search]\nrank-agree = soon\n",
        "[search]\nsample-interval = fast\n",
        "[engine]\nmode = full\n[sampling]\ninterval = 10\n",
        "[sampling]\ninterval = 10\n[engine]\nmode = full\n",
        "[search]\nstrategy = none\n",
        "[search]\norg = none\n",
        "[search]\nside = middle\n",
        "[search]\nmiss-fractions = 1.5\n",
        "[search]\nsize-fractions = 2\n",
        "[search]\nintervals = 0\n",
        "[search]\nnosuch = 1\n",
    };

    const std::regex diag("^fuzz\\.scn:[0-9]+: [^\\n]+$");
    for (const char *text : corpus) {
        std::string err;
        const auto spec =
            ScenarioSpec::parseText(text, "fuzz.scn", &err);
        EXPECT_FALSE(spec) << "accepted malformed input:\n" << text;
        EXPECT_TRUE(std::regex_match(err, diag))
            << "diagnostic for:\n"
            << text << "\nwas: '" << err << "'";
    }
}

TEST(ScenarioFuzzTest, BuildRejectsUnderprovisionedMixes)
{
    // A K-program mix with fewer than K cores anywhere in the space
    // would silently drop programs; build() must refuse.
    auto build = [](const std::string &text) {
        std::string err;
        auto spec = ScenarioSpec::parseText(text, "b.scn", &err);
        EXPECT_TRUE(spec) << err;
        return std::make_pair(ParamSpace::build(*spec, &err), err);
    };

    auto [no_cores, err1] =
        build("[workloads]\napps = gcc+m88ksim\n");
    EXPECT_FALSE(no_cores);
    EXPECT_NE(err1.find("cores"), std::string::npos) << err1;

    auto [low_axis, err2] = build(
        "[cores]\ncount = 4\n[workloads]\napps = gcc+m88ksim\n"
        "[axes]\ncores = 1,4\n");
    EXPECT_FALSE(low_axis);

    auto [ok, err3] = build(
        "[cores]\ncount = 2\n[workloads]\napps = gcc+m88ksim\n");
    EXPECT_TRUE(ok) << err3;

    // Wide-enough mixes via a mix axis pass; a too-wide one fails.
    auto [mix_ok, err4] = build(
        "[cores]\ncount = 2\n[workloads]\napps = ammp\n"
        "[axes]\nmix = gcc+swim,ammp+vpr\n");
    EXPECT_TRUE(mix_ok) << err4;
    auto [mix_wide, err5] = build(
        "[cores]\ncount = 2\n[workloads]\napps = ammp\n"
        "[axes]\nmix = gcc+swim+vpr\n");
    EXPECT_FALSE(mix_wide);

    // A quantum axis in an always-sampled scenario is dead config.
    auto [dead_quantum, err6] = build(
        "[cores]\ncount = 2\n[axes]\nquantum = 10000,20000\n"
        "[engine]\nmode = sampled\ninterval = 50000\n");
    EXPECT_FALSE(dead_quantum);
    EXPECT_NE(err6.find("quantum"), std::string::npos) << err6;
    // ...unless a sample.interval axis makes full detail reachable.
    auto [live_quantum, err7] = build(
        "[cores]\ncount = 2\n"
        "[axes]\nquantum = 10000,20000\nsample.interval = 0,50000\n");
    EXPECT_TRUE(live_quantum) << err7;
    // A fixed [cores] quantum is just as dead when every point runs
    // sampled, and just as live once full detail is reachable.
    auto [dead_fixed_quantum, err14] = build(
        "[cores]\ncount = 2\nquantum = 1000\n[workloads]\n"
        "apps = gcc+swim\n[engine]\nmode = sampled\ninterval = 20000\n");
    EXPECT_FALSE(dead_fixed_quantum);
    EXPECT_NE(err14.find("[cores] quantum"), std::string::npos) << err14;
    EXPECT_EQ(err14.find('\n'), std::string::npos) << err14;
    auto [live_fixed_quantum, err15] = build(
        "[cores]\ncount = 2\nquantum = 1000\n[workloads]\n"
        "apps = gcc+swim\n[axes]\nsample.interval = 0,20000\n");
    EXPECT_TRUE(live_fixed_quantum) << err15;

    // Multi-core-only settings where every point has one core would
    // be silently ignored: a single core runs [system] core and is
    // never split into quanta.
    auto [lone_models, err8] = build("[cores]\nmodels = inorder\n");
    EXPECT_FALSE(lone_models);
    EXPECT_NE(err8.find("models"), std::string::npos) << err8;
    EXPECT_EQ(err8.find('\n'), std::string::npos) << err8;
    auto [lone_quantum_axis, err9] =
        build("[axes]\nquantum = 5000,10000\n");
    EXPECT_FALSE(lone_quantum_axis);
    EXPECT_NE(err9.find("quantum"), std::string::npos) << err9;
    auto [lone_quantum, err10] = build("[cores]\nquantum = 10000\n");
    EXPECT_FALSE(lone_quantum);
    EXPECT_NE(err10.find("quantum"), std::string::npos) << err10;
    auto [one_core_axis, err11] = build(
        "[cores]\ncount = 4\nquantum = 10000\n[axes]\ncores = 1\n");
    EXPECT_FALSE(one_core_axis);
    // The default quantum spelled out changes nothing: accepted.
    auto [default_quantum, err12] =
        build("[cores]\nquantum = 50000\n");
    EXPECT_TRUE(default_quantum) << err12;
    // ...and a cores axis reaching two cores makes all three live.
    auto [two_core_axis, err13] = build(
        "[cores]\nquantum = 10000\nmodels = inorder\n"
        "[axes]\ncores = 1,2\nquantum = 5000,10000\n");
    EXPECT_TRUE(two_core_axis) << err13;
}

TEST(ScenarioFuzzTest, RandomSpecsBuildOrDiagnoseCleanly)
{
    // ParamSpace::build may legitimately reject a random spec (e.g.
    // side=both with strategy=dynamic reachable, a mix axis against
    // several apps, or an invalid geometry override) — but it must
    // either build or produce a one-line diagnostic, never crash.
    Rng rng(0xdecaf);
    int built = 0;
    for (int i = 0; i < 200; ++i) {
        const ScenarioSpec spec = randomSpec(rng, i);
        std::string err;
        const auto space = ParamSpace::build(spec, &err);
        if (space) {
            ++built;
            EXPECT_GE(space->numPoints(), 1u);
            // Materializing the first and last point exercises every
            // axis applier.
            (void)space->point(0);
            (void)space->point(space->numPoints() - 1);
        } else {
            EXPECT_FALSE(err.empty());
            EXPECT_EQ(err.find('\n'), std::string::npos) << err;
        }
    }
    // The generator keeps values in-registry, so a healthy fraction
    // must build.
    EXPECT_GT(built, 0);
}

} // namespace rcache
