/**
 * @file
 * Ablation benches for the design choices DESIGN.md calls out:
 *
 *  1. hybrid redundant-size resolution: highest- vs lowest-
 *     associativity (the paper picks highest to minimize miss ratio);
 *  2. dynamic-controller interval length sensitivity;
 *  3. downsize hysteresis (downsizeFraction) sensitivity;
 *  4. subarray size (512B/1K/2K) effect on the offered spectrum and
 *     achievable energy-delay.
 */

#include "bench/common.hh"

using namespace rcache;

namespace
{

/**
 * Run @p p on @p cfg once unresized and once per dynamic d-cache
 * controller setting in @p points, as one batch on RCACHE_JOBS
 * workers. @return the unresized run, then one run per point
 */
std::vector<RunResult>
dynamicRuns(const SystemConfig &cfg, const BenchmarkProfile &p,
            const std::vector<DynamicParams> &points)
{
    std::vector<RunJob> jobs(points.size() + 1);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].label = p.name + "/point" + std::to_string(i);
        jobs[i].profile = p;
        jobs[i].cfg = cfg;
        jobs[i].insts = rcache::bench::runInsts();
        if (i > 0)
            jobs[i].dl1 = ResizeSetup{Strategy::Dynamic, 0, points[i - 1]};
    }
    return SweepRunner(rcache::bench::benchJobs()).run(jobs);
}

void
hybridRedundantSizeRule()
{
    std::cout << "[1] hybrid redundant-size resolution\n"
              << "    (16K within a 32K 4-way hybrid can be 4x4K "
                 "ways or 2x8K ways;\n"
              << "     the paper picks the highest associativity)\n\n";
    // Compare a 16K 4-way config against a 16K 2-way config reached
    // inside the same 32K 4-way hybrid cache, per app.
    SystemConfig cfg = SystemConfig::base();
    cfg.il1.assoc = 4;
    cfg.dl1.assoc = 4;
    cfg.dl1Org = Organization::Hybrid;
    TextTable t({"app", "16K@4w rel E*D", "16K@2w rel E*D",
                 "higher assoc better?"});
    for (const auto &p : rcache::bench::suite()) {
        double edp[2];
        int k = 0;
        for (ResizeConfig rc :
             {ResizeConfig{128, 4}, ResizeConfig{256, 2}}) {
            SyntheticWorkload wl(p);
            System sys(cfg);
            // Drive the raw cache to the target config before the
            // run (both are legal subarray configurations). No
            // schedule level offers 16K at 2 ways, so this is a raw
            // System run rather than a RunJob.
            sys.dl1().cache().resizeTo(rc.sets, rc.ways);
            RunResult r = sys.run(wl, rcache::bench::runInsts());
            edp[k++] = r.edp();
        }
        t.addRow({p.name, TextTable::num(edp[0] / edp[1], 3), "1.000",
                  edp[0] <= edp[1] ? "yes" : "no"});
    }
    t.print(std::cout);
    std::cout << '\n';
}

void
intervalSensitivity()
{
    std::cout << "[2] dynamic controller interval sensitivity "
                 "(su2cor d$, in-order)\n\n";
    SystemConfig cfg = SystemConfig::base();
    cfg.coreModel = CoreModel::InOrder;
    cfg.dl1Org = Organization::SelectiveSets;

    std::vector<DynamicParams> points;
    for (std::uint64_t interval : {512u, 1024u, 4096u, 16384u,
                                   65536u}) {
        DynamicParams dyn;
        dyn.intervalAccesses = interval;
        dyn.missBound = static_cast<std::uint64_t>(0.05 * interval);
        dyn.sizeBoundBytes = 16 * 1024;
        points.push_back(dyn);
    }
    const auto runs = dynamicRuns(cfg, profileByName("su2cor"), points);
    const RunResult &base = runs.front();

    TextTable t({"interval", "E*D reduction", "avg size", "resizes"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const RunResult &r = runs[i + 1];
        t.addRow({std::to_string(points[i].intervalAccesses),
                  TextTable::pct(100 * (1 - r.edp() / base.edp())),
                  TextTable::bytesKb(r.avgDl1Bytes),
                  std::to_string(r.dl1Resizes)});
    }
    t.print(std::cout);
    std::cout << '\n';
}

void
hysteresisSensitivity()
{
    std::cout << "[3] downsize hysteresis (downsizeFraction)\n\n";
    SystemConfig cfg = SystemConfig::base();
    cfg.dl1Org = Organization::SelectiveSets;

    std::vector<DynamicParams> points;
    for (double frac : {1.0, 0.75, 0.5, 0.25}) {
        DynamicParams dyn;
        dyn.intervalAccesses = 4096;
        dyn.missBound = 80;
        dyn.downsizeFraction = frac;
        points.push_back(dyn);
    }
    const auto runs = dynamicRuns(cfg, profileByName("ammp"), points);
    const RunResult &base = runs.front();

    TextTable t({"downsizeFraction", "E*D reduction", "avg size"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const RunResult &r = runs[i + 1];
        t.addRow({TextTable::num(points[i].downsizeFraction),
                  TextTable::pct(100 * (1 - r.edp() / base.edp())),
                  TextTable::bytesKb(r.avgDl1Bytes)});
    }
    t.print(std::cout);
    std::cout << '\n';
}

void
subarraySize()
{
    std::cout << "[4] subarray size vs offered spectrum "
                 "(selective-sets 32K 2-way)\n\n";
    TextTable t({"subarray", "levels", "min size",
                 "avg E*D reduction (d$)"});
    for (unsigned sub : {512u, 1024u, 2048u}) {
        // One static selective-sets d-cache cell per app.
        ScenarioSpec spec;
        spec.name = "ablation-subarray-" + std::to_string(sub);
        spec.system.dl1.subarraySize = sub;
        spec.system.il1.subarraySize = sub;
        spec.search.org = Organization::SelectiveSets;
        spec.search.strategy = Strategy::Static;
        spec.search.side = SweepSide::DCache;
        const auto res = rcache::bench::evaluate(spec, spec.name);
        const auto sched = buildSchedule(Organization::SelectiveSets,
                                         spec.system.dl1);
        double ed = 0;
        for (const SweepRecord &row : res.rows)
            ed += row.edReductionPct;
        t.addRow({std::to_string(sub) + "B",
                  std::to_string(sched.size()),
                  TextTable::bytesKb(static_cast<double>(
                      sched.back().sizeBytes(32))),
                  TextTable::pct(ed /
                                 static_cast<double>(res.apps()))});
    }
    t.print(std::cout);
    std::cout << '\n';
}

} // namespace

int
main()
{
    rcache::bench::banner("Ablations: resizable-cache design choices",
                          "DESIGN.md Section 5");
    hybridRedundantSizeRule();
    intervalSensitivity();
    hysteresisSensitivity();
    subarraySize();
    return 0;
}
