/**
 * @file
 * Quickstart: build the paper's base system (Table 2), run one
 * workload three ways — non-resizable, static selective-sets, dynamic
 * selective-sets — and print the energy-delay comparison.
 *
 * The profiling searches are laid out with Experiment's job
 * vocabulary, run as one SweepRunner batch (the baseline, every
 * static level, every dynamic grid point), and reduced to each
 * strategy's minimum energy-delay point.
 *
 * Usage: quickstart [profile-name] [instructions]
 */

#include <cstdlib>
#include <iostream>

#include "runner/sweep_runner.hh"
#include "sim/experiment.hh"
#include "sim/table.hh"

using namespace rcache;

int
main(int argc, char **argv)
{
    const std::string profile_name = argc > 1 ? argv[1] : "compress";
    const std::uint64_t insts =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1000000;

    BenchmarkProfile profile = profileByName(profile_name);

    // The paper's base system: 4-wide OoO, 32K 2-way L1s, 512K L2.
    SystemConfig cfg = SystemConfig::base();
    const Experiment exp(cfg, insts);

    std::cout << "rcache quickstart: " << profile_name << ", " << insts
              << " instructions, base system ("
              << coreModelName(cfg.coreModel) << ")\n\n";

    const CacheSide side = CacheSide::DCache;
    const Organization org = Organization::SelectiveSets;
    const auto st_cands =
        exp.searchCandidates(side, org, Strategy::Static);
    const auto dy_cands =
        exp.searchCandidates(side, org, Strategy::Dynamic);
    std::vector<RunJob> jobs{exp.baselineJob(profile)};
    for (Strategy strat : {Strategy::Static, Strategy::Dynamic}) {
        const auto more = exp.searchJobs(profile, side, org, strat);
        jobs.insert(jobs.end(), more.begin(), more.end());
    }
    const std::vector<RunResult> results = SweepRunner::runSerial(jobs);
    const auto slice = [&](std::size_t off, std::size_t count) {
        return std::vector<RunResult>(results.begin() + off,
                                      results.begin() + off + count);
    };
    const RunResult &base = results.front();
    const SearchOutcome st = Experiment::reduceSearch(
        base, st_cands, slice(1, st_cands.size()));
    const SearchOutcome dy = Experiment::reduceSearch(
        base, dy_cands, slice(1 + st_cands.size(), dy_cands.size()));

    std::cout << "baseline (non-resizable 32K 2-way d-cache):\n"
              << "  cycles " << base.cycles << "  IPC "
              << TextTable::num(base.ipc()) << "  d-miss "
              << TextTable::pct(100 * base.dl1MissRatio) << "\n"
              << base.energy << '\n';

    TextTable t({"d-cache setup", "avg size", "miss ratio",
                 "perf loss", "E*D reduction"});
    t.addRow({"non-resizable", TextTable::bytesKb(base.avgDl1Bytes),
              TextTable::pct(100 * base.dl1MissRatio), "-", "-"});
    t.addRow({"static selective-sets",
              TextTable::bytesKb(st.best.avgDl1Bytes),
              TextTable::pct(100 * st.best.dl1MissRatio),
              TextTable::pct(st.perfDegradationPct()),
              TextTable::pct(st.edReductionPct())});
    t.addRow({"dynamic selective-sets",
              TextTable::bytesKb(dy.best.avgDl1Bytes),
              TextTable::pct(100 * dy.best.dl1MissRatio),
              TextTable::pct(dy.perfDegradationPct()),
              TextTable::pct(dy.edReductionPct())});
    t.print(std::cout);

    std::cout << "\nstatic best level: " << st.bestLevel << " ("
              << TextTable::bytesKb(static_cast<double>(
                     st.best.avgDl1Bytes))
              << "), dynamic miss-bound " << dy.bestParams.missBound
              << "/interval\n";
    return 0;
}
