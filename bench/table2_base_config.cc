/**
 * @file
 * Prints the base system configuration (the paper's Table 2) as built
 * by SystemConfig::base(), plus the measured base-system properties
 * the paper quotes in Section 4: the d-cache and i-cache shares of
 * total processor energy (paper: 18.5% and 17.5% averaged over the
 * suite).
 */

#include "bench/common.hh"

using namespace rcache;

int
main()
{
    bench::banner("Table 2: base system configuration",
                  "Table 2 + Section 4 energy shares");

    SystemConfig cfg = SystemConfig::base();
    TextTable t({"parameter", "value"});
    t.addRow({"issue/decode width",
              std::to_string(cfg.core.dispatchWidth) +
                  " insts per cycle"});
    t.addRow({"ROB / LSQ", std::to_string(cfg.core.robSize) +
                               " entries / " +
                               std::to_string(cfg.core.lsqSize) +
                               " entries"});
    t.addRow({"branch predictor", "combination"});
    t.addRow({"writeback buffer / mshr",
              std::to_string(cfg.core.wbEntries) + " entries / " +
                  std::to_string(cfg.core.mshrs) + " entries"});
    t.addRow({"L1 i-cache",
              TextTable::bytesKb(static_cast<double>(cfg.il1.size)) +
                  " " + std::to_string(cfg.il1.assoc) + "-way; " +
                  std::to_string(cfg.lat.l1Latency) + " cycle"});
    t.addRow({"L1 d-cache",
              TextTable::bytesKb(static_cast<double>(cfg.dl1.size)) +
                  " " + std::to_string(cfg.dl1.assoc) + "-way; " +
                  std::to_string(cfg.lat.l1Latency) + " cycle"});
    t.addRow({"L2 unified cache",
              TextTable::bytesKb(static_cast<double>(cfg.l2.size)) +
                  " " + std::to_string(cfg.l2.assoc) + "-way; " +
                  std::to_string(cfg.lat.l2Latency) + " cycles"});
    t.addRow({"memory latency",
              "(" + std::to_string(cfg.lat.memBaseLatency) + " + " +
                  std::to_string(cfg.lat.memCyclesPer8Bytes) +
                  " per 8 bytes) cycles"});
    t.addRow({"L1 subarray",
              std::to_string(cfg.il1.subarraySize / 1024) + "K"});
    t.print(std::cout);

    std::cout << "\nmeasured base-system averages over the suite "
                 "(paper Sec 4: d-cache 18.5%, i-cache 17.5%):\n\n";

    // One non-resizable baseline job per app, run as one batch.
    const Experiment exp(cfg, bench::runInsts());
    const auto apps = bench::suite();
    std::vector<RunJob> jobs;
    for (const auto &p : apps)
        jobs.push_back(exp.baselineJob(p));
    const std::vector<RunResult> results =
        SweepRunner(bench::benchJobs()).run(jobs);

    double dsum = 0, isum = 0, ipc = 0;
    TextTable m({"app", "IPC", "d$ share", "i$ share", "d$ miss",
                 "i$ miss"});
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto &p = apps[i];
        const RunResult &r = results[i];
        dsum += r.energy.dcacheFraction();
        isum += r.energy.icacheFraction();
        ipc += r.ipc();
        m.addRow({p.name, TextTable::num(r.ipc()),
                  TextTable::pct(100 * r.energy.dcacheFraction()),
                  TextTable::pct(100 * r.energy.icacheFraction()),
                  TextTable::pct(100 * r.dl1MissRatio),
                  TextTable::pct(100 * r.il1MissRatio)});
    }
    const double n = static_cast<double>(apps.size());
    m.addRow({"AVG", TextTable::num(ipc / n),
              TextTable::pct(100 * dsum / n),
              TextTable::pct(100 * isum / n), "-", "-"});
    m.print(std::cout);
    return 0;
}
