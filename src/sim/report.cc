#include "sim/report.hh"

#include <locale>

#include "cache/replacement.hh"
#include "sim/table.hh"
#include "util/json.hh"
#include "util/numformat.hh"

namespace rcache
{

void
writeRunReport(std::ostream &os, const RunResult &r)
{
    os << "run: " << r.workload << '\n'
       << "  instructions " << r.insts << ", cycles " << r.cycles
       << ", IPC " << TextTable::num(r.ipc()) << '\n'
       << "  branches " << r.activity.branches << " ("
       << r.activity.mispredicts << " mispredicted), loads "
       << r.activity.loads << ", stores " << r.activity.stores
       << '\n'
       << "  miss ratios: i-L1 "
       << TextTable::pct(100 * r.il1MissRatio) << ", d-L1 "
       << TextTable::pct(100 * r.dl1MissRatio) << ", L2 "
       << TextTable::pct(100 * r.l2MissRatio) << '\n'
       << "  avg enabled sizes: i-L1 "
       << TextTable::bytesKb(r.avgIl1Bytes) << " (" << r.il1Resizes
       << " resizes), d-L1 " << TextTable::bytesKb(r.avgDl1Bytes)
       << " (" << r.dl1Resizes << " resizes)\n";
    if (r.engine == EngineMode::Sampled) {
        os << "  sampled: " << r.measuredInsts << " measured + "
           << r.warmupInsts << " warmup of " << r.insts
           << " insts; cycles/energy are extrapolated\n";
    } else if (r.engine == EngineMode::Analytic) {
        os << "  analytic: hit/miss counts exact (LRU); "
              "cycles/energy are modelled, not measured\n";
    }
    os << r.energy << "  energy-delay product: "
       << TextTable::num(r.edp(), 0) << '\n';
}

void
writeMultiCoreReport(std::ostream &os, const SystemResult &r)
{
    os << "multi-core run: " << r.aggregate.workload << " on "
       << r.perCore.size() << " cores (shared L2)\n"
       << "  aggregate: " << r.aggregate.insts << " insts, makespan "
       << r.aggregate.cycles << " cycles, total energy "
       << TextTable::num(r.aggregate.energy.total()) << " nJ, E.D "
       << TextTable::num(r.aggregate.edp(), 0) << '\n';

    TextTable l2({"core", "workload", "l2 acc", "l2 miss%",
                  "mem r/w", "resident", "peak", "evicted by others",
                  "evicted others"});
    for (std::size_t c = 0; c < r.l2PerCore.size(); ++c) {
        const SharedL2CoreStats &s = r.l2PerCore[c];
        const double miss_pct =
            s.accesses ? 100.0 * static_cast<double>(s.misses) /
                             static_cast<double>(s.accesses)
                       : 0.0;
        l2.addRow({std::to_string(c), r.perCore[c].workload,
                   std::to_string(s.accesses),
                   TextTable::pct(miss_pct),
                   std::to_string(s.memReads) + "/" +
                       std::to_string(s.memWrites),
                   std::to_string(s.residentBlocks),
                   std::to_string(s.peakResidentBlocks),
                   std::to_string(s.evictionsByOthers),
                   std::to_string(s.evictedOthers)});
    }
    os << "\nshared-L2 contention (total " << r.l2Totals.accesses
       << " accesses, " << r.l2Totals.misses << " misses):\n";
    l2.print(os);

    for (std::size_t c = 0; c < r.perCore.size(); ++c) {
        os << "\ncore " << c << ":\n";
        writeRunReport(os, r.perCore[c]);
    }
}

namespace
{

/**
 * Shortest decimal form that round-trips the double (see
 * util/numformat.hh) — deterministic for equal values and independent
 * of the global locale, which is what makes sweep CSVs byte-stable
 * across thread counts and what lets readSweepCsv restore the exact
 * bits.
 */
std::string
numField(double v)
{
    return shortestDouble(v);
}

/**
 * Pin @p os to the classic locale for one writer call (restored on
 * destruction), so integer fields are never digit-grouped by a
 * caller's global locale.
 */
class ClassicLocaleGuard
{
  public:
    explicit ClassicLocaleGuard(std::ostream &os)
        : os_(os), old_(os.imbue(std::locale::classic()))
    {
    }
    ~ClassicLocaleGuard() { os_.imbue(old_); }

  private:
    std::ostream &os_;
    std::locale old_;
};

} // namespace

const std::string &
sweepCsvHeader()
{
    static const std::string header =
        "cell,app,org,strategy,side,axes,best_level,"
        "interval_accesses,miss_bound,size_bound_bytes,"
        "ed_reduction_pct,perf_degradation_pct,size_reduction_pct,"
        "baseline_edp,best_edp,baseline_cycles,best_cycles,"
        "avg_il1_bytes,avg_dl1_bytes,engine,policy";
    return header;
}

void
writeSweepCsv(std::ostream &os,
              const std::vector<SweepRecord> &records)
{
    ClassicLocaleGuard locale_guard(os);
    os << sweepCsvHeader() << '\n';
    writeSweepCsvRows(os, records);
}

void
writeSweepCsvRows(std::ostream &os,
                  const std::vector<SweepRecord> &records)
{
    ClassicLocaleGuard locale_guard(os);
    for (const auto &r : records) {
        os << r.cell << ',' << r.app << ',' << r.org << ','
           << r.strategy << ',' << r.side << ',' << r.axes << ','
           << r.bestLevel << ',' << r.intervalAccesses << ','
           << r.missBound << ',' << r.sizeBoundBytes << ','
           << numField(r.edReductionPct) << ','
           << numField(r.perfDegradationPct) << ','
           << numField(r.sizeReductionPct) << ','
           << numField(r.baselineEdp) << ',' << numField(r.bestEdp)
           << ',' << r.baselineCycles << ',' << r.bestCycles << ','
           << numField(r.avgIl1Bytes) << ','
           << numField(r.avgDl1Bytes) << ','
           << engineName(r.engine) << ',' << r.policy << '\n';
    }
}

namespace
{

/** Comma-split preserving empty fields. */
std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
}

} // namespace

std::optional<std::vector<SweepRecord>>
readSweepCsv(std::istream &is, std::string *err)
{
    const auto failWith = [&](int line, const std::string &why) {
        if (err)
            *err = "sweep csv line " + std::to_string(line) + ": " +
                   why;
        return std::nullopt;
    };

    std::string line;
    if (!std::getline(is, line))
        return failWith(1, "missing header");
    if (line != sweepCsvHeader())
        return failWith(1, "header does not match this build's sweep "
                           "schema");

    std::vector<SweepRecord> records;
    int line_no = 1;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty())
            return failWith(line_no, "empty row");
        const auto f = splitCsvLine(line);
        if (f.size() != 21)
            return failWith(line_no,
                            "expected 21 fields, got " +
                                std::to_string(f.size()));
        SweepRecord r;
        unsigned long long u = 0;
        double d = 0;
        if (!parseU64Strict(f[0], u))
            return failWith(line_no, "bad cell index '" + f[0] + "'");
        r.cell = u;
        r.app = f[1];
        r.org = f[2];
        r.strategy = f[3];
        r.side = f[4];
        r.axes = f[5];
        if (!parseU64Strict(f[6], u))
            return failWith(line_no, "bad best_level '" + f[6] + "'");
        r.bestLevel = static_cast<unsigned>(u);
        if (!parseU64Strict(f[7], u))
            return failWith(line_no, "bad interval_accesses");
        r.intervalAccesses = u;
        if (!parseU64Strict(f[8], u))
            return failWith(line_no, "bad miss_bound");
        r.missBound = u;
        if (!parseU64Strict(f[9], u))
            return failWith(line_no, "bad size_bound_bytes");
        r.sizeBoundBytes = u;
        struct DoubleField
        {
            int idx;
            double SweepRecord::*field;
        };
        for (const DoubleField df :
             {DoubleField{10, &SweepRecord::edReductionPct},
              DoubleField{11, &SweepRecord::perfDegradationPct},
              DoubleField{12, &SweepRecord::sizeReductionPct},
              DoubleField{13, &SweepRecord::baselineEdp},
              DoubleField{14, &SweepRecord::bestEdp},
              DoubleField{17, &SweepRecord::avgIl1Bytes},
              DoubleField{18, &SweepRecord::avgDl1Bytes}}) {
            if (!parseDoubleStrict(f[df.idx], d))
                return failWith(line_no, "bad numeric field '" +
                                             f[df.idx] + "'");
            r.*(df.field) = d;
        }
        if (!parseU64Strict(f[15], u))
            return failWith(line_no, "bad baseline_cycles");
        r.baselineCycles = u;
        if (!parseU64Strict(f[16], u))
            return failWith(line_no, "bad best_cycles");
        r.bestCycles = u;
        if (const auto mode = parseEngineModeToken(f[19]))
            r.engine = *mode;
        else
            return failWith(line_no, "bad engine '" + f[19] + "'");
        if (!isReplacementPolicyName(f[20]))
            return failWith(line_no, "bad policy '" + f[20] + "'");
        r.policy = f[20];
        records.push_back(std::move(r));
    }
    return records;
}

void
writeSweepJson(std::ostream &os,
               const std::vector<SweepRecord> &records)
{
    ClassicLocaleGuard locale_guard(os);
    os << "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &r = records[i];
        os << "  {\"cell\": " << r.cell
           << ", \"app\": " << jsonString(r.app)
           << ", \"org\": " << jsonString(r.org)
           << ", \"strategy\": " << jsonString(r.strategy)
           << ", \"side\": " << jsonString(r.side)
           << ", \"axes\": " << jsonString(r.axes)
           << ", \"best_level\": " << r.bestLevel
           << ", \"interval_accesses\": " << r.intervalAccesses
           << ", \"miss_bound\": " << r.missBound
           << ", \"size_bound_bytes\": " << r.sizeBoundBytes
           << ", \"ed_reduction_pct\": " << numField(r.edReductionPct)
           << ", \"perf_degradation_pct\": "
           << numField(r.perfDegradationPct)
           << ", \"size_reduction_pct\": "
           << numField(r.sizeReductionPct)
           << ", \"baseline_edp\": " << numField(r.baselineEdp)
           << ", \"best_edp\": " << numField(r.bestEdp)
           << ", \"baseline_cycles\": " << r.baselineCycles
           << ", \"best_cycles\": " << r.bestCycles
           << ", \"avg_il1_bytes\": " << numField(r.avgIl1Bytes)
           << ", \"avg_dl1_bytes\": " << numField(r.avgDl1Bytes)
           << ", \"engine\": \"" << engineName(r.engine)
           << "\", \"policy\": " << jsonString(r.policy) << "}"
           << (i + 1 < records.size() ? "," : "") << '\n';
    }
    os << "]\n";
}

void
writeSweepTable(std::ostream &os,
                const std::vector<SweepRecord> &records)
{
    TextTable t({"app", "org", "strategy", "side", "axes", "E*D red",
                 "perf deg", "size red", "avg i-L1", "avg d-L1",
                 "engine", "policy"});
    for (const auto &r : records) {
        t.addRow({r.app, r.org, r.strategy, r.side,
                  r.axes.empty() ? "-" : r.axes,
                  TextTable::pct(r.edReductionPct),
                  TextTable::pct(r.perfDegradationPct),
                  TextTable::pct(r.sizeReductionPct),
                  TextTable::bytesKb(r.avgIl1Bytes),
                  TextTable::bytesKb(r.avgDl1Bytes),
                  engineName(r.engine), r.policy});
    }
    t.print(os);
}

} // namespace rcache
