#include "sim/report.hh"

#include <array>
#include <charconv>
#include <iterator>

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

namespace
{

/** Append @p v in decimal. */
void
appendUint(std::string &out, std::uint64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, std::end(buf), v).ptr);
}

} // namespace

void
appendSweepCsvRow(std::string &out, const SweepRecord &r)
{
    const auto integer = [&](std::uint64_t v) {
        appendUint(out, v);
        out += ',';
    };
    const auto real = [&](double v) {
        out += shortestDouble(v);
        out += ',';
    };
    const auto text = [&](const std::string &s) {
        out += s;
        out += ',';
    };
    integer(r.cell);
    text(r.app);
    text(r.org);
    text(r.strategy);
    text(r.side);
    text(r.axes);
    integer(r.bestLevel);
    integer(r.intervalAccesses);
    integer(r.missBound);
    integer(r.sizeBoundBytes);
    real(r.edReductionPct);
    real(r.perfDegradationPct);
    real(r.sizeReductionPct);
    real(r.baselineEdp);
    real(r.bestEdp);
    integer(r.baselineCycles);
    integer(r.bestCycles);
    real(r.avgIl1Bytes);
    real(r.avgDl1Bytes);
    text(engineName(r.engine));
    out += r.policy;
}

void
writeSweepCsv(std::ostream &os,
              const std::vector<SweepRecord> &records)
{
    os << sweepCsvHeader() << '\n';
    writeSweepCsvRows(os, records);
}

void
writeSweepCsvRows(std::ostream &os,
                  const std::vector<SweepRecord> &records)
{
    std::string text;
    for (const SweepRecord &r : records) {
        appendSweepCsvRow(text, r);
        text += '\n';
    }
    os << text;
}

bool
parseSweepCsvRow(std::string_view row, SweepRecord &out,
                 std::string *why)
{
    const auto fail = [&](std::string message) {
        if (why)
            *why = std::move(message);
        return false;
    };
    if (row.empty())
        return fail("empty row");
    constexpr std::size_t kFields = 21;
    std::array<std::string_view, kFields> f;
    std::size_t n = 0;
    for (std::size_t start = 0;;) {
        const std::size_t comma = row.find(',', start);
        if (n < kFields)
            f[n] = row.substr(start, comma - start);
        ++n;
        if (comma == std::string_view::npos)
            break;
        start = comma + 1;
    }
    if (n != kFields)
        return fail("expected 21 fields, got " + std::to_string(n));

    SweepRecord r;
    unsigned long long u = 0;
    if (!parseU64Strict(f[0], u))
        return fail("bad cell index '" + std::string(f[0]) + "'");
    r.cell = u;
    r.app = f[1];
    r.org = f[2];
    r.strategy = f[3];
    r.side = f[4];
    r.axes = f[5];
    if (!parseU64Strict(f[6], u))
        return fail("bad best_level '" + std::string(f[6]) + "'");
    r.bestLevel = static_cast<unsigned>(u);
    if (!parseU64Strict(f[7], u))
        return fail("bad interval_accesses");
    r.intervalAccesses = u;
    if (!parseU64Strict(f[8], u))
        return fail("bad miss_bound");
    r.missBound = u;
    if (!parseU64Strict(f[9], u))
        return fail("bad size_bound_bytes");
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
          DoubleField{18, &SweepRecord::avgDl1Bytes}})
        if (!parseDoubleStrict(f[df.idx], r.*(df.field)))
            return fail("bad numeric field '" + std::string(f[df.idx]) +
                        "'");
    if (!parseU64Strict(f[15], u))
        return fail("bad baseline_cycles");
    r.baselineCycles = u;
    if (!parseU64Strict(f[16], u))
        return fail("bad best_cycles");
    r.bestCycles = u;
    const std::string engine(f[19]);
    if (const auto mode = parseEngineModeToken(engine))
        r.engine = *mode;
    else
        return fail("bad engine '" + engine + "'");
    r.policy = f[20];
    if (!isReplacementPolicyName(r.policy))
        return fail("bad policy '" + r.policy + "'");
    out = std::move(r);
    return true;
}

std::optional<std::vector<SweepRecord>>
readSweepCsv(std::istream &is, std::string *err)
{
    const auto failWith = [&](int line, const std::string &why) {
        if (err)
            *err = std::to_string(line) + ": " + why;
        return std::nullopt;
    };

    std::string line;
    if (!std::getline(is, line))
        return failWith(1, "missing header");
    if (line != sweepCsvHeader())
        return failWith(1, "header does not match this build's sweep "
                           "schema");

    std::vector<SweepRecord> records;
    std::string why;
    for (int line_no = 2; std::getline(is, line); ++line_no) {
        SweepRecord r;
        if (!parseSweepCsvRow(line, r, &why))
            return failWith(line_no, why);
        records.push_back(std::move(r));
    }
    return records;
}

void
writeSweepJson(std::ostream &os,
               const std::vector<SweepRecord> &records)
{
    std::string text = "[\n";
    const auto integer = [&](const char *key, std::uint64_t v) {
        text += key;
        appendUint(text, v);
    };
    const auto real = [&](const char *key, double v) {
        text += key;
        text += shortestDouble(v);
    };
    const auto str = [&](const char *key, const std::string &v) {
        text += key;
        text += jsonString(v);
    };
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &r = records[i];
        integer("  {\"cell\": ", r.cell);
        str(", \"app\": ", r.app);
        str(", \"org\": ", r.org);
        str(", \"strategy\": ", r.strategy);
        str(", \"side\": ", r.side);
        str(", \"axes\": ", r.axes);
        integer(", \"best_level\": ", r.bestLevel);
        integer(", \"interval_accesses\": ", r.intervalAccesses);
        integer(", \"miss_bound\": ", r.missBound);
        integer(", \"size_bound_bytes\": ", r.sizeBoundBytes);
        real(", \"ed_reduction_pct\": ", r.edReductionPct);
        real(", \"perf_degradation_pct\": ", r.perfDegradationPct);
        real(", \"size_reduction_pct\": ", r.sizeReductionPct);
        real(", \"baseline_edp\": ", r.baselineEdp);
        real(", \"best_edp\": ", r.bestEdp);
        integer(", \"baseline_cycles\": ", r.baselineCycles);
        integer(", \"best_cycles\": ", r.bestCycles);
        real(", \"avg_il1_bytes\": ", r.avgIl1Bytes);
        real(", \"avg_dl1_bytes\": ", r.avgDl1Bytes);
        str(", \"engine\": ", engineName(r.engine));
        str(", \"policy\": ", r.policy);
        text += i + 1 < records.size() ? "},\n" : "}\n";
    }
    text += "]\n";
    os << text;
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
