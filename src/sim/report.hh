/**
 * @file
 * Reports for run results: a full single-run (or multi-core)
 * summary, and the profiling-sweep rows as CSV, JSON or a text table.
 */

#ifndef RCACHE_SIM_REPORT_HH
#define RCACHE_SIM_REPORT_HH

#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/system.hh"

namespace rcache
{

/** Write a full one-run summary (timing, misses, energy, sizes). */
void writeRunReport(std::ostream &os, const RunResult &r);

/**
 * Write a multi-core run: the aggregate summary, one per-core
 * summary each, and the shared-L2 contention table (per-core
 * attribution, occupancy, cross-core evictions).
 */
void writeMultiCoreReport(std::ostream &os, const SystemResult &r);

/**
 * One row of a profiling sweep: the best point found for an (app,
 * org, strategy, side) cell, normalized against its baseline. The
 * rcache-sim CLI and the benches fill these from SearchOutcomes.
 */
struct SweepRecord
{
    /**
     * Global cell index in scenario enumeration order (app-major,
     * then design-point). Unique per row; sharded sweeps interleave
     * on it, so sorting a shard union by cell reproduces the
     * unsharded CSV byte-for-byte.
     */
    std::uint64_t cell = 0;
    std::string app;
    std::string org;
    std::string strategy;
    std::string side;
    /** Axis coordinates that produced the row ("assoc=4;org=ways";
     *  empty for axis-free sweeps). */
    std::string axes;
    /** Static cells: chosen schedule level. */
    unsigned bestLevel = 0;
    /** Dynamic cells: chosen controller parameters (0 otherwise). */
    std::uint64_t intervalAccesses = 0;
    std::uint64_t missBound = 0;
    std::uint64_t sizeBoundBytes = 0;

    double edReductionPct = 0;
    double perfDegradationPct = 0;
    double sizeReductionPct = 0;
    double baselineEdp = 0;
    double bestEdp = 0;
    std::uint64_t baselineCycles = 0;
    std::uint64_t bestCycles = 0;
    double avgIl1Bytes = 0;
    double avgDl1Bytes = 0;
    /**
     * Provenance: which engine produced the cell's runs. Written as a
     * trailing "engine" column so full-detail, sampled, and analytic
     * reports are never byte-indistinguishable (mixing engines in one
     * comparison is invalid — see the README's Engines section).
     */
    EngineMode engine = EngineMode::Full;
    /**
     * Provenance: the L1 replacement policy the cell ran under
     * (cache/replacement.hh registry name). A policy axis lands here
     * too — the axes string already carries it, but the dedicated
     * column keeps policy comparisons greppable without parsing axis
     * coordinates.
     */
    std::string policy = "lru";
};

/** The exact header line writeSweepCsv emits (no newline). */
const std::string &sweepCsvHeader();

/**
 * Append @p r's CSV row (no newline) to @p out: integers in decimal,
 * doubles through shortestDouble (util/numformat.hh), so the text is
 * locale-independent and equal records always give identical bytes.
 * The one row formatter: the sweep CSVs and the tuner's score lines
 * both write rows through it.
 */
void appendSweepCsvRow(std::string &out, const SweepRecord &r);

/**
 * Strict inverse of appendSweepCsvRow: @p row must carry every column
 * and every number must parse whole. Values round-trip
 * bit-identically. On failure returns false, leaves @p out alone and
 * sets @p why to one line. The one row parser: readSweepCsv reads
 * every row through it, and a tune's --resume each score line's row.
 */
bool parseSweepCsvRow(std::string_view row, SweepRecord &out,
                      std::string *why);

/** Write @p records as CSV with a header row (appendSweepCsvRow per
 *  row). */
void writeSweepCsv(std::ostream &os,
                   const std::vector<SweepRecord> &records);

/** writeSweepCsv without the header row (resumed sweeps append rows
 *  after a verified existing prefix). */
void writeSweepCsvRows(std::ostream &os,
                       const std::vector<SweepRecord> &records);

/**
 * Strict inverse of writeSweepCsv: the header must match
 * sweepCsvHeader() exactly, then every line is one parseSweepCsvRow
 * row. On failure returns nullopt and fills @p err with "N: why", N
 * the 1-based line, so "<path>:" + err is the one-line diagnostic.
 * Used by `sweep --resume`, `merge`, `doctor` and the round-trip
 * tests.
 */
std::optional<std::vector<SweepRecord>>
readSweepCsv(std::istream &is, std::string *err);

/** Write @p records as a JSON array of objects (same fields). */
void writeSweepJson(std::ostream &os,
                    const std::vector<SweepRecord> &records);

/** Write @p records as a human-readable text table. */
void writeSweepTable(std::ostream &os,
                     const std::vector<SweepRecord> &records);

} // namespace rcache

#endif // RCACHE_SIM_REPORT_HH
