/**
 * @file
 * The adaptive search's decision log: a deterministic, replayable
 * JSONL record of every allocation decision `rcache-sim tune` makes.
 *
 * One line per event, in execution order:
 *
 *   {"schema":"rcache-tune-v1","scenario":...}        the plan
 *   {"event":"round","round":R,"engine":...}          round header
 *   {"event":"score","round":R,"cell":C,...}          one per
 *       candidate, ascending cell order; carries the candidate's
 *       exact sweep-CSV row so the log alone replays the search
 *   {"event":"promote","round":R,"rank":...}          the ranking
 *       and survivor verdict of a non-final round
 *   {"event":"early-exit","round":R,"top":...}        rank-agreement
 *       stop (only when [search] rank-agree fires)
 *   {"event":"winner","cell":C,...}                   final verdict
 *       with detailed-instruction accounting
 *
 * Every byte is a pure function of the scenario spec: scores come
 * from shortestDouble over values that round-trip bit-identically
 * through sweep CSVs, rankings from post-barrier reductions. So the
 * log is byte-identical across --jobs values, claim workers, and
 * resumes — the same identity contract the golden tests pin for
 * exhaustive sweep CSVs. Line *builders* live here so the writer
 * (search/adaptive_search.cc) and any replayer agree on the exact
 * bytes. So do the readers: readDecisionLog parses the flat
 * one-object-per-line form strictly, and readTuneLog, built on it,
 * checks that each line is the one the writer writes there. It is
 * the one reader of the log's order: `tune --resume` adopts the
 * rounds it returns, and `doctor --log` reports the damage it finds.
 */

#ifndef RCACHE_SEARCH_DECISION_LOG_HH
#define RCACHE_SEARCH_DECISION_LOG_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/report.hh"

namespace rcache
{

/** @name Line builders (no trailing newline) */
/// @{

/** The plan header; @p ladder / @p promote are the canonical
 *  comma-joined token lists. */
std::string tunePlanLine(const std::string &scenario,
                         std::uint64_t insts, std::size_t apps,
                         std::size_t points, std::size_t cells,
                         const std::string &ladder,
                         const std::string &promote,
                         std::uint64_t minSurvivors,
                         std::uint64_t rankAgree,
                         std::uint64_t sampleInterval);

std::string tuneRoundLine(std::size_t round,
                          const std::string &engine,
                          std::size_t candidates);

/** @p score is already formatted (shortestDouble or "inf");
 *  @p row is the candidate's exact sweep-CSV row. */
std::string tuneScoreLine(std::size_t round, std::size_t cell,
                          const std::string &score,
                          const std::string &row);

/** @p rank is the full best-first cell ranking; the first @p keep
 *  entries survive into the next round. */
std::string tunePromoteLine(std::size_t round,
                            const std::vector<std::size_t> &rank,
                            std::size_t keep);

std::string tuneEarlyExitLine(std::size_t round,
                              const std::vector<std::size_t> &top);

std::string tuneWinnerLine(std::size_t cell, const std::string &app,
                           const std::string &score,
                           const std::string &engine,
                           std::size_t rounds,
                           std::uint64_t detailedInsts,
                           std::uint64_t exhaustiveDetailedInsts);
/// @}

/** One parsed log line: the raw bytes plus its flat fields (string
 *  values unescaped, numbers kept as written). */
struct DecisionLogLine
{
    std::string raw;
    std::map<std::string, std::string> fields;

    /** "" when the field is absent. */
    std::string get(const std::string &key) const;
};

/**
 * Strict reader of a log's @p text: every line must be one non-empty
 * flat JSON object (util/json.hh's parseJsonFlatObject: scalar
 * values, no nesting, no duplicate keys). On failure returns nullopt
 * and sets @p err to one "line N: why" message.
 */
std::optional<std::vector<DecisionLogLine>>
readDecisionLog(std::string_view text, std::string *err);

/** The same reader over everything left in @p in. */
std::optional<std::vector<DecisionLogLine>>
readDecisionLog(std::istream &in, std::string *err);

/** One round a decision log holds whole (see readTuneLog). */
struct TuneLogRound
{
    /** The scored cells, in log order. */
    std::vector<std::size_t> cells;
    /** Each score line's sweep row, parsed, in the same order. */
    std::vector<SweepRecord> records;
};

/** What readTuneLog finds in a decision log. */
struct TuneLog
{
    /** The first line's bytes; "" for an empty log, or one whose
     *  lines are not all flat objects. */
    std::string plan;
    /** The rounds the log completes before any damage, in order: each
     *  closed by its promote, or by the winner. */
    std::vector<TuneLogRound> rounds;
    /** The first line the writer could not have written there, as
     *  "line N: why"; "" when every line is in order. */
    std::string damage;
};

/**
 * Read a decision log's complete lines @p text (a torn tail already
 * dropped, util/checked_io.hh's readCompleteLines) in the order the
 * writer writes them: the plan line, whose ladder gives the rung
 * count, then per round its header, as many score lines of that round
 * as the header declares, each carrying the sweep row of one of the
 * plan's cells, and its
 * verdict: a promote before the last rung, an early exit and then the
 * winner, or the winner on the last rung, with nothing after the
 * winner. A log that stops early, inside a round or after a verdict
 * (a crash's cut at a line boundary), is in order. Any other line
 * that is not the one the writer writes there, or that is not a flat
 * object, is damage.
 */
TuneLog readTuneLog(std::string_view text);

/**
 * The log writer: appends builder lines one at a time, each write
 * checked and flushed (util/checked_io.hh — a failed append exits
 * kIoErrorExit after a one-line diagnostic), so the on-disk log
 * always ends at a line boundary except across a mid-write crash,
 * which --resume detects as a torn tail and drops. Also accumulates
 * the full text for byte-identity tests. Not opening a file (empty
 * path) keeps it a pure accumulator.
 */
class DecisionLogWriter
{
  public:
    /** Truncate-open @p path ("" = accumulate only). @return false
     *  when the file cannot be opened. */
    bool open(const std::string &path);

    /** Append one builder line (newline added here). */
    void append(const std::string &line);

    /** Everything appended so far, newline-terminated lines. */
    const std::string &text() const { return text_; }

  private:
    std::ofstream os_;
    std::string path_;
    std::string text_;
};

} // namespace rcache

#endif // RCACHE_SEARCH_DECISION_LOG_HH
