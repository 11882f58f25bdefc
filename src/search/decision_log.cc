#include "search/decision_log.hh"

#include <algorithm>
#include <istream>
#include <iterator>
#include <utility>

#include "util/checked_io.hh"
#include "util/json.hh"
#include "util/numformat.hh"

namespace rcache
{

namespace
{

/** Append @p cells comma-joined. */
void
appendCells(std::string &out, const std::vector<std::size_t> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(cells[i]);
    }
}

} // namespace

std::string
tunePlanLine(const std::string &scenario, std::uint64_t insts,
             std::size_t apps, std::size_t points, std::size_t cells,
             const std::string &ladder, const std::string &promote,
             std::uint64_t min_survivors, std::uint64_t rank_agree,
             std::uint64_t sample_interval)
{
    return "{\"schema\":\"rcache-tune-v1\",\"scenario\":" +
           jsonString(scenario) + ",\"insts\":" + std::to_string(insts) +
           ",\"apps\":" + std::to_string(apps) +
           ",\"points\":" + std::to_string(points) +
           ",\"cells\":" + std::to_string(cells) +
           ",\"ladder\":" + jsonString(ladder) +
           ",\"promote\":" + jsonString(promote) +
           ",\"min_survivors\":" + std::to_string(min_survivors) +
           ",\"rank_agree\":" + std::to_string(rank_agree) +
           ",\"sample_interval\":" + std::to_string(sample_interval) +
           "}";
}

std::string
tuneRoundLine(std::size_t round, const std::string &engine,
              std::size_t candidates)
{
    return "{\"event\":\"round\",\"round\":" + std::to_string(round) +
           ",\"engine\":" + jsonString(engine) +
           ",\"candidates\":" + std::to_string(candidates) + "}";
}

std::string
tuneScoreLine(std::size_t round, std::size_t cell,
              const std::string &score, const std::string &row)
{
    return "{\"event\":\"score\",\"round\":" + std::to_string(round) +
           ",\"cell\":" + std::to_string(cell) + ",\"score\":" + score +
           ",\"row\":" + jsonString(row) + "}";
}

std::string
tunePromoteLine(std::size_t round,
                const std::vector<std::size_t> &rank,
                std::size_t keep)
{
    std::string line =
        "{\"event\":\"promote\",\"round\":" + std::to_string(round) +
        ",\"rank\":\"";
    appendCells(line, rank);
    return line + "\",\"keep\":" + std::to_string(keep) +
           ",\"dropped\":" + std::to_string(rank.size() - keep) + "}";
}

std::string
tuneEarlyExitLine(std::size_t round,
                  const std::vector<std::size_t> &top)
{
    std::string line = "{\"event\":\"early-exit\",\"round\":" +
                       std::to_string(round) + ",\"top\":\"";
    appendCells(line, top);
    return line + "\"}";
}

std::string
tuneWinnerLine(std::size_t cell, const std::string &app,
               const std::string &score, const std::string &engine,
               std::size_t rounds, std::uint64_t detailed_insts,
               std::uint64_t exhaustive_detailed_insts)
{
    return "{\"event\":\"winner\",\"cell\":" + std::to_string(cell) +
           ",\"app\":" + jsonString(app) + ",\"score\":" + score +
           ",\"engine\":" + jsonString(engine) +
           ",\"rounds\":" + std::to_string(rounds) +
           ",\"detailed_insts\":" + std::to_string(detailed_insts) +
           ",\"exhaustive_detailed_insts\":" +
           std::to_string(exhaustive_detailed_insts) + "}";
}

std::string
DecisionLogLine::get(const std::string &key) const
{
    auto it = fields.find(key);
    return it == fields.end() ? "" : it->second;
}

std::optional<std::vector<DecisionLogLine>>
readDecisionLog(std::string_view text, std::string *err)
{
    const auto failWith = [&](std::size_t line_no, const std::string &why) {
        if (err)
            *err = "line " + std::to_string(line_no) + ": " + why;
        return std::nullopt;
    };

    std::vector<DecisionLogLine> out;
    for (std::size_t start = 0; start < text.size();) {
        std::size_t end = text.find('\n', start);
        if (end == std::string_view::npos)
            end = text.size();
        DecisionLogLine parsed;
        parsed.raw = text.substr(start, end - start);
        std::string why;
        if (!parseJsonFlatObject(parsed.raw, parsed.fields, &why))
            return failWith(out.size() + 1, why);
        if (parsed.fields.empty())
            return failWith(out.size() + 1, "empty object");
        out.push_back(std::move(parsed));
        start = end + 1;
    }
    return out;
}

std::optional<std::vector<DecisionLogLine>>
readDecisionLog(std::istream &in, std::string *err)
{
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    return readDecisionLog(std::string_view(text), err);
}

TuneLog
readTuneLog(std::string_view text)
{
    TuneLog log;
    const auto lines = readDecisionLog(text, &log.damage);
    if (!lines || lines->empty())
        return log;
    log.plan = (*lines)[0].raw;

    const std::size_t end = lines->size();
    const auto damaged = [&](std::size_t i, const std::string &why) {
        log.damage = "line " + std::to_string(i + 1) + ": " + why;
        return std::move(log);
    };
    const auto is = [&](std::size_t i, const char *event,
                        const std::string &round) {
        return (*lines)[i].get("event") == event &&
               (*lines)[i].get("round") == round;
    };
    const std::string ladder = (*lines)[0].get("ladder");
    unsigned long long ncells = 0;
    if ((*lines)[0].get("schema") != "rcache-tune-v1" || ladder.empty() ||
        !parseU64Strict((*lines)[0].get("cells"), ncells))
        return damaged(0, "expected the plan line");
    const std::size_t rungs =
        1 + static_cast<std::size_t>(
                std::count(ladder.begin(), ladder.end(), ','));
    std::size_t i = 1;
    for (std::size_t r = 0; i < end; ++r) {
        const std::string round = std::to_string(r);
        unsigned long long declared = 0;
        if (!is(i, "round", round))
            return damaged(i, "expected round " + round + "'s header");
        if (!parseU64Strict((*lines)[i].get("candidates"), declared))
            return damaged(i, "bad candidate count");
        ++i;

        TuneLogRound lr;
        for (; i < end && (*lines)[i].get("event") == "score"; ++i) {
            const DecisionLogLine &score = (*lines)[i];
            if (score.get("round") != round)
                return damaged(i, "a score of round '" +
                                      score.get("round") + "' in round " +
                                      round);
            if (lr.cells.size() == declared)
                return damaged(i, "more scores than the " +
                                      std::to_string(declared) +
                                      " round " + round + " declares");
            unsigned long long cell = 0;
            SweepRecord rec;
            if (!parseU64Strict(score.get("cell"), cell) ||
                !parseSweepCsvRow(score.get("row"), rec, nullptr) ||
                rec.cell != cell)
                return damaged(i, "corrupt score row");
            if (cell >= ncells)
                return damaged(i, "cell " + std::to_string(cell) +
                                      " beyond the plan's " +
                                      std::to_string(ncells) + " cells");
            lr.cells.push_back(static_cast<std::size_t>(cell));
            lr.records.push_back(std::move(rec));
        }
        // A log cut inside a round runs that round again (the same
        // bytes either way: everything is deterministic).
        if (i == end)
            break;
        if (lr.cells.size() != declared)
            return damaged(i, std::to_string(lr.cells.size()) +
                                  " scores where round " + round +
                                  " declares " + std::to_string(declared));
        if (r + 1 < rungs && is(i, "promote", round)) {
            log.rounds.push_back(std::move(lr));
            ++i;
            continue;
        }
        if (r + 1 < rungs && !is(i, "early-exit", round))
            return damaged(i, "expected round " + round + "'s verdict");
        // The winner closes the log; a round is complete only with it.
        const std::size_t winner = r + 1 < rungs ? i + 1 : i;
        if (winner == end)
            break;
        if ((*lines)[winner].get("event") != "winner")
            return damaged(winner, "expected the winner");
        if (winner + 1 < end)
            return damaged(winner + 1, "a line after the winner");
        lr.endsTune = true;
        log.rounds.push_back(std::move(lr));
        break;
    }
    return log;
}

bool
DecisionLogWriter::open(const std::string &path)
{
    path_ = path;
    if (path_.empty())
        return true;
    os_.open(path_, std::ios::binary | std::ios::trunc);
    if (!os_)
        return false;
    if (!text_.empty())
        checkedAppend(os_, text_, path_, "log.append");
    return true;
}

void
DecisionLogWriter::append(const std::string &line)
{
    text_ += line;
    text_ += '\n';
    if (os_.is_open())
        checkedAppend(os_, line + "\n", path_, "log.append");
}

} // namespace rcache
