#include "search/decision_log.hh"

#include <istream>
#include <sstream>

#include "util/checked_io.hh"
#include "util/json.hh"

namespace rcache
{

namespace
{

std::string
joinCells(const std::vector<std::size_t> &cells)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < cells.size(); ++i)
        os << (i ? "," : "") << cells[i];
    return os.str();
}

} // namespace

std::string
tunePlanLine(const std::string &scenario, std::uint64_t insts,
             std::size_t apps, std::size_t points, std::size_t cells,
             const std::string &ladder, const std::string &promote,
             std::uint64_t min_survivors, std::uint64_t rank_agree,
             std::uint64_t sample_interval)
{
    std::ostringstream os;
    os << "{\"schema\":\"rcache-tune-v1\",\"scenario\":"
       << jsonString(scenario) << ",\"insts\":" << insts
       << ",\"apps\":" << apps << ",\"points\":" << points
       << ",\"cells\":" << cells << ",\"ladder\":" << jsonString(ladder)
       << ",\"promote\":" << jsonString(promote)
       << ",\"min_survivors\":" << min_survivors
       << ",\"rank_agree\":" << rank_agree
       << ",\"sample_interval\":" << sample_interval << "}";
    return os.str();
}

std::string
tuneRoundLine(std::size_t round, const std::string &engine,
              std::size_t candidates)
{
    std::ostringstream os;
    os << "{\"event\":\"round\",\"round\":" << round
       << ",\"engine\":" << jsonString(engine)
       << ",\"candidates\":" << candidates << "}";
    return os.str();
}

std::string
tuneScoreLine(std::size_t round, std::size_t cell,
              const std::string &score, const std::string &row)
{
    std::ostringstream os;
    os << "{\"event\":\"score\",\"round\":" << round
       << ",\"cell\":" << cell << ",\"score\":" << score
       << ",\"row\":" << jsonString(row) << "}";
    return os.str();
}

std::string
tunePromoteLine(std::size_t round,
                const std::vector<std::size_t> &rank,
                std::size_t keep)
{
    std::ostringstream os;
    os << "{\"event\":\"promote\",\"round\":" << round
       << ",\"rank\":\"" << joinCells(rank) << "\",\"keep\":" << keep
       << ",\"dropped\":" << rank.size() - keep << "}";
    return os.str();
}

std::string
tuneEarlyExitLine(std::size_t round,
                  const std::vector<std::size_t> &top)
{
    std::ostringstream os;
    os << "{\"event\":\"early-exit\",\"round\":" << round
       << ",\"top\":\"" << joinCells(top) << "\"}";
    return os.str();
}

std::string
tuneWinnerLine(std::size_t cell, const std::string &app,
               const std::string &score, const std::string &engine,
               std::size_t rounds, std::uint64_t detailed_insts,
               std::uint64_t exhaustive_detailed_insts)
{
    std::ostringstream os;
    os << "{\"event\":\"winner\",\"cell\":" << cell
       << ",\"app\":" << jsonString(app) << ",\"score\":" << score
       << ",\"engine\":" << jsonString(engine)
       << ",\"rounds\":" << rounds
       << ",\"detailed_insts\":" << detailed_insts
       << ",\"exhaustive_detailed_insts\":"
       << exhaustive_detailed_insts << "}";
    return os.str();
}

std::string
DecisionLogLine::get(const std::string &key) const
{
    auto it = fields.find(key);
    return it == fields.end() ? "" : it->second;
}

std::optional<std::vector<DecisionLogLine>>
readDecisionLog(std::istream &in, std::string *err)
{
    const auto failWith = [&](int line_no, const std::string &why) {
        if (err)
            *err = "line " + std::to_string(line_no) + ": " + why;
        return std::nullopt;
    };

    std::vector<DecisionLogLine> out;
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        DecisionLogLine parsed;
        parsed.raw = line;
        std::string why;
        if (!parseJsonFlatObject(line, parsed.fields, &why))
            return failWith(line_no, why);
        if (parsed.fields.empty())
            return failWith(line_no, "empty object");
        out.push_back(std::move(parsed));
    }
    return out;
}

bool
DecisionLogWriter::open(const std::string &path)
{
    path_ = path;
    if (path_.empty())
        return true;
    os_.open(path_, std::ios::binary | std::ios::trunc);
    return static_cast<bool>(os_);
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
