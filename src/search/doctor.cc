#include "search/doctor.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <vector>

#include "runner/claim.hh"
#include "scenario/scenario_spec.hh"
#include "search/decision_log.hh"
#include "sim/report.hh"
#include "util/checked_io.hh"

namespace rcache
{

namespace
{

/** "r<digits>_s<digits>" — a tune unit name. */
bool
isTuneUnit(const std::string &name)
{
    std::size_t i = 0;
    if (i >= name.size() || name[i] != 'r')
        return false;
    ++i;
    const std::size_t r0 = i;
    while (i < name.size() && std::isdigit(
                                  static_cast<unsigned char>(name[i])))
        ++i;
    if (i == r0 || i + 1 >= name.size() || name[i] != '_' ||
        name[i + 1] != 's')
        return false;
    i += 2;
    const std::size_t s0 = i;
    while (i < name.size() && std::isdigit(
                                  static_cast<unsigned char>(name[i])))
        ++i;
    return i > s0 && i == name.size();
}

/** Strict tune-unit sort: round first, then shard (both numeric). */
std::pair<unsigned long, unsigned long>
tuneUnitKey(const std::string &name)
{
    const std::size_t us = name.find("_s");
    return {std::stoul(name.substr(1, us - 1)),
            std::stoul(name.substr(us + 2))};
}

} // namespace

int
runDoctor(const std::string &dir, const DoctorOptions &opt,
          std::ostream &out)
{
    int verdict = 0;
    std::size_t problems = 0;
    const auto problem = [&](const std::string &what) {
        out << "  PROBLEM: " << what << '\n';
        verdict = 2;
        ++problems;
    };

    // ---- manifest
    std::string err;
    bool corrupt = false;
    const auto mf = readManifest(dir, &err, &corrupt);
    if (!mf) {
        out << "doctor: " << dir << '\n';
        out << "  PROBLEM: " << err
            << (corrupt ? " (damaged manifest: quarantine it by "
                          "re-running a worker with --scenario and "
                          "--shards, or move MANIFEST.meta aside "
                          "by hand)"
                        : "")
            << '\n';
        out << "  verdict: INCONSISTENT (1 problem(s))\n";
        return 2;
    }
    out << "doctor: " << dir << " (" << mf->mode << ", "
        << mf->shards << " shard(s))\n";
    std::string parse_err;
    if (!ScenarioSpec::parseText(mf->scenarioText,
                                 dir + "/MANIFEST.scn", &parse_err))
        problem("MANIFEST.scn does not parse: " + parse_err);

    // ---- enumerate units: sweep units come from the shard count,
    // tune units from whatever rounds actually started.
    std::vector<std::string> units;
    if (mf->mode == "sweep") {
        for (unsigned u = 0; u < mf->shards; ++u)
            units.push_back(sweepUnitName(u));
    } else {
        std::set<std::string> seen;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir)) {
            const std::string name = entry.path().filename().string();
            const std::size_t dot = name.find('.');
            if (dot == std::string::npos)
                continue;
            const std::string stem = name.substr(0, dot);
            const std::string ext = name.substr(dot);
            if ((ext == ".lease" || ext == ".csv" ||
                 ext == ".done") &&
                isTuneUnit(stem))
                seen.insert(stem);
        }
        units.assign(seen.begin(), seen.end());
        std::sort(units.begin(), units.end(),
                  [](const std::string &a, const std::string &b) {
                      return tuneUnitKey(a) < tuneUnitKey(b);
                  });
    }

    // ---- per-unit state
    const ClaimDir claims(dir, opt.leaseTimeoutSecs);
    std::size_t done = 0, live = 0, stale = 0, unclaimed = 0;
    for (const std::string &unit : units) {
        const std::string csv = claims.path(unit + ".csv");
        const bool is_done = claims.isDone(unit);
        std::string state;
        if (is_done) {
            ++done;
            state = "done";
        } else if (std::filesystem::exists(
                       claims.path(unit + ".lease"))) {
            // The workers' own staleness rule.
            const bool fresh = claims.leaseFresh(unit);
            ++(fresh ? live : stale);
            state = fresh ? "claimed (lease live)"
                          : "stale (takeover-able)";
        } else {
            ++unclaimed;
            state = "unclaimed";
        }
        out << "  " << unit << ": " << state;
        std::ifstream is(csv, std::ios::binary);
        if (is) {
            std::string csv_err;
            const auto rows = readSweepCsv(is, &csv_err);
            if (rows)
                out << ", csv " << rows->size() << " row(s)";
            else
                out << ", csv DAMAGED";
            out << '\n';
            if (!rows)
                problem("'" + csv + "': " + csv_err);
        } else {
            out << '\n';
            if (is_done)
                problem("'" + unit + "' is marked done but '" + csv +
                        "' is unreadable");
        }
    }
    out << "  units: " << done << " done, " << live << " claimed, "
        << stale << " stale, " << unclaimed << " unclaimed of "
        << units.size() << '\n';

    // ---- crash debris (informational: none of it blocks a rerun)
    std::size_t tmps = 0, asides = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.find(".tmp.") != std::string::npos)
            ++tmps;
        if (name.find(".stale.") != std::string::npos ||
            name.find(".corrupt.") != std::string::npos)
            ++asides;
    }
    if (tmps)
        out << "  note: " << tmps << " orphan tmp file(s) from "
            << "crashed publishes (harmless; delete at will)\n";
    if (asides)
        out << "  note: " << asides << " renamed-aside file(s) "
            << "(.stale./.corrupt. post-mortem evidence)\n";

    // ---- optional decision-log audit: the log read as tune
    // --resume reads it
    if (!opt.logPath.empty()) {
        bool torn = false;
        const auto text = readCompleteLines(opt.logPath, &torn);
        if (!text) {
            problem("cannot read decision log '" + opt.logPath +
                    "'");
        } else {
            if (torn)
                out << "  note: decision log has a torn final line "
                       "(--resume drops it)\n";
            const TuneLog log = readTuneLog(*text);
            if (!log.damage.empty())
                problem("decision log '" + opt.logPath +
                        "': " + log.damage);
            else
                out << "  log: "
                    << std::count(text->begin(), text->end(), '\n')
                    << " intact line(s)\n";
        }
    }

    out << (verdict == 0
                ? "  verdict: consistent"
                : "  verdict: INCONSISTENT (" +
                      std::to_string(problems) + " problem(s))")
        << '\n';
    return verdict;
}

} // namespace rcache
