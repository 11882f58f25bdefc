#include "search/doctor.hh"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <set>
#include <vector>

#include "runner/claim.hh"
#include "search/adaptive_search.hh"
#include "search/decision_log.hh"
#include "search/sweep_merge.hh"
#include "util/checked_io.hh"
#include "util/numformat.hh"

namespace rcache
{

namespace
{

/** A tune unit name's round and shard ("r<digits>_s<digits>"), or
 *  nullopt for any other name; @p overflow is set for digits that do
 *  not fit 64 bits. */
std::optional<std::pair<std::uint64_t, std::uint64_t>>
tuneUnitKey(const std::string &name, bool *overflow)
{
    const std::size_t us = name.find("_s");
    if (name.rfind('r', 0) != 0 || us == std::string::npos)
        return std::nullopt;
    const std::string parts[] = {name.substr(1, us - 1), name.substr(us + 2)};
    for (const std::string &digits : parts)
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            return std::nullopt;
    unsigned long long key[2];
    *overflow = !parseU64Strict(parts[0], key[0]) ||
                !parseU64Strict(parts[1], key[1]);
    if (*overflow)
        return std::nullopt;
    return std::pair<std::uint64_t, std::uint64_t>{key[0], key[1]};
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
    // Every committed unit row is held to the manifest's scenario.
    std::string scn_err;
    const auto scn = manifestScenario(dir, *mf, &scn_err);
    if (!scn)
        problem(scn_err);

    // ---- enumerate units by (round, shard): a sweep's (round 0) from
    // the shard count, a tune's from whatever rounds actually started.
    const ClaimDir claims(dir, opt.leaseTimeoutSecs);
    std::set<std::pair<std::pair<std::uint64_t, std::uint64_t>,
                       std::string>>
        units;
    if (mf->mode == "sweep") {
        for (unsigned u = 0; u < mf->shards; ++u)
            units.insert({{0, u}, sweepUnitName(u)});
    } else {
        for (const auto &entry :
             std::filesystem::directory_iterator(dir)) {
            const std::string name = entry.path().filename().string();
            const std::size_t dot = name.find('.');
            const std::string ext =
                dot == std::string::npos ? "" : name.substr(dot);
            if (ext != ".lease" && ext != ".csv" && ext != ".done")
                continue;
            bool overflow = false;
            if (const auto key = tuneUnitKey(name.substr(0, dot), &overflow))
                units.emplace(*key, name.substr(0, dot));
            else if (overflow)
                problem("'" + claims.path(name) +
                        "': unit number out of range");
        }
    }

    // ---- per-unit state, and each committed CSV read back as the
    // claim protocol reads it: a sweep unit against its range of the
    // cells, each row of a tune unit against its own cell at the
    // unit's rung (which cells a round holds depends on earlier
    // rounds).
    std::vector<std::size_t> all_cells;
    std::vector<EngineSpec> rungs;
    if (scn) {
        all_cells = allCells(scn->space, scn->apps);
        const AdaptiveSpec &ad = scn->space.spec().search.adaptive;
        for (const EngineMode mode : ad.ladder)
            rungs.push_back(rungEngine(ad, mode));
    }
    std::size_t done = 0, live = 0, stale = 0, unclaimed = 0;
    for (const auto &[key, unit] : units) {
        const auto [round, shard] = key;
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
        if (!std::ifstream(csv)) {
            out << '\n';
            if (is_done)
                problem("'" + unit + "' is marked done but '" + csv +
                        "' is unreadable");
            continue;
        }
        if (!scn) {
            out << '\n';
            continue;
        }
        std::string why;
        std::optional<std::vector<SweepRecord>> rows;
        if (mf->mode == "sweep") {
            const auto range = ShardSpec{shard, units.size()}.take(all_cells);
            rows = readClaimUnit(csv, scn->space, scn->apps, &range,
                                 nullptr, &why);
        } else if (round < rungs.size()) {
            rows = readClaimUnit(csv, scn->space, scn->apps, nullptr,
                                 &rungs[round], &why);
        } else {
            why = csv + ": round " + std::to_string(round) +
                  " is beyond the scenario's " +
                  std::to_string(rungs.size()) + "-rung ladder";
        }
        if (rows) {
            out << ", csv " << rows->size() << " row(s)\n";
        } else {
            out << ", csv DAMAGED\n";
            problem(why);
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
            // On a tune manifest the rounds are also held to its
            // scenario's schedule, as tune --resume holds them.
            const TuneLog log = readTuneLog(*text);
            const std::string why =
                !log.damage.empty() ? log.damage
                : scn && mf->mode == "tune"
                    ? tuneLogMismatch(scn->space, scn->apps, log.rounds)
                    : "";
            if (!why.empty())
                problem("decision log '" + opt.logPath + "': " + why);
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
