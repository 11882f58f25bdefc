/**
 * @file
 * Successive halving over the engine ladder (see the header). Every
 * round evaluates its candidate cells through the one cell-evaluation
 * path, evaluateCells / CellBatch (scenario/cell_eval.hh), at the
 * rung's engine: locally on one SweepRunner, or slice by slice per
 * claim unit through the claim worker every cooperative mode shares
 * (drainClaimUnits, runner/claim.hh). The decision log's cost
 * accounting counts what a CellBatch of each round's cells lays out,
 * per design point (plannedCoreJobs), without laying it out; a test
 * holds that count to a real layout. What stays here is the ladder
 * itself: scoring, promotion, early exit, the decision log, resume,
 * and how a claim round deals out and gathers its cells.
 */

#include "search/adaptive_search.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>

#include "runner/claim.hh"
#include "scenario/cell_eval.hh"
#include "search/decision_log.hh"
#include "search/sweep_merge.hh"
#include "util/checked_io.hh"
#include "util/interrupt.hh"
#include "util/logging.hh"
#include "util/numformat.hh"

namespace rcache
{

namespace
{

int
fail(const std::string &msg)
{
    std::cerr << "rcache-sim: " << msg << '\n';
    return 2;
}

/**
 * A cell's score: relative E·D (best/baseline), the paper's metric,
 * computed in double arithmetic from SweepRecord fields — which
 * round-trip bit-identically through CSVs, so a claim worker scoring
 * parsed rows gets the exact bytes a local run gets. A degenerate
 * zero-E·D baseline scores a finite sentinel that ranks last
 * (shortestDouble of an infinity would not round-trip).
 */
double
scoreOf(const SweepRecord &r)
{
    return r.baselineEdp > 0
               ? r.bestEdp / r.baselineEdp
               : std::numeric_limits<double>::max();
}

/**
 * One claim-mode round: the candidate list is cut into @p shards
 * contiguous ranges, unit u taking candidates [u*n/N, (u+1)*n/N).
 * Candidates are app-major and sorted, so each app's cells land in one
 * unit (or two, at a range boundary), which streams that app's
 * workload and baselines once. This worker drains the units, named
 * r<round>_s<shard>, with its peers through the claim worker
 * (runner/claim.hh). Every worker then reads the committed unit CSVs
 * back, so all of them gather the identical record set. @return 0 with @p records in
 * ascending-cell order, or a process exit code.
 */
int
claimRound(const ParamSpace &space, const std::vector<AppEntry> &apps,
           unsigned jobs, const ClaimDir &claims, unsigned shards,
           std::size_t round, const EngineSpec &engine,
           const std::vector<std::size_t> &cells,
           std::vector<SweepRecord> &records)
{
    std::vector<std::string> units, csvs;
    for (unsigned u = 0; u < shards; ++u) {
        units.push_back(tuneUnitName(round, u));
        csvs.push_back(claims.path(units.back() + ".csv"));
    }
    const int rc = drainClaimUnits(
        claims, units,
        [&](std::size_t u, const std::string &tmp,
            const std::function<bool()> &heartbeat) {
            const std::vector<std::size_t> mine(
                cells.begin() + u * cells.size() / shards,
                cells.begin() + (u + 1) * cells.size() / shards);
            const std::vector<SweepRecord> recs = evaluateCells(
                space, apps, mine, jobs, &engine, heartbeat);
            if (recs.size() < mine.size())
                return interruptExitCode(); // the heartbeat stopped it
            std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
            os << sweepCsvHeader() << '\n';
            writeSweepCsvRows(os, recs);
            os.flush();
            return os ? 0 : fail("cannot write '" + tmp + "'");
        });
    if (rc != 0)
        return rc;
    std::string err;
    auto all = readShardCsvs(csvs, &err);
    if (!all)
        return fail(err);
    bool covered = all->size() == cells.size();
    for (std::size_t i = 0; covered && i < all->size(); ++i)
        covered = (*all)[i].cell == cells[i];
    if (!covered)
        return fail("claim units of round " + std::to_string(round) +
                    " do not cover its candidate set (foreign or "
                    "mismatched manifest directory?)");
    records = std::move(*all);
    return 0;
}

/** One fully logged round recovered from a --resume decision log. */
struct CachedRound
{
    std::vector<std::size_t> cells;
    std::vector<SweepRecord> records;
};

/** Quarantine a damaged log and report a fresh start. @return true
 *  always (the resume degrades to "nothing cached"). */
bool
freshAfterQuarantine(const std::string &path, const std::string &why,
                     std::vector<CachedRound> &cached)
{
    const auto aside = quarantineCorruptFile(path);
    RC_LOG(warn, "--resume " + path + ": " + why + "; " +
                     (aside ? "moved aside to '" + *aside + "'"
                            : "could not move it aside") +
                     ", starting fresh");
    cached.clear();
    return true;
}

/**
 * Recover the complete rounds of a prior decision log, reading it
 * line by line as the writer wrote it: the plan line, which must
 * match @p planLine byte for byte (same scenario, same knobs), then
 * per round its header, as many score lines of that round as the
 * header declares, each carrying its cell's sweep row, and its
 * verdict: a promote before the last of the @p rungs, an early exit
 * and then the winner, or the winner on the last rung, with nothing
 * after the winner. A log that stops early (a crash's cut at a line
 * boundary, or a torn last line, which is dropped) adopts the rounds
 * it completed, and the tune runs the rest again. A line that is
 * present but not one the writer could have written there is damage:
 * the log is moved aside with a one-line reason and the tune starts
 * fresh. @return false with @p err only on a plan line of another
 * scenario.
 */
bool
loadCachedRounds(const std::string &path, const std::string &planLine,
                 std::size_t rungs, std::vector<CachedRound> &cached,
                 std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return true; // nothing to resume: fresh start
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string raw = buf.str();
    // A torn final line (no trailing newline) is a crashed writer's
    // last breath, not corruption: drop it, keep the prefix.
    if (!raw.empty() && raw.back() != '\n') {
        const std::size_t last_nl = raw.rfind('\n');
        raw.resize(last_nl == std::string::npos ? 0 : last_nl + 1);
        RC_LOG(warn, "--resume " + path + ": dropping torn final "
                                          "line (mid-write crash?)");
    }
    std::string read_err;
    const auto lines = readDecisionLog(raw, &read_err);
    if (!lines)
        return freshAfterQuarantine(path, read_err, cached);
    if (lines->empty())
        return true; // empty (or torn-to-empty) log: fresh start
    if ((*lines)[0].raw != planLine) {
        *err = "--resume " + path +
               ": plan line does not match this scenario";
        return false;
    }

    const std::size_t end = lines->size();
    const auto damaged = [&](std::size_t i, const std::string &why) {
        return freshAfterQuarantine(
            path, "line " + std::to_string(i + 1) + ": " + why, cached);
    };
    const auto is = [&](std::size_t i, const char *event,
                        const std::string &round) {
        return (*lines)[i].get("event") == event &&
               (*lines)[i].get("round") == round;
    };
    std::size_t i = 1;
    for (std::size_t r = 0; i < end; ++r) {
        const std::string round = std::to_string(r);
        unsigned long long declared = 0;
        if (!is(i, "round", round))
            return damaged(i, "expected round " + round + "'s header");
        if (!parseU64Strict((*lines)[i].get("candidates"), declared))
            return damaged(i, "bad candidate count");
        ++i;

        CachedRound cr;
        for (; i < end && (*lines)[i].get("event") == "score"; ++i) {
            const DecisionLogLine &score = (*lines)[i];
            if (score.get("round") != round)
                return damaged(i, "a score of round '" +
                                      score.get("round") + "' in round " +
                                      round);
            if (cr.cells.size() == declared)
                return damaged(i, "more scores than the " +
                                      std::to_string(declared) +
                                      " round " + round + " declares");
            unsigned long long cell = 0;
            SweepRecord rec;
            if (!parseU64Strict(score.get("cell"), cell) ||
                !parseSweepCsvRow(score.get("row"), rec, nullptr) ||
                rec.cell != cell)
                return damaged(i, "corrupt score row");
            cr.cells.push_back(static_cast<std::size_t>(cell));
            cr.records.push_back(std::move(rec));
        }
        // A log cut inside a round runs that round again (the same
        // bytes either way: everything is deterministic).
        if (i == end)
            break;
        if (cr.cells.size() != declared)
            return damaged(i, std::to_string(cr.cells.size()) +
                                  " scores where round " + round +
                                  " declares " + std::to_string(declared));
        if (r + 1 < rungs && is(i, "promote", round)) {
            cached.push_back(std::move(cr));
            ++i;
            continue;
        }
        if (r + 1 < rungs && !is(i, "early-exit", round))
            return damaged(i, "expected round " + round + "'s verdict");
        // The winner closes the log; a round is cached only with it.
        const std::size_t winner = r + 1 < rungs ? i + 1 : i;
        if (winner == end)
            break;
        if ((*lines)[winner].get("event") != "winner")
            return damaged(winner, "expected the winner");
        if (winner + 1 < end)
            return damaged(winner + 1, "a line after the winner");
        cached.push_back(std::move(cr));
        break;
    }
    return true;
}

} // namespace

int
runAdaptiveSearch(const ParamSpace &space, const TuneOptions &opt,
                  TuneStats *stats)
{
    const ScenarioSpec &spec = space.spec();
    const AdaptiveSpec &ad = spec.search.adaptive;

    if (spec.search.mode != SearchMode::Adaptive)
        return fail("scenario '" + spec.name +
                    "' is not adaptive; add 'mode = adaptive' to "
                    "its [search] section");
    if (ad.ladder.empty())
        return fail("adaptive ladder is empty");
    for (const Axis &axis : spec.axes)
        if (axis.name == "sample.interval")
            return fail("adaptive search drives the engine ladder "
                        "itself; drop the sample.interval axis");
    if (!opt.resumePath.empty() && !opt.claimDir.empty())
        return fail("--resume and --claim are mutually exclusive "
                    "(claim directories resume themselves)");
    if (ad.sampleInterval) {
        const char *why = SamplingConfig::shapeError(
            ad.sampleInterval,
            SamplingConfig::defaultDetail(ad.sampleInterval),
            SamplingConfig::defaultWarmup(ad.sampleInterval));
        if (why)
            return fail(std::string("[search] sample-interval: ") +
                        why);
    }

    std::string apps_err;
    const std::vector<AppEntry> apps = resolveApps(spec, &apps_err);
    if (apps.empty())
        return fail(apps_err);
    const std::size_t npoints = space.numPoints();
    const std::size_t ncells = apps.size() * npoints;

    // Materialize the rung engines and hold every rung to the same
    // cross-cutting constraints the sweep enforces for its engine
    // (the analytic envelope, sampled-reachability, ...).
    std::vector<EngineSpec> rungs;
    for (const EngineMode mode : ad.ladder) {
        EngineSpec e;
        if (mode == EngineMode::Analytic)
            e = EngineSpec::makeAnalytic();
        else if (mode == EngineMode::Sampled)
            e = ad.sampleInterval == 0
                    ? EngineSpec::makeSampled(SamplingConfig{})
                    : EngineSpec::makeSampled(
                          ad.sampleInterval,
                          SamplingConfig::defaultDetail(
                              ad.sampleInterval),
                          SamplingConfig::defaultWarmup(
                              ad.sampleInterval));
        ScenarioSpec probe = spec;
        probe.engine = e;
        std::string probe_err;
        if (!ParamSpace::build(probe, &probe_err))
            return fail("ladder rung '" + engineName(mode) +
                        "': " + probe_err);
        rungs.push_back(e);
    }

    // Appends, not (i ? "," : "") + ... chains: GCC 12 reports a
    // false -Wrestrict on those once they are inlined.
    std::string ladder_tok, promote_tok;
    for (std::size_t i = 0; i < ad.ladder.size(); ++i) {
        if (i)
            ladder_tok += ',';
        ladder_tok += engineName(ad.ladder[i]);
    }
    for (std::size_t i = 0; i < ad.promote.size(); ++i) {
        if (i)
            promote_tok += ',';
        promote_tok += shortestDouble(ad.promote[i]);
    }
    const std::string plan_line = tunePlanLine(
        spec.name, spec.insts, apps.size(), npoints, ncells,
        ladder_tok, promote_tok, ad.minSurvivors, ad.rankAgree,
        ad.sampleInterval);

    // ---- cooperative mode: rounds drain as a manifest dir's units
    std::optional<ClaimDir> claims;
    unsigned shards = 0;
    if (!opt.claimDir.empty()) {
        std::string mf_err;
        const auto mf = openManifest(opt.claimDir, "tune",
                                     spec.printToString(), opt.shards,
                                     &mf_err);
        if (!mf)
            return fail(mf_err);
        claims.emplace(opt.claimDir, opt.leaseTimeoutSecs);
        shards = mf->shards;
    }

    // ---- resume: adopt the complete-round prefix of a prior log
    std::vector<CachedRound> cached;
    if (!opt.resumePath.empty()) {
        std::string resume_err;
        if (!loadCachedRounds(opt.resumePath, plan_line, rungs.size(),
                              cached, &resume_err))
            return fail(resume_err);
    }

    // ---- decision log sink
    DecisionLogWriter log;
    if (!opt.logPath.empty() && opt.emitOutputs &&
        !log.open(opt.logPath))
        return fail("cannot write '" + opt.logPath + "'");
    const auto emit = [&](const std::string &line) {
        log.append(line);
    };
    emit(plan_line);

    // ---- cost accounting: plan arithmetic over a single-batch
    // schedule (baselines memoized, one phase-2 job per side=both
    // cell). Claim workers re-run baselines their shard does not
    // share, but every worker logs the same plan-time number, which
    // keeps the log byte-identical across modes. Which jobs a batch
    // lays out does not depend on the engine, so round 0 prices the
    // exhaustive count.
    std::vector<std::size_t> all_cells(ncells);
    std::iota(all_cells.begin(), all_cells.end(), 0);
    const std::uint64_t exhaustive_jobs =
        plannedCoreJobs(space, apps, all_cells);
    const std::uint64_t exhaustive_insts =
        exhaustive_jobs * spec.engine.detailedInstsFor(spec.insts);

    // ---- successive halving over the ladder
    std::vector<std::size_t> candidates = all_cells;
    std::vector<std::size_t> prev_rank;
    std::uint64_t detailed_insts = 0;
    std::size_t rounds_run = 0;
    bool early = false;
    std::optional<SweepRecord> winner;
    std::string winner_score;

    for (std::size_t r = 0; r < rungs.size(); ++r) {
        // Round boundaries are the tuner's commit points: the log
        // holds only complete rounds here, so exiting now leaves a
        // --resume-able state.
        if (interruptRequested()) {
            std::cerr << "rcache-sim: interrupted; " << rounds_run
                      << " complete round(s) in the log";
            if (!opt.logPath.empty() && opt.emitOutputs)
                std::cerr << "; resume with --resume "
                          << opt.logPath;
            std::cerr << '\n';
            return interruptExitCode();
        }
        const EngineSpec &engine = rungs[r];
        emit(tuneRoundLine(r, engineName(ad.ladder[r]),
                           candidates.size()));
        detailed_insts +=
            (r == 0 ? exhaustive_jobs
                    : plannedCoreJobs(space, apps, candidates)) *
            engine.detailedInstsFor(spec.insts);

        std::vector<SweepRecord> records;
        if (r < cached.size()) {
            if (cached[r].cells != candidates)
                return fail("--resume " + opt.resumePath +
                            ": round " + std::to_string(r) +
                            " candidates do not match this "
                            "scenario's schedule");
            records = std::move(cached[r].records);
        } else if (!claims) {
            records =
                evaluateCells(space, apps, candidates, opt.jobs, &engine);
        } else if (const int rc =
                       claimRound(space, apps, opt.jobs, *claims, shards,
                                  r, engine, candidates, records)) {
            return rc;
        }
        ++rounds_run;

        std::vector<double> score(records.size());
        std::vector<std::string> score_text(records.size());
        std::string row;
        for (std::size_t i = 0; i < records.size(); ++i) {
            score[i] = scoreOf(records[i]);
            score_text[i] = shortestDouble(score[i]);
            row.clear();
            appendSweepCsvRow(row, records[i]);
            emit(tuneScoreLine(r, records[i].cell, score_text[i], row));
        }

        std::vector<std::size_t> order(records.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (score[a] != score[b])
                          return score[a] < score[b];
                      return records[a].cell < records[b].cell;
                  });
        std::vector<std::size_t> rank;
        rank.reserve(order.size());
        for (const std::size_t o : order)
            rank.push_back(records[o].cell);

        const bool final_rung = r + 1 == rungs.size();
        if (!final_rung && ad.rankAgree > 0 && r > 0) {
            const std::size_t k = std::min<std::size_t>(
                ad.rankAgree,
                std::min(rank.size(), prev_rank.size()));
            bool agree = k > 0;
            for (std::size_t i = 0; agree && i < k; ++i)
                agree = rank[i] == prev_rank[i];
            if (agree) {
                emit(tuneEarlyExitLine(
                    r, {rank.begin(), rank.begin() + k}));
                early = true;
            }
        }

        if (final_rung || early) {
            winner = records[order[0]];
            winner_score = score_text[order[0]];
            emit(tuneWinnerLine(winner->cell, winner->app,
                                winner_score,
                                engineName(ad.ladder[r]),
                                rounds_run, detailed_insts,
                                exhaustive_insts));
            break;
        }

        const double frac = ad.promote[std::min<std::size_t>(
            r, ad.promote.size() - 1)];
        const std::size_t keep = std::min(
            rank.size(),
            std::max<std::size_t>(
                ad.minSurvivors,
                static_cast<std::size_t>(std::ceil(
                    frac * static_cast<double>(rank.size())))));
        emit(tunePromoteLine(r, rank, keep));
        candidates.assign(rank.begin(), rank.begin() + keep);
        std::sort(candidates.begin(), candidates.end());
        prev_rank = std::move(rank);
    }
    // The loop always breaks with a winner: the last rung takes the
    // final_rung branch unconditionally.
    rc_assert(winner);

    if (opt.emitOutputs) {
        std::string out = sweepCsvHeader() + '\n';
        appendSweepCsvRow(out, *winner);
        out += '\n';
        if (opt.outPath.empty()) {
            checkedAppend(std::cout, out, "<stdout>", "tune.winner.write");
        } else {
            std::ofstream f(opt.outPath,
                            std::ios::binary | std::ios::trunc);
            if (!f)
                return fail("cannot write '" + opt.outPath + "'");
            checkedAppend(f, out, opt.outPath, "tune.winner.write");
        }
    }

    if (stats) {
        stats->cells = ncells;
        stats->rounds = rounds_run;
        stats->earlyExit = early;
        stats->detailedInsts = detailed_insts;
        stats->exhaustiveDetailedInsts = exhaustive_insts;
        stats->winner = *winner;
        stats->logText = log.text();
    }

    if (!opt.quiet) {
        std::cerr << "tune: winner cell " << winner->cell << " ("
                  << winner->app;
        if (!winner->axes.empty())
            std::cerr << ", " << winner->axes;
        std::cerr << "), relative E.D " << winner_score << ", "
                  << rounds_run << "/" << rungs.size() << " round(s)"
                  << (early ? " [early exit]" : "")
                  << ", detailed insts " << detailed_insts << " vs "
                  << exhaustive_insts << " exhaustive";
        if (detailed_insts > 0 && exhaustive_insts > 0)
            std::cerr << " ("
                      << shortestDouble(
                             static_cast<double>(exhaustive_insts) /
                             static_cast<double>(detailed_insts))
                      << "x less)";
        std::cerr << '\n';
    }
    return 0;
}

int
runAdaptiveSearch(const ScenarioSpec &spec, const TuneOptions &opt,
                  TuneStats *stats)
{
    std::string err;
    const auto space = ParamSpace::build(spec, &err);
    if (!space)
        return fail(err);
    return runAdaptiveSearch(*space, opt, stats);
}

} // namespace rcache
