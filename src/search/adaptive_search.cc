/**
 * @file
 * Successive halving over the engine ladder (see the header). Every
 * round evaluates its candidate cells through the one cell-evaluation
 * path, evaluateCells / CellBatch (scenario/cell_eval.hh), at the
 * rung's engine: locally on one SweepRunner, or range by range per
 * claim unit through the claim protocol every cooperative mode shares
 * (claimRound, search/sweep_merge.hh). The decision log's cost
 * accounting counts what a CellBatch of each round's cells lays out,
 * per design point (plannedCoreJobs), without laying it out; a test
 * holds that count to a real layout. What stays here is the ladder
 * itself: the promotion rule (scoring, ranking, early exit and the
 * survivors, promoteRound, which the log readers replay through
 * tuneLogMismatch), the decision log and resume.
 */

#include "search/adaptive_search.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>

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

} // namespace

RoundVerdict
promoteRound(const AdaptiveSpec &ad, std::size_t round,
             const std::vector<SweepRecord> &records,
             const std::vector<std::size_t> &prevRank)
{
    RoundVerdict v;
    std::vector<double> score(records.size());
    std::transform(records.begin(), records.end(), score.begin(), scoreOf);
    std::vector<std::size_t> order(records.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (score[a] != score[b])
                      return score[a] < score[b];
                  return records[a].cell < records[b].cell;
              });
    for (const std::size_t o : order)
        v.rank.push_back(records[o].cell);

    v.last = round + 1 >= ad.ladder.size();
    const std::size_t k = std::min<std::size_t>(
        ad.rankAgree, std::min(v.rank.size(), prevRank.size()));
    if (!v.last && k > 0 &&
        std::equal(v.rank.begin(), v.rank.begin() + k, prevRank.begin())) {
        v.agreed.assign(v.rank.begin(), v.rank.begin() + k);
        v.last = true;
    }
    if (v.last)
        return v;
    const double frac = ad.promote[std::min<std::size_t>(
        round, ad.promote.size() - 1)];
    const std::size_t keep = std::min(
        v.rank.size(),
        std::max<std::size_t>(
            ad.minSurvivors,
            static_cast<std::size_t>(std::ceil(
                frac * static_cast<double>(v.rank.size())))));
    v.survivors.assign(v.rank.begin(), v.rank.begin() + keep);
    std::sort(v.survivors.begin(), v.survivors.end());
    return v;
}

std::string
tuneLogMismatch(const ParamSpace &space, const std::vector<AppEntry> &apps,
                const std::vector<TuneLogRound> &rounds)
{
    const AdaptiveSpec &ad = space.spec().search.adaptive;
    std::vector<std::size_t> candidates = allCells(space, apps);
    std::vector<std::size_t> prev_rank;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        // A log that outruns the ladder fails the verdict check of
        // the last rung first.
        const std::string round = "round " + std::to_string(r);
        if (rounds[r].cells != candidates)
            return round + " candidates do not match this scenario's "
                           "schedule";
        const EngineSpec engine = rungEngine(ad, ad.ladder[r]);
        std::string why;
        const std::size_t k = firstForeignRow(
            rounds[r].records, space, apps, rounds[r].cells, &engine, &why);
        if (k < rounds[r].records.size())
            return round + ", cell " + std::to_string(rounds[r].cells[k]) +
                   ": " + why + " (a log of another scenario?)";
        RoundVerdict v = promoteRound(ad, r, rounds[r].records, prev_rank);
        if (v.last != rounds[r].endsTune)
            return round + " verdict does not match this scenario's "
                           "schedule";
        candidates = std::move(v.survivors);
        prev_rank = std::move(v.rank);
    }
    return "";
}

EngineSpec
rungEngine(const AdaptiveSpec &ad, EngineMode mode)
{
    if (mode == EngineMode::Analytic)
        return EngineSpec::makeAnalytic();
    if (mode == EngineMode::Sampled)
        return ad.sampleInterval == 0
                   ? EngineSpec::makeSampled(SamplingConfig{})
                   : EngineSpec::makeSampled(
                         ad.sampleInterval,
                         SamplingConfig::defaultDetail(ad.sampleInterval),
                         SamplingConfig::defaultWarmup(ad.sampleInterval));
    return EngineSpec{};
}

int
runAdaptiveSearch(const ParamSpace &space, const TuneOptions &opt,
                  TuneStats *stats)
{
    const ScenarioSpec &spec = space.spec();
    const AdaptiveSpec &ad = spec.search.adaptive;

    if (spec.search.mode != SearchMode::Adaptive)
        return refuse("scenario '" + spec.name +
                      "' is not adaptive; add 'mode = adaptive' to "
                      "its [search] section");
    if (ad.ladder.empty())
        return refuse("adaptive ladder is empty");
    for (const Axis &axis : spec.axes)
        if (axis.name == "sample.interval")
            return refuse("adaptive search drives the engine ladder "
                          "itself; drop the sample.interval axis");
    if (!opt.resumePath.empty() && !opt.claimDir.empty())
        return refuse("--resume and --claim are mutually exclusive "
                      "(claim directories resume themselves)");
    if (ad.sampleInterval) {
        const char *why = SamplingConfig::shapeError(
            ad.sampleInterval,
            SamplingConfig::defaultDetail(ad.sampleInterval),
            SamplingConfig::defaultWarmup(ad.sampleInterval));
        if (why)
            return refuse(std::string("[search] sample-interval: ") +
                          why);
    }

    // Each trace opens once, before any round runs or is claimed.
    std::string apps_err;
    if (!preflightTraces(spec, &apps_err))
        return refuse(apps_err);
    const std::vector<AppEntry> apps = resolveApps(spec, &apps_err);
    if (apps.empty())
        return refuse(apps_err);
    const std::size_t npoints = space.numPoints();
    const std::size_t ncells = apps.size() * npoints;

    // Materialize the rung engines and hold every rung to the same
    // cross-cutting constraints the sweep enforces for its engine
    // (the analytic envelope, sampled-reachability, ...).
    std::vector<EngineSpec> rungs;
    for (const EngineMode mode : ad.ladder) {
        const EngineSpec e = rungEngine(ad, mode);
        ScenarioSpec probe = spec;
        probe.engine = e;
        std::string probe_err;
        if (!ParamSpace::build(probe, &probe_err))
            return refuse("ladder rung '" + engineName(mode) +
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
            return refuse(mf_err);
        claims.emplace(opt.claimDir, opt.leaseTimeoutSecs);
        shards = mf->shards;
    }

    // ---- resume: adopt the complete rounds of a prior log. A log
    // of another scenario is refused; a damaged one is moved aside,
    // and the tune starts fresh.
    std::vector<TuneLogRound> cached;
    if (!opt.resumePath.empty()) {
        const std::string &path = opt.resumePath;
        bool torn = false;
        const auto text = readCompleteLines(path, &torn);
        if (torn)
            RC_LOG(warn, "--resume " + path + ": dropping torn final "
                                              "line (mid-write crash?)");
        if (text) {
            TuneLog prior = readTuneLog(*text);
            if (!prior.plan.empty() && prior.plan != plan_line)
                return refuse("--resume " + path +
                              ": plan line does not match this scenario");
            if (prior.damage.empty())
                cached = std::move(prior.rounds);
            else
                quarantineAndStartFresh(path, prior.damage);
        }
        // Each adopted round must be one this scenario's schedule
        // plays, checked before the log (which may be this very file)
        // is rewritten.
        const std::string why = tuneLogMismatch(space, apps, cached);
        if (!why.empty())
            return refuse("--resume " + path + ": " + why);
    }

    // ---- decision log sink. Lines accumulate from the plan line on.
    // The file opens once every replayed round has checked out, at the
    // first round that runs or after a replayed winner, and takes them
    // in one append, so a refused resume leaves --log as it was, even
    // when it names the resume file itself.
    DecisionLogWriter log;
    bool log_opened = false;
    const auto openLog = [&] {
        log_opened = true;
        return opt.logPath.empty() || !opt.emitOutputs ||
               log.open(opt.logPath);
    };
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
    const std::vector<std::size_t> all_cells = allCells(space, apps);
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
        if (r == cached.size() && !openLog())
            return refuse("cannot write '" + opt.logPath + "'");
        // Round boundaries are the tuner's commit points: the log
        // holds only complete rounds before a round that runs, so
        // exiting there leaves a --resume-able state.
        if (r >= cached.size() && interruptRequested()) {
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
            records = std::move(cached[r].records);
        } else if (!claims) {
            records =
                evaluateCells(space, apps, candidates, opt.jobs, &engine);
        } else {
            std::vector<std::string> units;
            for (unsigned u = 0; u < shards; ++u)
                units.push_back(tuneUnitName(r, u));
            if (const int rc = claimRound(*claims, units, space, apps,
                                          candidates, &engine, opt.jobs,
                                          records))
                return rc;
        }
        ++rounds_run;

        RoundVerdict verdict = promoteRound(ad, r, records, prev_rank);
        std::string row;
        for (std::size_t i = 0; i < records.size(); ++i) {
            row.clear();
            appendSweepCsvRow(row, records[i]);
            emit(tuneScoreLine(r, records[i].cell,
                               shortestDouble(scoreOf(records[i])), row));
        }
        if (!verdict.agreed.empty()) {
            emit(tuneEarlyExitLine(r, verdict.agreed));
            early = true;
        }
        if (verdict.last) {
            winner = *std::find_if(records.begin(), records.end(),
                                   [&](const SweepRecord &rec) {
                                       return rec.cell == verdict.rank[0];
                                   });
            winner_score = shortestDouble(scoreOf(*winner));
            emit(tuneWinnerLine(winner->cell, winner->app,
                                winner_score,
                                engineName(ad.ladder[r]),
                                rounds_run, detailed_insts,
                                exhaustive_insts));
            break;
        }
        emit(tunePromoteLine(r, verdict.rank, verdict.survivors.size()));
        candidates = std::move(verdict.survivors);
        prev_rank = std::move(verdict.rank);
    }
    // The loop always breaks with a winner: promoteRound ends the
    // tune on the last rung unconditionally.
    rc_assert(winner);
    // Every round was replayed, the winner's too: open the log now.
    if (!log_opened && !openLog())
        return refuse("cannot write '" + opt.logPath + "'");

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
                return refuse("cannot write '" + opt.outPath + "'");
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
        return refuse(err);
    return runAdaptiveSearch(*space, opt, stats);
}

} // namespace rcache
