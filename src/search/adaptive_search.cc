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
 * back, so all of them gather the identical record set, and adopts
 * only rows that are this round's cells (cellRowMismatch). @return 0
 * with @p records in ascending-cell order, or a process exit code.
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
    std::string why;
    if (all->size() != cells.size())
        why = std::to_string(all->size()) + " rows for " +
              std::to_string(cells.size()) + " candidates";
    for (std::size_t i = 0; why.empty() && i < cells.size(); ++i) {
        why = cellRowMismatch((*all)[i], space, apps, cells[i], &engine);
        if (!why.empty())
            why = "cell " + std::to_string(cells[i]) + ": " + why;
    }
    if (!why.empty())
        return fail("claim units of round " + std::to_string(round) +
                    " do not cover its candidate set (" + why +
                    "; foreign or mismatched manifest directory?)");
    records = std::move(*all);
    return 0;
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
                return fail("--resume " + path +
                            ": plan line does not match this scenario");
            if (prior.damage.empty())
                cached = std::move(prior.rounds);
            else
                quarantineAndStartFresh(path, prior.damage);
        }
        // Each adopted row must be its cell's row at its round's
        // engine, checked before the log (which may be this very
        // file) is rewritten.
        for (std::size_t r = 0; r < cached.size(); ++r)
            for (std::size_t i = 0; i < cached[r].cells.size(); ++i) {
                const std::string why =
                    cellRowMismatch(cached[r].records[i], space, apps,
                                    cached[r].cells[i], &rungs[r]);
                if (!why.empty())
                    return fail("--resume " + path + ": round " +
                                std::to_string(r) + ", cell " +
                                std::to_string(cached[r].cells[i]) +
                                ": " + why +
                                " (a log of another scenario?)");
            }
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
