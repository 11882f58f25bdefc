#include "search/sweep_merge.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "fault/failpoint.hh"
#include "runner/claim.hh"
#include "scenario/scenario_sweep.hh"
#include "sim/report.hh"
#include "util/checked_io.hh"
#include "util/interrupt.hh"
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

/** Rewrite readSweepCsv's "sweep csv line N: why" as the standard
 *  one-line "<path>:N: why" diagnostic. */
std::string
remapCsvError(const std::string &path, const std::string &err)
{
    const std::string prefix = "sweep csv line ";
    if (err.rfind(prefix, 0) == 0) {
        const std::size_t colon = err.find(':', prefix.size());
        if (colon != std::string::npos) {
            const std::string line_no =
                err.substr(prefix.size(), colon - prefix.size());
            unsigned long long n = 0;
            if (parseU64Strict(line_no, n))
                return path + ":" + line_no + err.substr(colon);
        }
    }
    return path + ":1: " + err;
}

/** Read one shard CSV strictly; nullopt with a "<path>:N:" @p err. */
std::optional<std::vector<SweepRecord>>
readShardCsv(const std::string &path, std::string *err)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        *err = path + ":1: cannot open";
        return std::nullopt;
    }
    std::string csv_err;
    auto records = readSweepCsv(is, &csv_err);
    if (!records) {
        *err = remapCsvError(path, csv_err);
        return std::nullopt;
    }
    return records;
}

} // namespace

int
runClaimSweep(const std::optional<ScenarioSpec> &spec,
              const ClaimSweepOptions &opt)
{
    // ---- create or join the manifest
    std::string mf_err;
    const auto mf = openManifest(
        opt.dir, "sweep",
        spec ? std::optional<std::string>(spec->printToString())
             : std::nullopt,
        opt.shards, &mf_err);
    if (!mf)
        return fail(mf_err);

    std::string parse_err;
    const auto mf_spec = ScenarioSpec::parseText(
        mf->scenarioText, opt.dir + "/MANIFEST.scn", &parse_err);
    if (!mf_spec)
        return fail(parse_err);
    std::string build_err;
    const auto space = ParamSpace::build(*mf_spec, &build_err);
    if (!space)
        return fail(build_err);

    // ---- drain units; exit 0 only when the whole scenario is done,
    // so any worker's success certifies the manifest is complete.
    const ClaimDir claims(opt.dir, opt.leaseTimeoutSecs);
    const unsigned shards = mf->shards;
    for (;;) {
        if (interruptRequested()) {
            std::cerr << "rcache-sim: interrupted; committed units "
                         "stay done, rerun to continue '"
                      << opt.dir << "'\n";
            return interruptExitCode();
        }
        bool progressed = false;
        for (unsigned u = 0; u < shards; ++u) {
            const std::string unit = sweepUnitName(u);
            if (interruptRequested())
                break;
            if (claims.isDone(unit) || !claims.tryClaim(unit))
                continue;
            SweepOptions so;
            so.jobs = opt.jobs;
            so.shard = ShardSpec{u, shards};
            so.format = "csv";
            const std::string tmp =
                claims.path(unit + ".csv.tmp." +
                            std::to_string(::getpid()));
            so.outPath = tmp;
            so.progress = opt.progress;
            so.quiet = opt.quiet;
            so.chunkDone = [&](std::size_t) {
                claims.heartbeat(unit);
            };
            const int rc = runScenarioSweep(*space, so);
            if (rc != 0) {
                std::remove(tmp.c_str());
                if (interruptRequested()) {
                    // Give the unit straight back: a released lease
                    // is immediately claimable, no timeout needed.
                    claims.release(unit);
                    std::cerr << "rcache-sim: interrupted; released "
                                 "'" << unit << "', rerun to "
                                 "continue '" << opt.dir << "'\n";
                    return rc;
                }
                // Leave the lease: it goes stale and a peer (or a
                // rerun) takes the unit over.
                return rc;
            }
            if (RC_FAILPOINT("claim.unit.publish") !=
                    fault::Fire::None ||
                std::rename(tmp.c_str(),
                            claims.path(unit + ".csv").c_str()) != 0)
                return fail("cannot publish '" +
                            claims.path(unit + ".csv") + "'");
            std::string done_err;
            if (!claims.markDone(unit, &done_err))
                return fail(done_err);
            progressed = true;
        }
        bool all_done = true;
        for (unsigned u = 0; u < shards; ++u)
            if (!claims.isDone(sweepUnitName(u)))
                all_done = false;
        if (all_done)
            break;
        if (!progressed)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    }
    if (!opt.quiet)
        std::cerr << "claim: all " << shards << " unit(s) of '" +
                         opt.dir + "' are done\n";
    return 0;
}

int
runSweepMerge(const std::vector<std::string> &inputs,
              const std::string &outPath)
{
    if (inputs.empty())
        return fail("merge needs shard CSVs or a manifest "
                    "directory");

    // A single directory input means "merge this manifest".
    std::vector<std::string> paths = inputs;
    if (inputs.size() == 1 &&
        std::filesystem::is_directory(inputs[0])) {
        std::string err;
        const auto mf = readManifest(inputs[0], &err);
        if (!mf)
            return fail(err);
        if (mf->mode != "sweep")
            return fail("manifest in '" + inputs[0] + "' is a " +
                        mf->mode +
                        " manifest; merge reads sweep manifests");
        const ClaimDir claims(inputs[0], 0);
        paths.clear();
        for (unsigned u = 0; u < mf->shards; ++u) {
            const std::string unit = sweepUnitName(u);
            if (!claims.isDone(unit))
                return fail("unit '" + unit + "' of '" + inputs[0] +
                            "' is not done yet; merge after the "
                            "workers finish");
            paths.push_back(claims.path(unit + ".csv"));
        }
    }

    std::vector<SweepRecord> all;
    for (const std::string &path : paths) {
        std::string err;
        const auto records = readShardCsv(path, &err);
        if (!records)
            return fail(err);
        all.insert(all.end(), records->begin(), records->end());
    }
    std::sort(all.begin(), all.end(),
              [](const SweepRecord &a, const SweepRecord &b) {
                  return a.cell < b.cell;
              });
    // The merged cells must be exactly 0..N-1: a duplicate is a
    // repeated shard, a gap is a missing one. Both are silent-loss
    // bugs if let through, so both are hard errors.
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i].cell == i)
            continue;
        if (i > 0 && all[i].cell == all[i - 1].cell)
            return fail("cell " + std::to_string(all[i].cell) +
                        " appears in more than one input (same "
                        "shard merged twice?)");
        return fail("cell " + std::to_string(i) +
                    " is missing from the inputs (merge wants "
                    "every shard of one scenario)");
    }

    std::ofstream file;
    std::ostream *os = &std::cout;
    if (!outPath.empty()) {
        file.open(outPath, std::ios::binary | std::ios::trunc);
        if (!file)
            return fail("cannot write '" + outPath + "'");
        os = &file;
    }
    const std::string outName =
        outPath.empty() ? "<stdout>" : outPath;
    std::ostringstream out;
    out << sweepCsvHeader() << '\n';
    writeSweepCsvRows(out, all);
    checkedAppend(*os, out.str(), outName, "merge.out.flush");
    return 0;
}

} // namespace rcache
