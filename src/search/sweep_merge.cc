#include "search/sweep_merge.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "runner/claim.hh"
#include "scenario/scenario_sweep.hh"
#include "util/checked_io.hh"
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

} // namespace

std::optional<std::vector<SweepRecord>>
readShardCsvs(const std::vector<std::string> &paths, std::string *err)
{
    std::vector<SweepRecord> all;
    for (const std::string &path : paths) {
        std::ifstream is(path, std::ios::binary);
        if (!is) {
            *err = path + ":1: cannot open";
            return std::nullopt;
        }
        std::string csv_err;
        const auto records = readSweepCsv(is, &csv_err);
        if (!records) {
            *err = remapCsvError(path, csv_err);
            return std::nullopt;
        }
        all.insert(all.end(), records->begin(), records->end());
    }
    std::sort(all.begin(), all.end(),
              [](const SweepRecord &a, const SweepRecord &b) {
                  return a.cell < b.cell;
              });
    return all;
}

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

    // ---- drain units: unit u sweeps shard u/N into its CSV
    std::vector<std::string> units;
    for (unsigned u = 0; u < mf->shards; ++u)
        units.push_back(sweepUnitName(u));
    const int rc = drainClaimUnits(
        ClaimDir(opt.dir, opt.leaseTimeoutSecs), units,
        [&](std::size_t u, const std::string &tmp,
            const std::function<bool()> &heartbeat) {
            SweepOptions so;
            so.jobs = opt.jobs;
            so.shard = ShardSpec{static_cast<unsigned>(u), mf->shards};
            so.outPath = tmp;
            so.progress = opt.progress;
            so.quiet = opt.quiet;
            so.heartbeat = heartbeat;
            return runScenarioSweep(*space, so);
        });
    if (rc == 0 && !opt.quiet)
        std::cerr << "claim: all " << mf->shards << " unit(s) of '"
                  << opt.dir << "' are done\n";
    return rc;
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

    std::string read_err;
    const auto records = readShardCsvs(paths, &read_err);
    if (!records)
        return fail(read_err);
    const std::vector<SweepRecord> &all = *records;
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
