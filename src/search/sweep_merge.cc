#include "search/sweep_merge.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "util/checked_io.hh"
#include "util/interrupt.hh"

namespace rcache
{

namespace
{

/** Read the sweep CSV @p path strictly, rows in file order. */
std::optional<std::vector<SweepRecord>>
readCsvFile(const std::string &path, std::string *err)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        *err = path + ":1: cannot open";
        return std::nullopt;
    }
    auto records = readSweepCsv(is, err);
    if (!records)
        *err = path + ":" + *err;
    return records;
}

/** Write the merged report: the header, then @p rows. */
int
writeReport(const std::vector<SweepRecord> &rows,
            const std::string &outPath)
{
    std::ofstream file;
    std::ostream *os = &std::cout;
    if (!outPath.empty()) {
        file.open(outPath, std::ios::binary | std::ios::trunc);
        if (!file)
            return refuse("cannot write '" + outPath + "'");
        os = &file;
    }
    const std::string outName = outPath.empty() ? "<stdout>" : outPath;
    std::ostringstream out;
    writeSweepCsv(out, rows);
    checkedAppend(*os, out.str(), outName, "merge.out.flush");
    return 0;
}

} // namespace

std::optional<ManifestScenario>
manifestScenario(const std::string &dir, const ManifestInfo &info,
                 std::string *err)
{
    const std::string scn = dir + "/MANIFEST.scn";
    const auto spec = ScenarioSpec::parseText(info.scenarioText, scn, err);
    if (!spec)
        return std::nullopt;
    std::string why;
    auto space = ParamSpace::build(*spec, &why);
    std::vector<AppEntry> apps;
    if (space)
        apps = resolveApps(*spec, &why);
    if (apps.empty()) {
        *err = scn + ": " + why;
        return std::nullopt;
    }
    return ManifestScenario{std::move(*space), std::move(apps)};
}

std::optional<std::vector<SweepRecord>>
readClaimUnit(const std::string &path, const ParamSpace &space,
              const std::vector<AppEntry> &apps,
              const std::vector<std::size_t> *cells,
              const EngineSpec *engine, std::string *err)
{
    auto rows = readCsvFile(path, err);
    if (!rows)
        return std::nullopt;
    std::vector<std::size_t> own;
    if (!cells) {
        for (const SweepRecord &row : *rows)
            own.push_back(row.cell);
        cells = &own;
    }
    // Row k sits on line k + 2, under the header.
    std::string why;
    const std::size_t k =
        firstForeignRow(*rows, space, apps, *cells, engine, &why);
    if (k < rows->size()) {
        *err = path + ":" + std::to_string(k + 2) + ": " +
               (k < cells->size()
                    ? "cell " + std::to_string((*cells)[k]) + ": "
                    : "") +
               why;
        return std::nullopt;
    }
    if (rows->size() < cells->size()) {
        *err = path + ":" + std::to_string(rows->size() + 2) + ": cell " +
               std::to_string((*cells)[rows->size()]) +
               " is missing (the unit holds " +
               std::to_string(cells->size()) + " cell(s))";
        return std::nullopt;
    }
    return rows;
}

std::optional<std::vector<SweepRecord>>
readClaimRound(const ClaimDir &claims,
               const std::vector<std::string> &units,
               const ParamSpace &space, const std::vector<AppEntry> &apps,
               const std::vector<std::size_t> &cells,
               const EngineSpec *engine, std::string *err)
{
    std::vector<SweepRecord> all;
    all.reserve(cells.size());
    for (std::size_t u = 0; u < units.size(); ++u) {
        const std::vector<std::size_t> mine =
            ShardSpec{u, units.size()}.take(cells);
        const auto rows =
            readClaimUnit(claims.path(units[u] + ".csv"), space, apps,
                          &mine, engine, err);
        if (!rows)
            return std::nullopt;
        all.insert(all.end(), rows->begin(), rows->end());
    }
    return all;
}

int
claimRound(const ClaimDir &claims, const std::vector<std::string> &units,
           const ParamSpace &space, const std::vector<AppEntry> &apps,
           const std::vector<std::size_t> &cells,
           const EngineSpec *engine, unsigned jobs,
           std::vector<SweepRecord> &records)
{
    const int rc = drainClaimUnits(
        claims, units,
        [&](std::size_t u, const std::string &tmp,
            const std::function<bool()> &heartbeat) {
            const std::vector<std::size_t> mine =
                ShardSpec{u, units.size()}.take(cells);
            const std::vector<SweepRecord> rows =
                evaluateCells(space, apps, mine, jobs, engine, heartbeat);
            if (rows.size() < mine.size())
                return interruptExitCode(); // the heartbeat stopped it
            std::ostringstream text;
            writeSweepCsv(text, rows);
            std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
            checkedAppend(os, text.str(), tmp);
            return 0;
        });
    if (rc != 0)
        return rc;
    std::string err;
    auto all = readClaimRound(claims, units, space, apps, cells, engine,
                              &err);
    if (!all)
        return refuse(err);
    records = std::move(*all);
    return 0;
}

int
runClaimSweep(const std::optional<ScenarioSpec> &spec,
              const ClaimSweepOptions &opt)
{
    // Each trace opens once, before any claim: a worker that carries
    // the scenario checks it before it creates or joins the manifest,
    // a joiner checks the manifest's.
    std::string err;
    if (spec && !preflightTraces(*spec, &err))
        return refuse(err);
    const auto mf = openManifest(
        opt.dir, "sweep",
        spec ? std::optional<std::string>(spec->printToString())
             : std::nullopt,
        opt.shards, &err);
    if (!mf)
        return refuse(err);
    const auto scn = manifestScenario(opt.dir, *mf, &err);
    if (!scn)
        return refuse(err);
    if (!spec && !preflightTraces(scn->space.spec(), &err))
        return refuse(err);

    // One round over every cell: unit u of N is shard_u.
    std::vector<std::string> units;
    for (unsigned u = 0; u < mf->shards; ++u)
        units.push_back(sweepUnitName(u));
    std::vector<SweepRecord> records;
    const int rc = claimRound(ClaimDir(opt.dir, opt.leaseTimeoutSecs),
                              units, scn->space, scn->apps,
                              allCells(scn->space, scn->apps), nullptr,
                              opt.jobs, records);
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
        return refuse("merge needs shard CSVs or a manifest "
                      "directory");

    // A single directory input means "merge this manifest": its units
    // read back against its own scenario.
    if (inputs.size() == 1 &&
        std::filesystem::is_directory(inputs[0])) {
        const std::string &dir = inputs[0];
        std::string err;
        const auto mf = readManifest(dir, &err);
        if (!mf)
            return refuse(err);
        if (mf->mode != "sweep")
            return refuse("manifest in '" + dir + "' is a " + mf->mode +
                          " manifest; merge reads sweep manifests");
        const ClaimDir claims(dir, 0);
        std::vector<std::string> units;
        for (unsigned u = 0; u < mf->shards; ++u) {
            units.push_back(sweepUnitName(u));
            if (!claims.isDone(units.back()))
                return refuse("unit '" + units.back() + "' of '" + dir +
                              "' is not done yet; merge after the "
                              "workers finish");
        }
        const auto scn = manifestScenario(dir, *mf, &err);
        if (!scn)
            return refuse(err);
        const auto rows = readClaimRound(
            claims, units, scn->space, scn->apps,
            allCells(scn->space, scn->apps), nullptr, &err);
        if (!rows)
            return refuse(err);
        return writeReport(*rows, outPath);
    }

    std::vector<SweepRecord> all;
    for (const std::string &path : inputs) {
        std::string err;
        const auto rows = readCsvFile(path, &err);
        if (!rows)
            return refuse(err);
        all.insert(all.end(), rows->begin(), rows->end());
    }
    std::sort(all.begin(), all.end(),
              [](const SweepRecord &a, const SweepRecord &b) {
                  return a.cell < b.cell;
              });
    // The merged cells must be exactly 0..k-1: a duplicate is a
    // repeated shard, a gap a missing one, and both are hard errors.
    // Without a manifest nothing here knows the scenario's cell count,
    // so missing trailing shards leave no gap; `merge DIR` sees them.
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i].cell == i)
            continue;
        if (i > 0 && all[i].cell == all[i - 1].cell)
            return refuse("cell " + std::to_string(all[i].cell) +
                          " appears in more than one input (same "
                          "shard merged twice?)");
        return refuse("cell " + std::to_string(i) +
                      " is missing from the inputs (merge wants "
                      "every shard of one scenario)");
    }
    return writeReport(all, outPath);
}

} // namespace rcache
