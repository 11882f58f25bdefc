/** @file
 * Tests for the scenario sweep engine: shard-union and resume
 * identities, the polite-interrupt contract, consistency with a
 * hand-reduced Experiment job batch, and the CellBatch layout that
 * sweeps, tunes and benches evaluate cells through.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "scenario/cell_eval.hh"
#include "scenario/scenario_sweep.hh"
#include "sim/experiment.hh"
#include "util/interrupt.hh"

namespace rcache
{

namespace
{

/** Small but non-trivial space: 2 apps x (org x strategy) = 8 cells,
 *  short runs. */
ScenarioSpec
smallSpec()
{
    std::string err;
    auto spec = ScenarioSpec::parseText(R"([scenario]
name = sweep-test
insts = 20000

[workloads]
apps = ammp,gcc

[axes]
org = ways,sets
strategy = static,dynamic

[search]
intervals = 1024
miss-fractions = 0.01
size-fractions = 0,1
)",
                                        "sweep-test.scn", &err);
    EXPECT_TRUE(spec) << err;
    return *spec;
}

std::string
pathIn(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

SweepOptions
csvTo(const std::string &path)
{
    SweepOptions opt;
    opt.outPath = path;
    opt.quiet = true;
    return opt;
}

} // namespace

TEST(ScenarioSweepTest, ShardUnionEqualsFullSweep)
{
    const ScenarioSpec spec = smallSpec();

    ASSERT_EQ(runScenarioSweep(spec, csvTo(pathIn("full.csv"))), 0);
    const std::string full = slurp(pathIn("full.csv"));

    SweepOptions s0 = csvTo(pathIn("s0.csv"));
    s0.shard = ShardSpec{0, 2};
    SweepOptions s1 = csvTo(pathIn("s1.csv"));
    s1.shard = ShardSpec{1, 2};
    ASSERT_EQ(runScenarioSweep(spec, s0), 0);
    ASSERT_EQ(runScenarioSweep(spec, s1), 0);

    // Contiguous ranges: shard 0 holds the first half of the cells,
    // shard 1 the rest, so the merge is the header and both shards'
    // rows in shard order.
    const std::string s0_csv = slurp(pathIn("s0.csv"));
    const std::string s1_csv = slurp(pathIn("s1.csv"));
    const std::string header = sweepCsvHeader() + "\n";
    ASSERT_EQ(s0_csv.rfind(header, 0), 0u);
    ASSERT_EQ(s1_csv.rfind(header, 0), 0u);
    EXPECT_EQ(s0_csv + s1_csv.substr(header.size()), full);
    EXPECT_NE(s0_csv, header);
    EXPECT_NE(s1_csv, header);
}

TEST(ScenarioSweepTest, ResumeAfterTruncatedCsvIsByteIdentical)
{
    const ScenarioSpec spec = smallSpec();
    ASSERT_EQ(runScenarioSweep(spec, csvTo(pathIn("ref.csv"))), 0);
    const std::string full = slurp(pathIn("ref.csv"));

    // Chop mid-row (simulating a kill during the final write): the
    // partial row must be recomputed, the complete prefix reused.
    const std::string truncated = full.substr(0, full.size() - 10);
    ASSERT_NE(truncated.back(), '\n');
    {
        std::ofstream out(pathIn("resume.csv"), std::ios::binary);
        out << truncated;
    }
    SweepOptions opt;
    opt.resumePath = pathIn("resume.csv");
    opt.quiet = true;
    ASSERT_EQ(runScenarioSweep(spec, opt), 0);
    EXPECT_EQ(slurp(pathIn("resume.csv")), full);

    // Resuming a complete file is a no-op rewrite.
    ASSERT_EQ(runScenarioSweep(spec, opt), 0);
    EXPECT_EQ(slurp(pathIn("resume.csv")), full);
}

TEST(ScenarioSweepTest, ResumeRejectsMismatchedEnumeration)
{
    const ScenarioSpec spec = smallSpec();
    ASSERT_EQ(runScenarioSweep(spec, csvTo(pathIn("mis.csv"))), 0);

    // The same file under a different shard does not line up.
    SweepOptions opt;
    opt.resumePath = pathIn("mis.csv");
    opt.shard = ShardSpec{1, 2};
    opt.quiet = true;
    EXPECT_EQ(runScenarioSweep(spec, opt), 2);

    // Nor does a scenario whose axes enumerate different
    // coordinates: every kept row's design-point coordinates are
    // verified, not just its cell index.
    ScenarioSpec reordered = spec;
    reordered.axes[0].values = {"sets", "ways"};
    SweepOptions plain;
    plain.resumePath = pathIn("mis.csv");
    plain.quiet = true;
    EXPECT_EQ(runScenarioSweep(reordered, plain), 2);

    // Nor does one that runs its cells at another engine or under
    // another replacement policy: the engine and policy columns are
    // checked too, and the refused CSV stays as it was.
    const std::string before = slurp(pathIn("mis.csv"));
    ScenarioSpec sampled = spec;
    sampled.engine = EngineSpec::makeSampled(
        5000, SamplingConfig::defaultDetail(5000),
        SamplingConfig::defaultWarmup(5000));
    ScenarioSpec random = spec;
    random.system.policy = "random";
    for (const ScenarioSpec *other : {&sampled, &random}) {
        testing::internal::CaptureStderr();
        EXPECT_EQ(runScenarioSweep(*other, plain), 2);
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find(other == &sampled ? "engine 'full'"
                                             : "policy 'lru'"),
                  std::string::npos)
            << err;
        EXPECT_EQ(slurp(pathIn("mis.csv")), before);
    }
}

TEST(ScenarioSweepTest, AnyRowBoundaryPrefixResumesIdentically)
{
    // The crash-safety contract behind chunked streaming: a run
    // interrupted at any row boundary leaves a file --resume can
    // rebuild byte-identically.
    const ScenarioSpec spec = smallSpec();
    ASSERT_EQ(runScenarioSweep(spec, csvTo(pathIn("chunk.csv"))), 0);
    const std::string full = slurp(pathIn("chunk.csv"));

    // Cut after each row boundary in turn and resume; every prefix
    // must rebuild the identical file.
    std::size_t nl = full.find('\n');
    while ((nl = full.find('\n', nl + 1)) != std::string::npos) {
        {
            std::ofstream out(pathIn("chunk.csv"),
                              std::ios::binary | std::ios::trunc);
            out << full.substr(0, nl + 1);
        }
        SweepOptions opt;
        opt.resumePath = pathIn("chunk.csv");
        opt.quiet = true;
        ASSERT_EQ(runScenarioSweep(spec, opt), 0);
        ASSERT_EQ(slurp(pathIn("chunk.csv")), full);
    }
}

TEST(ScenarioSweepTest, PoliteInterruptCommitsWholeUnitsAndResumes)
{
    // Six apps, one lane group per app at --jobs 2. At full detail an
    // app is 8 cells of 32 phase-1 jobs in all (4 policies x 2 orgs,
    // a baseline and the static levels per cell): three commit units
    // of two apps. At the analytic engine an app is 6 cells of 71 jobs
    // (2 associativities x 3 orgs): one pass, and one commit unit.
    const char *const timed = R"([scenario]
name = interrupt-test
insts = 4000

[workloads]
apps = ammp,gcc,swim,m88ksim,vpr,compress

[axes]
policy = lru,random,fifo,slru
org = ways,sets

[search]
strategy = static
side = dcache
)";
    const char *const analytic = R"([scenario]
name = interrupt-test
insts = 4000

[engine]
mode = analytic

[workloads]
apps = ammp,gcc,swim,m88ksim,vpr,compress

[axes]
assoc = 8,16
org = ways,sets,hybrid

[search]
strategy = static
side = dcache
)";
    struct Case
    {
        const char *text;
        std::size_t units;
        std::size_t cells;
    };
    for (const Case &c : {Case{timed, 3, 48}, Case{analytic, 6, 36}}) {
        std::string err;
        const auto spec =
            ScenarioSpec::parseText(c.text, "interrupt-test.scn", &err);
        ASSERT_TRUE(spec) << err;
        SCOPED_TRACE(engineArg(spec->engine));
        constexpr unsigned kJobs = 2;

        // The undisturbed run, and its commit-unit boundaries in rows.
        SweepOptions ref = csvTo(pathIn("intr_ref.csv"));
        ref.jobs = kJobs;
        ref.traceEventsPath = pathIn("intr_ref.json");
        ASSERT_EQ(runScenarioSweep(*spec, ref), 0);
        const std::string full = slurp(pathIn("intr_ref.csv"));
        std::set<std::size_t> bounds{0};
        const std::string trace = slurp(pathIn("intr_ref.json"));
        const std::regex flush(
            R"re("name":"chunk-flush"[^}]*"cells":"(\d+)")re");
        std::size_t rows = 0;
        for (std::sregex_iterator it(trace.begin(), trace.end(), flush),
             end;
             it != end; ++it)
            bounds.insert(rows += std::stoul((*it)[1]));
        ASSERT_EQ(bounds.size(), c.units + 1) << "commit units";
        ASSERT_EQ(*bounds.rbegin(), c.cells);

        // A child sweep raises SIGINT from its heartbeat after the
        // first finished group and counts the heartbeats (finished
        // groups) after it.
        const std::string out = pathIn("intr.csv");
        const std::string after_path = pathIn("intr.after");
        std::remove(out.c_str());
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            installInterruptHandlers();
            SweepOptions opt = csvTo(out);
            opt.jobs = kJobs;
            int after = -1;
            opt.heartbeat = [&] {
                if (after++ < 0)
                    std::raise(SIGINT);
            };
            const int rc = runScenarioSweep(*spec, opt);
            std::ofstream(after_path) << after;
            std::_Exit(rc);
        }
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 130);
        int after = -1;
        std::ifstream(after_path) >> after;
        EXPECT_GE(after, 0);
        EXPECT_LE(after, static_cast<int>(kJobs) - 1)
            << "groups finished after the signal";

        // The CSV is a prefix of the undisturbed one that ends on a
        // unit.
        const std::string part = slurp(out);
        ASSERT_EQ(full.compare(0, part.size(), part), 0);
        const std::size_t lines = std::count(part.begin(), part.end(), '\n');
        ASSERT_GE(lines, 1u) << "the header";
        EXPECT_TRUE(bounds.count(lines - 1)) << lines - 1 << " rows";
        EXPECT_LT(lines - 1, c.cells);

        SweepOptions resume;
        resume.resumePath = out;
        resume.jobs = kJobs;
        resume.quiet = true;
        ASSERT_EQ(runScenarioSweep(*spec, resume), 0);
        EXPECT_EQ(slurp(out), full);
    }
}

TEST(ScenarioSweepTest, InterruptDuringSetUpStartsNoGroup)
{
    // A signal that arrives before the first window (while the sweep
    // verifies a resume or opens its outputs) starts no lane group:
    // the sweep exits 130 with the header alone on disk.
    std::string err;
    const auto spec = ScenarioSpec::parseText(R"([scenario]
name = setup-interrupt
insts = 4000

[workloads]
apps = ammp,gcc

[search]
org = sets
strategy = static
side = dcache
)",
                                              "setup-interrupt.scn", &err);
    ASSERT_TRUE(spec) << err;
    const std::string out = pathIn("setup_intr.csv");
    std::remove(out.c_str());
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        installInterruptHandlers();
        std::raise(SIGINT);
        SweepOptions opt = csvTo(out);
        opt.jobs = 2;
        bool beat = false;
        opt.heartbeat = [&] { beat = true; };
        const int rc = runScenarioSweep(*spec, opt);
        std::_Exit(beat ? 1 : rc); // a heartbeat means a group ran
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 130);
    EXPECT_EQ(slurp(out), sweepCsvHeader() + "\n");
}

TEST(ScenarioSweepTest, RecordsMatchExperimentSearches)
{
    // One axis-free cell must agree exactly with the Experiment
    // vocabulary it is laid out with.
    std::string err;
    auto spec = ScenarioSpec::parseText(R"([scenario]
name = consistency
insts = 20000

[workloads]
apps = ammp

[search]
org = sets
strategy = static
side = dcache
)",
                                        "consistency.scn", &err);
    ASSERT_TRUE(spec) << err;
    ASSERT_EQ(runScenarioSweep(*spec, csvTo(pathIn("one.csv"))), 0);

    std::istringstream csv(slurp(pathIn("one.csv")));
    auto records = readSweepCsv(csv, &err);
    ASSERT_TRUE(records) << err;
    ASSERT_EQ(records->size(), 1u);
    const SweepRecord &r = records->front();

    // Reference: the cell's jobs laid out by hand, run serially, and
    // reduced with the same vocabulary.
    const Experiment exp(SystemConfig::base(), 20000);
    const BenchmarkProfile ammp = profileByName("ammp");
    std::vector<RunJob> jobs{exp.baselineJob(ammp)};
    const auto levels = exp.searchJobs(ammp, CacheSide::DCache,
                                       Organization::SelectiveSets,
                                       Strategy::Static);
    jobs.insert(jobs.end(), levels.begin(), levels.end());
    const std::vector<RunResult> results = SweepRunner::runSerial(jobs);
    const SearchOutcome out = Experiment::reduceSearch(
        results.front(),
        exp.searchCandidates(CacheSide::DCache,
                             Organization::SelectiveSets,
                             Strategy::Static),
        {results.begin() + 1, results.end()});
    EXPECT_EQ(r.cell, 0u);
    EXPECT_EQ(r.app, "ammp");
    EXPECT_EQ(r.axes, "");
    EXPECT_EQ(r.bestLevel, out.bestLevel);
    EXPECT_DOUBLE_EQ(r.edReductionPct, out.edReductionPct());
    EXPECT_DOUBLE_EQ(r.baselineEdp, out.baseline.edp());
    EXPECT_EQ(r.bestCycles, out.best.cycles);
}

TEST(ScenarioSweepTest, BothSideCellsRunTheCombinedPoint)
{
    std::string err;
    auto spec = ScenarioSpec::parseText(R"([scenario]
name = both
insts = 20000

[workloads]
apps = m88ksim

[search]
org = sets
strategy = static
side = both
)",
                                        "both.scn", &err);
    ASSERT_TRUE(spec) << err;
    ASSERT_EQ(runScenarioSweep(*spec, csvTo(pathIn("both.csv"))), 0);
    std::istringstream csv(slurp(pathIn("both.csv")));
    auto records = readSweepCsv(csv, &err);
    ASSERT_TRUE(records) << err;
    ASSERT_EQ(records->size(), 1u);
    const SweepRecord &r = records->front();
    EXPECT_EQ(r.side, "both");
    // Both caches shrank (m88ksim has slack on both sides).
    EXPECT_LT(r.avgIl1Bytes + r.avgDl1Bytes, 2 * 32 * 1024.0);
    EXPECT_GT(r.sizeReductionPct, 0.0);
}

TEST(CellBatchTest, MemoizesBaselinesAndCountsPhaseTwo)
{
    std::string err;
    auto spec = ScenarioSpec::parseText(R"([scenario]
name = batch
insts = 20000

[workloads]
apps = m88ksim

[axes]
side = dcache,icache,both

[search]
org = sets
strategy = static
)",
                                        "batch.scn", &err);
    ASSERT_TRUE(spec) << err;
    const auto space = ParamSpace::build(*spec, &err);
    ASSERT_TRUE(space) << err;
    const std::vector<AppEntry> apps = resolveApps(*spec, &err);
    SweepRunner runner(1);
    std::size_t executed = 0;
    const auto execute = [&](const std::vector<RunJob> &jobs,
                             const SweepRunner::Finished &finished) {
        std::vector<RunResult> results = runner.drain(jobs, finished);
        executed += results.size();
        return results;
    };
    const auto csvOf = [](const std::vector<SweepRecord> &rows) {
        std::ostringstream os;
        writeSweepCsvRows(os, rows);
        return os.str();
    };

    // The three side cells share one baseline; the both cell lays out
    // both sides' static sweeps again and adds one phase-2 job. The
    // layout stays logical, but only the phase-2 job is new work: the
    // per-side sweeps are memo hits on the dcache and icache cells.
    JobMemo memo;
    CellBatch whole(*space, apps);
    whole.add(0, memo);
    whole.add(1, memo);
    const std::size_t single_sides = whole.phase1Jobs();
    whole.add(2, memo);
    EXPECT_EQ(whole.phase1Jobs(), 2 * single_sides - 1);
    std::size_t reported = 0, reused = 0;
    std::vector<CellBatch::Unit> units;
    CellBatch::Sink sink;
    sink.report = [&](const RunJob &, const JobRun &, bool hit) {
        ++reported;
        reused += hit;
    };
    sink.commit = [&](const CellBatch::Unit &unit) {
        units.push_back(unit);
    };
    const std::vector<SweepRecord> rows = whole.run(execute, memo, sink);
    ASSERT_EQ(rows.size(), 3u);
    ASSERT_EQ(units.size(), 1u);
    EXPECT_EQ(units[0].plannedJobs, whole.phase1Jobs() + 1);
    EXPECT_EQ(units[0].newBaselineLabels,
              std::vector<std::string>{"m88ksim/baseline"});
    EXPECT_EQ(executed, single_sides + 1);
    EXPECT_EQ(reported, units[0].plannedJobs);
    EXPECT_EQ(reused, units[0].plannedJobs - executed);
    EXPECT_EQ(memo.runs.size(), executed);

    // Over the warm memo a one-cell batch lays out no baseline, runs
    // nothing, and reports the same row.
    for (std::size_t cell = 0; cell < rows.size(); ++cell) {
        CellBatch one(*space, apps);
        one.add(cell, memo);
        executed = 0;
        units.clear();
        EXPECT_EQ(csvOf(one.run(execute, memo, sink)),
                  csvOf({rows[cell]}));
        EXPECT_EQ(executed, 0u);
        ASSERT_EQ(units.size(), 1u);
        EXPECT_TRUE(units[0].newBaselineLabels.empty());
    }
}

TEST(CellBatchTest, RepeatedCombinedJobRunsOnce)
{
    std::string err;
    auto spec = ScenarioSpec::parseText(R"([scenario]
name = batch
insts = 20000

[workloads]
apps = m88ksim

[search]
org = sets
strategy = static
side = both
)",
                                        "batch.scn", &err);
    ASSERT_TRUE(spec) << err;
    const auto space = ParamSpace::build(*spec, &err);
    ASSERT_TRUE(space) << err;
    const std::vector<AppEntry> apps = resolveApps(*spec, &err);

    // The same side=both cell twice, in two commit units: both wait
    // on the same per-side sweeps, so one group's finish readies
    // them together. The first releases the combined job; the second
    // finds it running and waits on that run.
    for (const unsigned workers : {1u, 2u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        const SweepRunner runner(workers);
        std::set<std::string> ran;
        std::size_t executed = 0, released = 0;
        const auto execute = [&](const std::vector<RunJob> &jobs,
                                 const SweepRunner::Finished &finished) {
            for (const RunJob &job : jobs)
                EXPECT_TRUE(ran.insert(jobKey(job)).second);
            std::vector<RunResult> results = runner.drain(
                jobs, [&](const std::vector<std::size_t> &group,
                          const std::vector<RunResult> &res,
                          std::vector<RunJob> &release) {
                    const bool go = finished(group, res, release);
                    for (const RunJob &job : release) {
                        EXPECT_TRUE(ran.insert(jobKey(job)).second)
                            << job.label << " released twice";
                        ++released;
                    }
                    return go;
                });
            executed += results.size();
            return results;
        };

        JobMemo memo;
        CellBatch batch(*space, apps);
        batch.add(0, memo);
        batch.cut();
        batch.add(0, memo);
        std::vector<std::size_t> committed;
        std::size_t planned = 0, reported = 0, reused = 0;
        CellBatch::Sink sink;
        sink.report = [&](const RunJob &, const JobRun &, bool hit) {
            ++reported;
            reused += hit;
        };
        sink.commit = [&](const CellBatch::Unit &unit) {
            committed.push_back(unit.rows.size());
            planned += unit.plannedJobs;
        };
        const std::vector<SweepRecord> rows = batch.run(execute, memo, sink);
        ASSERT_EQ(rows.size(), 2u);
        EXPECT_EQ(rows[0].bestEdp, rows[1].bestEdp);
        EXPECT_EQ(committed, (std::vector<std::size_t>{1, 1}));
        EXPECT_EQ(planned, batch.phase1Jobs() + 2);
        EXPECT_EQ(released, 1u);
        EXPECT_EQ(executed, memo.runs.size());
        EXPECT_EQ(executed, ran.size());
        EXPECT_EQ(reported, planned);
        EXPECT_EQ(reused, planned - executed);
    }
}

} // namespace rcache
