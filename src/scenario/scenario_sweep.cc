#include "scenario/scenario_sweep.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "scenario/cell_eval.hh"
#include "telemetry/run_telemetry.hh"
#include "telemetry/timeline.hh"
#include "telemetry/trace_events.hh"
#include "util/checked_io.hh"
#include "util/interrupt.hh"
#include "util/logging.hh"

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

} // namespace

int
runScenarioSweep(const ParamSpace &space, const SweepOptions &opt)
{
    const ScenarioSpec &spec = space.spec();

    if (opt.format != "csv" && opt.format != "json" &&
        opt.format != "table")
        return fail("--format wants csv|json|table");
    const bool resuming = !opt.resumePath.empty();
    if (resuming && opt.format != "csv")
        return fail("--resume supports only --format csv");
    if (resuming && !opt.outPath.empty())
        return fail("--resume names the output file itself; drop "
                    "--out");

    std::string apps_err;
    std::vector<AppEntry> apps = resolveApps(spec, &apps_err);
    if (apps.empty())
        return fail(apps_err);

    const std::size_t npoints = space.numPoints();
    const std::size_t ncells = apps.size() * npoints;

    std::vector<std::size_t> owned;
    for (std::size_t c = 0; c < ncells; ++c)
        if (opt.shard.owns(c))
            owned.push_back(c);

    // ---- resume: verify the completed prefix of the prior CSV. A
    // torn final line never ran to completion: it is dropped and its
    // cell recomputed.
    std::size_t skip = 0;
    std::string kept; // raw verified prefix, header included
    const auto complete =
        resuming ? readCompleteLines(opt.resumePath) : std::nullopt;
    if (complete && !complete->empty()) {
        std::istringstream cs(*complete);
        std::string err;
        const auto prior = readSweepCsv(cs, &err);
        if (!prior) {
            // An unparsable prior CSV is damage, not user error:
            // quarantine the evidence and recompute from scratch
            // rather than refusing to run.
            quarantineAndStartFresh(opt.resumePath, err);
        } else {
            if (prior->size() > owned.size())
                return fail("--resume " + opt.resumePath +
                            ": holds more rows than this shard owns "
                            "(wrong scenario or shard?)");
            // Each kept row must be the row this enumeration would
            // write there.
            for (std::size_t i = 0; i < prior->size(); ++i) {
                const std::string why =
                    cellRowMismatch((*prior)[i], space, apps, owned[i]);
                if (!why.empty())
                    return fail("--resume " + opt.resumePath + ": row " +
                                std::to_string(i + 1) + ": " + why +
                                " (wrong scenario or shard?)");
            }
            skip = prior->size();
            kept = *complete;
        }
    }

    if (spec.engine.analytic() &&
        (!opt.timelinePath.empty() || !opt.eventsPath.empty()))
        RC_LOG(warn, "analytic engine: --timeline and --events record "
                     "nothing (analytic cells run no timed "
                     "simulation)");

    // ---- telemetry sidecars (all optional; see SweepOptions). Files
    // open before the first window so an early failure aborts the
    // sweep rather than losing telemetry at the end.
    const bool want_timeline = !opt.timelinePath.empty();
    const bool want_events = !opt.eventsPath.empty();
    std::ofstream timeline_os, events_os;
    if (want_timeline) {
        timeline_os.open(opt.timelinePath,
                         std::ios::binary | std::ios::trunc);
        if (!timeline_os)
            return fail("cannot write '" + opt.timelinePath + "'");
    }
    if (want_events) {
        events_os.open(opt.eventsPath,
                       std::ios::binary | std::ios::trunc);
        if (!events_os)
            return fail("cannot write '" + opt.eventsPath + "'");
    }
    std::ofstream trace_os;
    std::optional<TraceEventRecorder> trace;
    if (!opt.traceEventsPath.empty()) {
        trace_os.open(opt.traceEventsPath,
                      std::ios::binary | std::ios::trunc);
        if (!trace_os)
            return fail("cannot write '" + opt.traceEventsPath + "'");
        trace.emplace();
    }

    SweepRunner runner(opt.jobs);
    if (trace)
        runner.setTrace(&*trace);
    if (opt.progress) {
        runner.setProgress([](std::size_t done, std::size_t total,
                              const RunJob &job) {
            std::cerr << "[" << done << "/" << total << "] "
                      << job.label << '\n';
        });
    }

    // ---- open the report stream up front. CSV rows stream out as
    // their commit unit completes (flushed), so an interrupted sweep
    // leaves every finished unit on disk for --resume; only
    // json/table buffer the whole report.
    const std::string &path =
        resuming ? opt.resumePath : opt.outPath;
    std::ofstream file;
    std::ostream *os = &std::cout;
    if (!path.empty()) {
        file.open(path, std::ios::binary | std::ios::trunc);
        if (!file)
            return fail("cannot write '" + path + "'");
        os = &file;
    }
    const std::string outName = path.empty() ? "<stdout>" : path;
    const bool stream_csv = opt.format == "csv";
    if (stream_csv)
        checkedAppend(*os,
                      kept.empty() ? sweepCsvHeader() + "\n" : kept,
                      outName);

    // ---- execute window by window: each window is one CellBatch
    // whose executed jobs run as one drain, so each stream schedule
    // forms whole lane groups and the workers stay busy across cell
    // and phase boundaries. Its commit units are written and flushed
    // in cell order as they complete. The job memo spans the sweep,
    // so no job runs twice in it.
    JobMemo memo;
    memo.timelineInterval = want_timeline ? opt.timelineInterval : 0;
    memo.resizeEvents = want_events;
    std::vector<SweepRecord> buffered; // json/table only
    std::size_t total_runs = 0;
    std::size_t reused_runs = 0;
    std::size_t committed = skip; // owned cells on disk (or buffered)

    // Runs the jobs a window does not find in the memo, as one drain
    // whatever the engine: an analytic lane group is one pass over its
    // stream that prices every member.
    const auto execute = [&](const std::vector<RunJob> &jobs,
                             const SweepRunner::Finished &finished) {
        std::vector<RunResult> results = runner.drain(jobs, finished);
        total_runs += results.size();
        return results;
    };
    CellBatch::Sink sink;
    // Every laid-out job writes its telemetry rows under its own
    // label, in job order; a memo hit writes those of the run it
    // reuses and marks the trace with a job-memo instant (a span is
    // host time a worker spent, and a hit spends none).
    sink.report = [&](const RunJob &job, const JobRun &run,
                      bool reused) {
        if (reused) {
            ++reused_runs;
            if (trace)
                trace->instant("job-memo", {{"label", job.label}});
        }
        if (!run.telemetry)
            return;
        if (want_timeline) {
            std::ostringstream rec;
            writeTimelineJsonl(rec, run.telemetry->timeline, job.label);
            checkedAppend(timeline_os, rec.str(), opt.timelinePath,
                          "telemetry.timeline.append");
        }
        if (want_events) {
            std::ostringstream rec;
            writeResizeEventsJsonl(rec, run.telemetry->events.events(),
                                   job.label);
            checkedAppend(events_os, rec.str(), opt.eventsPath,
                          "telemetry.events.append");
        }
    };
    // A unit is committed once its rows are written and flushed: the
    // documented resumable boundary for a polite interrupt.
    sink.commit = [&](const CellBatch::Unit &unit) {
        if (trace)
            for (const std::string &label : unit.newBaselineLabels)
                trace->instant("baseline-memo", {{"label", label}});
        if (stream_csv) {
            std::ostringstream rows;
            writeSweepCsvRows(rows, unit.rows);
            checkedAppend(*os, rows.str(), outName, "csv.chunk.flush");
        } else {
            buffered.insert(buffered.end(), unit.rows.begin(),
                            unit.rows.end());
        }
        if (want_timeline)
            checkedFlush(timeline_os, opt.timelinePath);
        if (want_events)
            checkedFlush(events_os, opt.eventsPath);
        committed += unit.rows.size();
        if (trace)
            trace->instant(
                "chunk-flush",
                {{"cells", std::to_string(unit.rows.size())},
                 {"jobs", std::to_string(unit.plannedJobs)}});
    };
    // A polite interrupt, or a heartbeat that says stop, starts no new
    // group: the running ones finish and the units they complete
    // commit.
    bool stopped = false;
    sink.heartbeat = [&] {
        const bool go = !opt.heartbeat || opt.heartbeat();
        stopped = stopped || !go || interruptRequested();
        return !stopped;
    };

    const auto t0 = std::chrono::steady_clock::now();
    std::size_t next = skip;
    while (next < owned.size() && !stopped && !interruptRequested()) {
        CellBatch batch(space, apps, trace.has_value());
        while (next < owned.size() &&
               batch.phase1Jobs() < kSweepWindowJobs) {
            const std::size_t first = next;
            const std::size_t jobs_before = batch.phase1Jobs();
            while (next < owned.size() &&
                   (next == first ||
                    batch.phase1Jobs() - jobs_before < kCommitUnitJobs))
                batch.add(owned[next++], memo);
            batch.cut();
        }
        batch.run(execute, memo, sink);
    }
    // Only a stop leaves owned cells uncommitted. Whether the CSV can
    // be resumed is the caller's to say: a claim unit's is a tmp file.
    if (committed < owned.size()) {
        std::cerr << "rcache-sim: interrupted; " << committed << "/"
                  << owned.size() << " cells committed\n";
        return interruptRequested() ? interruptExitCode() : 1;
    }
    const auto t1 = std::chrono::steady_clock::now();

    if (trace) {
        std::ostringstream out;
        trace->write(out);
        checkedAppend(trace_os, out.str(), opt.traceEventsPath,
                      "telemetry.trace.write");
    }

    if (!stream_csv) {
        if (opt.format == "json")
            writeSweepJson(*os, buffered);
        else
            writeSweepTable(*os, buffered);
        checkedFlush(*os, outName);
    }

    if (!opt.quiet) {
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        std::cerr << "sweep: " << total_runs << " runs in " << secs
                  << " s on " << runner.parallelism()
                  << " worker(s)";
        if (reused_runs)
            std::cerr << " [" << reused_runs << " jobs reused a run]";
        if (opt.shard.sharded())
            std::cerr << " [shard " << opt.shard.str() << ", "
                      << owned.size() - skip << "/" << ncells
                      << " cells]";
        if (skip)
            std::cerr << " [resumed past " << skip << " cells]";
        std::cerr << '\n';
    }
    return 0;
}

int
runScenarioSweep(const ScenarioSpec &spec, const SweepOptions &opt)
{
    std::string err;
    auto space = ParamSpace::build(spec, &err);
    if (!space)
        return fail(err);
    return runScenarioSweep(*space, opt);
}

} // namespace rcache
