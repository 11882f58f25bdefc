#!/usr/bin/env python3
"""End-to-end benchmark of rcache-sim; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an rcache checkout. The first run builds
rcache-sim and the rcache-layers tool into .bench_build/ (Release);
later runs reuse that build.

--trace 0 times untraced `rcache-sim` invocations of the workload at
--jobs 2 for S seconds, each followed by 10 launches of the same
command with no work to do that time its set-up, and reports the
end-to-end metrics. --trace 1 makes one untraced invocation (sweeps: two untraced
and two traced, alternated), re-runs the workload under rcache-layers,
and reports the per-layer metrics. Every output row is checked against
the references. The last line of stdout is the result object; the line
before it carries the run's provenance. Exit status 1 means the
benchmark could not run (no source tree, failed build, bad arguments).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import gen_trace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SIM_BUILD = os.path.join(BUILD, "rcache")
TOOL_BUILD = os.path.join(BUILD, "layers")
SIM = os.path.join(SIM_BUILD, "rcache-sim")
TOOL = os.path.join(TOOL_BUILD, "rcache-layers")

# Half of the 4-core reference box: fig9 spread 5.6-6.2 s at --jobs 2
# against 3.0-3.9 s at --jobs 4.
JOBS = 2
BUILD_JOBS = 4
# A run must end within 180 s once the build is done.
RUN_BUDGET_S = 165
MIN_REPS = 3
# Set-up launches after every full invocation: at least 30 in a run.
SETUP_PER_REP = 10
# An --shard that owns no cell of these scenarios: the sweep parses,
# plans, opens its traces and output, and exits without simulating.
EMPTY_SHARD = "1048575/1048576"
# Seeds of the trace workload with a stored reference CSV.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# sim_insts: timing-core instructions one invocation simulates (the
# runs x insts of a sweep; the decision log's detailed instructions
# for the tune), the work minst_per_worker_s is measured against.
WORKLOADS = {
    "sweep_fig9": {"kind": "sweep", "scenario": "fig9.scn",
                   "sim_insts": 264 * 400000},
    "tune_fig4": {"kind": "tune", "scenario": "fig4_tune.scn",
                  "sim_insts": 54920000},
    "trace_policy_sweep": {"kind": "sweep", "scenario": "trace_policy.scn",
                           "sim_insts": 180 * 200000, "traces": True},
}


class BenchError(Exception):
    pass


# --------------------------------------------------------------- build

def build():
    """Configure and build rcache-sim and rcache-layers (incremental)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no rcache source tree at " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    steps = [
        ["cmake", "-S", ROOT, "-B", SIM_BUILD, "-DCMAKE_BUILD_TYPE=Release",
         "-DRCACHE_BUILD_TESTS=OFF", "-DRCACHE_BUILD_BENCH=OFF",
         "-DRCACHE_BUILD_EXAMPLES=OFF"],
        ["cmake", "--build", SIM_BUILD, "--target", "rcache-sim",
         "-j", str(BUILD_JOBS)],
        ["cmake", "-S", HERE, "-B", TOOL_BUILD, "-DCMAKE_BUILD_TYPE=Release",
         "-DRCACHE_SOURCE_DIR=" + ROOT,
         "-DRCACHE_LIBRARY=" + os.path.join(SIM_BUILD, "librcache.a")],
        ["cmake", "--build", TOOL_BUILD, "-j", str(BUILD_JOBS)],
    ]
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "ab") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("build step failed: %s (log: %s)"
                                 % (" ".join(cmd), log_path))


# ---------------------------------------------------------- provenance

def provenance(args):
    cache = {}
    with open(os.path.join(SIM_BUILD, "CMakeCache.txt")) as f:
        for line in f:
            key, sep, value = line.rstrip("\n").partition("=")
            if sep:
                cache[key.partition(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), "")
    except OSError:
        pass
    git_sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = out.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "jobs": JOBS,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha, "source_sha256": source_digest(),
        "compiler": compiler, "compiler_version": version[0] if version else "",
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": " ".join(x for x in (
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get("CMAKE_CXX_FLAGS_RELEASE", "")) if x),
        "cpu_model": cpu, "nproc": os.cpu_count(),
    }


def source_digest():
    """sha256 over the files that build rcache-sim and the benchmark
    (the checkout the benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", os.path.join("bench", "harness"), "perfbench"):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


# -------------------------------------------------------- invocations

def spawn(cmd, cwd, err_path, deadline):
    """Run @cmd to completion. Returns (exit code, wall s, user+sys
    CPU s, peak RSS MB) of that one process."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


class Workload:
    """One workload's inputs, commands, and reference outputs, inside a
    private work directory."""

    def __init__(self, name, seed, work, deadline):
        self.name = name
        self.spec = WORKLOADS[name]
        self.kind = self.spec["kind"]
        self.scenario = os.path.join(HERE, "scenarios", self.spec["scenario"])
        self.work = work
        self.deadline = deadline
        self.seed = seed
        if self.spec.get("traces"):
            gen_trace.write_streams(seed, work)
        self.reference = self.load_reference()

    def path(self, name):
        return os.path.join(self.work, name)

    def command(self, out, log=None, extra=()):
        cmd = [SIM, self.kind, "--scenario", self.scenario,
               "--jobs", str(JOBS), "--out", out]
        if log:
            cmd += ["--log", log]
        return cmd + list(extra)

    def invoke(self, tag, extra=()):
        """One full invocation; its outputs land in <tag>.*"""
        log = self.path(tag + ".log") if self.kind == "tune" else None
        code, wall, cpu, rss = spawn(
            self.command(self.path(tag + ".csv"), log, extra), self.work,
            self.path(tag + ".err"), self.deadline)
        return {"code": code, "wall": wall, "cpu": cpu, "rss": rss,
                "out": self.path(tag + ".csv"), "log": log}

    def invoke_setup(self, tag, done_log):
        """An invocation with nothing to simulate: a sweep shard owning
        no cell, or a tune resuming a complete decision log."""
        if self.kind == "sweep":
            extra = ["--shard", EMPTY_SHARD]
        else:
            extra = ["--resume", done_log]
        return self.invoke(tag, extra)

    # -- references

    def load_reference(self):
        name = self.name
        if self.spec.get("traces"):
            if self.seed not in (DEFAULT_SEED, HELD_OUT_SEED):
                return self.parallel_reference()
            name += ".seed%d" % self.seed
        with open(os.path.join(HERE, "reference", name + ".csv")) as f:
            return f.read()

    def parallel_reference(self):
        """For a trace seed without a stored reference: the same sweep
        at --jobs 4, whose rows must equal the --jobs 2 rows (the
        runner's parallelism-identity contract)."""
        out = self.path("reference.csv")
        cmd = self.command(out)
        cmd[cmd.index("--jobs") + 1] = "4"
        code, _, _, _ = spawn(cmd, self.work, self.path("reference.err"),
                              self.deadline)
        if code != 0:
            raise BenchError("reference sweep at --jobs 4 exited %d" % code)
        with open(out) as f:
            return f.read()

    def check(self, run):
        """Return (cells expected, cells whose CSV row is missing or
        differs from the reference). A failed invocation fails them
        all."""
        header, *ref = self.reference.splitlines()
        want = rows_by_cell(ref)
        lines = output_lines(run)
        if not lines or lines[0] != header:
            return len(want), len(want)
        got = rows_by_cell(lines[1:])
        bad = sum(1 for cell, row in want.items() if got.get(cell) != row)
        bad += sum(1 for cell in got if cell not in want)
        return len(want), min(len(want), bad)

    def check_setup(self, run):
        """A set-up invocation writes the CSV header alone (sweep) or
        the replayed winner row (tune)."""
        if self.kind == "tune":
            return self.check(run)
        ok = output_lines(run) == self.reference.splitlines()[:1]
        return 1, int(not ok)


def output_lines(run):
    if run["code"] != 0 or not os.path.exists(run["out"]):
        return None
    with open(run["out"]) as f:
        return f.read().splitlines()


def rows_by_cell(lines):
    return {line.split(",", 1)[0]: line for line in lines if line}


# ---------------------------------------------------------- trace 0

def end_to_end(wl, seconds):
    """Alternate one full invocation with SETUP_PER_REP set-up launches
    until @seconds would be exceeded, so both kinds of sample span the
    same stretch of host time."""
    samples, setups = [], []
    attempted = failed = 0
    done_log = None
    start = time.monotonic()
    while True:
        run = wl.invoke("run%d" % len(samples))
        n, bad = wl.check(run)
        attempted += n
        failed += bad
        samples.append(run)
        if wl.kind == "tune" and done_log is None and run["code"] == 0:
            done_log = wl.path("done.jsonl")
            shutil.copyfile(run["log"], done_log)
        for _ in range(SETUP_PER_REP):
            if wl.kind == "tune" and done_log is None:
                # No complete decision log to resume: nothing to time.
                attempted += 1
                failed += 1
                continue
            setup = wl.invoke_setup("setup%d" % len(setups), done_log)
            n, bad = wl.check_setup(setup)
            attempted += n
            failed += bad
            setups.append(setup["wall"])
        typical = (statistics.median(s["wall"] for s in samples)
                   + SETUP_PER_REP * statistics.median(setups or [0.0]))
        elapsed = time.monotonic() - start
        if len(samples) >= MIN_REPS and elapsed + typical > seconds:
            break
        if time.monotonic() + typical > wl.deadline - 5:
            break

    wall = statistics.median(s["wall"] for s in samples)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups or [0.0]),
        "cpu_s": statistics.median(s["cpu"] for s in samples),
        "minst_per_worker_s": wl.spec["sim_insts"] / 1e6 / wall / JOBS,
        "peak_rss_mb": statistics.median(s["rss"] for s in samples),
        "cells_ok_frac": 1.0 - failed / attempted,
    }
    raw = {"walls": [s["wall"] for s in samples],
           "cpus": [s["cpu"] for s in samples],
           "rss_mb": [s["rss"] for s in samples], "setups": setups}
    return attempted, failed, metrics, raw


# ---------------------------------------------------------- trace 1

def per_layer(wl):
    attempted = failed = 0
    untraced = wl.invoke("untraced")
    if untraced["code"] != 0:
        raise BenchError("rcache-sim exited %d" % untraced["code"])
    n, bad = wl.check(untraced)
    attempted, failed = attempted + n, failed + bad

    # Tracing overhead: two untraced and two traced sweeps, alternated.
    events = None
    overhead = 0.0
    if wl.kind == "sweep":
        events_path = wl.path("events.json")
        walls = {False: [untraced["wall"]], True: []}
        for traced in (True, False, True):
            extra = ["--trace-events", events_path] if traced else []
            run = wl.invoke("traced" if traced else "untraced2", extra)
            n, bad = wl.check(run)
            attempted, failed = attempted + n, failed + bad
            walls[traced].append(run["wall"])
        overhead = statistics.mean(walls[True]) - statistics.mean(walls[False])
        if run["code"] == 0:
            with open(events_path) as f:
                events = json.load(f)["traceEvents"]

    spans_path, rows_path = wl.path("spans.jsonl"), wl.path("rows.jsonl")
    cmd = [TOOL, "--scenario", wl.scenario, "--jobs", str(JOBS),
           "--spans", spans_path, "--rows", rows_path]
    if wl.kind == "tune":
        cmd += ["--tune-log", untraced["log"]]
    code, _, _, _ = spawn(cmd, wl.work, wl.path("layers.err"), wl.deadline)
    if code != 0:
        with open(wl.path("layers.err")) as f:
            raise BenchError("rcache-layers exited %d: %s"
                             % (code, f.read()[-2000:]))
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]
    with open(rows_path) as f:
        tool_rows = [json.loads(line) for line in f]

    # The re-run must reproduce the CLI's rows: the sweep CSV, or the
    # decision log's score row for every (round, cell).
    if wl.kind == "sweep":
        with open(untraced["out"]) as f:
            want = {(0, cell): row for cell, row in
                    rows_by_cell(f.read().splitlines()[1:]).items()}
    else:
        with open(untraced["log"]) as f:
            log = [json.loads(line) for line in f]
        want = {(e["round"], str(e["cell"])): e["row"] for e in log
                if e.get("event") == "score"}
    got = {(r["round"], str(r["cell"])): r["row"] for r in tool_rows}
    attempted += len(want)
    failed += min(len(want), sum(1 for k, row in want.items()
                                 if got.get(k) != row)
                  + sum(1 for k in got if k not in want))

    metrics = layer_metrics(spans, events)
    metrics["trace.overhead_s"] = overhead
    detailed = 0.0
    if wl.kind == "tune":
        winner = [e for e in log if e.get("event") == "winner"]
        detailed = winner[0]["detailed_insts"] / 1e6 if winner else 0.0
    metrics["search.detailed_minst"] = detailed
    return attempted, failed, metrics, {}


def dur(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def attr(span, key):
    return span["attrs"].get(key, 0)


def layer_metrics(spans, events):
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    runs = by.get("sim.run", [])
    run_s = sum(dur(s) for s in runs)
    source_s = {}
    for s in runs:
        src = s["attrs"]["source"]
        source_s[src] = source_s.get(src, 0.0) + attr(s, "workload_ns") / 1e9
    workload_s = sum(source_s.values())
    decode_s = workload_s - source_s.get("gen", 0.0)
    construct_s = sum(dur(s) for s in by.get("sim.construct", []))

    def total(key, pick=runs):
        return sum(attr(s, key) for s in pick)

    def ratio(num, den):
        return num / den if den else 0.0

    full = [s for s in runs if s["attrs"]["engine"] == "full"]
    m = {
        "workload.gen_s": source_s.get("gen", 0.0),
        "workload.gen_share": ratio(source_s.get("gen", 0.0), run_s),
        "workload.decode_s.lcs": source_s.get("lcs", 0.0),
        "workload.decode_s.native": source_s.get("native", 0.0),
        "workload.decode_share": ratio(decode_s, run_s),
        "sim.run_s": run_s,
        "sim.construct_s": construct_s,
        "sim.core_self_s": run_s - workload_s,
        "sim.ns_per_inst": ratio(run_s * 1e9, total("insts")),
        "cache.dl1_miss_ratio": ratio(total("dl1_misses"),
                                      total("dl1_accesses")),
        "cache.il1_miss_ratio": ratio(total("il1_misses"),
                                      total("il1_accesses")),
        "cache.l2_miss_ratio": ratio(total("l2_misses"), total("l2_accesses")),
        "cache.dl1_writebacks": total("dl1_writebacks"),
        "cpu.ipc": ratio(total("insts", full), total("cycles", full)),
        "core.resizes": total("resizes"),
        "core.dynamic_run_s": sum(dur(s) for s in runs
                                  if attr(s, "dynamic")),
        "core.static_run_s": sum(dur(s) for s in runs
                                 if not attr(s, "dynamic")),
        "analytic.pass_s": sum(dur(s) for s in by.get("analytic.pass", [])),
        "analytic.price_s": sum(dur(s) for s in by.get("analytic.price", [])),
        "scenario.plan_s": sum(dur(s) for s in by.get("scenario.plan", [])),
    }

    # Isolated replays: median over repetitions of time per operation.
    replays = {}
    for s in by.get("cache.replay", []):
        replays.setdefault(s["attrs"]["policy"], []).append(
            ratio(dur(s) * 1e9, attr(s, "accesses")))
    for policy in ("lru", "random", "fifo", "slru", "wtlfu"):
        m["cache.access_ns." + policy] = statistics.median(replays[policy])
    m["cpu.bpred_ns"] = statistics.median(
        ratio(dur(s) * 1e9, attr(s, "branches"))
        for s in by["cpu.bpred_replay"])

    rounds = {s["attrs"]["engine"]: s for s in by.get("search.round", [])}
    for engine in ("analytic", "sampled", "full"):
        r = rounds.get(engine)
        m["search.round_s." + engine] = dur(r) if r else 0.0
        m["search.cells_per_round." + engine] = attr(r, "cells") if r else 0
    m.update(runner_metrics(events))
    # How much of the CLI's own job span time the tool's in-run split
    # (workload + core self + construct) explains. The two come from
    # different processes, so this is not 1 by construction.
    m["sim.accounted_share"] = ratio(run_s + construct_s,
                                     m["runner.busy_s"])
    return m


def runner_metrics(events):
    """Runner spans of the traced CLI sweep (tune records none)."""
    names = ("runner.jobs", "runner.worker_util", "runner.idle_s",
             "runner.busy_s", "runner.job_ms_p50", "runner.job_ms_max",
             "runner.memo_hits", "runner.chunks")
    jobs = [e for e in events or [] if e["ph"] == "X"]
    if not jobs:
        return dict.fromkeys(names, 0.0)
    start = min(e["ts"] for e in jobs)
    extent = (max(e["ts"] + e["dur"] for e in jobs) - start) / 1e6
    busy = sum(e["dur"] for e in jobs) / 1e6
    instants = [e for e in events if e["ph"] == "i"]
    cells = sum(int(e["args"]["cells"]) for e in instants
                if e["name"] == "chunk-flush")
    new_baselines = sum(1 for e in instants if e["name"] == "baseline-memo")
    durations = [e["dur"] / 1e3 for e in jobs]
    return {
        "runner.jobs": len(jobs),
        "runner.worker_util": busy / (JOBS * extent) if extent else 0.0,
        "runner.idle_s": JOBS * extent - busy,
        "runner.busy_s": busy,
        "runner.job_ms_p50": statistics.median(durations),
        "runner.job_ms_max": max(durations),
        "runner.memo_hits": cells - new_baselines,
        "runner.chunks": sum(1 for e in instants if e["name"] == "chunk-flush"),
    }


# --------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    prov = provenance(args)

    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed,
                                                    os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = Workload(args.workload, args.seed, work, deadline)
        if args.trace:
            attempted, failed, metrics, raw = per_layer(wl)
        else:
            attempted, failed, metrics, raw = end_to_end(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"provenance": prov, "raw": raw}
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d-%d.json" % (
            args.workload, args.seed, args.trace, time.time_ns())), "w") as f:
        json.dump(dict(record, result=result), f, indent=1)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
