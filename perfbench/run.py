#!/usr/bin/env python3
"""perfbench: the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a checkout. The first run builds the tier-1 targets
(`cmake -B build -S .`, targets lcl, lclbench, lcld) and the tool
package perfbench/ against build/liblcl.a, into .bench_build/.

--trace 0 measures the shipped binaries untraced for --seconds seconds
and reports the end-to-end metrics; --trace 1 makes one traced pass and
reports the per-layer metrics. Every run checks the outputs. Human-readable
lines go to stdout first; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A fuller record, with
provenance and sample counts, is written to .bench_build/results/.
"""

import argparse
import contextlib
import json
import math
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import loadtrace  # noqa: E402

BUILD = os.path.join(ROOT, "build")
WORK = os.path.join(ROOT, ".bench_build")
LCLPERF = os.path.join(WORK, "perfbench", "lclperf")
LCLBENCH = os.path.join(BUILD, "lclbench")
LCLD = os.path.join(BUILD, "lcld")

# --- workloads ---------------------------------------------------------------

ENGINE_SOLVERS = ["generic_hier_25", "generic_hier_35", "rake_compress",
                  "level_peeling", "random_coloring", "weight_aug"]
PRECOMPUTE_SOLVERS = ["apoly", "dfree_a", "pi35", "bw_generic",
                      "hier_labeling"]
ALL_SOLVERS = ENGINE_SOLVERS + PRECOMPUTE_SOLVERS
# A pass is one lclbench process; the sizes keep a pass near half a
# second, so a run holds some fifty of them. "sensitivity" is the
# workload's exponent in timing_metrics.
SWEEPS = {
    # Engine::run is the largest stage: round-heavy solvers at 12.5k and
    # 50k nodes per cell.
    "sweep_engine": {"algos": ENGINE_SOLVERS,
                     "families": ["random_attach", "path"], "n": 5.0,
                     "sensitivity": 0.9},
    # SolverSpec::factory dominates: table- and weight-driven solvers,
    # whose precompute (Algorithm A for dfree_a/apoly) grows fastest;
    # 5k and 20k nodes per cell.
    "sweep_precompute": {"algos": PRECOMPUTE_SOLVERS,
                         "families": ["random_attach"], "n": 2.0,
                         "sensitivity": 0.65},
}
WORKLOADS = list(SWEEPS) + ["lcld_mixed"]

MIN_PASSES = 12         # measured passes per untraced run, at least
INPUT_SETS = 4          # instance seeds per sweep run: the cost of the
                        # precompute differs by about 13% between seeds
REFERENCE_S = 0.030     # `lclperf reference` on a quiet core of the host
                        # the benchmark was written on (Xeon, 4 vCPUs)

LCLD_THREADS = 2
LCLD_SENSITIVITY = 0.6
BURST_REQUESTS = 4000   # requests per measured burst pass
SETUP_EVERY = 3         # lcld_mixed: passes per extra daemon set-up
NOMINAL_RATE = 1500     # req/s of the traced open-loop phase
NOMINAL_SECONDS = 24    # >= 1000 solves at 3%: 10 samples beyond p99
STEP_RATES = (750, 1500, 3000, 6000)  # offered rates for slo_rate_rps
STEP_SECONDS = 5
SLO_CLASSIFY_P99_MS = 30.0
LATE_SHARE = 0.5        # a step is invalid when the generator's median
                        # lateness exceeds this share of the mean gap
TRACE_REPEATS = 3       # sweeps: untraced and traced passes per traced run
SUPERLINEAR_EXP = 1.5   # a stage exponent above this is flagged ...
FLAG_MIN_MS = 10.0      # ... when the larger size takes this long
EXP_MIN_MS = 1.0        # both sizes must take this long to fit a slope

END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")]
# The five stages of a certified run, each one call into its layer.
STAGES = ("graph.build", "algo.prepare", "algo.factory", "local.engine",
          "problems.certify")


def _per_layer():
    m = [(s + "_ms", "ms") for s in STAGES]
    for stage in ("algo.factory", "local.engine"):
        m += [("%s_ms.%s" % (stage, s), "ms") for s in ALL_SOLVERS]
    for stage in ("algo.factory", "local.engine"):
        m += [("%s_exp.%s" % (stage, s), "exponent") for s in ALL_SOLVERS]
    m += [("algo.superlinear_stages", "count"),
          ("local.rounds", "count"), ("local.node_rounds", "count"),
          ("local.ns_per_node_round", "ns"), ("local.alloc_events", "count"),
          ("bench.other_ms", "ms"), ("trace.base_wall_ms", "ms"),
          ("trace.overhead_frac", "ratio"), ("trace.unaccounted_frac", "ratio"),
          ("service.parse_ms", "ms"), ("service.cache_lookup_ms", "ms"),
          ("problems.classify_ms", "ms"), ("service.handle_ms.classify", "ms"),
          ("service.handle_ms.solve", "ms"), ("service.solve_overhead_ms", "ms"),
          ("service.queue_wait_p50_ms", "ms"),
          ("service.queue_wait_p99_ms", "ms"), ("service.rejected", "count"),
          ("service.cache_hit_ratio", "ratio"),
          ("service.cache_lookups", "count"),
          ("transport.overhead_ms.classify", "ms"),
          ("transport.overhead_ms.solve", "ms"),
          ("lcld.classify_p50_ms", "ms"), ("lcld.classify_p99_ms", "ms"),
          ("lcld.classify_samples", "count"),
          ("lcld.solve_p50_ms", "ms"), ("lcld.solve_p99_ms", "ms"),
          ("lcld.solve_samples", "count"), ("lcld.slo_rate_rps", "req/s"),
          ("loadgen.late_p99_ms", "ms"), ("loadgen.sent", "count"),
          ("loadgen.failed", "count")]
    for r in STEP_RATES:
        m += [("loadgen.sent.r%d" % r, "count"),
              ("loadgen.failed.r%d" % r, "count"),
              ("lcld.classify_p99_ms.r%d" % r, "ms")]
    return m


PER_LAYER = _per_layer()


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# --- statistics --------------------------------------------------------------

def pct(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of
    the samples at or below it."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


# --- build and provenance ----------------------------------------------------

def _sh(cmd, logf):
    r = subprocess.run(cmd, cwd=ROOT, stdout=logf, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        raise BenchError("build step failed (%s); see %s" %
                         (" ".join(cmd), logf.name))


def _cmake_cache(build_dir):
    out = {}
    path = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    out[key.split(":", 1)[0]] = value
    return out


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("%s holds no CMakeLists.txt and src/: not a "
                         "checkout of the repository" % ROOT)
    os.makedirs(WORK, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(WORK, "build.log"), "a") as logf:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            _sh(["cmake", "-B", "build", "-S", "."], logf)
        _sh(["cmake", "--build", "build", "-j", jobs, "--target", "lcl",
             "lclbench", "lcld"], logf)
        pb = os.path.join(WORK, "perfbench")
        if not os.path.exists(os.path.join(pb, "CMakeCache.txt")):
            _sh(["cmake", "-S", "perfbench", "-B", pb,
                 "-DLCL_BUILD_DIR=" + BUILD], logf)
        _sh(["cmake", "--build", pb, "-j", jobs], logf)


def lclperf(*args, timeout=170):
    r = subprocess.run([LCLPERF] + [str(a) for a in args], cwd=ROOT,
                       capture_output=True, text=True, timeout=timeout)
    if r.returncode != 0:
        raise BenchError("lclperf %s failed: %s" % (args[0],
                                                    r.stderr.strip()))
    return json.loads(r.stdout)


def provenance():
    cache = _cmake_cache(BUILD)
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    nproc = len(os.sched_getaffinity(0))
    # Effective cores: the same spin work on 1 thread and on nproc
    # threads; an uncontended host runs the nproc threads in the time of 1.
    one = lclperf("calibrate", "--threads", 1)["seconds"]
    alln = lclperf("calibrate", "--threads", nproc)["seconds"]
    effective = nproc * one / alln
    return {"commit": commit, "compiler": "%s (%s)" % (compiler, version),
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "nproc": nproc, "spin_1thread_s": round(one, 4),
            "effective_cores": round(effective, 2),
            "host": "contended" if effective < 0.75 * nproc else "quiet"}


# --- processes ---------------------------------------------------------------

class Cpus:
    """Where processes run. The program under test (lclbench, lcld, the
    traced replays) gets the lowest allowed CPU; this runner and the load
    generator get the next one, so the client's work is not billed to the
    daemon. With one CPU allowed both share it.

    lcld's two workers therefore take turns on one core. Given a core
    each, 6 of 240 lcld start-ups on the host the benchmark was written
    on crashed or lost replies during the warm-up or the first burst; on
    one core, none of 120 did (see README.md)."""
    server = client = frozenset()

    @classmethod
    def pin(cls):
        cpus = sorted(os.sched_getaffinity(0))
        cls.server = frozenset(cpus[:1])
        cls.client = frozenset(cpus[1:2] or cpus[:1])
        os.sched_setaffinity(0, cls.client)


@contextlib.contextmanager
def on_server_cpu():
    """A child inherits its parent's CPU set at fork: children spawned
    inside this block run on the server CPU."""
    os.sched_setaffinity(0, Cpus.server)
    try:
        yield
    finally:
        os.sched_setaffinity(0, Cpus.client)


def run_timed(cmd, stdout=subprocess.DEVNULL, timeout=170):
    """Runs cmd to exit on the server CPU; returns (wall seconds, CPU
    seconds, peak RSS MiB, exit code). The CPU seconds are the child's
    own user+system time from wait4, without this runner's fork/exec."""
    t0 = time.perf_counter()
    with on_server_cpu():
        p = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                             stderr=subprocess.DEVNULL)
    rc, ru = _reap(p, timeout)
    return (time.perf_counter() - t0, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0, rc)


def _reap(p, timeout):
    """Waits for p without polling, so the caller's clock stops when p
    exits; a watchdog kills it after `timeout` seconds. Returns (exit
    code, rusage)."""
    fired = []
    watchdog = threading.Timer(timeout, lambda: (fired.append(1), p.kill()))
    watchdog.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    if fired:
        raise BenchError("%s did not exit in %ds" % (p.args[0], timeout))
    return p.returncode, ru


# --- sweep workloads ---------------------------------------------------------

def _lclbench_cmd(spec, seed, json_path):
    return [LCLBENCH, "--run", "solver_matrix", "--threads", "1",
            "--algos", ",".join(spec["algos"]),
            "--families", ",".join(spec["families"]),
            "--n", repr(spec["n"]), "--seed", str(seed), "--json", json_path]


def _snapshot_runs(path):
    """(solver, family, n) -> (status, node_averaged, worst, p50, p90, p99)."""
    with open(path) as f:
        snap = json.load(f)
    scenario = snap["scenarios"][0]
    runs = {}
    for series in scenario["series"]:
        solver, family = series["title"].split(": ", 1)[1].split(" @ ")
        for r in series["runs"]:
            runs[(solver, family, r["n"])] = (
                r["status"], r["node_averaged"], r["worst_case"],
                r["term_p50"], r["term_p90"], r["term_p99"])
    m = scenario["metrics"]
    return runs, m["cells_ok"] == m["cells_total"] and m["cells_total"] > 0


def _sweep_pass(spec, seed, json_path):
    wall, _, rss, rc = run_timed(_lclbench_cmd(spec, seed, json_path))
    if rc != 0:
        raise BenchError("lclbench exited %d" % rc)
    runs, all_ok = _snapshot_runs(json_path)
    return wall, rss, runs, all_ok


def setup_sweep():
    """lclbench's fixed cost per invocation (exec, static registries,
    CLI): the CPU time of one `--list-algos` child."""
    _, cpu, _, rc = run_timed([LCLBENCH, "--list-algos"])
    if rc != 0:
        raise BenchError("lclbench --list-algos exited %d" % rc)
    return cpu


def host_reference():
    """Seconds of the frozen reference kernel on the server CPU, now."""
    with on_server_cpu():
        return lclperf("reference")["seconds"]


def timing_metrics(passes, setups, rss, rss_count, sensitivity):
    """The end-to-end metrics of an untraced run. passes holds, per input
    set, (wall, reference) pairs: a pass's wall seconds and the mean
    seconds of the reference kernel run just before and just after it;
    setups holds (set-up, reference) pairs.

    The host's other tenants slow memory-bound code by up to 2x, in
    episodes of seconds to minutes: the same lclbench pass ranged 2.5-4.6
    s within one minute while a spin loop held steady, and the fastest
    pass of a 25 s window drifted by 30% over four minutes. The reference
    kernel (scattered reads over a 100k-node tree, in code that never
    changes) slows with them, so each time is scaled by REFERENCE_S over
    the reference taken next to it: what the pass would have taken on a
    quiet host. Over the same four minutes the scaled median of a window
    varied by 6% (interquartile over median) where the fastest raw pass
    varied by 27%. A workload slows less than the reference when it is
    less bound by the contended resource, so the scale is raised to the
    workload's sensitivity: the slope of log pass time against log
    reference across runs on that host (0.83-0.93 for sweep_engine,
    0.62-0.66 for sweep_precompute, about 0.56 for lcld_mixed, whose
    scaled figures with exponent 1 read up to 17% low on a heavily
    contended host). wall_s is the median scaled pass of each input set,
    averaged over the sets; setup_s is the median scaled set-up. The raw
    figures are printed beside them."""
    def scaled(pairs):
        return [t * (REFERENCE_S / ref) ** sensitivity for t, ref in pairs]

    every = [w for ps in passes for w, _ in ps]
    per_set = [median(scaled(ps)) for ps in passes]
    refs = [ref for ps in passes for _, ref in ps]
    log("  passes %d over %d input sets: raw median %.4f s, fastest %.4f s; "
        "reference median %.4f s (quiet %.3f s); scaled median per set %s s" %
        (len(every), len(passes), median(every), min(every), median(refs),
         REFERENCE_S, " ".join("%.4f" % w for w in per_set)))
    log("  set-ups %d: raw median %.6f s" %
        (len(setups), median([t for t, _ in setups])))
    return {"wall_s": (statistics.mean(per_set), "s", len(every)),
            "peak_rss_mb": (rss, "MiB", rss_count),
            "setup_s": (median(scaled(setups)), "s", len(setups))}


def instance_seeds(seed):
    """The lclbench --seed of each input set of a sweep run. The first is
    the one the traced run replays."""
    return [seed * INPUT_SETS + j for j in range(INPUT_SETS)]


def sweep_untraced(name, seed, seconds, res):
    spec = SWEEPS[name]
    json_path = os.path.join(WORK, "run", name + ".json")
    seeds = instance_seeds(seed)
    passes = [[] for _ in seeds]
    references = [None for _ in seeds]
    rsss, setups = [], []
    before = host_reference()
    start = time.perf_counter()
    while len(rsss) < MIN_PASSES or time.perf_counter() - start < seconds:
        j = len(rsss) % len(seeds)
        wall, rss, runs, all_ok = _sweep_pass(spec, seeds[j], json_path)
        after = host_reference()
        passes[j].append((wall, (before + after) / 2))
        rsss.append(rss)
        setups.append((setup_sweep(), after))
        before = after
        if references[j] is None:
            references[j] = runs
        reference = references[j]
        res["attempted"] += len(runs)
        # A run fails when it is not ok, or when a pass of the same seed
        # does not reproduce the first pass's results exactly.
        res["failed"] += sum(1 for k, v in runs.items()
                             if v[0] != "ok" or reference.get(k) != v)
        res["failed"] += len(set(reference) - set(runs))
        if not all_ok:
            res["checks"].append("cells_ok != cells_total")
    res["metrics"] = timing_metrics(passes, setups, median(rsss), len(rsss),
                                    spec["sensitivity"])
    res["samples"] = {"passes": passes, "setups": setups}


def _exponent(t_small, t_large, n_small, n_large):
    if t_small < EXP_MIN_MS or t_large < EXP_MIN_MS or n_small == n_large:
        return None
    return math.log(t_large / t_small) / math.log(n_large / n_small)


def _stage_metrics(runs, m):
    """Stage totals, per-solver totals and local counters over replayed
    runs (each a dict with the five stage times)."""
    for stage in STAGES:
        m[stage + "_ms"] = sum(r[stage + "_ms"] for r in runs)
    for stage in ("algo.factory", "local.engine"):
        for s in ALL_SOLVERS:
            m["%s_ms.%s" % (stage, s)] = sum(
                r[stage + "_ms"] for r in runs if r["solver"] == s)
    m["local.rounds"] = sum(r["rounds"] for r in runs)
    m["local.node_rounds"] = sum(r["node_rounds"] for r in runs)
    m["local.alloc_events"] = sum(r["alloc_events"] for r in runs)
    if m["local.node_rounds"] > 0:
        m["local.ns_per_node_round"] = (m["local.engine_ms"] * 1e6 /
                                        m["local.node_rounds"])


def _print_self_times(self_ms, wall_ms):
    log("  self time by span (ms, share of the traced wall %.1f ms):" % wall_ms)
    for name, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        log("    %-24s %10.2f  %5.1f%%" % (name, ms, 100.0 * ms / wall_ms))


def sweep_traced(name, seed, res, m):
    spec = SWEEPS[name]
    json_path = os.path.join(WORK, "run", name + ".json")
    seed = instance_seeds(seed)[0]
    spans = os.path.join(WORK, "trace", name + ".spans.jsonl")
    out = os.path.join(WORK, "trace", name + ".replay.json")
    # Untraced and traced passes alternate TRACE_REPEATS times; the
    # median of each, and the replay whose wall is the median, so that
    # one contended pass does not skew the overhead and bench.other_ms.
    walls_u, replays = [], []
    for _ in range(TRACE_REPEATS):
        wall_u, _, runs_u, all_ok = _sweep_pass(spec, seed, json_path)
        walls_u.append(wall_u)
        if not all_ok:
            res["checks"].append("cells_ok != cells_total")
        with open(out, "w") as f:
            wall_t, _, _, rc = run_timed(
                [LCLPERF, "sweep", "--algos", ",".join(spec["algos"]),
                 "--families", ",".join(spec["families"]),
                 "--n", repr(spec["n"]), "--seed", str(seed),
                 "--spans", spans], stdout=f)
        if rc != 0:
            raise BenchError("lclperf sweep exited %d" % rc)
        with open(out) as f:
            replays.append((wall_t, json.load(f)))
    wall_u = median(walls_u)
    replays.sort(key=lambda r: r[0])
    wall_t, d = replays[len(replays) // 2]
    runs = d["runs"]

    # Output gate: the replay reproduces lclbench's instance and result
    # for every run (lclbench writes node_averaged with 6 digits).
    res["attempted"] += len(runs)
    for r in runs:
        key = (r["solver"], r["family"], r["n"])
        mine = (r["status"], float("%.6g" % r["node_averaged"]),
                r["worst_case"], r["term_p50"], r["term_p90"], r["term_p99"])
        theirs = runs_u.get(key)
        if theirs is None or theirs[0] != "ok" or mine != theirs:
            res["failed"] += 1
            res["checks"].append("replay mismatch %s: %s vs %s" %
                                 (key, mine, theirs))
    res["failed"] += len(set(runs_u) - {(r["solver"], r["family"], r["n"])
                                        for r in runs})

    _stage_metrics(runs, m)
    flagged = []
    for stage in ("algo.factory", "local.engine"):
        for s in ALL_SOLVERS:
            exps = []
            for fam in spec["families"]:
                cell = sorted((r for r in runs if r["solver"] == s and
                               r["family"] == fam), key=lambda r: r["n"])
                if len(cell) != 2:
                    continue
                small, large = cell
                e = _exponent(small[stage + "_ms"], large[stage + "_ms"],
                              small["n"], large["n"])
                if e is None:
                    continue
                exps.append(e)
                # The engine's work is sum T_v, which grows faster than n
                # wherever the node-averaged complexity does; its time is
                # superlinear only against that count.
                work = "n"
                if stage == "local.engine":
                    e = _exponent(small[stage + "_ms"], large[stage + "_ms"],
                                  small["node_rounds"], large["node_rounds"])
                    work = "sum T_v"
                if e is not None and e > SUPERLINEAR_EXP and \
                        large[stage + "_ms"] >= FLAG_MIN_MS:
                    flagged.append("%s %s@%s: time ~ (%s)^%.2f, %.1f ms at "
                                   "n=%d" % (stage, s, fam, work, e,
                                             large[stage + "_ms"], large["n"]))
            m["%s_exp.%s" % (stage, s)] = max(exps) if exps else 0.0
    m["algo.superlinear_stages"] = len(flagged)
    stages = {s: m[s + "_ms"] for s in STAGES}
    stage_sum = sum(stages.values())
    m["bench.other_ms"] = wall_u * 1000.0 - stage_sum
    m["trace.base_wall_ms"] = wall_u * 1000.0
    m["trace.overhead_frac"] = wall_t / wall_u - 1.0
    m["trace.unaccounted_frac"] = (d["wall_ms"] - d["root_span_ms"]) / d["wall_ms"]

    top = max(stages, key=stages.get)
    log("  largest stage: %s, %.1f of %.1f ms stage time (%.1f%%); "
        "lclbench wall %.1f ms" % (top, stages[top], stage_sum,
                                   100.0 * stages[top] / stage_sum,
                                   wall_u * 1000.0))
    _print_self_times(d["self_ms"], d["wall_ms"])
    log("  unaccounted by root spans: %.2f%% of the traced wall; traced vs "
        "untraced wall: %+.1f%%" % (100.0 * m["trace.unaccounted_frac"],
                                    100.0 * m["trace.overhead_frac"]))
    for line in flagged:
        log("  SUPERLINEAR " + line)


# --- lcld_mixed --------------------------------------------------------------

class Daemon:
    """One `lcld --tcp 127.0.0.1:0` process, always reaped."""

    def __init__(self):
        with on_server_cpu():
            self.proc = subprocess.Popen(
                [LCLD, "--tcp", "127.0.0.1:0", "--threads", str(LCLD_THREADS)],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.port = None
        buf = b""
        deadline = time.monotonic() + 30
        fd = self.proc.stderr.fileno()
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                self.stop()
                raise BenchError("lcld did not announce its endpoint")
            chunk = os.read(fd, 4096)
            if not chunk:
                self.stop()
                raise BenchError("lcld exited before listening")
            buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        if "listening on tcp://" not in line:
            self.stop()
            raise BenchError("unexpected lcld announce: " + line)
        self.port = int(line.rsplit(":", 1)[1])

    def info(self):
        with socket.create_connection(("127.0.0.1", self.port), 10) as s:
            s.sendall(b'{"type":"info","id":0}\n')
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
        return json.loads(data)

    def cpu_s(self):
        """CPU seconds the daemon's threads have run so far (the
        scheduler's own count, in ns, summed over /proc task entries)."""
        total = 0
        task_dir = "/proc/%d/task" % self.proc.pid
        for tid in os.listdir(task_dir):
            try:
                with open(os.path.join(task_dir, tid, "schedstat")) as f:
                    total += int(f.read().split()[0])
            except FileNotFoundError:  # the thread ended meanwhile
                pass
        return total / 1e9

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for lcld")

    def stop(self):
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            rc, _ = _reap(self.proc, 30)
        finally:
            self.proc.stderr.close()
        if rc != 0:
            raise BenchError("lcld exited %d on SIGTERM" % rc)


def _write_trace(name, rows):
    path = os.path.join(WORK, "run", name + ".tsv")
    loadtrace.write(path, rows)
    return path


def loadgen(daemon, trace_path, mode, out_name):
    out = os.path.join(WORK, "run", out_name + ".rows")
    s = lclperf("loadgen", "--port", daemon.port, "--trace", trace_path,
                "--mode", mode, "--out", out)
    if s["failed"]:
        with open(out + ".failures") as f:
            log("  FAILED replies (%s, first 5):\n%s" % (out_name, f.read()))
    rows = []
    with open(out) as f:
        for line in f:
            _, kind, due, sent, recv, ok = line.split("\t")
            rows.append((kind, int(due), int(sent), int(recv), ok.strip() == "1"))
    s["rows"] = rows
    return s


def start_daemon(seed, res):
    """Spawn, wait for the announce, warm the cache over the hot set.
    Returns (daemon, set-up seconds): the daemon's CPU time from its
    spawn to the end of the warm-up."""
    d = Daemon()
    try:
        warm = loadgen(d, _write_trace("warm", loadtrace.warmup(seed)),
                       "burst", "warm")
    except Exception:
        d.stop()
        raise
    res["attempted"] += warm["requests"]
    res["failed"] += warm["failed"]
    return d, d.cpu_s()


def lcld_untraced(seed, seconds, res):
    d, setup = start_daemon(seed, res)
    before = host_reference()
    setups = [(setup, before)]
    passes = []
    try:
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            path = _write_trace("burst", loadtrace.burst(
                seed, "burst%d" % len(passes), BURST_REQUESTS))
            s = loadgen(d, path, "burst", "burst")
            after = host_reference()
            passes.append((s["wall_s"], (before + after) / 2))
            res["attempted"] += s["requests"]
            res["failed"] += s["failed"]
            # Every pass caches new problems, so the daemon's footprint
            # grows with the number of passes, which grows with its speed:
            # read the peak after a fixed amount of work.
            if len(passes) == MIN_PASSES:
                rss = d.peak_rss_mb()
            # A set-up every SETUP_EVERY passes, on a throwaway daemon, so
            # that setup_s is a median over the whole run.
            if len(passes) % SETUP_EVERY == 0:
                other, setup = start_daemon(seed, res)
                other.stop()
                setups.append((setup, after))
                before = host_reference()
            else:
                before = after
        info = d.info()
    finally:
        d.stop()
    log("  lcld info: hits %d misses %d served %d rejected %d" %
        (info["cache_hits"], info["cache_misses"], info["served"],
         info["rejected"]))
    res["metrics"] = timing_metrics([passes], setups, rss, 1,
                                    LCLD_SENSITIVITY)
    res["samples"] = {"passes": [passes], "setups": setups}


def _latencies(rows, kind):
    return [(recv - due) / 1e6 for k, due, _, recv, ok in rows
            if k == kind and ok and recv >= 0]


def _step(daemon, seed, rate, res):
    rows_in = loadtrace.open_loop(seed, "step%d" % rate, rate, STEP_SECONDS)
    s = loadgen(daemon, _write_trace("step", rows_in), "open", "step")
    rows = s["rows"]
    res["attempted"] += s["requests"]
    res["failed"] += s["failed"]
    lat = _latencies(rows, "classify")
    late_ms = median([(sent - due) / 1e6 for _, due, sent, _, _ in rows
                      if sent >= 0])
    valid = late_ms <= LATE_SHARE * 1000.0 / rate
    # Backlog: latency at the end of the step against its start.
    fifth = max(1, len(lat) // 5)
    growing = median(lat[-fifth:]) > 4 * median(lat[:fifth]) + 1.0
    p99 = pct(lat, 99)
    meets = valid and s["failed"] == 0 and p99 <= SLO_CLASSIFY_P99_MS and \
        not growing
    log("  step %5d req/s: sent %d ok %d failed %d; classify p99 %.3f ms "
        "(n=%d); generator late p50 %.3f ms (%s); backlog %s; %s" %
        (rate, s["requests"], s["requests"] - s["failed"], s["failed"], p99,
         len(lat), late_ms, "valid" if valid else "INVALID",
         "growing" if growing else "steady",
         "meets SLO" if meets else "misses SLO"))
    return s["requests"], s["failed"], p99, meets


def lcld_traced(seed, res, m):
    d, setup = start_daemon(seed, res)
    try:
        nominal_rows = loadtrace.open_loop(seed, "nominal", NOMINAL_RATE,
                                           NOMINAL_SECONDS)
        nominal_path = _write_trace("nominal", nominal_rows)
        s = loadgen(d, nominal_path, "open", "nominal")
        res["attempted"] += s["requests"]
        res["failed"] += s["failed"]
        best = 0
        for rate in STEP_RATES:
            sent, failed, p99, meets = _step(d, seed, rate, res)
            m["loadgen.sent.r%d" % rate] = sent
            m["loadgen.failed.r%d" % rate] = failed
            m["lcld.classify_p99_ms.r%d" % rate] = p99
            if meets:
                best = rate
        info = d.info()
    finally:
        d.stop()
    rows = s["rows"]
    cl, so = _latencies(rows, "classify"), _latencies(rows, "solve")
    m["lcld.classify_p50_ms"], m["lcld.classify_p99_ms"] = pct(cl, 50), pct(cl, 99)
    m["lcld.solve_p50_ms"], m["lcld.solve_p99_ms"] = pct(so, 50), pct(so, 99)
    m["lcld.classify_samples"], m["lcld.solve_samples"] = len(cl), len(so)
    m["lcld.slo_rate_rps"] = best
    m["loadgen.late_p99_ms"] = pct([(sent - due) / 1e6 for _, due, sent, _, _
                                    in rows if sent >= 0], 99)
    m["loadgen.sent"] = s["requests"]
    m["loadgen.failed"] = s["failed"]
    lookups = info["cache_hits"] + info["cache_misses"]
    m["service.cache_lookups"] = lookups
    m["service.cache_hit_ratio"] = info["cache_hits"] / lookups if lookups else 0.0
    m["service.rejected"] = info["rejected"]
    log("  nominal %d req/s for %d s (set-up %.3f s): classify p50 %.3f p99 "
        "%.3f ms (n=%d); solve p50 %.3f p99 %.3f ms (n=%d); generator late "
        "p99 %.3f ms; slo_rate %d req/s at classify p99 <= %.0f ms" %
        (NOMINAL_RATE, NOMINAL_SECONDS, setup, m["lcld.classify_p50_ms"],
         m["lcld.classify_p99_ms"], len(cl), m["lcld.solve_p50_ms"],
         m["lcld.solve_p99_ms"], len(so), m["loadgen.late_p99_ms"], best,
         SLO_CLASSIFY_P99_MS))

    # In-process replay of the nominal trace, layer by layer.
    out = os.path.join(WORK, "trace", "lcld_mixed.rows")
    spans = os.path.join(WORK, "trace", "lcld_mixed.spans.jsonl")
    with on_server_cpu():
        summary = lclperf("service", "--warm",
                          os.path.join(WORK, "run", "warm.tsv"),
                          "--trace", nominal_path, "--threads", LCLD_THREADS,
                          "--out", out, "--spans", spans)
    rep = []
    with open(out) as f:
        for line in f:
            c = line.rstrip("\n").split("\t")
            rep.append({"kind": c[1], "handle": float(c[2]),
                        "parse": float(c[3]), "lookup": int(c[4]),
                        "lookup_ms": float(c[5]), "stages": float(c[6]),
                        "inproc": float(c[7]), "wait": float(c[8])})
    solves = summary["solves"]
    res["attempted"] += len(solves)
    uncertified = sum(1 for r in solves if not r["certified"])
    res["failed"] += uncertified
    if uncertified:
        res["checks"].append("%d replayed solves uncertified" % uncertified)

    def med(kind, key, cond=lambda r: True):
        return median([r[key] for r in rep if r["kind"] == kind and cond(r)])

    m["service.parse_ms"] = med("classify", "parse")
    m["service.cache_lookup_ms"] = med("classify", "lookup_ms",
                                       lambda r: r["lookup"] == 1)
    m["problems.classify_ms"] = med("classify", "lookup_ms",
                                    lambda r: r["lookup"] == 2)
    m["service.handle_ms.classify"] = med("classify", "handle")
    m["service.handle_ms.solve"] = med("solve", "handle")
    m["service.solve_overhead_ms"] = median(
        [r["handle"] - r["stages"] for r in rep if r["kind"] == "solve"])
    waits = [r["wait"] for r in rep if r["inproc"] >= 0]
    m["service.queue_wait_p50_ms"] = pct(waits, 50)
    m["service.queue_wait_p99_ms"] = pct(waits, 99)
    # Transport: the socket round trip (write of the request's last byte
    # to its reply) minus the in-process submit-to-ready time, both at
    # the nominal rate, per request type.
    wire = {}
    for kind in ("classify", "solve"):
        wire[kind] = pct([(recv - sent) / 1e6 for k, _, sent, recv, ok in rows
                          if k == kind and ok and recv >= 0], 50)
        inproc = [r["inproc"] for r in rep if r["kind"] == kind and
                  r["inproc"] >= 0]
        m["transport.overhead_ms." + kind] = wire[kind] - pct(inproc, 50)
    _stage_metrics(solves, m)
    m["trace.base_wall_ms"] = summary["wall_ms"]
    m["trace.unaccounted_frac"] = ((summary["wall_ms"] -
                                    summary["root_span_ms"]) /
                                   summary["wall_ms"])
    # Every part of a classify's path is transport, admission, protocol
    # or cache: no graph, algo or local call is on it.
    transport = m["transport.overhead_ms.classify"]
    wait = pct([r["wait"] for r in rep if r["kind"] == "classify" and
                r["inproc"] >= 0], 50)
    named = transport + wait + m["service.parse_ms"] + \
        m["service.cache_lookup_ms"]
    log("  classify round trip p50 %.4f ms: transport %.4f + admission wait "
        "%.4f + handle_line %.4f (parse %.4f, cache hit %.4f, table and "
        "render %.4f); transport+admission+parse+cache %.0f%% of it" %
        (wire["classify"], transport, wait, m["service.handle_ms.classify"],
         m["service.parse_ms"], m["service.cache_lookup_ms"],
         m["service.handle_ms.classify"] - m["service.parse_ms"] -
         m["service.cache_lookup_ms"], 100.0 * named / wire["classify"]))
    log("  solve: handle p50 %.3f ms, overhead beyond the five stages %.3f ms;"
        " queue wait p50 %.3f p99 %.3f ms (n=%d)" %
        (m["service.handle_ms.solve"], m["service.solve_overhead_ms"],
         m["service.queue_wait_p50_ms"], m["service.queue_wait_p99_ms"],
         len(waits)))
    _print_self_times(summary["self_ms"], summary["wall_ms"])


# --- main --------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be >= 0")
    # A terminated run still stops the daemon it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        build()
        for sub in ("run", "trace", "results"):
            os.makedirs(os.path.join(WORK, sub), exist_ok=True)
        prov = provenance()
        # The program under test gets one core: the host's neighbours
        # swing the cores this VM gets between about one and all four
        # within minutes (provenance "effective_cores").
        Cpus.pin()
        prov["server_cpus"] = sorted(Cpus.server)
        prov["client_cpus"] = sorted(Cpus.client)
        log("perfbench %s seed %d trace %d | %s" %
            (a.workload, a.seed, a.trace, json.dumps(prov, sort_keys=True)))
        res = {"attempted": 0, "failed": 0, "checks": []}
        if a.trace == 0:
            if a.workload in SWEEPS:
                sweep_untraced(a.workload, a.seed, a.seconds, res)
            else:
                lcld_untraced(a.seed, a.seconds, res)
            metrics = res["metrics"]
            for name, unit in END_TO_END:
                value, _, count = metrics[name]
                log("  %-12s %14.6f %-4s (%d samples)" % (name, value, unit,
                                                         count))
        else:
            m = {name: 0 for name, _ in PER_LAYER}
            if a.workload in SWEEPS:
                sweep_traced(a.workload, a.seed, res, m)
            else:
                lcld_traced(a.seed, res, m)
            metrics = {name: (m[name], unit, 1) for name, unit in PER_LAYER}
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    for check in res["checks"]:
        log("  CHECK FAILED: " + check)
    correct = res["failed"] == 0 and not res["checks"]
    log("  outputs %s: %d attempted, %d failed (failed_frac %.6f)" %
        ("correct" if correct else "INCORRECT", res["attempted"],
         res["failed"], res["failed"] / max(1, res["attempted"])))
    result = {"correct": correct, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {name: {"value": v, "unit": u}
                          for name, (v, u, _) in metrics.items()}}
    record = dict(result, workload=a.workload, seed=a.seed, trace=a.trace,
                  seconds=a.seconds, provenance=prov, checks=res["checks"],
                  sample_counts={name: c for name, (_, _, c) in metrics.items()},
                  samples=res.get("samples", {}))
    with open(os.path.join(WORK, "results", "%s-seed%d-trace%d.json" %
                           (a.workload, a.seed, a.trace)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
