#!/usr/bin/env python3
"""finser benchmark: four workloads through the `finser_cli` commands users run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload run_cold --seed 1 --seconds 12 --trace 0

It builds `finser_cli` and the per-layer harness `finser_layers` from the
checkout (Release, into .bench_build/), generates the workload's inputs from
--seed, runs the set-up phase and then the timed phase for --seconds, checks
every output, and prints one JSON result object as the last line of stdout.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate traced run reports the per-layer ones. perfbench/README.md has the
workload table, the metric map and the measured baseline.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_DIR, "perfbench")
REFS_DIR = os.path.join(HERE, "refs")

# Every FINSER_* variable is an override of some knob (MC_SCALE, CI_TARGET,
# CLUSTER, THREADS, LANES, METRICS, FAULT, WORKERS, ...): none may leak in.
ENV = {k: v for k, v in os.environ.items() if not k.startswith("FINSER_")}

# The small cell model shared by the campaign workloads: three supply points
# keep cold characterization to a few seconds while FIT-vs-Vdd stays a curve.
SMALL_MODEL = {"vdds": [0.7, 0.9, 1.1], "pv_samples": 40}
SETUP_STRIKES = 1000          # set-up campaigns: fill cell_model/device_lut
SWEEP_STRIKES = 200000        # campaign_sweep timed phase: sweeps dominate
# cluster_2x2: enough strikes (at a cheap 8 joint PV samples per key) that
# the number of distinct joint keys, and so the run time, varies little from
# seed to seed; at 3-4 k strikes it moved by +-15%.
CLUSTER_STRIKES = 16000
CLUSTER_PV_SAMPLES = 8
SERVE_STRIKES = 4000          # serve_mixed: the three pre-built scenarios
REFINE_STRIKES = 400000       # serve_mixed: the scenario refined on demand
SERVE_RATE_QPS = 2000.0       # open-loop rate of the off-grid query stream
SERVE_POOL = 512              # distinct off-grid queries per seed
# finser_cli serve --max-pending. The requests queued behind the refinement
# are what p99 measures; at the default 64 they are under 1% of the ok
# replies and p99 falls to scheduler jitter.
SERVE_MAX_PENDING = 512
SERVE_BURST = 4 * SERVE_MAX_PENDING  # one back-to-back burst of hits
SERVE_LIMIT_MS = 50.0         # goodput latency limit
SERVE_LAG_LIMIT_MS = 20.0     # a generator later than this (p99) voids the run
SETUP_REPEATS_CAMPAIGN = 2
SETUP_REPEATS_RUN = 3


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def loadavg():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build():
    """Configure and build the benchmark's programs; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no finser sources in the working directory; run from the "
            "root of a source checkout")
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(2)
    out = sys.stderr
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=out,
                       stderr=out, env=ENV)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(nproc()),
                    "--target", "finser_cli", "finser_layers",
                    "finser_loadgen"], check=True, stdout=out, stderr=out,
                   env=ENV)
    return (os.path.join(BUILD_DIR, "finser", "tools", "finser_cli"),
            os.path.join(BUILD_DIR, "finser_layers"),
            os.path.join(BUILD_DIR, "finser_loadgen"))


# --------------------------------------------------------------------------
# Process helpers
# --------------------------------------------------------------------------

class Job:
    """One finished child process: exit code, wall, CPU and peak RSS."""

    def __init__(self, code, wall, cpu, rss_mb, log_path):
        self.code, self.wall, self.cpu, self.rss_mb, self.log = (
            code, wall, cpu, rss_mb, log_path)


def run_job(argv, log_path):
    """Run argv to completion, timing it; stdout+stderr go to log_path."""
    with open(log_path, "w") as logf:
        t0 = time.monotonic()
        p = subprocess.Popen(argv, stdout=logf, stderr=subprocess.STDOUT,
                             env=ENV, cwd=ROOT)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.monotonic() - t0
    # Reaped by wait4 (for its rusage); tell Popen so it never polls again.
    p.returncode = os.waitstatus_to_exitcode(status)
    return Job(p.returncode, wall, ru.ru_utime + ru.ru_stime,
               ru.ru_maxrss / 1024.0, log_path)


def capture(argv):
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       env=ENV, cwd=ROOT, check=True, text=True)
    return p.stdout


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def copy_store(src, dst):
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:24]


# --------------------------------------------------------------------------
# Output gate
# --------------------------------------------------------------------------

def csv_digests(out_dir):
    """sha256 (truncated) of every CSV under out_dir, keyed by relative path."""
    digests = {}
    for dirpath, _, files in os.walk(out_dir):
        for name in sorted(files):
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                digests[os.path.relpath(path, out_dir)] = sha(path)
    return digests


def check_csv_invariants(out_dir):
    """Paper invariants on batch outputs; returns a list of violations.

    Every number finite; every POF in [0, 1]; FIT strictly decreasing in Vdd
    per species (paper Fig. 9) in every fit_summary.csv.
    """
    bad = []
    fits = 0
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            if not name.endswith(".csv"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as f:
                rows = list(csv.DictReader(f))
            if not rows:
                bad.append(f"{path}: empty")
                continue
            for row in rows:
                for key, val in row.items():
                    if key == "species":
                        continue
                    if not math.isfinite(float(val)):
                        bad.append(f"{path}: non-finite {key}")
                    if key.startswith("pof_") and not 0.0 <= float(val) <= 1.0:
                        bad.append(f"{path}: {key}={val} outside [0, 1]")
            if name == "fit_summary.csv":
                fits += 1
                per_species = {}
                for row in rows:
                    per_species.setdefault(row["species"], []).append(
                        (float(row["vdd_v"]), float(row["fit_tot"])))
                for species, pts in per_species.items():
                    pts.sort()
                    for (v0, f0), (v1, f1) in zip(pts, pts[1:]):
                        if not f1 < f0:
                            bad.append(f"{path}: {species} FIT not decreasing "
                                       f"from {v0} V to {v1} V")
    if fits == 0:
        bad.append(f"{out_dir}: no fit_summary.csv")
    return bad


def load_refs(workload):
    path = os.path.join(REFS_DIR, f"{workload}.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


class Gate:
    """Counts output-gate misses; the first few are logged."""

    def __init__(self, workload, seed):
        self.ref = load_refs(workload).get(str(seed))
        self.misses = 0
        self.first = None  # outputs of the first repetition
        self.observed = {}

    def miss(self, why):
        self.misses += 1
        if self.misses <= 5:
            log(f"output gate: {why}")

    def batch(self, out_dir):
        """Check one batch job's CSVs; returns True when they pass."""
        bad = check_csv_invariants(out_dir)
        digests = csv_digests(out_dir)
        if self.first is None:
            self.first = digests
            self.observed = {"outputs": digests}
        elif digests != self.first:
            bad.append("outputs differ between repetitions of one seed")
        if self.ref is not None and digests != self.ref.get("outputs"):
            bad.append("outputs differ from the recorded reference digests")
        for b in bad:
            self.miss(b)
        return not bad


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

def rng_for(workload, seed):
    return random.Random(f"finser-perfbench:{workload}:{seed}")


def campaign_doc(name, seed, store, out, defaults, scenarios, threads):
    return {"campaign": name, "seed": seed, "threads": threads,
            "artifact_dir": store, "output_dir": out,
            "defaults": defaults, "scenarios": scenarios}


def model_seed(rng):
    return rng.randrange(1, 2**31)


# --------------------------------------------------------------------------
# Workloads: each returns a dict with the run's raw figures
# --------------------------------------------------------------------------

class Ctx:
    def __init__(self, args, programs):
        self.args = args
        self.cli, self.layers, self.loadgen = programs
        self.threads = nproc()
        self.work = fresh_dir(os.path.join(
            BENCH_DIR, "work", f"{args.workload}-{args.seed}"))
        self.gate = Gate(args.workload, args.seed)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def cli_job(self, argv, tag, extra=()):
        return run_job([self.cli] + argv + ["--threads", str(self.threads)]
                       + list(extra), self.path(f"{tag}.log"))


def timed_loop(ctx, one):
    """Repeat one() (returns (Job, ok)) until --seconds have elapsed."""
    jobs, failed = [], 0
    t0 = time.monotonic()
    while not jobs or time.monotonic() - t0 < ctx.args.seconds:
        job, ok = one(len(jobs))
        jobs.append(job)
        failed += 0 if ok else 1
    return jobs, failed


def batch_result(ctx, setup_times, jobs, failed):
    walls = [j.wall for j in jobs]
    cpus = [j.cpu for j in jobs]
    wall = statistics.median(walls)
    cpu = statistics.median(cpus)
    return {
        "attempted": len(jobs), "failed": failed,
        "setup_s": statistics.median(setup_times),
        "wall_s": wall, "cpu_s": cpu,
        "thread_util": cpu / (ctx.threads * wall),
        "peak_rss_mb": max(j.rss_mb for j in jobs),
        # A batch request is one CLI job (README: end-to-end metrics). A run
        # has too few jobs to rank a 99th percentile, so p99 is the median.
        "serve_p50_ms": 1e3 * wall,
        "serve_p99_ms": 1e3 * wall,
        "serve_goodput_qps": len(jobs) / sum(walls),
    }


def job_ok(ctx, job, out_dir):
    if job.code != 0:
        ctx.gate.miss(f"exit code {job.code} (log: {job.log})")
        return False
    return ctx.gate.batch(out_dir)


# --- run_cold ---------------------------------------------------------------

def prepare_run_cold(ctx):
    rng = rng_for("run_cold", ctx.args.seed)
    out = ctx.path("run_out")
    ini = ctx.path("run.ini")
    with open(ini, "w") as f:
        # Paper defaults, spelled out; only the Monte-Carlo seed varies.
        f.write("array.rows = 9\narray.cols = 9\n"
                "cell.vdds = 0.7, 0.8, 0.9, 1.0, 1.1\n"
                "mc.pv_samples = 200\nmc.strikes = 60000\n"
                f"mc.seed = {model_seed(rng)}\n"
                "species = alpha, proton\n"
                f"output.dir = {out}\n")
    return ini, out


def run_cold_setup(ctx, ini):
    """Set-up: a toy-size run of the same command into a throwaway dir.

    Returns the set-up times and the generated config as campaign JSON
    (`run --print-config`), which the traced replay runs.
    """
    toy_out = ctx.path("toy_out")
    toy = ctx.path("toy.ini")
    with open(toy, "w") as f:
        f.write("array.rows = 3\narray.cols = 3\ncell.vdds = 0.8\n"
                "mc.pv_samples = 8\nmc.strikes = 2000\nspecies = alpha\n"
                f"output.dir = {toy_out}\n")
    times = []
    for i in range(SETUP_REPEATS_RUN):
        shutil.rmtree(toy_out, ignore_errors=True)
        job = ctx.cli_job(["run", toy], f"setup{i}")
        if job.code != 0:
            raise RuntimeError(f"set-up run failed (log: {job.log})")
        times.append(job.wall)
    doc = json.loads(capture([ctx.cli, "run", ini, "--print-config"]))
    doc["artifact_dir"], doc["output_dir"] = "", ""
    return times, write_json(ctx.path("run_equiv.json"), doc)


def run_cold_job(ctx, ini, out, tag, extra=()):
    shutil.rmtree(out, ignore_errors=True)
    job = ctx.cli_job(["run", ini], tag, extra)
    return job, job_ok(ctx, job, out)


def w_run_cold(ctx):
    ini, out = prepare_run_cold(ctx)
    setup, _ = run_cold_setup(ctx, ini)
    jobs, failed = timed_loop(
        ctx, lambda i: run_cold_job(ctx, ini, out, f"run{i}"))
    return batch_result(ctx, setup, jobs, failed)


# --- campaign workloads -------------------------------------------------------

def campaign_setup(ctx, doc_path, store, keep=None):
    """Run a set-up campaign into an empty store, SETUP_REPEATS times."""
    times = []
    for i in range(SETUP_REPEATS_CAMPAIGN):
        shutil.rmtree(store, ignore_errors=True)
        job = ctx.cli_job(["campaign", doc_path], f"setup{i}")
        if job.code != 0:
            raise RuntimeError(f"set-up campaign failed (log: {job.log})")
        times.append(job.wall)
    if keep is not None:
        for name in os.listdir(store):
            if not name.startswith(keep):
                os.remove(os.path.join(store, name))
    return times


def campaign_job(ctx, doc_path, base_store, store, out, tag, extra=()):
    copy_store(base_store, store)
    shutil.rmtree(out, ignore_errors=True)
    job = ctx.cli_job(["campaign", doc_path], tag, extra)
    return job, job_ok(ctx, job, out)


def prepare_sweep(ctx):
    rng = rng_for("campaign_sweep", ctx.args.seed)
    seed = model_seed(rng)
    scenarios = [{"name": p, "pattern": p}
                 for p in ("checkerboard", "ones", "zeros")]
    base = dict(SMALL_MODEL, species=["alpha", "proton"], seed=seed)
    setup_store = ctx.path("setup_store")
    setup = write_json(ctx.path("setup.json"), campaign_doc(
        "sweep-setup", seed, setup_store, "",
        dict(base, strikes=SETUP_STRIKES), scenarios, ctx.threads))
    store, out = ctx.path("store"), ctx.path("out")
    timed = write_json(ctx.path("timed.json"), campaign_doc(
        "sweep", seed, store, out, dict(base, strikes=SWEEP_STRIKES),
        scenarios, ctx.threads))
    return setup, setup_store, timed, store, out


def w_campaign_sweep(ctx):
    setup, setup_store, timed, store, out = prepare_sweep(ctx)
    times = campaign_setup(ctx, setup, setup_store)
    jobs, failed = timed_loop(ctx, lambda i: campaign_job(
        ctx, timed, setup_store, store, out, f"sweep{i}"))
    return batch_result(ctx, times, jobs, failed)


def prepare_cluster(ctx):
    rng = rng_for("cluster_2x2", ctx.args.seed)
    seed = model_seed(rng)
    base = dict(SMALL_MODEL, species=["alpha"], seed=seed)
    setup_store = ctx.path("setup_store")
    # Set-up characterizes the cell model (cluster mode is not part of its
    # identity); only the cell_model artifact is kept.
    setup = write_json(ctx.path("setup.json"), campaign_doc(
        "cluster-setup", seed, setup_store, "",
        dict(base, strikes=SETUP_STRIKES),
        [{"name": "tile", "cluster": {"mode": "1x1"}}], ctx.threads))
    store, out = ctx.path("store"), ctx.path("out")
    timed = write_json(ctx.path("timed.json"), campaign_doc(
        "cluster", seed, store, out, dict(base, strikes=CLUSTER_STRIKES),
        [{"name": "tile", "cluster": {"mode": "2x2",
                                       "pv_samples": CLUSTER_PV_SAMPLES}}],
        ctx.threads))
    return setup, setup_store, timed, store, out


def w_cluster_2x2(ctx):
    setup, setup_store, timed, store, out = prepare_cluster(ctx)
    times = campaign_setup(ctx, setup, setup_store, keep="cell_model-")
    jobs, failed = timed_loop(ctx, lambda i: campaign_job(
        ctx, timed, setup_store, store, out, f"cluster{i}"))
    return batch_result(ctx, times, jobs, failed)


# --- serve_mixed --------------------------------------------------------------

SERVE_SCENARIOS = ("a", "b", "c")  # pre-built surfaces
REFINE_SCENARIO = "d"              # cell model only: one refinement


def prepare_serve(ctx):
    rng = rng_for("serve_mixed", ctx.args.seed)
    seed = model_seed(rng)
    base = dict(SMALL_MODEL, species=["alpha", "proton"], seed=seed,
                rows=6, cols=6, strikes=SERVE_STRIKES)
    built = [{"name": n, "pattern": p} for n, p in
             zip(SERVE_SCENARIOS, ("checkerboard", "ones", "zeros"))]
    refined = {"name": REFINE_SCENARIO, "pattern": "checkerboard", "rows": 9,
               "cols": 9, "strikes": REFINE_STRIKES}
    setup_store = ctx.path("setup_store")
    setup = write_json(ctx.path("setup.json"), campaign_doc(
        "serve-setup", seed, setup_store, "", base, built, ctx.threads))
    serve = write_json(ctx.path("serve.json"), campaign_doc(
        "serve", seed, setup_store, "", base, built + [refined], ctx.threads))

    def query(scenario):
        q = {"op": rng.choice(("pof", "pof", "fit")), "scenario": scenario,
             "species": rng.choice(("alpha", "proton")),
             # Off-grid: strictly between the 0.7/0.9/1.1 V nodes.
             "vdd": round(rng.uniform(0.7, 1.1), 6),
             "with_pv": rng.random() < 0.8}
        if q["vdd"] in (0.7, 0.9, 1.1):
            q["vdd"] += 1e-4
        if q["op"] == "pof":
            q["energy_mev"] = round(math.exp(rng.uniform(math.log(0.2),
                                                         math.log(50.0))), 6)
        return q

    pool = [query(rng.choice(SERVE_SCENARIOS)) for _ in range(SERVE_POOL)]
    refine_pool = [dict(query(REFINE_SCENARIO), op="fit") for _ in range(3)]
    pool_path = ctx.path("pool.ndjson")
    with open(pool_path, "w") as f:
        for q in pool:
            f.write(json.dumps(q) + "\n")
    return setup, setup_store, serve, pool, refine_pool, pool_path, rng


def serve_schedule(pool, refine_pool, rng, seconds):
    """Open-loop schedule: [(due_s, pool_key, request)] sorted by due time.

    A fixed-rate stream of off-grid pool queries; one back-to-back burst of
    SERVE_BURST cache hits at 25% of the run; the refine-scenario queries at
    50% of the run. The refinement holds the loop for seconds, and the
    --max-pending requests queued behind it (2-3% of the ok replies) are
    what p99 measures.
    """
    items = []
    n = int(seconds * SERVE_RATE_QPS)
    for i in range(n):
        k = rng.randrange(len(pool))
        items.append((i / SERVE_RATE_QPS, ("p", k), pool[k]))
    for _ in range(SERVE_BURST):
        k = rng.randrange(len(pool))
        items.append((0.25 * seconds, ("p", k), pool[k]))
    for k, q in enumerate(refine_pool):
        items.append((0.5 * seconds, ("r", k), q))
    items.sort(key=lambda it: it[0])
    return items


def drive_serve(ctx, serve_json, store, schedule, tag):
    """Run `finser_cli serve` under the open-loop schedule (finser_loadgen)."""
    sched_path = ctx.path(f"{tag}.schedule")
    replies_path = ctx.path(f"{tag}.replies")
    with open(sched_path, "w") as f:
        for i, (due, _, q) in enumerate(schedule):
            f.write(f"{int(due * 1e9)}\t"
                    + json.dumps(dict(q, id=i), separators=(",", ":")) + "\n")
    argv = [ctx.loadgen, sched_path, replies_path, ctx.cli, "serve",
            serve_json, "--threads", str(ctx.threads), "--max-pending",
            str(SERVE_MAX_PENDING), "--artifact-dir", store]
    with open(ctx.path(f"{tag}.log"), "w") as errlog:
        summary = json.loads(subprocess.run(
            argv, stdout=subprocess.PIPE, stderr=errlog, env=ENV, cwd=ROOT,
            check=True).stdout)
    replies = []
    with open(replies_path, "rb") as f:
        for line in f:
            t, _, body = line.rstrip(b"\n").partition(b"\t")
            replies.append((int(t) * 1e-9, body))
    return dict(summary, replies=replies)


ID_PREFIX = re.compile(rb'^\{"id":[0-9]+,')


def check_serve_reply(obj):
    """Paper invariants on one ok reply; returns a violation or None."""
    for key, val in obj.items():
        if isinstance(val, float) and not math.isfinite(val):
            return f"non-finite {key}"
        if key.startswith("pof_") and not 0.0 <= val <= 1.0:
            return f"{key}={val} outside [0, 1]"
        if key.startswith("fit_") and not val >= 0.0:
            return f"{key}={val} negative"
    return None


def serve_outcome(ctx, run, schedule):
    """Latency, goodput and gate over one serve session."""
    gate = ctx.gate
    seen = {}
    stats = None
    got = {}
    for t, line in run["replies"]:
        if line.startswith(b'{"id":"stats"'):
            stats = json.loads(line)["counters"]
            continue
        m = ID_PREFIX.match(line)
        if not m:
            if b'"op":"shutdown"' not in line:
                gate.miss(f"reply without id: {line[:120]!r}")
            continue
        got[int(line[6:m.end() - 1])] = (t, line, m.end())
    ok_lat, errors = [], 0
    digests = {}
    for rid, (due, key, _) in enumerate(schedule):
        if rid not in got:
            errors += 1
            gate.miss(f"request {rid} got no reply")
            continue
        t, line, id_end = got[rid]
        obj = json.loads(line)
        status = obj.get("status")
        if status == "shed":  # a goodput miss, not a failure (README)
            continue
        if status != "ok":
            errors += 1
            gate.miss(f"request {rid}: {line[:160]!r}")
            continue
        body = hashlib.sha256(line[id_end:]).hexdigest()[:16]
        kid = f"{key[0]}{key[1]}"
        if seen.setdefault(kid, body) != body:
            errors += 1
            gate.miss(f"request {rid}: answer differs from an earlier "
                      f"answer to the same query")
            continue
        bad = check_serve_reply(obj)
        if bad:
            errors += 1
            gate.miss(f"request {rid}: {bad}")
            continue
        digests[kid] = body
        ok_lat.append(1e3 * (t - due))
    if gate.ref is not None:
        ref = gate.ref.get("replies", {})
        for kid, body in digests.items():
            if kid in ref and ref[kid] != body:
                errors += 1
                gate.miss(f"query {kid}: reply differs from the reference")
    gate.observed = {"replies": dict(sorted(digests.items()))}
    if run["code"] not in (0, 6):  # 6 = drained after shedding (degraded)
        errors += 1
        gate.miss(f"serve exit code {run['code']}")
    if stats is None:
        errors += 1
        gate.miss("no stats reply")
    return ok_lat, errors, stats or {}


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def serve_session(ctx):
    """Set-up plus one timed session; returns (figures, input paths)."""
    setup, setup_store, serve, pool, refine_pool, pool_path, rng = (
        prepare_serve(ctx))
    times = campaign_setup(ctx, setup, setup_store)
    schedule = serve_schedule(pool, refine_pool, rng, ctx.args.seconds)
    store = copy_store(setup_store, ctx.path("store"))
    run = drive_serve(ctx, serve, store, schedule, "serve")
    ok_lat, errors, stats = serve_outcome(ctx, run, schedule)
    lag_ms = run["lag_p99_ms"]
    if lag_ms > SERVE_LAG_LIMIT_MS:
        errors += 1
        ctx.gate.miss(f"generator fell behind: p99 send lag {lag_ms:.2f} ms")
    good = sum(1 for x in ok_lat if x <= SERVE_LIMIT_MS)
    wall = run["wall_s"]
    res = {
        "attempted": len(schedule), "failed": errors,
        "setup_s": statistics.median(times),
        "wall_s": wall, "cpu_s": run["cpu_s"],
        "thread_util": run["cpu_s"] / (ctx.threads * wall),
        "peak_rss_mb": run["rss_mb"],
        "serve_p50_ms": percentile(ok_lat, 0.50) if ok_lat else 0.0,
        "serve_p99_ms": percentile(ok_lat, 0.99) if ok_lat else 0.0,
        "serve_goodput_qps": good / ctx.args.seconds,
        "stats": stats, "gen_lag_ms": lag_ms,
    }
    return res, {"setup_store": setup_store, "serve": serve,
                 "pool": pool_path}


def w_serve_mixed(ctx):
    return serve_session(ctx)[0]


# --------------------------------------------------------------------------
# Traced run: per-layer metrics
# --------------------------------------------------------------------------

# The work-counter ledger: counts that are exact for a given seed, threads
# and lane width. DC-solve and MNA counters are left out on purpose: the
# ΔVt-keyed DC hold cache is per worker, so its reuse (and the solves it
# saves) follows the thread schedule and drifts by ~0.01% between runs.
LEDGER = ("spice.tran.runs", "spice.tran.steps", "spice.tran.newton_iters",
          "spice.tran.rejects", "sram.strike_samples", "core.energy_bins",
          "core.array_mc.strikes", "core.array_mc.strike_hits",
          "sram.cluster.sims", "sram.cluster.surface_miss",
          "pipeline.characterizations", "pipeline.device_lut_builds",
          "pipeline.artifact.writes", "surface.builds", "serve.requests",
          "serve.refines", "serve.shed")


def counter_metrics(c):
    """Per-layer metrics that are pure functions of a counter snapshot."""
    g = lambda k: c.get(k, 0)  # noqa: E731
    ticks = g("spice.batch.newton_ticks")
    active = g("spice.batch.lane_iters_active")
    masked = g("spice.batch.lane_iters_masked")
    hit, miss = g("sram.cluster.surface_hit"), g("sram.cluster.surface_miss")
    strikes = g("core.array_mc.strikes")
    out = {k: g(k) for k in (
        "spice.tran.runs", "spice.tran.steps", "spice.tran.newton_iters",
        "spice.tran.rejects", "spice.dc.solves", "spice.dc.newton_iters",
        "exec.regions", "pipeline.artifact.writes", "pipeline.artifact.hits",
        "pipeline.artifact.misses", "pipeline.artifact.rejects",
        "sram.cluster.sims", "serve.shed", "serve.cache_hits",
        "serve.refines", "serve.batches")}
    # Lane fill: active lane-iterations over all lane slots the batched
    # Newton ticks offered (active + masked = ticks x lane width).
    out["spice.batch.lane_fill"] = (active / (active + masked)
                                    if ticks else 0.0)
    out["sram.cluster.memo_hit_ratio"] = (hit / (hit + miss)
                                          if hit + miss else 0.0)
    out["core.hit_fraction"] = (g("core.array_mc.strike_hits") / strikes
                                if strikes else 0.0)
    return out


def trace_threads(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return len({e.get("tid") for e in events if e.get("ph") == "X"})


def ledger_check(ctx, ledger):
    """Exact work counters: compare with the last traced run at this seed
    (same threads and lane width) and with the shipped reference."""
    key = f"t{ctx.threads}-w{ledger['lanes']}"
    path = os.path.join(BENCH_DIR, "ledger",
                        f"{ctx.args.workload}-{ctx.args.seed}-{key}.json")
    counts = {section: {k: v for k, v in c.items() if k in LEDGER}
              for section, c in ledger.items() if section != "lanes"}
    drift = []
    previous = None
    if os.path.isfile(path):
        with open(path) as f:
            previous = json.load(f)
    ref = (ctx.gate.ref or {}).get("ledger", {}).get(key)
    for label, other in (("previous traced run", previous),
                         ("reference", ref)):
        if other is None:
            continue
        for section in ("cli", "replay"):
            a = counts.get(section, {})
            b = other.get(section, {})
            for name in sorted(set(a) | set(b)):
                if a.get(name) != b.get(name):
                    drift.append(f"{section}.{name}: {a.get(name)} vs "
                                 f"{b.get(name)} ({label})")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_json(path, counts)
    for d in drift[:10]:
        log(f"work-counter drift: {d}")
    return counts, not drift


def replay(ctx, plan):
    plan["threads"] = ctx.threads
    path = write_json(ctx.path("plan.json"), plan)
    out = capture([ctx.layers, path])
    return json.loads(out.strip().splitlines()[-1])


def traced_batch(ctx, kind):
    """Untraced job, traced job (--metrics-out/--trace-out), then replay."""
    metrics = {}
    if kind == "run_cold":
        ini, out = prepare_run_cold(ctx)
        setup, equiv = run_cold_setup(ctx, ini)
        def one(tag, extra=()):
            return run_cold_job(ctx, ini, out, tag, extra)
        plan = {"characterize": equiv,
                "stages": [{"campaign": equiv,
                            "store": fresh_dir(ctx.path("replay_store")),
                            "tag": "timed"}],
                "layers": {"campaign": equiv, "store": ctx.path("replay_store"),
                           "sink_store": ctx.path("sink_store"),
                           "device_lut": False}}
    else:
        prep = prepare_sweep if kind == "campaign_sweep" else prepare_cluster
        setup_doc, setup_store, timed, store, out = prep(ctx)
        setup = campaign_setup(ctx, setup_doc, setup_store,
                               keep="cell_model-" if kind == "cluster_2x2"
                               else None)
        def one(tag, extra=()):
            return campaign_job(ctx, timed, setup_store, store, out, tag,
                                extra)
        plan = {"stages": [{"campaign": timed,
                            "store": copy_store(setup_store,
                                                ctx.path("replay_store")),
                            "tag": "timed"}],
                "layers": {"campaign": timed, "store": setup_store,
                           "sink_store": ctx.path("sink_store"),
                           "device_lut": True}}
        if kind == "campaign_sweep":
            plan["stages"].append({"campaign": setup_doc,
                                   "store": fresh_dir(ctx.path("setup_replay")),
                                   "tag": "setup"})
    plain, ok0 = one("plain")
    report, trace = ctx.path("report.json"), ctx.path("trace.json")
    traced, ok1 = one("traced", ["--metrics-out", report, "--trace-out", trace])
    with open(report) as f:
        cli_counters = json.load(f)["metrics"]["counters"]
    rep = replay(ctx, plan)
    m = rep["metrics"]
    metrics.update(counter_metrics(cli_counters))
    metrics["exec.threads_seen"] = trace_threads(trace)
    for k in ("sram.characterize_voltage_s.max",
              "sram.characterize_voltage_s.sum", "spice.tran_per_s",
              "pipeline.artifact_put_ms", "pipeline.artifact_get_ms",
              "core.array_mc_s", "core.bin_max_s", "core.strikes_per_s",
              "core.fit_ms", "sram.cluster.sim_ms", "phys.fin_mc.runs",
              "phys.device_lut_s"):
        if k in m:
            metrics[k] = m[k]
    st = rep["stages"]
    timed_st = st["timed"]
    metrics["pipeline.sweep_stage_s"] = timed_st["sweep_s"]
    if kind == "campaign_sweep":
        s = st["setup"]
        metrics["pipeline.characterize_stage_s"] = s["characterize_s"]
        metrics["pipeline.sched_loss_s"] = (statistics.median(setup)
                                            - s["critical_path_s"])
    else:
        metrics["pipeline.characterize_stage_s"] = timed_st["characterize_s"]
        metrics["pipeline.sched_loss_s"] = (plain.wall
                                            - timed_st["critical_path_s"])
    metrics["obs.trace_overhead_pct"] = 100.0 * (traced.wall / plain.wall - 1.0)
    ledger = {"lanes": rep["lanes"], "cli": cli_counters,
              "replay": rep["counters"]}
    failed = (0 if ok0 else 1) + (0 if ok1 else 1)
    return metrics, ledger, 2, failed


def traced_serve(ctx):
    res, paths = serve_session(ctx)
    plan = {"serve": {"campaign": paths["serve"],
                      "store": copy_store(paths["setup_store"],
                                          ctx.path("replay_store")),
                      "pool": paths["pool"], "hits": 20000,
                      "max_pending": SERVE_MAX_PENDING, "burst": SERVE_BURST,
                      "refine_scenario": REFINE_SCENARIO}}
    rep = replay(ctx, plan)
    m = rep["metrics"]
    metrics = counter_metrics(res["stats"])
    for k in ("surface.decode_us", "surface.pof_query_us",
              "surface.fit_query_us", "serve.loop_qps", "serve.refine_s",
              "exec.regions", "exec.threads_seen"):
        metrics[k] = m[k]
    metrics["serve.gen_lag_ms"] = res["gen_lag_ms"]
    metrics["obs.trace_overhead_pct"] = m["obs.trace_overhead_pct"]
    ledger = {"lanes": rep["lanes"], "replay": rep["counters"]}
    return metrics, ledger, res["attempted"], res["failed"]


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

RUNNERS = {"run_cold": w_run_cold, "campaign_sweep": w_campaign_sweep,
           "serve_mixed": w_serve_mixed, "cluster_2x2": w_cluster_2x2}


def build_type():
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.strip().split("=", 1)[1]
    return ""


def metric_spec():
    """(end_to_end, per_layer) name -> unit maps, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return tuple({m["name"]: m["unit"] for m in doc[k]}
                 for k in ("end_to_end", "per_layer"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ctx = Ctx(args, build())
    end_to_end, per_layer = metric_spec()
    env = {"build_type": build_type(), "nproc": ctx.threads,
           "threads": ctx.threads, "lanes": replay(ctx, {})["lanes"],
           "loadavg_1min_before": loadavg()}
    log(f"{args.workload} seed={args.seed} threads={ctx.threads} "
        f"loadavg={env['loadavg_1min_before']}")

    if args.trace == 0:
        res = RUNNERS[args.workload](ctx)
        metrics = {k: {"value": res[k], "unit": u}
                   for k, u in end_to_end.items()}
        attempted, failed = res["attempted"], res["failed"]
    else:
        if args.workload == "serve_mixed":
            layer, ledger, attempted, failed = traced_serve(ctx)
        else:
            layer, ledger, attempted, failed = traced_batch(ctx, args.workload)
        counts, exact = ledger_check(ctx, ledger)
        if not exact:
            failed += 1
            ctx.gate.misses += 1
        metrics = {k: {"value": layer.get(k, 0), "unit": u}
                   for k, u in per_layer.items()}
        ctx.gate.observed["ledger"] = {
            f"t{ctx.threads}-w{ledger['lanes']}": counts}

    env["loadavg_1min_after"] = loadavg()
    write_json(os.path.join(ctx.work, "environment.json"), env)
    # What this run saw, in the shape of perfbench/refs/<workload>.json.
    observed = os.path.join(BENCH_DIR, "observed")
    os.makedirs(observed, exist_ok=True)
    write_json(os.path.join(observed, f"{args.workload}-{args.seed}-"
                            f"t{args.trace}.json"), ctx.gate.observed)
    log("environment: " + json.dumps(env))
    correct = ctx.gate.misses == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
