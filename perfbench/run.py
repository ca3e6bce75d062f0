#!/usr/bin/env python3
"""The btsc repository benchmark.

    python3 perfbench/run.py --workload creation --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --self-check              # failure accounting works

Builds the simulator from source (a Release tree in .bench_build/), then
runs one workload:

  --trace 0  the end-to-end legs: the shipped CLIs (btsc-sweep, btsc-sweepd)
             at 1 thread/worker and at nproc, repeated for --seconds;
             reports wall_s and wall_par_s from the fastest repetitions,
             setup_s from the fastest of many set-up processes and
             peak_rss_mb as a median, and checks every artifact.
  --trace 1  the traced leg: btsc-perfbench drives runner::SweepRunner over
             the same studies with spans and layer counters; reports the
             per-layer metrics and the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A failed check (an artifact that differs between thread
counts, a service job that does not reach done with the reference bytes, a
non-zero exit) counts the affected replications as failed and makes the
command exit 1. Work files go to .bench_run/; perfbench/README.md describes
the workloads and metrics.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
SWEEP = os.path.join(BUILD, "btsc", "bench", "btsc-sweep")
SWEEPD = os.path.join(BUILD, "btsc", "bench", "btsc-sweepd")
HELPER = os.path.join(BUILD, "btsc-perfbench")
SPAWN = os.path.join(BUILD, "perfbench-spawn")

# One btsc-sweep run: scenario id, replications per point, grid points, and
# whether it runs with --quick (shorter measurement windows).
Study = collections.namedtuple("Study", "scenario reps points quick")

# The replication counts and point totals are fixed here so that a change
# to a scenario's defaults does not change the work measured. Each run of
# a CLI is kept to about a second at 1 thread, so that a run of the
# benchmark holds many of them (see fastest()).
SWEEP_WORKLOADS = {
    "creation": [Study("fig06", 20, 9, False), Study("fig08", 20, 8, False)],
    "data_link": [Study("throughput", 1, 36, True)],
    "power_modes": [Study("fig10", 2, 9, False), Study("fig11", 2, 9, False),
                    Study("fig12", 2, 10, False)],
    "coexistence": [Study("coexistence", 1, 6, True)],
}
# service_batch: SERVICE_JOBS fig08 --quick jobs (8 points x 10
# replications each); consecutive jobs alternate between two base seeds,
# so later jobs hit the warm-up checkpoints earlier ones spilled.
SERVICE_JOBS = 4
SERVICE_STUDY = Study("fig08", 10, 8, True)
WORKLOADS = list(SWEEP_WORKLOADS) + ["service_batch"]

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed in the table and kept in result.json, but not in the result line:
# over ten seeds on a 4-vCPU Xeon VM its quartile spread reached 0.26-0.37
# of the median on one workload per set, past the largest bound allowed.
PRINTED_UNITS = {"wall_par_s": "s"}
# Set-up timings agree closely within one helper process but spread
# between processes, so each repetition times set-up in this many fresh
# processes, spreading them over the whole run.
SETUP_PER_REPETITION = 2
KERNEL_META = re.compile(rb', "kernel_[a-z_]+": "[0-9]+"')


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build ------------------------------------------------------------------


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no btsc source tree next to perfbench/ (need "
                         "CMakeLists.txt and src/)")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "perfbench-build.log")
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", str(nproc()), "--target", "btsc-sweep",
              "btsc-sweepd", "btsc-perfbench", "perfbench-spawn"]]
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"build failed: {' '.join(cmd)} (see {build_log})")
    # Refuse to measure anything but an optimised build.
    cache = open(os.path.join(BUILD, "CMakeCache.txt")).read()
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    build_type = m.group(1).strip() if m else ""
    stamp = json.loads(subprocess.run([HELPER, "build-type"], check=True,
                                      capture_output=True, text=True).stdout)
    if build_type != "Release" or stamp["build_type"] != "Release" or not stamp["ndebug"]:
        raise BenchError(f"{BUILD} is not a Release build ({build_type!r}); "
                         "delete it and rerun")
    return build_type


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: identify the sources by content instead.
    h = hashlib.sha256()
    for top in ("src", "bench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ---- processes ----------------------------------------------------------------


def spawn(argv, log_path):
    """Runs argv to completion; returns (exit code, wall s, peak RSS MB).

    The command runs under perfbench-spawn, which times it and reads its
    peak RSS; forked straight from this interpreter, the peak would include
    the interpreter's own memory."""
    proc = subprocess.run([SPAWN, log_path] + argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"perfbench-spawn failed: {proc.stderr.strip()}")
    code, wall, rss_kb = proc.stdout.split()
    return int(code), float(wall), int(rss_kb) / 1024.0


def helper_json(args, log_path):
    rc, _, _ = spawn([HELPER] + args, log_path)
    lines = open(log_path).read().strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f"btsc-perfbench {args[0]} failed (see {log_path})")
    return json.loads(lines[-1])


def read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def rows_digest(artifacts):
    """Digest of the result rows (columns + rows) of a list of artifacts."""
    h = hashlib.sha256()
    for data in artifacts:
        doc = json.loads(data)
        h.update(json.dumps([doc["columns"], doc["rows"]]).encode())
    return h.hexdigest()[:16]


def fastest(reps):
    """The workload's time from its repetitions: each part's fastest run,
    summed over the parts. reps is a list of {part: seconds}.

    On a shared host the same run of a CLI is slowed by up to ~1.5x by
    other tenants' load, in spells that cover a varying share of a run
    (on a 4-vCPU Xeon VM, fig08 at 1 thread took 0.67-1.18 s over 20
    back-to-back runs). That noise only adds time, so the minimum tracks
    the program and the median tracks the host's load."""
    return sum(min(rep[part] for rep in reps) for part in reps[0])


def time_setup(args, run_dir, replies):
    """Runs a btsc-perfbench set-up mode in SETUP_PER_REPETITION processes
    and appends their replies; setup_s is the fastest of their medians."""
    for _ in range(SETUP_PER_REPETITION):
        replies.append(helper_json(args, os.path.join(run_dir, f"setup{len(replies)}.log")))


def check_shape(studies, shape, artifacts=None):
    """btsc-perfbench keeps its own copy of each scenario's point list (its
    set-up and traced legs need the points one by one). Fails the run when
    that copy no longer matches the workload's point count or the rows
    btsc-sweep wrote, so the per-layer figures cannot silently measure
    other work than wall_s."""
    for study in studies:
        scenario = study.scenario
        got = shape.get(scenario, {})
        if got.get("points") != study.points:
            raise BenchError(f"{scenario}: btsc-perfbench runs {got.get('points')} "
                             f"points, the workload {study.points}")
        data = (artifacts or {}).get(scenario)
        if data is None:
            continue
        keys = [row[0] for row in json.loads(data)["rows"]]
        want = got["row_keys"]
        if len(keys) != len(want) or any(abs(k - w) > 1e-6 * max(1.0, abs(w))
                                         for k, w in zip(keys, want)):
            raise BenchError(f"{scenario}: btsc-sweep wrote rows {keys}, "
                             f"btsc-perfbench expects {want}")


# ---- sweep workloads ------------------------------------------------------------


def study_args(studies):
    """btsc-perfbench --study arguments: ID:REPS[:quick]."""
    return [a for s in studies for a in
            ("--study", f"{s.scenario}:{s.reps}" + (":quick" if s.quick else ""))]


def sweep_leg(studies, threads, base_seed, leg_dir):
    os.makedirs(leg_dir, exist_ok=True)
    walls, rss, out = {}, 0.0, {}
    for s in studies:
        artifact = os.path.join(leg_dir, s.scenario + ".json")
        rc, w, r = spawn([SWEEP, "--scenario", s.scenario, "--threads", str(threads),
                          "--seeds", str(s.reps), "--base-seed", str(base_seed),
                          "--out", artifact] + (["--quick"] if s.quick else []),
                         os.path.join(leg_dir, s.scenario + ".log"))
        walls[s.scenario] = w
        rss = max(rss, r)
        out[s.scenario] = read(artifact) if rc == 0 else None
    return walls, rss, out


def run_sweep_workload(name, base_seed, seconds, run_dir, inject):
    studies = SWEEP_WORKLOADS[name]
    par = nproc()
    t0 = time.perf_counter()
    setups = []
    walls, pars, rsses = [], [], []
    attempted = failed = 0
    reference = {}
    while True:
        it_start = time.perf_counter()
        it_dir = os.path.join(run_dir, f"iter{len(walls)}")
        time_setup(["setup"] + study_args(studies), run_dir, setups)
        # The 1-thread leg always runs first: on a 4-vCPU Xeon VM a 1-thread
        # leg that followed an nproc leg ran ~14% slower, so alternating
        # the order would make its figures depend on the repetition.
        legs = {t: sweep_leg(studies, t, base_seed, os.path.join(it_dir, f"t{t}"))
                for t in (1, par)}
        if not walls:
            check_shape(studies, setups[0]["shape"], legs[1][2])
        if inject == "corrupt" and not walls:
            first = studies[0].scenario
            if legs[par][2][first] is not None:
                legs[par][2][first] = legs[par][2][first].replace(
                    b'"rows": [', b'"rows": [ ', 1)
        walls.append(legs[1][0])
        pars.append(legs[par][0])
        rsses.append(max(legs[1][1], legs[par][1]))
        for s in studies:
            scenario, n = s.scenario, s.reps * s.points
            attempted += 2 * n
            one, many = legs[1][2][scenario], legs[par][2][scenario]
            reference.setdefault(scenario, one)
            if one is None or many is None or one != many or one != reference[scenario]:
                log(f"check failed: {scenario} artifacts differ between 1 and "
                    f"{par} threads, or between repetitions, or a leg failed")
                failed += 2 * n
        shutil.rmtree(it_dir, ignore_errors=True)
        elapsed = time.perf_counter() - t0
        if elapsed + (time.perf_counter() - it_start) > seconds:
            break
    artifacts = [reference[s.scenario] for s in studies if reference.get(s.scenario)]
    return {
        "metrics": {"wall_s": fastest(walls),
                    "wall_par_s": fastest(pars),
                    "setup_s": min(r["setup_s"] for r in setups),
                    "peak_rss_mb": statistics.median(rsses)},
        "attempted": attempted, "failed": failed, "repetitions": len(walls),
        "samples": {"wall_s": walls, "wall_par_s": pars, "peak_rss_mb": rsses,
                    "setup_s": [r["setup_s"] for r in setups]},
        "digest": rows_digest(artifacts) if len(artifacts) == len(studies) else "-",
        "anchors": anchors(name, reference),
        "threads": {"wall_s": 1, "wall_par_s": par},
    }


# ---- service workload -------------------------------------------------------------


def service_specs(base_seed, inject):
    specs = [{"id": f"f8-{i:02d}", "scenario": SERVICE_STUDY.scenario, "quick": True,
              "base_seed": base_seed + i % 2} for i in range(SERVICE_JOBS)]
    if inject == "bad-job":
        specs.append({"id": "f8-bad", "scenario": "no-such-study", "quick": True,
                      "base_seed": base_seed})
    return specs


def strip_kernel_meta(data):
    # Kernel counters in the artifact meta count the warm-ups a process ran
    # itself, so a job served from the checkpoint cache differs from a cold
    # run only there. The strip is a no-op once the counters leave the meta.
    return KERNEL_META.sub(b"", data)


def service_references(specs, run_dir):
    """Direct btsc-sweep runs of each distinct job spec (the oracle)."""
    help_text = subprocess.run([SWEEP, "--help"], capture_output=True,
                               text=True).stdout
    # Jobs warm up by fork; where the CLI still offers a non-fork default,
    # ask it for the fork path explicitly.
    fork_flag = ["--checkpoint-warmup"] if "--checkpoint-warmup" in help_text else []
    refs = {}
    for spec in specs:
        seed = spec["base_seed"]
        if seed in refs or spec["scenario"] != SERVICE_STUDY.scenario:
            continue
        path = os.path.join(run_dir, f"reference-{seed}.json")
        rc, _, _ = spawn([SWEEP, "--scenario", SERVICE_STUDY.scenario, "--quick",
                          "--threads", "1", "--base-seed", str(seed),
                          "--out", path] + fork_flag, path + ".log")
        if rc != 0:
            raise BenchError(f"reference run failed (see {path}.log)")
        refs[seed] = read(path)
    return refs


def service_batch(job_file, specs, refs, workers, jobs_dir):
    shutil.rmtree(jobs_dir, ignore_errors=True)
    rc, wall, rss = spawn([SWEEPD, "--jobs-dir", jobs_dir, "--job-file", job_file,
                           "--workers", str(workers)], jobs_dir + ".log")
    reps = SERVICE_STUDY.reps * SERVICE_STUDY.points
    bad = []
    for spec in specs:
        art = read(os.path.join(jobs_dir, spec["id"] + ".json"))
        ref = refs.get(spec["base_seed"]) if spec["scenario"] == SERVICE_STUDY.scenario else None
        if art is None or ref is None or strip_kernel_meta(art) != strip_kernel_meta(ref):
            bad.append(spec["id"])
    if bad:
        log(f"check failed: service jobs without a done artifact equal to the "
            f"direct run: {', '.join(bad)}")
    failed = len(bad) * reps
    if rc != 0 and not bad:
        log(f"check failed: btsc-sweepd exited {rc}")
        failed = len(specs) * reps
    return wall, rss, len(specs) * reps, failed


def run_service_workload(base_seed, seconds, run_dir, inject):
    specs = service_specs(base_seed, inject)
    job_file = os.path.join(run_dir, "jobs.jsonl")
    with open(job_file, "w") as f:
        for spec in specs:
            f.write(json.dumps(spec) + "\n")
    t0 = time.perf_counter()
    refs = service_references(specs, run_dir)
    # Set-up is measured on a jobs dir that holds the previous batch.
    setup_dir = os.path.join(run_dir, "jobs-setup")
    _, _, attempted, failed = service_batch(job_file, specs, refs, 1, setup_dir)
    par = nproc()
    setups, walls, pars, rsses = [], [], [], []
    while True:
        it_start = time.perf_counter()
        time_setup(["service-setup", "--jobs-dir", setup_dir], run_dir, setups)
        legs = {}
        for workers in (1, par):  # a fixed order, as for the sweeps
            legs[workers] = service_batch(job_file, specs, refs, workers,
                                          os.path.join(run_dir, f"jobs-w{workers}"))
            attempted += legs[workers][2]
            failed += legs[workers][3]
        walls.append(legs[1][0])
        pars.append(legs[par][0])
        rsses.append(max(legs[1][1], legs[par][1]))
        elapsed = time.perf_counter() - t0
        if elapsed + (time.perf_counter() - it_start) > seconds:
            break
    artifacts = [refs[s] for s in sorted(refs)]
    return {
        "metrics": {"wall_s": min(walls),
                    "wall_par_s": min(pars),
                    "setup_s": min(r["setup_s"] for r in setups),
                    "peak_rss_mb": statistics.median(rsses)},
        "attempted": attempted, "failed": failed, "repetitions": len(walls),
        "samples": {"wall_s": walls, "wall_par_s": pars, "peak_rss_mb": rsses,
                    "setup_s": [r["setup_s"] for r in setups]},
        "digest": rows_digest(artifacts),
        "anchors": anchors("service_batch", {"fig08": artifacts[0]}),
        "threads": {"wall_s": "1 worker", "wall_par_s": f"{par} workers"},
    }


# ---- accuracy beside speed ----------------------------------------------------------


def row_where(artifact, column, value):
    doc = json.loads(artifact)
    i = doc["columns"].index(column)
    for row in doc["rows"]:
        if abs(row[i] - value) < 1e-9:
            return dict(zip(doc["columns"], row))
    return None


def anchors(workload, arts):
    """The workload's headline results beside the paper anchors of
    docs/SCENARIOS.md. Informational: they move with the model, not with
    speed, and gate nothing."""
    out = []

    def add(text, scenario, column, value, field, paper):
        if arts.get(scenario) is None:
            return
        row = row_where(arts[scenario], column, value)
        if row is not None:
            out.append(f"{text}: {row[field]:.4g} (paper {paper})")

    if workload in ("creation", "service_batch"):
        add("fig06 noiseless inquiry mean slots", "fig06", "1/BER", 0, "mean_TS", "~1556")
        add("fig08 page failure at BER 1/40", "fig08", "1/BER", 40, "page_fail",
            ">0.95 beyond 1/40")
    elif workload == "data_link":
        add("throughput DH5 goodput, clean channel (kb/s)", "throughput", "1/BER", 0,
            "DH5", "~723")
        add("throughput DM5 goodput, clean channel (kb/s)", "throughput", "1/BER", 0,
            "DM5", "~478")
    elif workload == "power_modes":
        add("fig10 master TX at 2% duty (%)", "fig10", "duty_%", 2, "tx_%", "~0.3")
        add("fig11 active-mode slave activity (%)", "fig11", "Tsniff", 10, "active_%",
            "~4.2")
        add("fig12 active-mode slave activity (%)", "fig12", "Thold", 40, "active_%",
            "2.6")
    elif workload == "coexistence":
        add("victim goodput, silent neighbour (kb/s)", "coexistence", "nbr_period", 0,
            "goodput_kbps", "none: extension study")
        add("victim goodput, neighbour every 2 slots (kb/s)", "coexistence",
            "nbr_period", 2, "goodput_kbps", "none: extension study")
    return out


# ---- traced run ------------------------------------------------------------------------


def run_trace(name, base_seed, run_dir, inject):
    par = nproc()
    if name == "service_batch":
        studies = [SERVICE_STUDY]
        args = study_args(studies)
        job_file = os.path.join(run_dir, "jobs.jsonl")
        with open(job_file, "w") as f:
            for spec in service_specs(base_seed, inject):
                f.write(json.dumps(spec) + "\n")
        args += ["--job-file", job_file]
    else:
        studies = SWEEP_WORKLOADS[name]
        args = study_args(studies)
    res = helper_json(["trace", "--base-seed", str(base_seed), "--threads", str(par),
                       "--dir", run_dir] + args, os.path.join(run_dir, "trace.log"))
    check_shape(studies, res["shape"])
    reps = int(res["replications"])
    return {
        "metrics": res["metrics"], "attempted": reps,
        "failed": 0 if res["correct"] else reps, "digest": res["digest"],
        "self_s": res["self_s"], "spans": os.path.join(run_dir, "spans.jsonl"),
        "walls": {k: res[k] for k in ("untraced_wall_s", "traced_wall_s",
                                      "traced_par_wall_s")},
    }


# ---- main ------------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, inject=None):
    run_dir = os.path.join(RUNS, name + ("-trace" if trace else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # data_link, power_modes and coexistence run their scenarios on common
    # random numbers with one or two replications per point, so one seed
    # draws the piconet formations of every point and their simulated work
    # swings with it (kernel timers fired over base seeds 1-10: 0.94-1.05x
    # for data_link and 0.60-1.68x for coexistence; power_modes wall_s
    # 0.83-1.39 s over seeds 0-9). They fix their base seed to the scenario
    # default; creation and service_batch average hundreds of independent
    # replications (within 1-3% across seeds) and take theirs from --seed.
    # A base seed of 0 would mean "default".
    base_seed = {"data_link": 1, "power_modes": 1, "coexistence": 2030}.get(
        name, seed + 1)
    if trace:
        res = run_trace(name, base_seed, run_dir, inject)
    elif name == "service_batch":
        res = run_service_workload(base_seed, seconds, run_dir, inject)
    else:
        res = run_sweep_workload(name, base_seed, seconds, run_dir, inject)
    res["workload"] = name
    res["base_seed"] = base_seed
    return res


def report(res, context, trace):
    print(f"== {res['workload']} (base seed {res['base_seed']}) ==")
    print("host: " + ", ".join(f"{k}={v}" for k, v in context.items()))
    frac = res["failed"] / res["attempted"]
    if trace:
        print("traced legs: " + ", ".join(f"{k}={v:.4f}" for k, v in res["walls"].items()))
        print(f"spans: {res['spans']}")
        print("self time by span (1-thread traced leg):")
        for span, s in sorted(res["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {span:<18} {s:10.4f} s")
        print("per-layer metrics:")
        for k, v in res["metrics"].items():
            print(f"  {k:<32} {v:.6g}")
    else:
        print(f"threads: {res['threads']}; repetitions: {res['repetitions']}; "
              f"set-up processes: {len(res['samples']['setup_s'])}")
        for k, v in res["metrics"].items():
            print(f"  {k:<12} {v:12.6f} {dict(E2E_UNITS, **PRINTED_UNITS)[k]}")
        for a in res["anchors"]:
            print(f"  anchor: {a}")
    print(f"  failed_frac  {frac:12.6f} ({res['failed']}/{res['attempted']} replications)")
    print(f"  digest       {res['digest']}")


def result_line(res, trace):
    unit = {} if trace else E2E_UNITS
    metrics = {k: {"value": v, "unit": unit.get(k, per_layer_unit(k))}
               for k, v in res["metrics"].items() if k not in PRINTED_UNITS}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def per_layer_unit(name):
    """Unit of a per-layer metric, read off its name (a .p50/.p99 suffix
    names the percentile, the tail before it the unit)."""
    name = re.sub(r"\.p\d+$", "", name)
    for tail, unit in (("_per_host_s", "sim_s/s"), ("_per_timer", "ns"),
                       ("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                       ("_frac", "ratio"), ("_bytes", "bytes")):
        if name.endswith(tail):
            return unit
    return "count"


def self_check(seconds):
    """Injects a corrupted artifact and a failing job spec; both must be
    counted as failed and make the command exit non-zero."""
    ok = True
    for workload, inject in (("creation", "corrupt"), ("service_batch", "bad-job")):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", workload, "--seed", "0",
                               "--seconds", str(seconds), "--trace", "0",
                               "--inject", inject], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines else {}
        caught = (proc.returncode != 0 and last.get("failed", 0) > 0
                  and last.get("correct") is False)
        print(f"self-check {workload} with {inject}: exit {proc.returncode}, "
              f"failed {last.get('failed')}/{last.get('attempted')} -> "
              f"{'caught' if caught else 'MISSED'}")
        ok = ok and caught
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("corrupt", "bad-job"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--self-check", action="store_true",
                    help="prove that corrupted artifacts and failing jobs are counted")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.self_check and not args.workload:
        ap.error("--workload is required")
    try:
        build_type = build()
        if args.self_check:
            return self_check(min(args.seconds, 2))
        context = {"nproc": nproc(), "cpu": cpu_model(), "build": build_type,
                   "commit": commit_id()}
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, args.inject)
            report(res, context, args.trace)
            with open(os.path.join(RUNS, name + ("-trace" if args.trace else ""),
                                   "result.json"), "w") as f:
                json.dump(dict(res, context=context), f, indent=1)
            results.append(res)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    if len(results) == 1:
        line = result_line(results[0], args.trace)
    else:
        line = {"correct": all(r["failed"] == 0 for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{r['workload']}.{k}": v for r in results
                            for k, v in result_line(r, args.trace)["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
