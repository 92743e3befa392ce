"""Closed-loop benchmark of surfrep jobs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one job at a time; the next job starts when the previous one
has finished and been checked. With ``--trace 0`` the run first times a fresh
process's set-up several times, then runs jobs for S seconds (and at least
MIN_JOBS jobs) and reports the end-to-end metrics. With ``--trace 1`` it runs
a fixed number of jobs, each untraced and traced back to back, checks that
both give identical results, and reports the per-layer metrics. The last line of stdout
is one JSON object; progress and failures go to stderr. The exit code is 0
only when every job passed its oracles.
"""

import os

# one job in flight: pin BLAS to a single thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LAYERS, ROOT, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_JOBS = 100         # so that ten or more jobs lie beyond the 90th percentile
HARD_STOP_S = 150.0    # a timed loop never runs longer than this
SETUP_REPEATS = 5
ROUND_S = 0.5          # jobs between two host-speed reference measurements
# jobs per traced run: whole rounds of each workload's job kinds
TRACE_JOBS = {"worked-example": 48, "holonomy": 24, "high-genus": 40, "reduction": 30}
TRACE_DIR = HERE / "out"

# Host-speed reference: a fixed kernel of small numpy calls and Python
# arithmetic, the shape of surfrep's own work, independent of the library.
# A shared virtual machine can slow down by up to half for seconds to minutes
# at a time; every job timing is scaled by REF_NOMINAL_S over the kernel's
# time measured around it, so it reads as seconds on a host where the kernel
# takes REF_NOMINAL_S (about its unloaded time on a 2-vCPU x86-64 VM with
# Python 3.11, numpy 2.4 and OpenBLAS 0.3).
REF_NOMINAL_S = 0.0043
# Set-up is mostly process start and imports, which load slows differently:
# each set-up probe is scaled by a bare `import numpy, click` in a fresh
# process spawned before and after it, reading as seconds on a host where the
# bare import takes BARE_NOMINAL_S.
BARE_NOMINAL_S = 0.105
BARE_IMPORT = "import time, numpy, click; print(time.monotonic_ns())"
_REF_BASIS = (((0, 1j), (1j, 0)), ((0, 1), (-1, 0)), ((1j, 0), (0, -1j)))


def _import_library():
    if not (SRC / "surfrep" / "__init__.py").is_file():
        raise SystemExit(f"error: no surfrep source under {SRC}")
    sys.path.insert(0, str(SRC))
    import surfrep

    if not Path(surfrep.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported surfrep from {surfrep.__file__}, not {SRC}")


def _reference_kernel(np, basis):
    # small-matrix work in the shape of surfrep's: coordinates onto an algebra
    # basis, products, an SVD projection, an einsum trace, tuple-keyed dicts
    g = np.eye(2, dtype=complex)
    tally = {}
    for k in range(120):
        x = np.tensordot(np.asarray((0.1 * (k % 7), -0.2, 0.05 * (k % 3))), basis, axes=1)
        u, _, vh = np.linalg.svd(g @ (np.eye(2) + 0.1 * x))
        g = u @ vh
        np.einsum("kij,ji->k", basis, g)
        key = tuple((i, (-1) ** i) for i in range(k % 5))
        tally[key] = tally.get(key, 0) + 1


def reference_seconds():
    """Median time of five runs of the host-speed reference kernel."""
    import numpy as np

    basis = np.array(_REF_BASIS)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _reference_kernel(np, basis)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _spawn_seconds(args):
    """Wall time from spawning python with args to the CLOCK_MONOTONIC ns it
    prints last."""
    started = time.monotonic_ns()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, check=True)
    return (int(proc.stdout.split()[-1]) - started) / 1e9


def _setup_seconds(workload, seed):
    """Median over probes of the probe's wall time over the mean of the bare
    imports spawned just before and after it, times BARE_NOMINAL_S."""
    bare = [_spawn_seconds(["-c", BARE_IMPORT])]
    raw, ratios = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(_spawn_seconds([str(HERE / "probe.py"), workload, str(seed)]))
        bare.append(_spawn_seconds(["-c", BARE_IMPORT]))
        ratios.append(raw[-1] * 2 / (bare[-2] + bare[-1]))
    print(f"setup raw median {statistics.median(raw):.4f} s, "
          f"bare import median {statistics.median(bare):.4f} s", file=sys.stderr)
    return statistics.median(ratios) * BARE_NOMINAL_S


def _attempt(workloads, wl, job, run):
    """Run and check one job; returns (wall seconds, failures, derived, out)."""
    t0 = time.perf_counter()
    try:
        out = run(wl, job)
    except Exception as exc:  # a job that raises counts as failed
        return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"], {}, None
    wall = time.perf_counter() - t0
    failures, derived = workloads.evaluate(wl, job, out)
    return wall, failures, derived, out


def _report_failures(name, index, failures):
    for reason in failures:
        print(f"{name} job {index}: {reason}", file=sys.stderr)


def timed_run(workloads, name, seed, seconds):
    setup_s = _setup_seconds(name, seed)
    wl = workloads.build(name, seed)
    walls, raw_walls, failed, corrected_s, rounds = [], [], 0, 0.0, 0
    started = time.perf_counter()
    ref_before = reference_seconds()
    # rounds of about ROUND_S, each bracketed by reference measurements that
    # correct the timings inside it for host speed
    while True:
        elapsed = time.perf_counter() - started
        if (elapsed >= seconds and len(walls) >= MIN_JOBS) or elapsed >= HARD_STOP_S:
            break
        rounds += 1
        round_started, round_walls = time.perf_counter(), []
        while time.perf_counter() - round_started < ROUND_S:
            index = len(walls) + len(round_walls)
            wall, failures, _, _ = _attempt(workloads, wl, wl.jobs[index % len(wl.jobs)],
                                            workloads.run)
            round_walls.append(wall)
            if failures:
                failed += 1
                _report_failures(name, index, failures)
        round_s = time.perf_counter() - round_started
        ref_after = reference_seconds()
        scale = 2 * REF_NOMINAL_S / (ref_before + ref_after)
        ref_before = ref_after
        raw_walls += round_walls
        walls += [w * scale for w in round_walls]
        corrected_s += round_s * scale
    run_s = time.perf_counter() - started
    attempted = len(walls)
    print(f"{name} seed {seed}: {attempted} jobs in {rounds} rounds, {run_s:.2f} s, "
          f"{failed} failed; raw job p50 {statistics.median(raw_walls):.4f} s", file=sys.stderr)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": ((attempted - failed) / corrected_s, "1/s"),
        "job_s_p50": (statistics.median(walls), "s"),
        "job_s_p90": (statistics.quantiles(walls, n=10)[8], "s"),
        "pass_share": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return failed == 0, attempted, failed, metrics


def _layer_metrics(summary, derived, plain_s):
    calls, self_s = summary["calls"], summary["self_s"]
    job_s = summary["job_s"]
    cones = [d["cone"] for d in derived if "cone" in d]
    kept, tried = sum(k for k, _ in cones), sum(t for _, t in cones)
    gaps = [g for d in derived for g in d.get("rank_gaps", ())]
    transports = calls["holonomy.horizontal_transport"]
    derivatives = calls["holonomy.holonomy_derivative"]
    metrics = {
        "words.fox_calls": (calls["words.fox_derivative"], "count"),
        "words.fox_letters": (summary["fox_letters"], "count"),
        "groups.exp_calls": (calls["groups.exp"], "count"),
        "groups.log_calls": (calls["groups.log"], "count"),
        "groups.Ad_calls": (calls["groups.Ad_matrix"], "count"),
        "groups.algebra_to_matrix_calls": (calls["groups.algebra_to_matrix"], "count"),
        "groups.project_calls": (calls["groups.project_to_group"], "count"),
        "holonomy.transport_calls": (transports, "count"),
        "holonomy.derivative_calls": (derivatives, "count"),
        "holonomy.a2m_per_transport": (
            summary["a2m_under_holonomy"] / max(transports + derivatives, 1), "count"),
        "holonomy.err_max": (max((d.get("hol_err", 0.0) for d in derived), default=0.0), "abs"),
        "cohomology.build_calls": (calls["cohomology.build_complex"], "count"),
        "cohomology.eval_calls": (calls["cohomology.evaluate_group_ring"], "count"),
        "cohomology.newton_calls": (calls["cohomology.newton_project_to_variety"], "count"),
        "cohomology.newton_failed": (summary["raised"]["cohomology.newton_project_to_variety"], "count"),
        "cohomology.cone_kept_ratio": (kept / tried if tried else 0.0, "ratio"),
        "cohomology.rank_gap_min": (min(gaps, default=0.0), "ratio"),
        "reduction.points": (sum(d.get("points", 0) for d in derived), "count"),
        "reduction.relation_checks": (calls["reduction.check_relations"], "count"),
        "reduction.residual_max": (max((d.get("residual", 0.0) for d in derived), default=0.0), "abs"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        metrics[f"{layer}.share"] = (self_s.get(layer, 0.0) / job_s, "ratio")
    metrics["trace.overhead_ratio"] = (job_s / plain_s, "ratio")
    return metrics


def traced_run(workloads, name, seed):
    wl = workloads.build(name, seed)
    jobs = wl.jobs[:TRACE_JOBS[name]]
    tracer = Tracer()
    traced_job = tracer.wrap(ROOT, workloads.run)

    def traced_attempt(job):
        tracer.install(extra_modules=[workloads])
        try:
            return _attempt(workloads, wl, job, traced_job)
        finally:
            tracer.uninstall()

    # each job runs untraced and traced back to back, alternating which goes
    # first, so that drift in host speed cancels out of the overhead ratio
    plain, traced = [], []
    for index, job in enumerate(jobs):
        if index % 2:
            traced.append(traced_attempt(job))
            plain.append(_attempt(workloads, wl, job, workloads.run))
        else:
            plain.append(_attempt(workloads, wl, job, workloads.run))
            traced.append(traced_attempt(job))
    failed, mismatched = 0, 0
    for index, (a, b) in enumerate(zip(plain, traced)):
        if a[1] or b[1]:
            failed += 1
            _report_failures(name, index, a[1] or b[1])
        if pickle.dumps(a[3]) != pickle.dumps(b[3]):
            mismatched += 1
            print(f"{name} job {index}: traced result differs from untraced", file=sys.stderr)
    summary = tracer.summary()
    tracer.write(TRACE_DIR / f"trace-{name}-seed{seed}.json.gz")
    print(f"{name} seed {seed}: {len(jobs)} jobs traced, {summary['spans']} spans, "
          f"{failed} failed, {mismatched} differ", file=sys.stderr)
    metrics = _layer_metrics(summary, [b[2] for b in traced], sum(a[0] for a in plain))
    return failed == 0 and mismatched == 0, len(jobs), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["worked-example", "holonomy", "high-genus", "reduction"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _import_library()
    import workloads

    if args.trace:
        correct, attempted, failed, metrics = traced_run(workloads, args.workload, args.seed)
    else:
        correct, attempted, failed, metrics = timed_run(
            workloads, args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
