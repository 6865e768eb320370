"""valtwist benchmark: seeded workloads, verdict metrics, and a traced run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload campaign --seed 1 --seconds 60 --trace 0

The load is one process on one thread in a closed loop: each job starts when
the previous one has returned its verdict.  A run first makes the workload's
untimed plan (draws by rejection, if it has any), then repeats *passes*
while a typical pass still fits in ``--seconds`` (at least two).  A pass
imports valtwist afresh from ``src/``, builds the workload's inputs from the
seed and the plan (that is the set-up time) and runs every job once,
checking each verdict outside the timed call.

``--trace 0`` prints the end-to-end metrics; no wrapper is installed.
Times are *probe-scaled*: the benchmark runs a fixed pure-Python probe
(:func:`speed_probe`, no valtwist code) before set-up, between jobs and after
the last job, divides each job's (and set-up's) wall time by the mean time of
the two probes around it, and multiplies by :data:`REFERENCE_PROBE_S`.  The
latency metrics and ``checks_per_s`` take each job's median scaled time over
the passes; ``setup_s`` is the median scaled set-up time.  The unscaled wall
figures are printed beside them.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (per pass, set-up and jobs apart), plus
``trace.overhead_ratio``; the full trace is written to ``.bench_build/trace/``.

Human-readable lines come first; the last line of stdout is one JSON object.
The exit code is 1 when any verdict is wrong or a traced entry point never
fired, and 2 when the checkout holds no valtwist sources.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

# entry points each workload's jobs are meant to exercise; the traced run
# fails if one never fires while jobs run
EXPECTED = {
    "campaign": (
        "suites", "cli.main", "setupfile.load_setup", "twist.twisted_mul", "twist.twisting",
        "twist.choice_eval", "twist.is_trivial", "twist.hom_check", "graded.psi",
        "graded.psi_inverse", "graded.h_ops", "valuation.value", "valuation.initial_rf",
        "valuation.residue", "valuation.in_eq", "valuation.residue_arith",
        "valuation.residue_eq", "mpoly.parse", "constructions.free_pair",
        "ordgroup.add", "ordgroup.hash", "ordgroup.compare", "mpoly.monomial_mul",
        "mpoly.poly_mul", "mpoly.poly_add", "mpoly.rf_new",
    ),
    "radical": (
        "constructions.extend_choice", "constructions.analyze", "constructions.monomial_pool",
        "mpoly.nth_root", "mpoly.poly_pow", "mpoly.poly_add", "mpoly.rf_eq", "mpoly.parse",
        "ordgroup.min_multiple", "ordgroup.decompose",
    ),
}
# ... and while the benchmark builds their inputs
EXPECTED_SETUP = {
    "campaign": ("mpoly.parse",),
    "radical": ("setupfile.load_setup", "mpoly.parse", "constructions.free_pair"),
}

MODULES = ("errors", "ordgroup", "mpoly", "valuation", "twist", "graded", "constructions",
           "suites", "setupfile", "cli")

# The benchmark runs on shared hosts, where the same work can take up to about
# 1.8x longer while a neighbour loads the core; the slow phases switch within
# seconds but can also last for whole runs, so no statistic of wall time alone
# repeats between runs.  The probe slows down with the host, so a job's time
# over the probe's time around it does repeat.  Scaled times read in seconds
# of a host on which the probe takes REFERENCE_PROBE_S: its time on an unloaded
# core of the 2-core CPython 3.11 host the baseline was measured on.
REFERENCE_PROBE_S = 0.6e-3

# candidate percentiles for verdict_tail_ms, highest first
TAIL_PERCENTILES = (99.9, 99, 98, 95, 90, 80, 75, 50)


def import_valtwist():
    """Import valtwist from this checkout's ``src/``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "valtwist" or m.startswith("valtwist.")]:
        del sys.modules[name]
    vt = importlib.import_module("valtwist")
    for name in MODULES:
        importlib.import_module(f"valtwist.{name}")
    if Path(vt.__file__).resolve().parent != ROOT / "src" / "valtwist":
        raise ImportError(f"valtwist was imported from {vt.__file__}, not from this checkout")
    return vt


def workload_builder(workload: str, seed: int):
    """The workload's job-list builder, with its plan (if any) already drawn."""
    build = workloads.WORKLOADS[workload]
    planner = workloads.PLANS.get(workload)
    if planner is None:
        return build
    return functools.partial(build, plan=planner(import_valtwist(), seed))


def speed_probe():
    """A fixed piece of pure-Python work, like valtwist's (Fractions, tuples, dicts)."""
    acc, seen = Fraction(0), {}
    for i in range(1, 150):
        acc = acc * Fraction(1, 2) + Fraction(i % 7 - 3, i % 5 + 1)
        key = (i % 11, i % 13)
        seen[key] = seen.get(key, 0) + 1
    return acc, len(seen)


def probe_time() -> float:
    t0 = perf_counter()
    speed_probe()
    return perf_counter() - t0


def probe_scales(probes) -> list[float]:
    """Factors from wall to scaled time, for each interval between two probes.

    The first interval is set-up, interval ``i + 1`` is job ``i``.
    """
    return [REFERENCE_PROBE_S / ((a + b) / 2) for a, b in zip(probes, probes[1:])]


def run_jobs(jobs, probes, tracer=None):
    """Run each job once, in order; returns (latencies in s, [(index, reason)]).

    Appends to ``probes`` the probe time before each job and after the last.
    """
    latencies, failures = [], []
    for i, job in enumerate(jobs):
        probes.append(probe_time())
        if tracer is not None:
            tracer.enter(i)
        t0 = perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # a raise is a verdict; the checker judges it
            out = exc
        latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.enter(None)  # the checker is not traced
        try:
            reason = job.check(out)
        except Exception as exc:
            reason = f"checker raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((i, reason))
    probes.append(probe_time())
    return latencies, failures


def run_pass(build, seed: int, tracer=None) -> dict:
    gc.collect()
    probes = [probe_time()]
    t0 = perf_counter()
    vt = import_valtwist()
    if tracer is not None:
        tracer.install(vt)
        tracer.enter("setup")
    jobs = build(vt, seed, ROOT)
    setup_s = perf_counter() - t0
    latencies, failures = run_jobs(jobs, probes, tracer)
    # keep no job objects: their choice functions and caches would pile up over passes
    jobs = [(job.kind, job.label, job.checks) for job in jobs]
    return {"setup_s": setup_s, "jobs": jobs, "latencies": latencies, "failures": failures,
            "scale": probe_scales(probes), "probes": probes}


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten of ``n`` samples beyond it (else 50)."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(passes, scaled: bool = True) -> tuple[dict, dict]:
    """The end-to-end metrics (probe-scaled, or plain wall times), and the facts printed beside them."""
    jobs = passes[0]["jobs"]
    checks = sum(checks for _kind, _label, checks in jobs)

    def time_of(p, i):  # i = -1 is set-up
        seconds = p["setup_s"] if i < 0 else p["latencies"][i]
        return seconds * p["scale"][i + 1] if scaled else seconds

    per_job = [statistics.median(time_of(p, i) for p in passes) for i in range(len(jobs))]
    tail = tail_percentile(len(jobs))
    metrics = {
        "checks_per_s": (checks / sum(per_job), "checks/s"),
        "verdict_p50_ms": (1000 * statistics.median(per_job), "ms"),
        "verdict_tail_ms": (1000 * percentile(per_job, tail), "ms"),
        "setup_s": (statistics.median(time_of(p, -1) for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    facts = {"jobs_per_pass": len(jobs), "checks_per_pass": checks, "tail_percentile": tail}
    return metrics, facts


def trace_report(tracer, workload: str, seed: int, plain, traced) -> tuple[dict, bool]:
    """Per-layer metrics of the traced passes; writes the trace and checks the wiring."""
    def job_wall(passes):
        return statistics.median(sum(p["latencies"]) for p in passes)

    layer = tracer.layer_metrics(len(traced))
    layer["trace.overhead_ratio"] = (job_wall(traced) / job_wall(plain), "ratio")
    setup_calls = tracer.op_totals("setup")
    silent = [f"{op} (jobs)" for op in EXPECTED[workload] if layer[f"{op}.calls"][0] == 0]
    silent += [f"{op} (set-up)" for op in EXPECTED_SETUP[workload] if setup_calls[op][0] == 0]
    for op in silent:
        print(f"error: traced entry point {op} never fired on {workload}", file=sys.stderr)
    if tracer.nesting_errors:
        print(f"error: {tracer.nesting_errors} spans started inside a counted op", file=sys.stderr)
    out_dir = ROOT / ".bench_build" / "trace"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return layer, not silent and not tracer.nesting_errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "valtwist" / "__init__.py").is_file():
        print(f"error: no valtwist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    build = workload_builder(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, pass_seconds = [], [], []
    start = perf_counter()
    # at least two passes of each kind; after that, a pass starts only if a
    # typical pass still ends within --seconds
    while (len(plain) < 2 or (tracer and len(traced) < 2)
           or perf_counter() - start + statistics.median(pass_seconds) <= args.seconds):
        # with tracing, passes alternate so that drift hits both sides alike
        use_tracer = tracer is not None and len(traced) < len(plain)
        t0 = perf_counter()
        p = run_pass(build, args.seed, tracer if use_tracer else None)
        pass_seconds.append(perf_counter() - t0)
        (traced if use_tracer else plain).append(p)

    runs = plain + traced
    attempted = sum(len(p["jobs"]) for p in runs)
    failed = sum(len(p["failures"]) for p in runs)
    jobs = runs[0]["jobs"]
    for i, reason in sorted({f for p in runs for f in p["failures"]}):
        kind, label, _checks = jobs[i]
        print(f"FAILED job {i} [{kind}] {label}: {reason}", file=sys.stderr)

    metrics, facts = end_to_end(plain)
    metrics["failed_frac"] = (failed / attempted, "ratio")
    wall, _ = end_to_end(plain, scaled=False)
    probes = [t for p in plain for t in p["probes"]]
    print(
        f"workload {args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} traced passes, "
        f"{facts['jobs_per_pass']} jobs and {facts['checks_per_pass']} checks per pass, "
        f"verdict_tail_ms is p{facts['tail_percentile']:g} over {facts['jobs_per_pass']} per-job medians; "
        f"probe took {1000 * min(probes):.3f}-{1000 * max(probes):.3f} ms, median "
        f"{1000 * statistics.median(probes):.3f} ms (reference {1000 * REFERENCE_PROBE_S:g} ms)"
    )
    for name, (value, unit) in metrics.items():
        unscaled = f"  (wall, unscaled: {wall[name][0]:.6g})" if name in wall and name != "peak_rss_mb" else ""
        print(f"  {name} = {value:.6g} {unit}{unscaled}")
    if tracer is None:
        reported = {k: v for k, v in metrics.items() if k != "failed_frac"}
        ok = failed == 0
    else:
        reported, ok = trace_report(tracer, args.workload, args.seed, plain, traced)
        ok = ok and failed == 0
        for name, (value, unit) in reported.items():
            print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
