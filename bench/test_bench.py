"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench``."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))


def build(workload, seed):
    return run.workload_builder(workload, seed)(run.import_valtwist(), seed, run.ROOT)


def test_wrong_expected_verdict_counts_as_failed(monkeypatch, capsys):
    def two_jobs(vt, seed, root):
        jobs = workloads.radical(vt, seed, root)
        rootful = next(j for j in jobs if j.kind == "constructions.chain")
        wrong = workloads.Job(rootful.kind, rootful.label, rootful.run,
                              workloads._expect_raise(vt.errors.RootNotFound), rootful.checks)
        return [rootful, wrong]

    monkeypatch.setitem(workloads.WORKLOADS, "radical", two_jobs)
    code = run.main(["--workload", "radical", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == 4 and result["failed"] == 2  # two passes, one wrong job each


def test_self_time_on_nested_spans():
    S = tracing.Span
    spans = [
        S(1, "outer", 0.0, 10.0, None, 0, 1.0),
        S(2, "a", 1.0, 3.0, 1, 0, 0.25),
        S(3, "b", 2.0, 5.0, 1, 0, 0.0),  # overlaps a: coverage is counted once
        S(4, "leaf", 1.5, 2.0, 2, 0, 0.0),
        S(5, "other", 20.0, 21.0, None, 1, 0.0),
    ]
    selfs = tracing.span_self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 0.5 - 0.25)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)
    assert selfs[5] == pytest.approx(1.0)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_jobs_and_checks(workload):
    first, second = build(workload, 7), build(workload, 7)
    assert [j.label for j in first] == [j.label for j in second]
    assert [j.checks for j in first] == [j.checks for j in second]
    assert sum(j.checks for j in first) > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_different_seed_different_inputs(workload):
    assert [j.label for j in build(workload, 7)] != [j.label for j in build(workload, 8)]


def test_tracer_wraps_every_binding():
    vt = run.import_valtwist()
    originals = {name: getattr(vt.graded, name) for name in ("psi", "psi_inverse", "h_add", "h_mul", "in_v")}
    originals.update(twisted_mul=vt.twist.twisted_mul, is_trivial=vt.twist.is_trivial,
                     semigroup_hom_check=vt.twist.semigroup_hom_check, free_pair=vt.constructions.free_pair,
                     extend_choice=vt.constructions.extend_choice, load_setup=vt.setupfile.load_setup,
                     analyze_counterexample=vt.constructions.analyze_counterexample)
    tracer = tracing.Tracer()
    tracer.install(vt)
    expected = {
        vt.suites: ("psi", "psi_inverse", "h_add", "h_mul", "in_v", "twisted_mul", "is_trivial",
                    "semigroup_hom_check"),
        vt.cli: ("extend_choice", "analyze_counterexample", "load_setup", "is_trivial",
                 "semigroup_hom_check"),
        vt.setupfile: ("free_pair",),
    }
    for module, names in expected.items():
        for name in names:
            assert getattr(module, name) is not originals[name], (module.__name__, name)
    assert vt.suites.psi is vt.graded.psi is vt.psi
    assert all(tracer.bindings[op] > 0 for op, *_ in tracing.OPS)


def test_traced_calls_are_attributed_to_their_layer():
    vt = run.import_valtwist()
    tracer = tracing.Tracer()
    tracer.install(vt)
    tracer.enter("setup")
    setup = vt.suites.fixed_nontrivial_setup()
    tracer.enter(0)
    assert vt.twist.is_trivial(setup.eps, 6)[0] is False
    tracer.enter(None)
    assert vt.twist.is_trivial(setup.eps, 6)[0] is False  # not traced
    totals = tracer.op_totals("job")
    assert totals["twist.is_trivial"][0] == 1
    assert totals["twist.twisting"][0] > 0 and totals["valuation.residue"][0] > 0
    assert tracer.op_totals("setup")["twist.is_trivial"][0] == 0
    assert tracer.nesting_errors == 0
    metrics = tracer.layer_metrics(1)
    assert set(metrics) >= {f"{op}.calls" for op, *_ in tracing.OPS}


def test_scaled_times_cancel_host_speed():
    def one_pass(slowdown):
        probes = [slowdown * t for t in (0.6e-3, 0.6e-3, 0.6e-3, 0.6e-3)]
        return {"setup_s": slowdown * 0.5, "jobs": [("k", "a", 10), ("k", "b", 30)],
                "latencies": [slowdown * 0.01, slowdown * 0.03], "scale": run.probe_scales(probes)}

    steady, _ = run.end_to_end([one_pass(1.0)] * 3)
    drifting, _ = run.end_to_end([one_pass(1.0), one_pass(1.8), one_pass(1.3)])
    for name in ("checks_per_s", "verdict_p50_ms", "verdict_tail_ms", "setup_s"):
        assert drifting[name][0] == pytest.approx(steady[name][0])
    assert steady["checks_per_s"][0] == pytest.approx(40 / 0.04)
    assert steady["setup_s"][0] == pytest.approx(0.5)
