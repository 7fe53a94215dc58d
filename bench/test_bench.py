"""Tests of the benchmark itself: generators, metric names, tracing.

Run with the repository's tests (`python -m pytest -q` from the root).
The workloads here are shrunk to low degrees so the file runs in seconds;
the full workloads run only through run.py.
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


class TinyNorms(workloads.NormsHighDeg):
    def inputs(self, index):
        return [
            ("kernel", (1.0, 0.5 + 0.5j)),
            ("monomial", (6, 1.5 - 0.5j)),
            ("polynomial", (0.3, 0.2j, -0.5, 0.1 + 0.1j)),
        ]

    def cli_probes(self):
        return [(["norm", "--fn", "monomial:3", "--p", "2"],
                 lambda out: None if abs(float(out) - math.sqrt(6.0)) < 1e-12 else out)]


class TinyClassify(workloads.Classify):
    def inputs(self, index):
        both = ("dossier", "apply")
        cases = [
            ("dirac-near", ("dirac", 1.1), both),
            ("density-finite", ("density", 1.5, 1.2, 2.5), both),
            ("example:atom-at-1-family", workloads.EXAMPLES["atom-at-1-family"], both),
        ]
        return cases, [0.5, 0.25j, -0.1], [0.7 + 0.2j]

    def probes(self):
        cases = [("density-inf", ("density", 2.5, 1.0, ref.INF), ("dossier", "apply"))]
        return cases, [0.5, 0.25j, -0.1], [0.7 + 0.2j]

    def cli_probes(self):
        return []


@pytest.mark.parametrize("cls", [workloads.NormsHighDeg, workloads.Classify])
def test_generator_is_deterministic_per_seed(cls):
    assert repr(cls(7).inputs(3)) == repr(cls(7).inputs(3))
    assert repr(cls(7).inputs(3)) != repr(cls(8).inputs(3))
    assert repr(cls(7).inputs(3)) != repr(cls(7).inputs(4))
    if cls is workloads.Classify:
        assert repr(cls(7).probes()) == repr(cls(7).probes()) != repr(cls(8).probes())
    argv = [[a for a, _ in cls(s).cli_probes()] for s in (7, 7, 8)]
    assert argv[0] == argv[1] != argv[2]


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.SUITES == workloads.harness.SUITES


def test_untraced_run_prints_every_end_to_end_metric(capsys, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", run.SRC)  # for the cold interpreters
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    correct, attempted, failed, metrics = run.untraced(TinyNorms(1), 0.0)
    printed = capsys.readouterr().out
    assert correct and failed == 0 and attempted == 21
    assert list(metrics) == list(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert f"metric {name} = " in printed
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0


def test_traced_run_matches_untraced_and_splits_layers(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "IMPORTTIME_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    correct, _, _, metrics = run.traced(TinyNorms(1), 0.0, 1)
    value = {name: m["value"] for name, m in metrics.items()}
    assert correct  # includes the traced-vs-untraced output identity
    assert list(value) == list(run.PER_LAYER)
    assert value["focknorm.fock_norm.calls"] > 0
    assert value["focknorm.radial_sup.means_per_sup"] > 1
    assert value["classify.series_verdict.calls"] == 0
    assert value["measure.weighted_mass.calls"] == 0
    assert os.path.exists(tmp_path / "trace-norms-highdeg-seed1.jsonl.gz")

    correct, _, failed, metrics = run.traced(TinyClassify(1), 0.0, 1)
    value = {name: m["value"] for name, m in metrics.items()}
    assert correct
    assert failed == 3  # the density-inf probe, untraced and in both traced passes
    assert value["focknorm.circle_means.calls"] == 0
    assert value["classify.series_verdict.calls"] > 0
    assert value["measure.weighted_mass.quad_calls"] > 0


def test_known_defects_count_only_in_the_untimed_probes():
    w = TinyClassify(1)
    timed = workloads.Run()
    w.run_cycle(0, timed)
    assert timed.failed == 0 and timed.units == 9
    probed = workloads.Run()
    w.run_probes(probed)
    assert probed.failed == 1 and probed.known == {"density-inf-divergent": 1}
    assert probed.work_s == 0.0 and probed.units == 0 and probed.latencies_ms == []

    # the same defect in a timed cycle is not excused
    class Timed(TinyClassify):
        def inputs(self, index):
            return self.probes()

    run_ = workloads.Run()
    Timed(1).run_cycle(0, run_)
    assert run_.failed == 1 and not run_.known and run_.problems


def test_stage_scales_wall_time_by_the_reference(monkeypatch):
    readings = iter([2.0 * workloads.REF_MS, 4.0 * workloads.REF_MS])
    monkeypatch.setattr(workloads, "reference_ms", lambda: next(readings))
    with workloads.Stage() as stage:
        sum(range(1000))
    # the machine ran the reference at a third of the nominal speed
    assert stage.norm == pytest.approx(stage.raw / 3.0)


def test_tracer_takes_its_own_cost_out_of_self_time():
    import time

    import tracing

    tracer = tracing.Tracer()
    assert 0.0 < tracer.span_cost_s < 1e-4
    leaf = tracer._wrapper(lambda: None, "leaf")

    def body():
        for _ in range(50_000):
            leaf()

    t0 = time.perf_counter()
    for _ in range(50_000):
        (lambda: None)()
    bare = time.perf_counter() - t0
    tracer._wrapper(body, "outer")()
    # uncorrected, the outer self time would be several times the bare loop
    assert tracer.self_s["outer"] < bare + 50_000 * tracer.span_cost_s
    assert abs(tracer.self_s["leaf"]) < 0.5 * 50_000 * tracer.span_cost_s


def test_hot_entry_points_are_counted_and_timed_per_caller():
    import fockhaus
    import tracing
    from fockhaus import hausdorff, measure

    op = hausdorff.HausdorffOperator(measure.dirac(2.0))
    op.eigenvalue(3)
    product = measure.MellinConvolution(measure.dirac(2.0), measure.dirac(3.0))
    tracer = tracing.Tracer()
    tracing.install(tracer, fockhaus, hot=True)

    def caller():
        for _ in range(40_000):
            op.eigenvalue(3)
        product.weighted_mass(-2.0)

    try:
        tracer._wrapper(caller, "caller")()
    finally:
        tracer.uninstall()
    tracer.finish()
    assert tracer.calls["hausdorff.eigenvalue"] == 40_000
    assert tracer.calls["measure.weighted_mass"] == 1  # the factors are part of the call
    assert tracer.span_count() == 1  # only the caller
    assert set(tracer.hot_split["hausdorff.eigenvalue"]) == {"caller"}
    eig = tracer.self_s["hausdorff.eigenvalue"]
    # the caller's self time still holds the hot calls; hot_split says how much
    assert 0 < eig == tracer.hot_split["hausdorff.eigenvalue"]["caller"] < tracer.self_s["caller"]


def test_tracer_restores_every_binding():
    import fockhaus
    import tracing
    from fockhaus import classify, focknorm, harness, hausdorff, measure

    before = (focknorm.fock_norm, harness._log_circle_means, classify.support_report,
              hausdorff.HausdorffOperator.__dict__["eigenvalue"],
              measure.PointMasses.__dict__["weighted_mass"])
    tracer = tracing.Tracer()
    tracing.install(tracer, fockhaus)
    assert harness._log_circle_means is not before[1]
    assert classify.support_report is measure.support_report
    tracer.uninstall()
    after = (focknorm.fock_norm, harness._log_circle_means, classify.support_report,
             hausdorff.HausdorffOperator.__dict__["eigenvalue"],
             measure.PointMasses.__dict__["weighted_mass"])
    assert after == before


def test_golden_check_reports_drift(capsys, monkeypatch):
    class Drift(workloads.Verify):
        def run_cycle(self, index, run_):
            run_.attempted += 1
            with workloads.Stage() as stage:
                pass
            run_.op(stage)
            run_.golden_problems = ["golden: a trials 11 != 10"]
            run_.wrong(run_.golden_problems[0])

        def accuracy(self, run_):
            run_.digits.append(15.0)

        def cli_probes(self):
            return TinyNorms(1).cli_probes()

    monkeypatch.setenv("PYTHONPATH", run.SRC)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    correct, _, failed, _ = run.untraced(Drift(workloads.GOLDEN_SEED), 0.0)
    printed = capsys.readouterr().out
    assert not correct and failed == 1
    assert "check FAIL: golden CSV at the default seed (1 difference(s))" in printed


def test_golden_comparison_flags_drift():
    golden = (
        "property-id,trials,violations,worst-margin,measured-constant\n"
        "a,10,0,1.0e+00,2.000000000000e+00\n"
        "b,5,0,1.0e+00,\n"
    )
    assert workloads.compare_golden(golden, golden) == []
    close = golden.replace("2.000000000000e+00", "2.000000000001e+00")
    assert workloads.compare_golden(close, golden) == []
    assert workloads.compare_golden(golden.replace("a,10", "a,11"), golden)
    assert workloads.compare_golden(golden.replace("2.000000000000e+00", "2.1e+00"), golden)


def test_reference_closed_forms():
    # Gamma formula against a direct Riemann sum of alpha*q * r**(n q) e^{-alpha q r^2/2} r
    n, q, alpha = 3, 1.5, 0.8
    h = 1e-3
    s = sum((k * h) ** (n * q) * math.exp(-alpha * q * (k * h) ** 2 / 2) * k * h
            for k in range(1, 20000)) * h * alpha * q
    assert math.log(s) / q == pytest.approx(ref.log_monomial_norm(n, q, alpha), rel=1e-9)
    assert ref.moment(("density", 0.0, 1.0, 2.0), 0) == pytest.approx(math.log(2.0))
    assert ref.moment(("constant", 0.5, 1.0), 1) == pytest.approx(1.0)
    assert ref.moment(("geom", 0.5, 2.0), 0) == pytest.approx(1.0 / 3.0)
    assert ref.expected_compact(("dirac", 1.0)) is False
    assert ref.expected_bounded(("mellin", ("dirac", 0.5), ("power", 2.0))) is False
