"""Run one fockhaus benchmark workload for one seed and print its metrics.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

The package is imported from src/ next to this directory, so nothing
needs installing.  Workloads: verify, norms-highdeg, classify (see
README.md).  With --trace 0 the run measures the end-to-end metrics; with
--trace 1 it runs the same cycles untraced and then traced, checks that
both give identical outputs, and reports per-layer metrics from the spans.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter

from tracing import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 4  # half before the cycles, half after, like the CLI probes
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120
SUITES = ("embeddings", "khintchine", "dilation", "examples", "coefficients", "explema")

END_TO_END = {
    "setup_s": "s",
    "cli_cold_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "digits_min": "digits",
}

PER_LAYER = {
    "focknorm.fock_norm.calls": "count",
    "focknorm.mixed_norm.calls": "count",
    "focknorm.radial_sup.calls": "count",
    "focknorm.radial_sup.self_s": "s",
    "focknorm.radial_sup.means_per_sup": "ratio",
    "focknorm.radial_integral.calls": "count",
    "focknorm.radial_integral.self_s": "s",
    "focknorm.circle_means.calls": "count",
    "focknorm.circle_means.radii": "count",
    "focknorm.mean2.self_s": "s",
    "focknorm.meanp.self_s": "s",
    "focknorm.meaninf.self_s": "s",
    "measure.weighted_mass.calls": "count",
    "measure.weighted_mass.quad_calls": "count",
    "measure.weighted_mass.self_s": "s",
    "measure.support_report.calls": "count",
    "measure.support_report.self_s": "s",
    "hausdorff.eigenvalue.calls": "count",
    "hausdorff.eigenvalue.self_s": "s",
    "hausdorff.apply_quadrature.calls": "count",
    "hausdorff.apply_quadrature.self_s": "s",
    "hausdorff.apply_quadrature.failed": "count",
    "hausdorff.dilation_opnorm_estimate.self_s": "s",
    "classify.series_verdict.calls": "count",
    "classify.series_verdict.self_s": "s",
    "classify.series_verdict.terms": "count",
    "classify.series_verdict.certified_ratio": "ratio",
    "classify.sup_verdict.calls": "count",
    "classify.sup_verdict.self_s": "s",
    "classify.sup_verdict.terms": "count",
    **{f"harness.{suite}_s": "s" for suite in SUITES},
    "entire.kernel.calls": "count",
    "entire.kernel.self_s": "s",
    "setup.numpy_s": "s",
    "setup.scipy_s": "s",
    "setup.fockhaus_self_s": "s",
    "cli.main.self_s": "s",
    "warnings.count": "count",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "layer.focknorm.share": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.overhead_est_ratio": "ratio",
    "trace.span_cost_us": "us",
    "trace.spans": "count",
    "trace.spans_dropped": "count",
}

clock = time.perf_counter


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * pct / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


@contextlib.contextmanager
def counted_warnings():
    """Count every warning (the 'always' action), print none."""
    box = [0]

    def count(*args, **kwargs):
        box[0] += 1

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = count
        yield box


def child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=os.environ, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )


# -- set-up -------------------------------------------------------------------------


def setup_times(repeats: int) -> list[float]:
    """Fresh interpreter to `import fockhaus` returning, `repeats` times.

    Each at the nominal machine speed: scaled by the reference loop run
    just before and after it (see workloads.Stage).
    """
    from workloads import REF_MS, reference_ms

    out = []
    for _ in range(repeats):
        ref = reference_ms()
        start = time.monotonic()
        proc = child(["-c", "import fockhaus, time; print(repr(time.monotonic()))"])
        if proc.returncode != 0:
            raise RuntimeError(f"import fockhaus failed: {proc.stderr[-500:]}")
        ref = 0.5 * (ref + reference_ms())
        out.append((float(proc.stdout.strip()) - start) * REF_MS / ref)
    return out


def importtime_split() -> dict[str, float]:
    """Median self import time of numpy, scipy and fockhaus modules (-X importtime)."""
    child(["-c", "import fockhaus.cli"])
    samples = {"numpy": [], "scipy": [], "fockhaus": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = child(["-X", "importtime", "-c", "import fockhaus"])
        acc = dict.fromkeys(samples, 0)
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            top = parts[2].strip().split(".")[0]
            if top in acc:
                acc[top] += int(parts[0])
        for key, us in acc.items():
            samples[key].append(us * 1e-6)
    return {key: statistics.median(v) for key, v in samples.items()}


# -- phases -------------------------------------------------------------------------


def measure_cycles(workload, seconds: float, run) -> int:
    """Whole cycles until `seconds` of wall time have passed (at least one)."""
    start = clock()
    cycles = 0
    while cycles == 0 or clock() - start < seconds:
        workload.run_cycle(cycles, run)
        if cycles == 0:
            run.cycle0_digits = len(run.digits)
        cycles += 1
    return cycles


def cold_cli(argv, check, run) -> float:
    """Wall time of one cold CLI invocation, at the nominal machine speed."""
    from workloads import Stage

    run.attempted += 1
    with Stage() as stage:
        try:
            proc = child(["-m", "fockhaus.cli", *argv])
        except subprocess.TimeoutExpired:
            proc = None
    if proc is None:
        run.wrong(f"cli {' '.join(argv)}: timed out")
        return stage.norm
    if proc.returncode != 0:
        run.wrong(f"cli {' '.join(argv)}: exit {proc.returncode}: {proc.stderr[-300:]}")
    else:
        problem = check(proc.stdout)
        if problem:
            run.wrong(problem)
    return stage.norm


def inprocess_cli(cli, argv, check, run) -> None:
    run.attempted += 1
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        run.wrong(f"cli {' '.join(argv)}: exit {rc}")
    else:
        problem = check(buf.getvalue())
        if problem:
            run.wrong(problem)
    run.outputs.append(buf.getvalue())


def report_checks(runs, extra: list[tuple[str, bool, str]]) -> bool:
    problems = [p for r in runs for p in r.problems]
    known = sum((r.known for r in runs), start=Counter())
    checks = [("no unexpected failures or wrong outputs", not problems,
               f"{len(problems)} problem(s)")] + extra
    for name, passed, detail in checks:
        print(f"check {'PASS' if passed else 'FAIL'}: {name} ({detail})")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    for defect, count in sorted(known.items()):
        print(f"known defect counted as failed: {defect} x{count}")
    return all(passed for _, passed, _ in checks)


def untraced(workload, seconds: float):
    import workloads

    # cold starts are sampled before and after the cycles, so that a slow
    # minute of the shared machine does not decide the whole median
    probes = workload.cli_probes()
    half = len(probes) // 2
    run = workloads.Run()  # the timed cycles
    once = workloads.Run()  # once per run: CLI, known-defect probes, accuracy
    child(["-c", "import fockhaus.cli"])  # compile bytecode outside the timing
    setup = setup_times(SETUP_REPEATS // 2)
    cli_s = [cold_cli(argv, check, once) for argv, check in probes[:half]]
    with counted_warnings():
        cycles = measure_cycles(workload, seconds, run)
        workload.run_probes(once)
        workload.accuracy(once)
    setup += setup_times(SETUP_REPEATS - SETUP_REPEATS // 2)
    cli_s += [cold_cli(argv, check, once) for argv, check in probes[half:]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = run.latencies_ms
    # cycle 0 only: more cycles would mean more draws and a lower minimum
    digits = run.digits[: run.cycle0_digits] + once.digits
    # one cycle plus the once-per-run operations, so that the ratio does not
    # depend on how many cycles fit in the measured time
    per_run_failed = run.failed / cycles + once.failed
    per_run_attempted = run.attempted / cycles + once.attempted
    samples = {
        "setup_s": (statistics.median(setup), len(setup)),
        "cli_cold_s": (statistics.median(cli_s), len(cli_s)),
        "peak_rss_mb": (rss_mb, 1),
        "ok_ratio": (1.0 - per_run_failed / per_run_attempted, run.attempted + once.attempted),
        "op_p50_ms": (statistics.median(lat), len(lat)),
        "op_p90_ms": (percentile(lat, 90.0), len(lat)),
        "ops_per_s": (run.units / run.work_norm_s, run.units),
        "digits_min": (min(digits), len(digits)),
    }
    print(f"cycles={cycles} {workload.unit_name}s={run.units} work_s={run.work_s!r} "
          f"(at the nominal machine speed {run.work_norm_s!r})")
    raw = run.raw_latencies_ms
    print(f"wall clock, not normalized: op_p50_ms {statistics.median(raw)!r}, "
          f"op_p90_ms {percentile(raw, 90.0)!r}, ops_per_s {run.units / run.work_s!r}")
    extra = []
    if workload.name == "verify":
        golden = run.golden_problems
        extra.append((
            "golden CSV at the default seed", not golden,
            f"seed is not {workloads.GOLDEN_SEED}, not compared" if golden is None
            else f"{len(golden)} difference(s)",
        ))
    correct = report_checks([run, once], extra)
    metrics = {}
    for name, unit in END_TO_END.items():
        value, n = samples[name]
        print(f"metric {name} = {value!r} {unit} (n={n})")
        metrics[name] = {"value": value, "unit": unit}
    return correct, run.attempted + once.attempted, run.failed + once.failed, metrics


def traced(workload, seconds: float, seed: int):
    import fockhaus
    import fockhaus.cli
    import tracing
    import workloads

    split = importtime_split()
    base = workloads.Run()
    with counted_warnings():
        # a third of the time: the same cycles are replayed twice, traced, and
        # the three passes together end near --seconds
        cycles = measure_cycles(workload, seconds / 3.0, base)
        workload.run_probes(base)
    # pass A: spans on the entry points, the hot two left alone (their time
    # stays in their callers); pass B: the same cycles again, the hot two
    # counted and timed per caller
    tracer = tracing.Tracer()
    tracing.install(tracer, fockhaus, hot=False)
    run = workloads.Run()
    try:
        with counted_warnings() as n_warnings:
            cli_s = replay(workload, cycles, run, fockhaus.cli)
            pass_cost_s = tracer.cost_s()
    finally:
        tracer.uninstall()
    tracer.finish()
    counter = tracing.Tracer()
    tracing.install(counter, fockhaus, hot=True)
    pass_b = workloads.Run()
    try:
        with counted_warnings():
            replay(workload, cycles, pass_b, fockhaus.cli)
    finally:
        counter.uninstall()
    counter.finish()
    os.makedirs(OUT_DIR, exist_ok=True)
    dump = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.jsonl.gz")
    tracer.dump(dump)

    n = len(base.outputs)
    same = repr(base.outputs) == repr(run.outputs[:n]) == repr(pass_b.outputs[:n])
    extra = [("traced and untraced outputs identical", same, f"{n} outputs, 2 traced passes")]
    correct = report_checks([base, run, pass_b], extra)
    print(f"cycles={cycles} untraced work_s={base.work_s!r} traced work_s={run.work_s!r}")
    print(f"spans written to {os.path.relpath(dump, ROOT)}")
    print(f"tracer cost taken out of self times: {1e6 * tracer.span_cost_s:.2f} us per span, "
          f"{1e6 * counter.hot_bias:.2f} us per hot call")

    # pass B's seconds are rescaled to pass A's machine speed, as the
    # reference loop timed around their stages gives it: the shared machine's
    # speed drifts between passes, and the hot time is taken out of callers
    # timed in pass A
    speed = ratio(statistics.median(run.refs_ms), statistics.median(pass_b.refs_ms))
    print(f"pass B work_s={pass_b.work_s!r}, rescaled by {speed!r}")
    calls, counts = Counter(tracer.calls), Counter(tracer.counts)
    self_s = dict(tracer.self_s)
    for name, by_caller in counter.hot_split.items():
        calls[name] = counter.calls[name]
        self_s[name] = counter.self_s[name] * speed
        for parent, seconds in by_caller.items():
            if parent is not None and parent not in counter.hot_split:
                self_s[parent] = self_s.get(parent, 0.0) - seconds * speed
    counts["measure.weighted_mass.quad_calls"] = counter.counts["measure.weighted_mass.quad_calls"]
    self_s = Counter(self_s)
    spans = tracer.span_count()

    values = {
        "focknorm.fock_norm.calls": calls["focknorm.fock_norm"],
        "focknorm.mixed_norm.calls": calls["focknorm.mixed_norm"],
        "focknorm.radial_sup.calls": calls["focknorm.radial_sup"],
        "focknorm.radial_sup.self_s": self_s["focknorm.radial_sup"],
        "focknorm.radial_sup.means_per_sup": ratio(
            counts["focknorm.radial_sup.means"], calls["focknorm.radial_sup"]),
        "focknorm.radial_integral.calls": calls["focknorm.radial_integral"],
        "focknorm.radial_integral.self_s": self_s["focknorm.radial_integral"],
        "focknorm.circle_means.calls": calls["focknorm.circle_means"],
        "focknorm.circle_means.radii": counts["focknorm.circle_means.radii"],
        "focknorm.mean2.self_s": self_s["focknorm.mean2"],
        "focknorm.meanp.self_s": self_s["focknorm.meanp"],
        "focknorm.meaninf.self_s": self_s["focknorm.meaninf"],
        "measure.weighted_mass.calls": calls["measure.weighted_mass"],
        "measure.weighted_mass.quad_calls": counts["measure.weighted_mass.quad_calls"],
        "measure.weighted_mass.self_s": self_s["measure.weighted_mass"],
        "measure.support_report.calls": calls["measure.support_report"],
        "measure.support_report.self_s": self_s["measure.support_report"],
        "hausdorff.eigenvalue.calls": calls["hausdorff.eigenvalue"],
        "hausdorff.eigenvalue.self_s": self_s["hausdorff.eigenvalue"],
        "hausdorff.apply_quadrature.calls": calls["hausdorff.apply_quadrature"],
        "hausdorff.apply_quadrature.self_s": self_s["hausdorff.apply_quadrature"],
        "hausdorff.apply_quadrature.failed": counts["hausdorff.apply_quadrature.failed"],
        "hausdorff.dilation_opnorm_estimate.self_s":
            self_s["hausdorff.dilation_opnorm_estimate"],
        "classify.series_verdict.calls": calls["classify.series_verdict"],
        "classify.series_verdict.self_s": self_s["classify.series_verdict"],
        "classify.series_verdict.terms": counts["classify.series_verdict.terms"],
        "classify.series_verdict.certified_ratio": ratio(
            counts["classify.series_verdict.certified"], calls["classify.series_verdict"]),
        "classify.sup_verdict.calls": calls["classify.sup_verdict"],
        "classify.sup_verdict.self_s": self_s["classify.sup_verdict"],
        "classify.sup_verdict.terms": counts["classify.sup_verdict.terms"],
        **{f"harness.{s}_s": tracer.total_s[f"harness.{s}"] for s in SUITES},
        "entire.kernel.calls": calls["entire.kernel"],
        "entire.kernel.self_s": self_s["entire.kernel"],
        "setup.numpy_s": split["numpy"],
        "setup.scipy_s": split["scipy"],
        "setup.fockhaus_self_s": split["fockhaus"],
        "cli.main.self_s": self_s["cli.main"],
        "warnings.count": n_warnings[0],
        **{f"layer.{layer}.self_s": tracing.layer_self_s(self_s, layer) for layer in LAYERS},
        # the calibrated tracer cost of every span is taken out of the denominator,
        # as it is taken out of every self time
        "layer.focknorm.share": ratio(tracing.layer_self_s(self_s, "focknorm"),
                                      run.work_s + cli_s - tracer.cost_s()),
        "trace.overhead_ratio": ratio(run.work_norm_s, base.work_norm_s) - 1.0,
        "trace.overhead_est_ratio": ratio(pass_cost_s, base.work_s),
        "trace.span_cost_us": tracer.span_cost_s * 1e6,
        "trace.spans": spans,
        "trace.spans_dropped": tracer.dropped,
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        print(f"layer {name} = {values[name]!r} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    attempted = base.attempted + run.attempted + pass_b.attempted
    failed = base.failed + run.failed + pass_b.failed
    return correct, attempted, failed, metrics


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def replay(workload, cycles: int, run, cli) -> float:
    """The measured cycles, the probes and the CLI in process; returns the CLI time."""
    for index in range(cycles):
        workload.run_cycle(index, run)
    workload.run_probes(run)
    t0 = clock()
    for argv, check in workload.cli_probes():
        inprocess_cli(cli, argv, check, run)
    return clock() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "norms-highdeg", "classify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fockhaus", "__init__.py")):
        print(f"bench: {os.path.join(SRC, 'fockhaus')} not found", file=sys.stderr)
        return 2
    # one process, no worker threads: the harness reads FOCK_THREADS at call time
    fock_threads = os.environ.pop("FOCK_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"env: FOCK_THREADS {'unset' if fock_threads is None else f'was {fock_threads!r}, unset'}; "
          f"{'/'.join(THREAD_VARS)}=1; nproc={os.cpu_count()}; "
          f"python {sys.version.split()[0]}")

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        correct, attempted, failed, metrics = traced(workload, args.seconds, args.seed)
    else:
        correct, attempted, failed, metrics = untraced(workload, args.seconds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
