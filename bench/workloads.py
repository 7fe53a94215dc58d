"""The three workloads: seeded inputs, timed operations and their oracles.

A workload runs in cycles.  Cycle i draws its inputs from a generator
seeded with (workload, seed, i), so the same seed gives the same inputs and
every cycle has the same composition; only the drawn parameters change.
Entry points are looked up on the fockhaus modules at call time, so a
tracer that rebinds them sees every call.

The timed cycles hold only operations that succeed at the commit that
defined this benchmark.  Known defects of the code under test run in a
separate, untimed probe phase (``Classify.run_probes``); they are counted
as failed operations, never filtered out, and ``KNOWN_DEFECTS`` names them
so that any other failure marks the run incorrect.  A fix therefore raises
ok_ratio without adding work to the timed mix.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import time
from collections import Counter

import numpy as np

from fockhaus import classify, entire, focknorm, harness, hausdorff, measure

import reference as ref

INF = float("inf")
ALPHA = 1.0
clock = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_SEED = 42
GOLDEN_CSV = os.path.join(HERE, "golden", "verify-seed42.csv")
GOLDEN_REL_TOL = 1e-6
CLI_PROBES = 6  # cold CLI invocations per run

JITTER = 0.02
NORM_REL_TOL = 1e-3  # a norm further than this from its closed form is wrong
MOMENT_REL_TOL = 1e-6
APPLY_REL_TOL = 1e-8
ORDER_SLACK = 1e-6

# (case, stage, exception) -> defect id, for the untimed probes only.  Each is a
# defect of fockhaus at the commit that defined this benchmark; a fix shows as
# fewer failed operations.
KNOWN_DEFECTS = {
    # (math.exp(u) - 1) ** (b - 1) overflows inside the quadrature action
    ("beta", "apply", "OverflowError"): "beta-quadrature-overflow",
    ("example:beta22", "apply", "OverflowError"): "beta-quadrature-overflow",
    ("beta-negative-a", "apply", "OverflowError"): "beta-quadrature-overflow",
    # t = math.exp(u) sits outside the try in measure._log_substituted_quad
    ("density-inf", "build", "DivergentMoment"): "density-inf-divergent",
    # raw float moments: ratio**power overflows in series_verdict
    ("dirac-far-below", "dossier", "OverflowError"): "raw-moment-overflow",
    # raw float moments: ratio**power underflows to 0, then log(0)
    ("dirac-far-above", "dossier", "ValueError"): "raw-moment-underflow",
    # _envelope_consts raises min(1, a) < 0 to -b: a complex constant for a < 0
    ("beta-negative-a", "dossier", "TypeError"): "beta-envelope-negative-a",
    # moment extension to n = 256 passes the 1e50 plausibility bound
    ("example:bump-below-1", "dossier", "DivergentMoment"): "moment-extension-bound",
}


class Run:
    """What one measured phase produced."""

    def __init__(self):
        self.latencies_ms: list[float] = []  # at the nominal machine speed, see Stage
        self.raw_latencies_ms: list[float] = []  # as the wall clock read them
        self.work_s = 0.0
        self.work_norm_s = 0.0  # work_s at the nominal machine speed
        self.refs_ms: list[float] = []  # the reference loop around the work
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.known: Counter = Counter()
        self.problems: list[str] = []
        self.digits: list[float] = []
        self.cycle0_digits = 0  # how many of the digits cycle 0 produced
        self.outputs: list = []
        self.golden_problems: list[str] | None = None  # None: not compared

    def fail(self, case: str, stage: str, exc: Exception, probe: bool = False) -> None:
        """A raised exception; only a probe may match a known defect."""
        self.failed += 1
        defect = KNOWN_DEFECTS.get((case, stage, type(exc).__name__)) if probe else None
        if defect is None:
            self.problems.append(f"{case}/{stage}: {type(exc).__name__}: {exc}")
        else:
            self.known[defect] += 1

    def wrong(self, what: str) -> None:
        """An operation that returned, but with a wrong result."""
        self.failed += 1
        self.problems.append(what)

    def spend(self, stage: "Stage") -> None:
        """Count a stage's time as work."""
        self.work_s += stage.raw
        self.work_norm_s += stage.norm
        self.refs_ms += stage.refs_ms

    def op(self, stage: "Stage") -> None:
        """Count a stage as one operation: its latency, and its time as work."""
        self.spend(stage)
        self.latencies_ms.append(stage.norm * 1e3)
        self.raw_latencies_ms.append(stage.raw * 1e3)
        self.units += 1


# The reference loop below takes about this long on the machine the benchmark
# was defined on (Intel Xeon, 2.1 GHz, Python 3.11) at a typical moment.
REF_MS = 0.5
_REF_X = np.linspace(-1.0, 1.0, 256)


def reference_ms() -> float:
    """Wall time in ms of a fixed loop of float arithmetic and small numpy calls.

    It runs no fockhaus code, so it slows down only with the machine.
    """
    t0 = clock()
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    for _ in range(60):
        np.exp(_REF_X).sum()
    return (clock() - t0) * 1e3


class Stage:
    """A timed stage: wall time, and wall time at the nominal machine speed.

    The reference loop runs just before and just after the stage; ``norm``
    is ``raw * REF_MS / mean(reference)``.  On a shared machine whose speed
    changes by tens of percent from one ten-second stretch to the next,
    this keeps what the machine did out of what the code did.
    """

    def __enter__(self) -> "Stage":
        self._ref0 = reference_ms()
        self._t0 = clock()
        return self

    def __exit__(self, *exc) -> bool:
        self.raw = clock() - self._t0
        self.refs_ms = [self._ref0, reference_ms()]
        self.norm = self.raw * REF_MS / (0.5 * sum(self.refs_ms))
        return False


def _unit_disk(rng: random.Random, n: int) -> list[complex]:
    return [
        math.sqrt(rng.random()) * complex(math.cos(th), math.sin(th))
        for th in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
    ]


# -- verify ------------------------------------------------------------------------


def _parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def compare_golden(text: str, golden: str) -> list[str]:
    """Property ids and trials exactly, measured constants to GOLDEN_REL_TOL."""
    got, want = _parse_csv(text), _parse_csv(golden)
    if [r["property-id"] for r in got] != [r["property-id"] for r in want]:
        return ["golden: property ids differ"]
    out = []
    for g, w in zip(got, want):
        pid = w["property-id"]
        if g["trials"] != w["trials"]:
            out.append(f"golden: {pid} trials {g['trials']} != {w['trials']}")
        gc, wc = g["measured-constant"], w["measured-constant"]
        if (gc == "") != (wc == ""):
            out.append(f"golden: {pid} measured constant presence differs")
        elif wc:
            a, b = float(gc), float(wc)
            same = a == b or abs(a - b) <= GOLDEN_REL_TOL * abs(b)
            if not same:
                out.append(f"golden: {pid} measured constant {a!r} vs {b!r}")
    return out


class Verify:
    """Every harness suite at the seed: many small low-degree norm calls."""

    name = "verify"
    unit_name = "pass"

    def __init__(self, seed: int):
        self.seed = seed

    def run_cycle(self, index: int, run: Run) -> None:
        rows = []
        whole = _Sum()  # one operation is the whole pass
        for suite in harness.SUITES:
            run.attempted += 1
            with Stage() as stage:
                try:
                    results, error = harness.run_suite(suite, self.seed), None
                except Exception as exc:  # counted, the pass goes on
                    results, error = None, exc
            whole.add(stage)
            if error is not None:
                run.fail("verify", suite, error)
                continue
            bad = [r.property_id for r in results if r.violations]
            if bad:
                run.wrong(f"verify/{suite}: violations in {bad}")
            rows.extend(results)
        run.op(whole)
        text = harness.results_to_csv(rows)
        run.outputs.append(text)
        if self.seed == GOLDEN_SEED:
            with open(GOLDEN_CSV, encoding="utf-8") as fh:
                problems = compare_golden(text, fh.read())
            run.golden_problems = (run.golden_problems or []) + problems
            for problem in problems:
                run.wrong(problem)

    def run_probes(self, run: Run) -> None:
        pass  # no known defect on this workload

    def accuracy(self, run: Run) -> None:
        """Norms of the corpus members that have closed forms, at P_GRID."""
        k = entire.kernel(1.0, 1.0, radius=10.0)
        for p in (0.5, 1.0, 2.0, 4.0, INF):
            v = focknorm.fock_norm(k, p, ALPHA)
            run.digits.append(ref.digits(ref.rel_err_log(math.log(v), ref.log_kernel_norm(1.0, ALPHA))))
            v = focknorm.fock_norm(entire.monomial(5), p, ALPHA)
            run.digits.append(ref.digits(ref.rel_err_log(math.log(v), ref.log_monomial_norm(5, p, ALPHA))))

    def cli_probes(self) -> list:
        argv = ["verify", "--suite", "examples", "--seed", str(self.seed)]

        def check(out: str) -> str | None:
            rows = _parse_csv(out)
            if not rows or any(r["violations"] != "0" for r in rows):
                return "cli verify: violations or no rows"
            return None

        return [(argv, check)] * CLI_PROBES


# -- norms-highdeg ----------------------------------------------------------------------

P4 = (0.5, 1.0, 4.0, INF)
Q2 = (1.0, INF)
ANCHOR = (2.0, 5.0 + 0.0j)  # degree 213 at radius 12: the p < 1 drift case
KERNEL_RADIUS = 12.0
# (|beta a|, monomial degree, polynomial degree) per cycle; kernel degrees
# at radius 12 come out near 128 and 163
GRID = ((5.0, 120, 140), (7.0, 190, 213))


def _log_abs(c: complex) -> float:
    return math.log(abs(c)) if c != 0 else -INF


def _logsumexp(xs: list[float]) -> float:
    top = max(xs)
    return top + math.log(math.fsum(math.exp(x - top) for x in xs))


class NormsHighDeg:
    """Fock and mixed norms of degree ~100-213 functions: work-bound calls."""

    name = "norms-highdeg"
    unit_name = "norm"

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, index: int) -> list[tuple]:
        """(case, params) in a fixed order; params drawn from the cycle's generator.

        Degrees and kernel scales |beta a| are fixed (the work per norm grows
        with them, and the FFT lengths 4 (degree + 1) * 2**k that the degree
        sets differ in speed by up to 2x); the seed draws beta, phases and
        coefficients.
        """
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        cases = [("anchor-kernel", ANCHOR)]
        for c_abs, n_mono, n_poly in GRID:
            beta = rng.uniform(1.0, 2.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            a = complex(math.cos(phase), math.sin(phase)) * (c_abs / beta)
            lead_phase = rng.uniform(0.0, 2.0 * math.pi)
            lead = complex(math.cos(lead_phase), math.sin(lead_phase)) * rng.uniform(0.5, 2.0)
            cases += [
                ("kernel", (beta, a)),
                ("monomial", (n_mono, lead)),
                ("polynomial", tuple(_unit_disk(rng, n_poly + 1))),
            ]
        return cases

    def _norms(self, f, pairs, run: Run, case: str) -> dict:
        values = {}
        for p, q in pairs:
            run.attempted += 1
            with Stage() as stage:
                try:
                    if p == q:
                        v, error = focknorm.fock_norm(f, p, ALPHA), None
                    else:
                        v, error = focknorm.mixed_norm(f, focknorm.FockParams(p, q, ALPHA)), None
                except Exception as exc:
                    error = exc
            if error is not None:
                run.spend(stage)
                run.fail(case, f"p={p:g},q={q:g}", error)
                continue
            run.op(stage)
            run.outputs.append(v)
            values[(p, q)] = v
        return values

    def run_cycle(self, index: int, run: Run) -> None:
        for case, params in self.inputs(index):
            with Stage() as stage:
                if case in ("anchor-kernel", "kernel"):
                    beta, a = params
                    f = entire.kernel(beta, a, radius=KERNEL_RADIUS)
                    pairs = [(p, p) for p in P4]
                elif case == "monomial":
                    n, lead = params
                    f = entire.CoeffFunction([0.0] * n + [lead])
                    pairs = [(p, q) for p in P4 for q in Q2]
                else:
                    f = entire.CoeffFunction(list(params))
                    pairs = [(p, q) for p in P4 for q in Q2]
            run.spend(stage)
            values = self._norms(f, pairs, run, case)
            self._check(case, params, values, run)

    def _check(self, case, params, values, run: Run) -> None:
        if case in ("anchor-kernel", "kernel"):
            beta, a = params
            log_ref = {pq: ref.log_kernel_norm(beta * abs(a), ALPHA) for pq in values}
        elif case == "monomial":
            n, lead = params
            log_ref = {(p, q): _log_abs(lead) + ref.log_monomial_norm(n, q, ALPHA)
                       for p, q in values}
        else:
            self._check_brackets(params, values, run)
            return
        for pq, v in values.items():
            err = ref.rel_err_log(math.log(v), log_ref[pq]) if v > 0 else INF
            run.digits.append(ref.digits(err))
            if not err <= NORM_REL_TOL:
                run.wrong(f"{case} p={pq[0]:g} q={pq[1]:g}: relative error {err:.3g}")

    def _check_brackets(self, coeffs, values, run: Run) -> None:
        """Coefficient brackets valid for q >= 1, and monotonicity in p.

        M_p(f, r) <= sum |a_n| r**n gives the upper bound by Minkowski; for
        p >= 1, M_p >= M_1 >= |a_n| r**n (Cauchy), and for every p,
        M_p >= |f(0)| (Jensen).
        """
        la = [_log_abs(c) for c in coeffs]
        for (p, q), v in values.items():
            terms = [x + ref.log_monomial_norm(n, q, ALPHA) for n, x in enumerate(la) if x > -INF]
            upper = _logsumexp(terms)
            lower = max(terms) if p >= 1.0 else la[0]
            lv = math.log(v) if v > 0 else -INF
            if not (lower - 1e-9 <= lv <= upper + 1e-9):
                run.wrong(f"polynomial p={p:g} q={q:g}: {lv:.6g} outside [{lower:.6g}, {upper:.6g}]")
        for q in Q2:
            ordered = [values.get((p, q)) for p in P4]
            for lo, hi in zip(ordered, ordered[1:]):
                if lo is not None and hi is not None and lo > hi * (1.0 + ORDER_SLACK):
                    run.wrong(f"polynomial q={q:g}: norm decreases in p")

    def run_probes(self, run: Run) -> None:
        pass  # no known defect on this workload

    def accuracy(self, run: Run) -> None:
        pass  # every closed-form comparison is made inside the cycles

    def cli_probes(self) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:cli")
        probes = []
        for _ in range(CLI_PROBES):
            # one kind of probe, so that the median is not a boundary between kinds
            beta = rng.uniform(1.0, 2.0)
            c_abs = rng.uniform(1.5, 2.5)  # low degree: the probe times start-up
            phase = rng.uniform(0.0, 2.0 * math.pi)
            a = complex(math.cos(phase), math.sin(phase)) * (c_abs / beta)
            argv = ["norm", "--fn", f"kernel:{beta!r}:{a.real!r}:{a.imag!r}", "--p", "1"]

            def check(out: str, c_abs=c_abs) -> str | None:
                err = ref.rel_err_log(math.log(float(out)), ref.log_kernel_norm(c_abs, ALPHA))
                return None if err <= NORM_REL_TOL else f"cli norm: relative error {err:.3g}"

            probes.append((argv, check))
        return probes


# -- classify ---------------------------------------------------------------------------

PQ = ((1.0, INF), (1.0, 2.0), (2.0, 4.0))
N_MOMENTS = 10

# The published example table (re-stated here; harness.py is code under test):
# (case, question, criterion, p, q, verdict).
EXAMPLES = {
    "hardy": ("hardy",),
    "dirac1": ("dirac", 1.0),
    "bump-below-1": ("constant", 0.5, 1.0),
    "atoms-1+1/k": ("atoms", tuple((2.0**-k, 1.0 + 1.0 / k) for k in range(1, 61)), 1.0),
    "mellin-hardy2": ("mellin", ("hardy",), ("hardy",)),
    "atom-at-1-family": ("atoms", ((0.5, 1.0), (0.25, 2.0), (0.125, 4.0)), None),
    "geom": ("geom", 0.5, 2.0),
    "beta22": ("beta", 2.0, 2.0),
}
SUM_IFF = ("summing", "summing/absolutely-summing-iff", 1.0, 2.0)
SUP_TO_L1 = ("smoothing", "smoothing/sup-to-l1", 1.0, INF)
MONO_GAP = ("smoothing", "smoothing/monomial-gap", 1.0, 2.0)
EXAMPLE_TABLE = [
    ("hardy", SUP_TO_L1, "Inconclusive"),
    ("hardy", SUM_IFF, "No"),
    ("mellin-hardy2", SUM_IFF, "Yes"),
    ("mellin-hardy2", SUP_TO_L1, "SufficientHolds"),
    ("atom-at-1-family", MONO_GAP, "NecessaryFails"),
    ("geom", SUP_TO_L1, "SufficientHolds"),
    ("beta22", SUP_TO_L1, "SufficientHolds"),
]


def build_measure(spec):
    kind = spec[0]
    if kind == "hardy":
        return measure.hardy_measure()
    if kind == "power":
        return measure.PowerTailDensity(spec[1])
    if kind == "beta":
        return measure.BetaTailDensity(spec[1], spec[2])
    if kind == "geom":
        return measure.geometric_atoms(spec[1], spec[2])
    if kind == "dirac":
        return measure.dirac(spec[1])
    if kind == "atoms":
        return measure.PointMasses(list(spec[1]), declared_inf_support=spec[2])
    if kind == "density":
        k = spec[1]
        return measure.Density(lambda t: t**-k, (spec[2], spec[3]))
    if kind == "constant":
        return measure.Density(lambda t: 1.0, (spec[1], spec[2]))
    if kind == "scaled":
        return measure.Scaled(spec[1], build_measure(spec[2]))
    if kind == "mellin":
        return measure.MellinConvolution(build_measure(spec[1]), build_measure(spec[2]))
    raise ValueError(kind)


class Classify:
    """Report dossiers and the operator action for a seeded mix of measures."""

    name = "classify"
    unit_name = "report"

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, index: int) -> tuple[list[tuple], list[complex], list[complex]]:
        """(case, spec, stages) triples, plus the test polynomial and points for the action.

        Parameters sit on a fixed grid with a seeded jitter (see _jitter):
        how far a parameter is from 1 decides how many series terms a report
        sums, so free draws would change the work per run from seed to seed.
        Every stage listed here succeeds today; the stages that hit a known
        defect are in probes().
        """
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        j = lambda x: _jitter(rng, x)
        both = ("dossier", "apply")
        cases = [
            ("hardy", ("hardy",), both),
            ("power", ("power", j(1.5)), both),
            ("beta", ("beta", j(2.5), j(1.5)), ("dossier",)),
            ("geom", ("geom", j(0.5), j(2.0)), both),
            ("dirac-near-below", ("dirac", j(0.9)), both),
            ("dirac-near-above", ("dirac", j(1.1)), both),
            ("dirac-1e-50", ("dirac", 10.0 ** -j(50.0)), both),
            ("dirac-1e+50", ("dirac", 10.0 ** j(50.0)), both),
            *[("scaled", ("scaled", math.exp(rng.uniform(-2.0, 2.0)), inner), both) for inner in (
                ("hardy",),
                ("power", j(1.5)),
                ("geom", j(0.5), j(2.0)),
                ("dirac", j(1.1)),
            )],
            ("mellin-nested", ("mellin", ("dirac", j(0.8)),
                               ("mellin", ("power", j(1.5)), ("dirac", j(1.5)))), both),
            ("density-finite", ("density", j(1.5), j(0.8), j(2.5)), both),
        ]
        cases += [(f"example:{name}", spec, ("dossier",) if name == "beta22" else both)
                  for name, spec in EXAMPLES.items() if name != "bump-below-1"]
        coeffs = _unit_disk(rng, 6)
        points = [1.5 * z for z in _unit_disk(rng, 2)]
        return cases, coeffs, points

    def probes(self) -> tuple[list[tuple], list[complex], list[complex]]:
        """The stages that hit a known defect today, drawn like a cycle."""
        rng = random.Random(f"{self.name}:{self.seed}:probes")
        j = lambda x: _jitter(rng, x)
        cases = [
            ("beta", ("beta", j(2.5), j(1.5)), ("apply",)),
            ("example:beta22", EXAMPLES["beta22"], ("apply",)),
            ("beta-negative-a", ("beta", j(-0.3), j(0.5)), ("dossier", "apply")),
            ("density-inf", ("density", j(2.5), j(1.0), INF), ("dossier", "apply")),
            # f(z/t) leaves double range, so no action at t = 1e-200
            ("dirac-far-below", ("dirac", 10.0 ** -j(200.0)), ("dossier",)),
            ("dirac-far-above", ("dirac", 10.0 ** j(200.0)), ("dossier", "apply")),
            ("example:bump-below-1", EXAMPLES["bump-below-1"], ("dossier", "apply")),
        ]
        coeffs = _unit_disk(rng, 6)
        points = [1.5 * z for z in _unit_disk(rng, 2)]
        return cases, coeffs, points

    @staticmethod
    def report(m, p: float, q: float) -> tuple:
        """What `fockhaus report --p p --q q` computes."""
        rep = measure.support_report(m)
        seq = measure.moments(m, N_MOMENTS)
        reports = [
            classify.classify_entire(m),
            classify.classify_bounded(m, p=p, q=q, alpha=ALPHA),
            classify.classify_compact(m, p=p, q=q, alpha=ALPHA),
        ]
        reports += classify.smoothing_criteria(m, p=p, q=q, alpha=ALPHA)
        reports += classify.summing_criteria(m, p=p, q=q)
        return p, q, rep, seq, reports

    def run_cycle(self, index: int, run: Run) -> None:
        cases, coeffs, points = self.inputs(index)
        f = entire.CoeffFunction(coeffs)
        for case, spec, stages in cases:
            self._case(case, spec, stages, f, points, run, probe=False)

    def run_probes(self, run: Run) -> None:
        """Known-defect stages, once per run and untimed: counted, never filtered."""
        cases, coeffs, points = self.probes()
        f = entire.CoeffFunction(coeffs)
        for case, spec, stages in cases:
            self._case(case, spec, stages, f, points, run, probe=True)

    def _case(self, case, spec, stages, f, points, run: Run, probe: bool) -> None:
        """Build, report at every (p, q), check, apply; a probe adds no time."""
        run.attempted += 1
        with Stage() as stage:
            try:
                m, error = build_measure(spec), None
            except Exception as exc:
                m, error = None, exc
        if not probe:
            run.spend(stage)
        if error is not None:
            run.fail(case, "build", error, probe)
        if m is not None and "dossier" in stages:
            dossier = []
            for p, q in PQ:
                # a measure whose report raises is not asked again at the next (p, q)
                run.attempted += 1
                with Stage() as stage:
                    try:
                        dossier.append(self.report(m, p, q))
                        error = None
                    except Exception as exc:
                        error = exc
                if not probe and error is None:
                    run.op(stage)
                elif not probe:
                    run.spend(stage)
                if error is not None:
                    run.fail(case, "dossier", error, probe)
                    break
            run.outputs.append(_serialize(dossier))
            self._check(case, spec, dossier, run, probe)
        if m is not None and "apply" in stages:
            self._apply(case, m, f, points, run, probe)

    def _apply(self, case, m, f, points, run: Run, probe: bool) -> None:
        """Spectral vs quadrature action at the points."""
        run.attempted += 1
        with Stage() as stage:
            try:
                op = hausdorff.HausdorffOperator(m)
                spectral = hausdorff.apply_spectral(op, f)(np.array(points))
                quad, error = hausdorff.apply_quadrature(op, f, points), None
            except Exception as exc:
                error = exc
        if not probe:
            run.spend(stage)
        if error is not None:
            run.fail(case, "apply", error, probe)
            return
        run.outputs.append([complex(v) for v in quad])
        scale = max(1.0, float(np.max(np.abs(spectral))))
        err = float(np.max(np.abs(spectral - quad))) / scale
        if not err <= APPLY_REL_TOL:
            run.wrong(f"{case}: spectral and quadrature action differ by {err:.3g}")

    def _check(self, case, spec, dossier, run: Run, probe: bool) -> None:
        """Verdicts and moments; a probe's moments do not enter digits_min."""
        expect = _expected_verdicts(spec)
        found = {}
        for p, q, rep, seq, reports in dossier:
            for r in reports:
                want = expect.get(r.question)
                if want is not None and r.verdict.value != want:
                    run.wrong(f"{case} {r.question} at p={p:g} q={q:g}: {r.verdict.value}, expected {want}")
                found[(r.question, r.params.get("criterion"), p, q)] = r.verdict.value
        for key, verdict in _table_rows(case):
            if found.get(key) != verdict:
                run.wrong(f"{case} {key[1]}: {found.get(key)}, expected {verdict}")
        if not dossier:
            return
        _, _, _, seq, _ = dossier[0]
        for n, got in enumerate(seq.values):
            want = ref.moment(spec, n)
            if not (math.isfinite(want) and want > 0.0):
                continue  # outside double range; nothing to compare
            err = abs(got - want) / want
            if not probe:
                run.digits.append(ref.digits(err))
            if not err <= MOMENT_REL_TOL:
                run.wrong(f"{case} mu_{n}: {got!r}, expected {want!r}")

    def accuracy(self, run: Run) -> None:
        pass  # moments are compared inside the cycles

    def cli_probes(self) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:cli")
        # one family, so that the median is not a boundary between families
        specs = [("geom", _jitter(rng, 0.5), _jitter(rng, 2.0)) for _ in range(CLI_PROBES)]
        probes = []
        for spec in specs:
            desc = ":".join([spec[0]] + [repr(x) for x in spec[1:]])

            def check(out: str, spec=spec, desc=desc) -> str | None:
                got = {r["question"]: r["verdict"] for r in json.loads(out)}
                bad = {k: got.get(k) for k, v in _expected_verdicts(spec).items()
                       if got.get(k) != v}
                return f"cli classify {desc}: {bad}" if bad else None

            probes.append((["classify", "--measure", desc], check))
        return probes


def _expected_verdicts(spec) -> dict[str, str]:
    """Verdicts that follow from the construction: support infimum, atoms at 1."""
    yes = lambda ok: "Yes" if ok else "No"
    return {
        "entire-continuity": yes(ref.inf_support(spec) > 0),
        "fock-bounded": yes(ref.expected_bounded(spec)),
        "compact": yes(ref.expected_compact(spec)),
    }


class _Sum:
    """Stages added up, to count as one."""

    def __init__(self):
        self.raw = self.norm = 0.0
        self.refs_ms: list[float] = []

    def add(self, stage: Stage) -> None:
        self.raw += stage.raw
        self.norm += stage.norm
        self.refs_ms += stage.refs_ms


def _jitter(rng: random.Random, x: float) -> float:
    """x moved by a seeded relative amount of at most JITTER."""
    return x * (1.0 + rng.uniform(-JITTER, JITTER))


def _table_rows(case: str):
    name = case.removeprefix("example:")
    if name == case:
        return []
    return [(key, verdict) for n, key, verdict in EXAMPLE_TABLE if n == name]


def _serialize(dossier) -> str:
    return json.dumps(
        [
            [p, q, [rep.inf_support, rep.mass_below_1, rep.mass_at_1,
                    rep.mass_unit_interval, rep.total_weighted_mass],
             seq.values, seq.methods, [r.as_dict() for r in reports]]
            for p, q, rep, seq, reports in dossier
        ],
        default=repr,
    )


WORKLOADS = {w.name: w for w in (Verify, NormsHighDeg, Classify)}
