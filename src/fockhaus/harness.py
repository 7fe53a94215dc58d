"""Desk-scale verification suites for the library's inequalities.

Each suite replays one family of inequalities on a reproducible corpus and
reports violations plus a measured constant.  Exact inequalities must come
back with zero violations (up to a 1e-9 quadrature slack); two-sided
comparability claims with existential constants are recorded and regressed
against first-build values, never asserted at paper-unspecified levels.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from . import classify, measure as msr
from .entire import CoeffFunction, kernel, monomial, rademacher_randomize
from .focknorm import (
    INF,
    FockParams,
    _log_circle_means,
    DEFAULT_CFG,
    coeff_weighted_lp,
    fock_norm,
    log_monomial_norm,
    mixed_norm,
)
from .hausdorff import (
    HausdorffOperator,
    apply_spectral,
    dilation_opnorm_bounds,
    dilation_opnorm_estimate,
)
from .entire import dilate

SLACK = 1e-9  # separates mathematical violation from quadrature error

_LOG_DBL_MAX = math.log(np.finfo(float).max)  # exp above this overflows

P_GRID = (0.5, 1.0, 2.0, 4.0, INF)


@dataclass(frozen=True)
class CorpusSpec:
    """Reproducible random-function corpus: coefficients uniform on the unit disk."""

    seed: int = 42
    count: int = 30
    degree_min: int = 3
    degree_max: int = 20
    include_specials: bool = True


@dataclass
class PropertyResult:
    property_id: str
    trials: int
    violations: int
    worst_margin: float
    measured_constant: float | None = None

    def as_csv_row(self) -> str:
        const = "" if self.measured_constant is None else f"{self.measured_constant:.12e}"
        return (
            f"{self.property_id},{self.trials},{self.violations},"
            f"{self.worst_margin:.12e},{const}"
        )


CSV_HEADER = "property-id,trials,violations,worst-margin,measured-constant"


def build_corpus(spec: CorpusSpec) -> list[CoeffFunction]:
    rng = np.random.default_rng(spec.seed)
    out: list[CoeffFunction] = []
    for i in range(spec.count):
        deg = int(rng.integers(spec.degree_min, spec.degree_max + 1))
        r = np.sqrt(rng.uniform(0.0, 1.0, deg + 1))
        th = rng.uniform(0.0, 2.0 * math.pi, deg + 1)
        coeffs = r * np.exp(1j * th)
        if coeffs[-1] == 0:
            coeffs[-1] = 0.5
        out.append(CoeffFunction(coeffs, label=f"rand{i}"))
    if spec.include_specials:
        out.append(monomial(0))
        out.append(monomial(5))
        out.append(kernel(1.0, 1.0, radius=10.0))
    return out


def _map(fn, items):
    threads = int(os.environ.get("FOCK_THREADS", "1"))
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# -- embeddings ---------------------------------------------------------------


def check_embeddings(spec: CorpusSpec, alpha: float = 1.0) -> list[PropertyResult]:
    """Monotonicity in p and the quantified comparison between q-exponents."""
    corpus = build_corpus(spec)

    def norm_table(f):
        return {
            (p, q): mixed_norm(f, FockParams(p, q, alpha)) for p in P_GRID for q in P_GRID
        }

    tables = _map(norm_table, corpus)

    p_viol = q_viol = 0
    p_trials = q_trials = 0
    p_worst = q_worst = -math.inf
    for table in tables:
        for q in P_GRID:
            ordered = sorted(x for x in P_GRID)
            for p1, p2 in zip(ordered, ordered[1:]):
                lhs, rhs = table[(p1, q)], table[(p2, q)]
                margin = lhs - rhs * (1.0 + SLACK)
                p_worst = max(p_worst, margin / max(rhs, 1e-300))
                p_trials += 1
                if margin > 0:
                    p_viol += 1
        for p in P_GRID:
            finite_q = [q for q in P_GRID if q != INF]
            for q1 in finite_q:
                for q2 in finite_q:
                    if q1 > q2:
                        continue
                    lhs = table[(p, INF)]
                    mid = table[(p, q2)]
                    rhs = (q2 / q1) ** (1.0 / q2) * table[(p, q1)]
                    for a, b in ((lhs, mid), (mid, rhs)):
                        margin = a - b * (1.0 + SLACK)
                        q_worst = max(q_worst, margin / max(b, 1e-300))
                        q_trials += 1
                        if margin > 0:
                            q_viol += 1
    return [
        PropertyResult("embeddings/p-monotone", p_trials, p_viol, p_worst),
        PropertyResult("embeddings/q-comparison", q_trials, q_viol, q_worst),
    ]


# -- coefficient estimates -----------------------------------------------------


def _coef_ratios(f: CoeffFunction, alpha: float) -> dict[str, float]:
    n = np.arange(f.degree + 1, dtype=float)
    absa = np.abs(f.coeffs)
    ratios: dict[str, float] = {}

    # weighted l1 of coefficients below the F^1 norm
    lhs = float(
        np.sum(
            absa
            * np.exp([log_monomial_norm(int(k), 1.0, alpha) for k in n])
            * (n + 1.0) ** -0.5
        )
    )
    norm = {p: fock_norm(f, p, alpha) for p in (1.0, INF, 1.5, 2.0, 3.0, 4.0)}
    ratios["coef/l1-lower"] = lhs / max(norm[1.0], 1e-300)

    # sup norm below the weighted coefficient sup
    rhs = float(
        np.max(
            absa
            * np.exp([log_monomial_norm(int(k), INF, alpha) for k in n])
            * (n + 1.0) ** 0.5
        )
    )
    ratios["coef/sup-upper"] = norm[INF] / max(rhs, 1e-300)

    for p in (1.0, 1.5, 2.0):
        w = coeff_weighted_lp(f, p, alpha, gamma=0.5 * (1.0 / p - 0.5))
        ratios[f"coef/lp-upper[p={p:g}]"] = norm[p] / max(w, 1e-300)
        w2 = coeff_weighted_lp(f, p, alpha, gamma=0.5 * (0.5 - 1.0 / p))
        ratios[f"coef/lp-lower[p={p:g}]"] = w2 / max(norm[p], 1e-300)
    for q in (2.0, 3.0, 4.0):
        w = coeff_weighted_lp(f, q, alpha, gamma=0.5 * (1.0 / q - 0.5))
        ratios[f"coef/lq-lower[q={q:g}]"] = w / max(norm[q], 1e-300)
        w2 = coeff_weighted_lp(f, q, alpha, gamma=0.5 * (0.5 - 1.0 / q))
        ratios[f"coef/lq-upper[q={q:g}]"] = norm[q] / max(w2, 1e-300)
    return ratios


def check_coefficient_estimates(
    spec: CorpusSpec, alpha: float = 1.0
) -> list[PropertyResult]:
    """Two-sided coefficient-norm comparisons: record the worst constants.

    The constants are existential, so the suite asserts only that every
    ratio is finite and that the worst ratio over low-degree prefixes does
    not explode as the degree grows (factor 5 guard).
    """
    corpus = build_corpus(spec)
    by_id: dict[str, list[tuple[int, float]]] = {}
    for f in corpus:
        for cid, ratio in _coef_ratios(f, alpha).items():
            by_id.setdefault(cid, []).append((f.degree, ratio))

    results = []
    for cid, pairs in sorted(by_id.items()):
        ratios = np.array([r for _, r in pairs])
        degrees = np.array([d for d, _ in pairs])
        finite = np.isfinite(ratios).all()
        low = ratios[degrees <= 10].max() if (degrees <= 10).any() else ratios.max()
        high = ratios.max()
        stable = high <= 5.0 * low + 1e-12
        violations = int(not finite) + int(not stable)
        results.append(
            PropertyResult(
                property_id=cid,
                trials=len(pairs),
                violations=violations,
                worst_margin=float(high / max(low, 1e-300)),
                measured_constant=float(high),
            )
        )
    return results


# -- Rademacher averages ---------------------------------------------------------


def check_khintchine(
    spec: CorpusSpec, sign_samples: int = 64, alpha: float = 1.0
) -> list[PropertyResult]:
    """Average of randomized q-norms against the (2,q) mixed norm.

    The comparability constants depend only on q; the empirical two-sided
    ratio must stay inside the generous bracket [0.1, 10].
    """
    corpus = [f for f in build_corpus(spec) if f.degree <= 15][:10]
    rng = np.random.default_rng(spec.seed + 1)
    results = []
    for q in (0.5, 1.0, 2.0, 4.0):
        trials = violations = 0
        lo_ratio, hi_ratio = math.inf, -math.inf
        for f in corpus:
            base = mixed_norm(f, FockParams(2.0, q, alpha))
            if base == 0.0:
                continue
            acc = 0.0
            for _ in range(sign_samples):
                signs = rng.choice((-1.0, 1.0), size=f.degree + 1)
                acc += fock_norm(rademacher_randomize(f, signs), q, alpha) ** q
            ratio = (acc / sign_samples) ** (1.0 / q) / base
            lo_ratio, hi_ratio = min(lo_ratio, ratio), max(hi_ratio, ratio)
            trials += 1
            if not (0.1 <= ratio <= 10.0):
                violations += 1
        results.append(
            PropertyResult(
                property_id=f"khintchine[q={q:g}]",
                trials=trials,
                violations=violations,
                worst_margin=float(max(hi_ratio, 1.0 / lo_ratio)),
                measured_constant=float(hi_ratio),
            )
        )
    return results


# -- contraction and dilation -----------------------------------------------------


def check_contraction_and_dilation(
    m: msr.MeasureSpec | None = None,
    spec: CorpusSpec = CorpusSpec(),
    alpha: float = 1.0,
) -> list[PropertyResult]:
    """Circle-mean contraction, dilation non-expansion, and the norm-estimate
    exponent fit for the dilation from a larger exponent into a smaller one."""
    m = m if m is not None else msr.hardy_measure()
    rep = msr.support_report(m)
    if rep.mass_below_1 != 0.0:
        raise ValueError("contraction suite needs support inside [1, inf)")
    op = HausdorffOperator(msr.normalize(m))
    corpus = build_corpus(spec)
    radii = np.linspace(0.0, 4.0, 64)

    trials = violations = 0
    worst = -math.inf
    for f in corpus:
        hf = apply_spectral(op, f)
        for p in (0.5, 1.0, 2.0, INF):
            lhs = _log_circle_means(hf.coeffs, p, radii, DEFAULT_CFG)
            rhs = _log_circle_means(f.coeffs, p, radii, DEFAULT_CFG)
            both = np.isfinite(lhs) & np.isfinite(rhs)
            margin = lhs[both] - rhs[both] - math.log1p(SLACK)
            trials += len(margin)
            violations += int((margin > 0).sum())
            if len(margin):
                worst = max(worst, float(margin.max()))
    contraction = PropertyResult("contraction/circle-means", trials, violations, worst)

    trials = violations = 0
    worst = -math.inf
    for f in corpus[:10]:
        base = {
            (p, q): mixed_norm(f, FockParams(p, q, alpha))
            for p in (1.0, 2.0)
            for q in (1.0, INF)
        }
        for t in (1.25, 2.0):
            g = dilate(f, t)
            for (p, q), ref in base.items():
                val = mixed_norm(g, FockParams(p, q, alpha))
                margin = val - ref * (1.0 + SLACK)
                trials += 1
                worst = max(worst, margin / max(ref, 1e-300))
                if margin > 0:
                    violations += 1
    nonexpansion = PropertyResult("dilation/non-expansion", trials, violations, worst)

    results = [contraction, nonexpansion]
    ts = np.array([1.01, 1.02, 1.04, 1.07, 1.1, 1.15, 1.2])
    for p, q in ((1.0, 2.0), (2.0, INF)):
        ests = np.array(
            [dilation_opnorm_estimate(t, p, q, alpha, n_max=600) for t in ts]
        )
        x = np.log(1.0 - 1.0 / ts**2)
        slope = float(np.polyfit(x, np.log(ests), 1)[0])
        iq = 0.0 if q == INF else 1.0 / q
        lo = min(0.5 * iq - 0.5 / p, iq - 1.0 / p) - 0.1
        hi = max(0.5 * iq - 0.5 / p, iq - 1.0 / p) + 0.1
        ok = lo <= slope <= hi
        # sandwich ratios against the shape bounds, constants recorded not asserted
        lows = np.array([dilation_opnorm_bounds(t, p, q, alpha).lower for t in ts])
        ups = np.array([dilation_opnorm_bounds(t, p, q, alpha).upper for t in ts])
        results.append(
            PropertyResult(
                property_id=f"dilation/slope-fit[p={p:g},q={q:g}]",
                trials=len(ts),
                violations=0 if ok else 1,
                worst_margin=slope,
                measured_constant=float(np.max(ests / lows)),
            )
        )
        results.append(
            PropertyResult(
                property_id=f"dilation/upper-gap[p={p:g},q={q:g}]",
                trials=len(ts),
                violations=0,
                worst_margin=float(np.max(ests / ups)),
                measured_constant=float(np.min(ests / ups)),
            )
        )
    return results


# -- exponential-series comparison -------------------------------------------------


def _exp_weighted_ratio(log_gamma_n, delta: float, x: float) -> float:
    """log of [sum_n gamma_n (n+1)^delta x^n / n!] minus x."""
    n_hi = int(x + 20.0 * math.sqrt(x) + 60.0)
    n = np.arange(n_hi + 1, dtype=float)
    terms = log_gamma_n(n) + delta * np.log(n + 1.0) + n * math.log(x) - gammaln(n + 1.0)
    return float(logsumexp(terms) - x)


def check_explema(samples: int = 12) -> list[PropertyResult]:
    """Boundedness of gamma_n (n+1)^delta matches the e^x domination test."""
    xs = np.logspace(0.0, 4.0, samples)
    cases = [
        ("explema/balanced", lambda n: -math.log1p(n) * 1.0, 1.0, True),
        ("explema/sqrt-growth", lambda n: 0.0, 0.5, False),
        ("explema/geometric-growth", lambda n: n * math.log(2.0), 0.0, False),
    ]
    results = []
    for pid, log_gamma_scalar, delta, expect_bounded in cases:
        log_gamma = lambda n, f=log_gamma_scalar: np.array([f(float(k)) for k in n])
        ratios = np.array([_exp_weighted_ratio(log_gamma, delta, x) for x in xs])
        # bounded sequences keep the ratio flat; unbounded ones grow with x
        grow = ratios[-1] - ratios[0]
        detected_bounded = grow < math.log(3.0)
        top = float(ratios.max())
        ok = detected_bounded == expect_bounded
        results.append(
            PropertyResult(
                property_id=pid,
                trials=len(xs),
                violations=0 if ok else 1,
                worst_margin=float(grow),
                measured_constant=float(np.exp(top)) if top < _LOG_DBL_MAX else math.inf,
            )
        )
    return results


# -- classifier table ----------------------------------------------------------------


def _example_measures() -> dict[str, msr.MeasureSpec]:
    return {
        "hardy": msr.hardy_measure(),
        "dirac1": msr.dirac(1.0),
        "bump-below-1": msr.Density(lambda t: 1.0, (0.5, 1.0), label="unit bump"),
        "atoms-1+1/k": msr.truncated_atom_family(
            lambda k: 2.0**-k,
            lambda k: 1.0 + 1.0 / k,
            k_max=60,
            tail_bound=2.0**-60,
            inf_support=1.0,
        ),
        "mellin-hardy2": msr.MellinConvolution(msr.hardy_measure(), msr.hardy_measure()),
        "atom-at-1-family": msr.PointMasses([(0.5, 1.0), (0.25, 2.0), (0.125, 4.0)]),
        "geom": msr.geometric_atoms(0.5, 2.0),
        "beta22": msr.BetaTailDensity(2.0, 2.0),
    }


def check_classifier_on_examples() -> list[PropertyResult]:
    """The worked example families against their published classifications."""
    ms = _example_measures()
    v = classify.Verdict
    expectations: list[tuple[str, str, v]] = [
        ("hardy", "bounded", v.YES),
        ("hardy", "compact", v.YES),
        ("dirac1", "bounded", v.YES),
        ("dirac1", "compact", v.NO),
        ("bump-below-1", "bounded", v.NO),
        ("atoms-1+1/k", "bounded", v.YES),
        ("atoms-1+1/k", "compact", v.YES),
        ("mellin-hardy2", "summing", v.YES),
        ("mellin-hardy2", "smoothing-sup-to-l1", v.SUFFICIENT_HOLDS),
        ("atom-at-1-family", "bounded", v.YES),
        ("atom-at-1-family", "compact", v.NO),
        ("atom-at-1-family", "smoothing-monomial-gap", v.NECESSARY_FAILS),
        ("geom", "smoothing-sup-to-l1", v.SUFFICIENT_HOLDS),
        ("beta22", "smoothing-sup-to-l1", v.SUFFICIENT_HOLDS),
        ("hardy", "smoothing-sup-to-l1", v.INCONCLUSIVE),
        ("hardy", "summing", v.NO),
    ]
    violations = 0
    for name, question, expected in expectations:
        m = ms[name]
        if question == "bounded":
            got = classify.classify_bounded(m).verdict
        elif question == "compact":
            got = classify.classify_compact(m).verdict
        elif question == "summing":
            reports = classify.summing_criteria(
                m, criteria=["summing/absolutely-summing-iff"]
            )
            got = reports[0].verdict
        elif question == "smoothing-sup-to-l1":
            reports = classify.smoothing_criteria(
                m, p=1.0, q=INF, criteria=["smoothing/sup-to-l1"]
            )
            got = reports[0].verdict
        elif question == "smoothing-monomial-gap":
            reports = classify.smoothing_criteria(
                m, p=1.0, q=2.0, criteria=["smoothing/monomial-gap"]
            )
            got = reports[0].verdict
        else:  # pragma: no cover
            raise AssertionError(question)
        if got != expected:
            violations += 1
    return [
        PropertyResult(
            property_id="classifier/example-table",
            trials=len(expectations),
            violations=violations,
            worst_margin=float(violations),
        )
    ]


# -- suite runner -----------------------------------------------------------------


SUITES = ("embeddings", "khintchine", "dilation", "examples", "coefficients", "explema")


def run_suite(suite: str, seed: int = 42) -> list[PropertyResult]:
    spec = CorpusSpec(seed=seed)
    small = CorpusSpec(seed=seed, count=12, degree_max=15)
    if suite == "embeddings":
        return check_embeddings(spec)
    if suite == "khintchine":
        return check_khintchine(small)
    if suite == "dilation":
        return check_contraction_and_dilation(spec=spec)
    if suite == "examples":
        return check_classifier_on_examples()
    if suite == "coefficients":
        return check_coefficient_estimates(spec)
    if suite == "explema":
        return check_explema()
    if suite == "all":
        out = []
        for s in SUITES:
            out.extend(run_suite(s, seed))
        return out
    raise ValueError(f"unknown suite {suite!r}")


def results_to_csv(results: list[PropertyResult]) -> str:
    return "\n".join([CSV_HEADER] + [r.as_csv_row() for r in results]) + "\n"
