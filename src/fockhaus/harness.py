"""Desk-scale verification suites for the library's inequalities.

Every suite works at alpha = ALPHA = 1 and draws its functions from the corpus
fixed by the seed (``build_corpus``); each replays one family of inequalities
and reports violations plus a measured constant.  Exact inequalities must come
back with zero violations (up to a 1e-9 quadrature slack); two-sided
comparability claims with existential constants are recorded and regressed
against first-build values, never asserted at paper-unspecified levels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import classify, measure as msr
from .entire import (
    CoeffFunction,
    dilate,
    kernel,
    log_factorials,
    logsumexp,
    monomial,
    rademacher_randomize,
)
from .focknorm import (
    _LOG_DBL_MAX,
    INF,
    FockParams,
    _log_circle_means,
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

SLACK = 1e-9  # separates mathematical violation from quadrature error
ALPHA = 1.0  # the weight e^{-alpha r^2/2} of every suite's norms
CORPUS_SIZE = 30  # random functions per corpus, before the three fixed ones
SIGN_SAMPLES = 64  # Rademacher sign draws per function and exponent
EXPLEMA_SAMPLES = 12  # points x of the exponential-series comparison

P_GRID = (0.5, 1.0, 2.0, 4.0, INF)


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


def build_corpus(seed: int, degree_max: int = 20) -> list[CoeffFunction]:
    """CORPUS_SIZE random polynomials of degree 3..degree_max with coefficients
    uniform on the unit disk, drawn in turn from the seed, then u_0, u_5 and a kernel."""
    rng = np.random.default_rng(seed)
    out: list[CoeffFunction] = []
    for i in range(CORPUS_SIZE):
        deg = int(rng.integers(3, degree_max + 1))
        r = np.sqrt(rng.uniform(0.0, 1.0, deg + 1))
        th = rng.uniform(0.0, 2.0 * math.pi, deg + 1)
        coeffs = r * np.exp(1j * th)
        if coeffs[-1] == 0:
            coeffs[-1] = 0.5
        out.append(CoeffFunction(coeffs, label=f"rand{i}"))
    out += [monomial(0), monomial(5), kernel(1.0, 1.0, radius=10.0)]
    return out


def _inequality(property_id: str, pairs: list[tuple[float, float]]) -> PropertyResult:
    """The tally of lhs <= rhs over (lhs, rhs) pairs: a pair violates it when its
    margin lhs - rhs (1 + SLACK) is positive, and the worst margin is relative to rhs."""
    margins = [(lhs - rhs * (1.0 + SLACK), rhs) for lhs, rhs in pairs]
    worst = max((m / max(rhs, 1e-300) for m, rhs in margins), default=-math.inf)
    return PropertyResult(property_id, len(margins), sum(m > 0 for m, _ in margins), worst)


# -- embeddings ---------------------------------------------------------------


def check_embeddings(seed: int) -> list[PropertyResult]:
    """Monotonicity in p and the quantified comparison between q-exponents."""
    p_pairs, q_pairs = [], []
    for f in build_corpus(seed):
        table = {(p, q): mixed_norm(f, FockParams(p, q, ALPHA)) for p in P_GRID for q in P_GRID}
        for q in P_GRID:
            p_pairs += [(table[(p1, q)], table[(p2, q)]) for p1, p2 in zip(P_GRID, P_GRID[1:])]
        # ||f||_{p,inf} <= ||f||_{p,q2} <= (q2/q1)**(1/q2) ||f||_{p,q1} for finite q1 <= q2
        for p in P_GRID:
            for q1, q2 in itertools.combinations_with_replacement(P_GRID[:-1], 2):
                mid = table[(p, q2)]
                rhs = (q2 / q1) ** (1.0 / q2) * table[(p, q1)]
                q_pairs += [(table[(p, INF)], mid), (mid, rhs)]
    return [
        _inequality("embeddings/p-monotone", p_pairs),
        _inequality("embeddings/q-comparison", q_pairs),
    ]


# -- coefficient estimates -----------------------------------------------------


def _coef_ratios(f: CoeffFunction) -> dict[str, float]:
    n = np.arange(f.degree + 1, dtype=float)
    absa = np.abs(f.coeffs)
    ratios: dict[str, float] = {}

    # weighted l1 of coefficients below the F^1 norm
    lhs = float(
        np.sum(
            absa
            * np.exp([log_monomial_norm(int(k), 1.0, ALPHA) for k in n])
            * (n + 1.0) ** -0.5
        )
    )
    norm = {p: fock_norm(f, p, ALPHA) for p in (1.0, INF, 1.5, 2.0, 3.0, 4.0)}
    ratios["coef/l1-lower"] = lhs / max(norm[1.0], 1e-300)

    # sup norm below the weighted coefficient sup
    rhs = float(
        np.max(
            absa
            * np.exp([log_monomial_norm(int(k), INF, ALPHA) for k in n])
            * (n + 1.0) ** 0.5
        )
    )
    ratios["coef/sup-upper"] = norm[INF] / max(rhs, 1e-300)

    # the weighted l^e sums with gamma = +-(1/e - 1/2)/2 bracket the norm: the l^p pair
    # for e <= 2, the l^q pair for e >= 2
    for e in (1.0, 1.5, 2.0, 3.0, 4.0):
        w_up = coeff_weighted_lp(f, e, ALPHA, gamma=0.5 * (1.0 / e - 0.5))
        w_down = coeff_weighted_lp(f, e, ALPHA, gamma=0.5 * (0.5 - 1.0 / e))
        if e <= 2.0:
            ratios[f"coef/lp-upper[p={e:g}]"] = norm[e] / max(w_up, 1e-300)
            ratios[f"coef/lp-lower[p={e:g}]"] = w_down / max(norm[e], 1e-300)
        if e >= 2.0:
            ratios[f"coef/lq-lower[q={e:g}]"] = w_up / max(norm[e], 1e-300)
            ratios[f"coef/lq-upper[q={e:g}]"] = norm[e] / max(w_down, 1e-300)
    return ratios


def check_coefficient_estimates(seed: int) -> list[PropertyResult]:
    """Two-sided coefficient-norm comparisons: record the worst constants.

    The constants are existential, so the suite asserts only that every
    ratio is finite and that the worst ratio over low-degree prefixes does
    not explode as the degree grows (factor 5 guard).
    """
    by_id: dict[str, list[tuple[int, float]]] = {}
    for f in build_corpus(seed):
        for cid, ratio in _coef_ratios(f).items():
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


def check_khintchine(seed: int) -> list[PropertyResult]:
    """Average of randomized q-norms against the (2,q) mixed norm.

    The comparability constants depend only on q; the empirical two-sided
    ratio must stay inside the generous bracket [0.1, 10].  The corpus is the
    first ten random functions of degree at most 15.
    """
    corpus = build_corpus(seed, degree_max=15)[:10]
    rng = np.random.default_rng(seed + 1)
    results = []
    for q in (0.5, 1.0, 2.0, 4.0):
        trials = violations = 0
        lo_ratio, hi_ratio = math.inf, -math.inf
        for f in corpus:
            base = mixed_norm(f, FockParams(2.0, q, ALPHA))
            if base == 0.0:
                continue
            acc = 0.0
            for _ in range(SIGN_SAMPLES):
                signs = rng.choice((-1.0, 1.0), size=f.degree + 1)
                acc += fock_norm(rademacher_randomize(f, signs), q, ALPHA) ** q
            ratio = (acc / SIGN_SAMPLES) ** (1.0 / q) / base
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


def check_contraction_and_dilation(seed: int) -> list[PropertyResult]:
    """Circle-mean contraction under the Hardy operator (its measure lives on
    [1, inf)), dilation non-expansion, and the norm-estimate exponent fit for
    the dilation from a larger exponent into a smaller one."""
    op = HausdorffOperator(msr.normalize(msr.hardy_measure()))
    corpus = build_corpus(seed)
    radii = np.linspace(0.0, 4.0, 64)

    trials = violations = 0
    worst = -math.inf
    for f in corpus:
        hf = apply_spectral(op, f)
        for p in (0.5, 1.0, 2.0, INF):
            lhs = _log_circle_means(hf.coeffs, p, radii)
            rhs = _log_circle_means(f.coeffs, p, radii)
            both = np.isfinite(lhs) & np.isfinite(rhs)
            margin = lhs[both] - rhs[both] - math.log1p(SLACK)
            trials += len(margin)
            violations += int((margin > 0).sum())
            if len(margin):
                worst = max(worst, float(margin.max()))
    contraction = PropertyResult("contraction/circle-means", trials, violations, worst)

    exponents = [(p, q) for p in (1.0, 2.0) for q in (1.0, INF)]
    pairs = []
    for f in corpus[:10]:
        base = [mixed_norm(f, FockParams(p, q, ALPHA)) for p, q in exponents]
        for t in (1.25, 2.0):
            g = dilate(f, t)
            pairs += [(mixed_norm(g, FockParams(p, q, ALPHA)), ref)
                      for (p, q), ref in zip(exponents, base)]
    results = [contraction, _inequality("dilation/non-expansion", pairs)]

    ts = np.array([1.01, 1.02, 1.04, 1.07, 1.1, 1.15, 1.2])
    for p, q in ((1.0, 2.0), (2.0, INF)):
        ests = np.array([dilation_opnorm_estimate(t, p, q) for t in ts])
        x = np.log(1.0 - 1.0 / ts**2)
        slope = float(np.polyfit(x, np.log(ests), 1)[0])
        iq = 0.0 if q == INF else 1.0 / q
        lo = min(0.5 * iq - 0.5 / p, iq - 1.0 / p) - 0.1
        hi = max(0.5 * iq - 0.5 / p, iq - 1.0 / p) + 0.1
        ok = lo <= slope <= hi
        # sandwich ratios against the shape bounds, constants recorded not asserted
        lows = np.array([dilation_opnorm_bounds(t, p, q).lower for t in ts])
        ups = np.array([dilation_opnorm_bounds(t, p, q).upper for t in ts])
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
    terms = log_gamma_n(n) + delta * np.log(n + 1.0) + n * math.log(x) - log_factorials(n_hi)
    return float(logsumexp(terms) - x)


def check_explema() -> list[PropertyResult]:
    """Boundedness of gamma_n (n+1)^delta matches the e^x domination test."""
    xs = np.logspace(0.0, 4.0, EXPLEMA_SAMPLES)
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


# question -> verdict of a measure; the classify names are looked up at call time, so
# a tracer that rebinds them sees these calls
_EXAMPLE_QUESTIONS = {
    "bounded": lambda m: classify.classify_bounded(m).verdict,
    "compact": lambda m: classify.classify_compact(m).verdict,
    "summing": lambda m: classify.summing_criteria(
        m, criteria=["summing/absolutely-summing-iff"])[0].verdict,
    "smoothing-sup-to-l1": lambda m: classify.smoothing_criteria(
        m, p=1.0, q=INF, criteria=["smoothing/sup-to-l1"])[0].verdict,
    "smoothing-monomial-gap": lambda m: classify.smoothing_criteria(
        m, p=1.0, q=2.0, criteria=["smoothing/monomial-gap"])[0].verdict,
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
    violations = sum(_EXAMPLE_QUESTIONS[question](ms[name]) != expected
                     for name, question, expected in expectations)
    return [
        PropertyResult(
            property_id="classifier/example-table",
            trials=len(expectations),
            violations=violations,
            worst_margin=float(violations),
        )
    ]


# -- suite runner -----------------------------------------------------------------


# suite -> its checks at a seed, in the order "all" runs them
_SUITE_RUNS = {
    "embeddings": check_embeddings,
    "khintchine": check_khintchine,
    "dilation": check_contraction_and_dilation,
    "examples": lambda seed: check_classifier_on_examples(),
    "coefficients": check_coefficient_estimates,
    "explema": lambda seed: check_explema(),
}
SUITES = tuple(_SUITE_RUNS)


def run_suite(suite: str, seed: int = 42) -> list[PropertyResult]:
    if suite == "all":
        # through the module name, so that each suite is a call of run_suite of its own
        return [r for s in SUITES for r in run_suite(s, seed)]
    if suite not in _SUITE_RUNS:
        raise ValueError(f"unknown suite {suite!r}")
    return _SUITE_RUNS[suite](seed)


def results_to_csv(results: list[PropertyResult]) -> str:
    return "\n".join([CSV_HEADER] + [r.as_csv_row() for r in results]) + "\n"
