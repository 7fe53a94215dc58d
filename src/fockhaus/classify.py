"""Boundedness, compactness, smoothing and summing classification.

Verdicts come in five flavours because the underlying criteria do: support
dichotomies decide Yes/No outright, while the space-shrinking and summing
questions only carry non-matching sufficient and necessary series
conditions.  Convergence of a series is asserted only when a symbolic decay
certificate (geometric from the support infimum, or a closed-form power
envelope) yields a tail bound; raw partial sums never certify anything.
Partial sums and prefix sups scan the log-moment array chunk by chunk with
numpy, each term exp(power log mu_n + w log(n+1)); measure.py says how it grows.

The smoothing and summing criteria are data.  A record of ``CRITERIA`` holds
an id, its question, a predicate ``applies(p, q)`` and the tuples ``suff``
and ``nec`` of sufficient and necessary conditions, each ``(kind, power,
weight_exponent)`` with numbers or functions of (p, q).  Kind "series" asks
that sum_n mu_n**power (n+1)**weight_exponent converge, "sup" that sup_n
mu_n (n+1)**weight_exponent be finite (power 1), "mass" that the integral
of t**weight_exponent dmu(t)/t be finite.  With ``iff`` set, the one
condition decides Yes or No; ``target`` names the target space in params.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .entire import _check_alpha
from .focknorm import _LOG_DBL_MAX, INF, _check_exponent
from .measure import (
    DivergentMoment,
    MeasureSpec,
    exp_moments,
    normalize,
    support_report,
)


class HypothesisNotDeclared(Exception):
    """A weighted-space compactness query without the weight's limit flags."""


class CriterionInapplicable(Exception):
    """The requested criterion does not cover the given exponent range."""


class Verdict(str, Enum):
    YES = "Yes"
    NO = "No"
    SUFFICIENT_HOLDS = "SufficientHolds"
    NECESSARY_FAILS = "NecessaryFails"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class SeriesVerdict:
    """Outcome of a series or sup condition on the moment sequence."""

    series_id: str
    kind: str  # "series" | "sup" | "mass"
    n_terms: int
    partial: float  # partial sum, or prefix max for sup conditions
    tail_bound: float | None
    outcome: str  # converges|diverges|unknown, bounded|unbounded|unknown
    witness: str | None = None

    def as_dict(self) -> dict:
        return {
            "criterion": self.series_id,
            "quantity": self.partial,
            "threshold": "finite",
            "outcome": self.outcome,
            "tail_bound": self.tail_bound,
            "witness": self.witness,
            "terms": self.n_terms,
        }


@dataclass
class ClassReport:
    """A verdict with the evidence trail of which criterion fired."""

    question: str
    verdict: Verdict
    params: dict = field(default_factory=dict)
    evidence: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "question": self.question,
            "verdict": self.verdict.value,
            "params": self.params,
            "evidence": self.evidence,
        }


# -- series machinery ---------------------------------------------------------

SERIES_HORIZON = 10_000  # terms a series scan may read from closed-form moments
SUP_HORIZON = 2_048  # the same for a sup scan
QUAD_BACKED_HORIZON = 256
DIVERGENCE_CUTOFF = 1e20  # a partial sum or prefix sup past this ends the scan


def _horizon(m: MeasureSpec, uncapped: int) -> int:
    """Terms a scan may read: quadrature-backed moments stop at QUAD_BACKED_HORIZON."""
    return uncapped if m.closed_form else QUAD_BACKED_HORIZON


def _scan(m: MeasureSpec, power: float, w: float, horizon: int, accumulate, stop):
    """Accumulate mu_n**power (n+1)**w over n = 0..horizon, one chunk of the measure's
    log-moments at a time: (value, n) at the first n where stop(terms, values) holds,
    else (value, horizon).  A term or sum past double range is inf, without a warning."""
    value, n = 0.0, 0
    while n <= horizon:
        log_mu = m.log_moments(n)[n : horizon + 1]
        with np.errstate(over="ignore"):
            terms = np.exp(power * log_mu + w * np.log(np.arange(n, n + len(log_mu)) + 1.0))
            values = accumulate(np.append(value, terms))[1:]  # left to right, as a loop would
        hit = np.flatnonzero(stop(terms, values))
        if hit.size:
            return float(values[hit[0]]), n + int(hit[0])
        value, n = float(values[-1]), n + len(terms)
    return value, horizon


def _geometric_tail(log_C: float, log_rho: float, v: float, N: int) -> float | None:
    """Bound on sum_{n>N} C * rho**n * (n+1)**v for rho < 1, from log C and log rho.

    Past N successive terms shrink at least by rho * e**(max(v, 0)/(N+2)) < 1.
    """
    log_grow = log_rho + max(v, 0.0) / (N + 2.0)
    if log_grow >= 0.0:
        return None
    return float(exp_moments(log_C + (N + 1.0) * log_rho + v * math.log(N + 2.0)
                             - math.log(-math.expm1(log_grow))))


def _power_tail(log_C: float, v: float, N: int) -> float:
    """Bound C (N+1)**(v+1) / (-v-1) on sum_{n>N} C * (n+1)**v for v < -1 (integral test).

    C = e**log_C enters in logs where it passes double range, and as a number otherwise.
    """
    if log_C > _LOG_DBL_MAX:
        return float(exp_moments(log_C + (v + 1.0) * math.log(N + 1.0) - math.log(-v - 1.0)))
    return math.exp(log_C) * (N + 1.0) ** (v + 1.0) / (-v - 1.0)


def series_verdict(
    m: MeasureSpec,
    weight_exponent: float = 0.0,
    power: float = 1.0,
) -> SeriesVerdict:
    """Certified verdict on sum over n of mu_n**power * (n+1)**weight_exponent.

    The measure supplies the decay certificates and the moments, which it
    keeps, so the verdicts of one measure share its moment computations.
    """
    if not power > 0:
        raise ValueError("power must be > 0")
    (up, lo), horizon = m.decay_bounds(), _horizon(m, SERIES_HORIZON)

    outcome, tail, witness = "unknown", None, None
    if up is not None:
        log_rho = power * math.log(up.ratio)
        v = weight_exponent - up.power * power
        if log_rho < 0.0:
            tail = _geometric_tail(power * up.log_const, log_rho, v, horizon)
            if tail is not None:
                outcome = "converges"
                witness = f"geometric envelope ratio {up.ratio:g}"
        elif up.ratio == 1.0 and v < -1.0:
            outcome = "converges"
            tail = _power_tail(power * up.log_const, v, horizon)
            witness = f"power envelope (n+1)^{v:g}"
    if outcome == "unknown" and lo is not None:
        v = weight_exponent - lo.power * power
        if lo.ratio > 1.0:
            outcome = "diverges"
            try:
                growth = f"{lo.ratio ** power:g}"
            except OverflowError:
                growth = f"exp({power * math.log(lo.ratio):g})"
            witness = f"terms grow geometrically at ratio {growth}"
        elif lo.ratio == 1.0 and v >= -1.0:
            outcome = "diverges"
            witness = f"terms dominate the divergent p-series (n+1)^{v:g}"

    partial, used = _scan(m, power, weight_exponent, horizon, np.cumsum, lambda t, s: (
        (t < 1e-18 * s) | (s > DIVERGENCE_CUTOFF)))
    return SeriesVerdict(
        series_id=f"series[mu^{power:g}*(n+1)^{weight_exponent:g}]",
        kind="series",
        n_terms=used,
        partial=partial,
        tail_bound=tail,
        outcome=outcome,
        witness=witness,
    )


def sup_verdict(m: MeasureSpec, weight_exponent: float = 0.0) -> SeriesVerdict:
    """Certified verdict on sup over n of mu_n * (n+1)**weight_exponent."""
    (up, lo), horizon = m.decay_bounds(), _horizon(m, SUP_HORIZON)

    outcome, bound, witness = "unknown", None, None
    if up is not None:
        v = weight_exponent - up.power
        if up.ratio < 1.0:
            # the envelope C rho^n (n+1)^v decreases past its peak at n + 1 = v / -log rho,
            # so past the horizon it is at most its value at the horizon or at that peak
            log_rho = math.log(up.ratio)
            n = max(horizon, v / -log_rho - 1.0)
            bound = float(exp_moments(up.log_const + n * log_rho + v * math.log(n + 1.0)))
            outcome = "bounded"
            witness = f"geometric envelope ratio {up.ratio:g}"
        elif up.ratio == 1.0 and v <= 0.0:
            outcome = "bounded"
            bound = float(exp_moments(up.log_const))
            witness = f"power envelope (n+1)^{v:g}"
    if outcome == "unknown" and lo is not None:
        v = weight_exponent - lo.power
        if lo.ratio > 1.0 or (lo.ratio == 1.0 and v > 0.0):
            outcome = "unbounded"
            witness = "terms grow without bound under the lower envelope"

    # a bounded scan runs to its horizon, where the envelope takes over
    prefix, horizon = _scan(m, 1.0, weight_exponent, horizon, np.maximum.accumulate,
                            lambda t, s: (s > DIVERGENCE_CUTOFF) & (outcome == "unbounded"))
    if bound is not None:
        bound = max(bound, prefix)
    return SeriesVerdict(
        series_id=f"sup[mu*(n+1)^{weight_exponent:g}]",
        kind="sup",
        n_terms=horizon,
        partial=prefix,
        tail_bound=bound,
        outcome=outcome,
        witness=witness,
    )


# -- support dichotomies -------------------------------------------------------


def _row(criterion: str, quantity, threshold, note: str | None = None) -> dict:
    """One evidence row of a report."""
    row = {"criterion": criterion, "quantity": quantity, "threshold": threshold}
    return row if note is None else row | {"note": note}


def _normalized_with_notice(m: MeasureSpec) -> tuple[MeasureSpec, list]:
    mu0 = m.mu0
    if abs(mu0 - 1.0) <= 1e-12:
        return m, []
    note = "input rescaled to total weighted mass 1; verdicts are scale-invariant"
    return normalize(m), [_row("normalization", mu0, 1.0, note)]


def classify_entire(m: MeasureSpec) -> ClassReport:
    """Well-definedness and continuity on all entire functions.

    Holds exactly when the support stays away from 0, equivalently when the
    moment roots mu_n**(1/n) stay bounded; the operator is never compact
    there for a nonzero measure.
    """
    rep = support_report(m)
    ok = rep.inf_support > 0.0
    evidence = [_row("entire/support-infimum", rep.inf_support, "> 0")]
    if ok:
        bound = max(rep.total_weighted_mass, 1.0) / rep.inf_support
        evidence.append(_row("entire/root-moment-bound", bound, "sup_n mu_n^(1/n) <= this"))
    evidence.append(_row("entire/never-compact", rep.total_weighted_mass, "> 0",
                         "nonzero averaging operators are never compact on entire functions"))
    return ClassReport(
        question="entire-continuity",
        verdict=Verdict.YES if ok else Verdict.NO,
        evidence=evidence,
    )


def _support_verdict(question, rep, params, evidence, rows, hypotheses=True) -> ClassReport:
    """Yes iff ``hypotheses`` hold and the support mass in the first of ``rows`` is 0.

    Each row is (criterion, SupportReport field, threshold, note or None).
    """
    for criterion, attr, threshold, note in rows:
        evidence.append(_row(criterion, getattr(rep, attr), threshold, note))
    ok = hypotheses and getattr(rep, rows[0][1]) == 0.0
    return ClassReport(question, Verdict.YES if ok else Verdict.NO, params, evidence)


def _fock_support_verdict(m: MeasureSpec, p, q, alpha, question: str, rows) -> ClassReport:
    _check_exponent(p, "p")
    if q is not None:
        _check_exponent(q, "q")
    mn, notice = _normalized_with_notice(m)
    params = {"p": p, "q": q if q is not None else p, "alpha": alpha}
    return _support_verdict(question, support_report(mn), params, notice, rows)


def classify_bounded(
    m: MeasureSpec,
    p: float = 2.0,
    q: float | None = None,
    alpha: float = 1.0,
) -> ClassReport:
    """Boundedness on (mixed) Fock spaces: holds iff no mass below 1.

    The verdict is uniform over every exponent pair and weight, covers the
    equal-index spaces and every target with exponent >= the source.
    """
    return _fock_support_verdict(m, p, q, alpha, "fock-bounded", (
        ("bounded/mass-below-1", "mass_below_1", 0.0, None),
        ("bounded/uniformity", "mass_below_1", 0.0, "verdict independent of (p, q, alpha); "
         "also settles every source-to-larger-target pair"),
    ))


def classify_compact(
    m: MeasureSpec,
    p: float = 2.0,
    q: float | None = None,
    alpha: float = 1.0,
) -> ClassReport:
    """Compactness on (mixed) Fock spaces: holds iff no mass on (0, 1]."""
    return _fock_support_verdict(m, p, q, alpha, "compact", (
        ("compact/mass-unit-interval", "mass_unit_interval", 0.0, None),
        ("compact/mass-at-1", "mass_at_1", 0.0, None),
        ("compact/uniformity", "mass_unit_interval", 0.0,
         "verdict independent of (p, q, alpha) and of the target exponent"),
    ))


@dataclass(frozen=True)
class RadialWeight:
    """A decreasing positive radial profile with its limit-behaviour flags.

    ``monomial_norm_roots_diverge`` declares lim ||u_n||_v**(1/n) = inf;
    ``dilation_ratio_vanishes`` declares lim_{r->inf} v(t r)/v(r) = 0 for
    every t > 1.  Both are hypotheses of the compactness criterion and must
    be declared by the caller; they are never inferred numerically.
    """

    label: str
    rapid_decay: bool = True
    monomial_norm_roots_diverge: bool | None = None
    dilation_ratio_vanishes: bool | None = None


def gauss_weight(alpha: float) -> RadialWeight:
    """The weight exp(-alpha r^2 / 2); satisfies every hypothesis flag."""
    alpha = _check_alpha(alpha)
    return RadialWeight(
        label=f"gauss:{alpha:g}",
        rapid_decay=True,
        monomial_norm_roots_diverge=True,
        dilation_ratio_vanishes=True,
    )


def classify_weighted(m: MeasureSpec, v: RadialWeight) -> list[ClassReport]:
    """Boundedness and compactness on weighted sup-norm spaces.

    Bounded iff no mass below 1 and mu_0 < inf (the latter holds by
    construction).  Compactness additionally needs no atom at 1 and the
    weight's declared limit hypotheses.  Returns the "weighted-bounded"
    report, then the "weighted-compact" one.
    """
    if not v.rapid_decay:
        raise HypothesisNotDeclared(
            "weight must decay faster than every polynomial (rapid_decay flag)"
        )
    flags = (v.monomial_norm_roots_diverge, v.dilation_ratio_vanishes)
    if None in flags:
        raise HypothesisNotDeclared(
            "compactness needs the weight flags monomial_norm_roots_diverge "
            "and dilation_ratio_vanishes"
        )
    rep = support_report(m)
    params = {"weight": v.label}
    hyp = all(flags)
    note = "hypothesis flags " + ("declared" if hyp else "not satisfied")
    return [
        _support_verdict("weighted-bounded", rep, params, [], (
            ("weighted/mass-below-1", "mass_below_1", 0.0, None),
            ("weighted/total-weighted-mass", "total_weighted_mass", "finite", None))),
        _support_verdict("weighted-compact", rep, params, [], (
            ("weighted/mass-unit-interval", "mass_unit_interval", 0.0, None),
            ("weighted/compact-mass-at-1", "mass_at_1", 0.0, note)), hyp),
    ]


# -- smoothing and summing criteria ---------------------------------------------


def _inv(p: float) -> float:
    return 0.0 if p == INF else 1.0 / p


@dataclass(frozen=True)
class Criterion:
    """One smoothing or summing criterion as data; see the module docstring."""

    id: str
    question: str
    applies: Callable[[float, float], bool]
    suff: tuple = ()
    nec: tuple = ()
    iff: bool = False
    target: str | None = None


_ALWAYS = lambda p, q: True  # noqa: E731
_SMALL_P = lambda p, q: 1.0 <= p <= 2.0  # noqa: E731
_P = lambda p, q: p  # noqa: E731
_GAP = lambda p, q: _inv(p) - _inv(q)  # noqa: E731
_G = lambda p, q: min(p, 1.0)  # noqa: E731  (the g of hilbert-source)

# For smoothing, p is the target exponent and q the source.
CRITERIA = (
    Criterion("smoothing/monomial-gap", "smoothing", lambda p, q: 1.0 <= p < q and _inv(q) <= 1.0,
              suff=(("series", 1.0, lambda p, q: 0.5 * _GAP(p, q)),),
              nec=(("sup", 1.0, lambda p, q: 0.5 * _GAP(p, q)),)),
    Criterion("smoothing/hilbert-source", "smoothing", lambda p, q: q == 2.0 and 0.0 < p < 2.0,
              suff=(("series", lambda p, q: 2.0 * _G(p, q) / (2.0 - _G(p, q)),
                     lambda p, q: _G(p, q) * (2.0 - p) / (2.0 * p * (2.0 - _G(p, q)))),),
              nec=(("sup", 1.0, lambda p, q: (2.0 - p) / (4.0 * p)),)),
    Criterion("smoothing/sup-to-l1", "smoothing", lambda p, q: q == INF and p == 1.0,
              suff=(("series", 1.0, 0.0),), nec=(("series", 1.0, -0.5),)),
    Criterion("smoothing/dilation-route", "smoothing",
              lambda p, q: 1.0 <= p <= 2.0 <= q and p < q,
              suff=(("series", 1.0, lambda p, q: _GAP(p, q) - 1.0),
                    ("mass", 1.0, lambda p, q: 2.0 * _inv(q))),
              nec=(("series", lambda p, q: 1.0 / _GAP(p, q), -0.5),)),
    Criterion("smoothing/sup-to-lp", "smoothing", lambda p, q: q == INF and 1.0 <= p <= 2.0,
              suff=(("series", 1.0, lambda p, q: _inv(p) - 1.0),), nec=(("series", _P, -0.5),)),
    Criterion("smoothing/hilbert-to-lp", "smoothing", lambda p, q: q == 2.0 and 0.0 < p < 2.0,
              suff=(("series", lambda p, q: 2.0 * p / (2.0 - p), 0.5),),
              nec=(("series", lambda p, q: 2.0 * p / (2.0 - p), 0.0),)),
    Criterion("smoothing/hilbert-chain", "smoothing",
              lambda p, q: (q == 2.0 and p == 1.0) or (q == INF and p == 2.0),
              suff=(("series", 2.0, 0.5),), nec=(("series", 2.0, 0.0),)),
    Criterion("smoothing/l1-to-mixed-sup", "smoothing", lambda p, q: q == 1.0,
              suff=(("sup", 1.0, 0.5),), iff=True, target="mixed(inf,1)"),
    Criterion("smoothing/to-mixed-hilbert", "smoothing", lambda p, q: 0.0 < q < 2.0,
              suff=(("sup", 1.0, lambda p, q: (2.0 - q) / (2.0 * q)),),
              nec=(("sup", 1.0, lambda p, q: (2.0 - q) / (4.0 * q)),), target="mixed(2,q)"),
    Criterion("summing/absolutely-summing-iff", "summing", _ALWAYS,
              suff=(("series", 1.0, 0.0),), iff=True),
    Criterion("summing/nuclear-chain", "summing", _ALWAYS,
              suff=(("series", 1.0, 0.0),), nec=(("series", 1.0, -0.5),)),
    Criterion("summing/p-nuclear-small", "summing", lambda p, q: 1.0 < p <= q <= 2.0,
              suff=(("series", _P, 0.0),)),
    Criterion("summing/p-nuclear-large", "summing", lambda p, q: q != INF and max(p, 2.0) <= q,
              suff=(("series", _P, lambda p, q: p * (0.5 - 1.0 / q)),)),
    Criterion("summing/summing-small-p", "summing", _SMALL_P,
              nec=(("series", 2.0, lambda p, q: 1.0 / p - 0.5),)),
    Criterion("summing/summing-large-q", "summing", lambda p, q: q != INF and q > 2.0,
              nec=(("series", lambda p, q: q, lambda p, q: 0.5 * (1.0 - q / 2.0)),)),
    Criterion("summing/p-summing-dual-suff", "summing", _SMALL_P,
              suff=(("series", _P, lambda p, q: (2.0 - p) / 2.0),)),
    Criterion("summing/p-summing-dual-nec", "summing", _SMALL_P,
              nec=(("series", _P, lambda p, q: (p - 2.0) / 2.0),)),
    Criterion("summing/cotype-21", "summing", _SMALL_P, suff=(("sup", 1.0, 0.0),)),
)

_CERTIFIED = ("converges", "bounded")
_IFF_VERDICT = {"converges": Verdict.YES, "bounded": Verdict.YES, "diverges": Verdict.NO,
                "unbounded": Verdict.NO, "unknown": Verdict.INCONCLUSIVE}


def _suff_nec_verdict(suff: list[SeriesVerdict], nec: list[SeriesVerdict]) -> Verdict:
    if suff and all(s.outcome in _CERTIFIED for s in suff):
        return Verdict.SUFFICIENT_HOLDS
    if any(s.outcome in ("diverges", "unbounded") for s in nec):
        return Verdict.NECESSARY_FAILS
    return Verdict.INCONCLUSIVE


def _condition(m: MeasureSpec, cid: str, cond, p, q) -> SeriesVerdict:
    """Evaluate one (kind, power, weight_exponent) condition of criterion cid."""
    kind, power, w = (f(p, q) if callable(f) else f for f in cond)
    if kind == "series":
        return series_verdict(m, weight_exponent=w, power=power)
    if kind == "sup":
        return sup_verdict(m, weight_exponent=w)
    try:  # "mass": the integral of t**w dmu(t)/t
        integral, _ = m.weighted_mass(w)
    except DivergentMoment:
        integral = math.inf
    ok = math.isfinite(integral)
    return SeriesVerdict(
        f"{cid}/source-power-mass", "mass", 0, integral, None,
        "converges" if ok else "diverges",
        None if ok else "integral of t^(2/q - 1) against the measure diverges",
    )


def _report(c: Criterion, m: MeasureSpec, p, q, extra: dict, notice: list):
    """One criterion's report: its conditions evaluated, its verdict and evidence rows."""
    params = {"p": p, "q": q, **extra, "criterion": c.id}
    params |= {} if c.target is None else {"target": c.target}
    suff = [_condition(m, c.id, cond, p, q) for cond in c.suff]
    nec = [_condition(m, c.id, cond, p, q) for cond in c.nec]
    if c.iff:
        return ClassReport(c.question, _IFF_VERDICT[suff[0].outcome], params,
                           notice + [suff[0].as_dict()])
    # a finite mass shows only in its own row, after the necessary conditions
    evidence = notice + [s.as_dict() | {"role": "sufficient"} for s in suff
                         if s.kind != "mass" or s.outcome != "converges"]
    evidence += [s.as_dict() | {"role": "necessary"} for s in nec]
    certified = [s.outcome in _CERTIFIED for s in suff]
    for s in (s for s in suff if s.kind == "mass"):
        evidence.append(_row(s.series_id, s.partial, "finite"))
        if any(certified) and not all(certified):
            note = "only one of the two sufficient conditions certifies"
            evidence.append(_row(f"{c.id}/partial-sufficient", s.partial,
                                 "both parts must certify", note))
    return ClassReport(c.question, _suff_nec_verdict(suff, nec), params, evidence)


def _evaluate(question: str, m: MeasureSpec, p: float, q: float, criteria, extra: dict):
    """Reports of the named (default: every applicable) criteria of a question."""
    p = _check_exponent(p, "p")
    q = _check_exponent(q, "q")
    table = {c.id: c for c in CRITERIA if c.question == question}
    if criteria is None:
        criteria = [cid for cid, c in table.items() if c.applies(p, q)]
    for cid in criteria:
        if cid not in table:
            raise CriterionInapplicable(f"unknown criterion {cid!r}")
        if not table[cid].applies(p, q):
            raise CriterionInapplicable(f"{cid} does not cover p={p:g}, q={q:g}")
    if not criteria:
        return []
    mn, notice = _normalized_with_notice(m)
    return [_report(table[cid], mn, p, q, extra, notice) for cid in criteria]


def smoothing_criteria(
    m: MeasureSpec,
    p: float,
    q: float,
    alpha: float = 1.0,
    criteria: list[str] | None = None,
) -> list[ClassReport]:
    """Evaluate the criteria for mapping the exponent-q space into smaller ones.

    p is the target exponent, q the source (p < q for the genuinely
    shrinking questions).  Each applicable criterion produces one report;
    requesting an inapplicable criterion by name raises
    CriterionInapplicable.
    """
    return _evaluate("smoothing", m, p, q, criteria, {"alpha": alpha})


def summing_criteria(
    m: MeasureSpec,
    p: float = 1.0,
    q: float = 2.0,
    criteria: list[str] | None = None,
) -> list[ClassReport]:
    """Summing/nuclearity conditions expressed through the moment series."""
    return _evaluate("summing", m, p, q, criteria, {})
