"""The log-moment arrays and the vectorised scans built on them.

``log_moments`` is checked against the scalar ``weighted_mass`` of every
measure class, and ``series_verdict``/``sup_verdict`` against a plain loop
over ``weighted_mass`` that adds and maxes one term at a time.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest

from fockhaus import classify, cli, harness, measure
from fockhaus.hausdorff import HausdorffOperator

from test_classify import GOLDEN_MEASURES

def closed_form_measures() -> dict:
    """Freshly built measures whose moments all have closed forms."""
    examples = harness._example_measures()
    return {
        "geom": examples["geom"],
        "atoms-1+1/k": examples["atoms-1+1/k"],
        "atom-at-1-family": examples["atom-at-1-family"],
        "power:1.5": measure.PowerTailDensity(1.5),
        "beta:2.5:1.5": measure.BetaTailDensity(2.5, 1.5),
        "beta:-0.3:0.5": measure.BetaTailDensity(-0.3, 0.5),
        "mellin-hardy2": examples["mellin-hardy2"],
        "nested-mellin": measure.MellinConvolution(
            measure.MellinConvolution(measure.dirac(0.5), measure.hardy_measure()),
            measure.BetaTailDensity(2.0, 2.0)),
        "scaled-geom": measure.Scaled(3.0, examples["geom"]),
        "scaled-mellin": measure.Scaled(0.5, measure.MellinConvolution(
            measure.dirac(2.0), measure.PowerTailDensity(2.5))),
    }


def quadrature_backed_measures() -> dict:
    """Freshly built measures whose moments go through quadrature."""
    ramp = measure.Density(lambda t: t, (1.0, 2.0), label="ramp")
    return {
        "ramp": ramp,
        "scaled-product": measure.Scaled(2.0, measure.MellinConvolution(ramp, measure.dirac(1.5))),
    }


CLOSED_FORM_MEASURES = closed_form_measures()
N = 400


@pytest.mark.parametrize("name", CLOSED_FORM_MEASURES)
def test_log_moments_match_weighted_mass(name):
    m = CLOSED_FORM_MEASURES[name]
    log_mu = m.log_moments(N)[: N + 1]
    want = np.array([m.weighted_mass(-float(n))[0] for n in range(N + 1)])
    np.testing.assert_allclose(np.exp(log_mu), want, rtol=1e-12, atol=0)


def test_quadrature_backed_log_moments_match_weighted_mass():
    for m in quadrature_backed_measures().values():
        want = [m.weighted_mass(-float(n))[0] for n in range(12)]
        np.testing.assert_allclose(np.exp(m.log_moments(11)[:12]), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", [*CLOSED_FORM_MEASURES, *quadrature_backed_measures()])
def test_moments_grown_in_steps_equal_moments_grown_at_once(name):
    def fresh():
        return {**closed_form_measures(), **quadrature_backed_measures()}[name]

    grown = fresh()
    for n in (10, 100, N):
        grown.log_moments(n)
    np.testing.assert_array_equal(grown.log_moments(N)[: N + 1], fresh().log_moments(N)[: N + 1])


@pytest.mark.parametrize("m, log_mu", [
    # mu_n = t**-n for a Dirac of mass t at t
    (measure.dirac(1e-300), lambda n: n * 300.0 * math.log(10.0)),
    (measure.dirac(1e300), lambda n: -n * 300.0 * math.log(10.0)),
    (measure.MellinConvolution(measure.dirac(1e-200), measure.hardy_measure()),
     lambda n: n * 200.0 * math.log(10.0) - math.log(n + 1.0)),
])
def test_log_moments_past_double_range(m, log_mu):
    want = np.array([log_mu(n) for n in range(N + 1)])
    np.testing.assert_allclose(m.log_moments(N)[: N + 1], want, rtol=1e-12, atol=1e-12)


def test_moments_extend_in_doubling_chunks():
    m = measure.hardy_measure()
    assert len(m.log_moments(0)) == 64
    assert len(m.log_moments(64)) == 128
    assert len(m.log_moments(1000)) == 1001
    quad = measure.Density(lambda t: 1.0, (1.0, 2.0))
    assert len(quad.log_moments(0)) == 64
    assert len(quad.log_moments(64)) == 128
    with pytest.raises(ValueError):
        m.log_moments(-1)
    with pytest.raises(ValueError):
        HausdorffOperator(m).eigenvalue(-1)


def test_normalize_shares_the_moments_read_only(monkeypatch):
    m = quadrature_backed_measures()["ramp"]
    log_mu = m.log_moments(20)
    quads = []
    quad = measure._evaluate

    def counted(*args, **kwargs):
        quads.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(measure, "_evaluate", counted)
    mn = measure.normalize(m)
    assert not mn.closed_form and mn.mu0 == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_array_equal(mn.log_moments(20), math.log(1.0 / m.mu0) + log_mu)
    assert quads == []
    for array in (log_mu, mn.log_moments(20)):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_questions_share_one_quadrature_per_moment(monkeypatch):
    # the bench's density case, asked every smoothing and summing question at its three (p, q)
    chunks, exponents = [], []
    log_moments, weighted_mass = measure.Density._log_moments, measure.Density.weighted_mass

    def counted_chunk(self, n_min, n_max):
        chunks.append((n_min, n_max))
        return log_moments(self, n_min, n_max)

    def counted(self, exponent):
        exponents.append(exponent)
        return weighted_mass(self, exponent)

    monkeypatch.setattr(measure.Density, "_log_moments", counted_chunk)
    monkeypatch.setattr(measure.Density, "weighted_mass", counted)
    m = measure.Density(lambda t: t**-1.5, (0.8, 2.5))
    for p, q in ((1.0, math.inf), (1.0, 2.0), (2.0, 4.0)):
        classify.smoothing_criteria(m, p=p, q=q)
        classify.summing_criteria(m, p=p, q=q)
    # each moment once, in the doubling chunks that reach the horizon
    assert chunks == [(0, 63), (64, 127), (128, 255), (256, 511)]
    assert chunks[-1][0] == classify.QUAD_BACKED_HORIZON
    assert len(exponents) <= 8  # mu_0 and the mass conditions


# -- the scans against a loop over weighted_mass -------------------------------------

SERIES = ((1.0, 0.0), (2.0, 0.5), (1.0, -0.5), (0.5, 0.25), (4.0, -1.5))
SUPS = (0.0, 0.5, -0.25)


def _golden_measure(name):
    spec = GOLDEN_MEASURES[name]
    return measure.named_measure(spec) if isinstance(spec, str) else spec


def _reference_series(mu, power, w, horizon):
    """The scalar scan: add term by term, stop as series_verdict does."""
    total = 0.0
    for n in range(horizon + 1):
        try:
            term = mu[n] ** power * (n + 1.0) ** w
        except OverflowError:
            term = math.inf
        total += term
        if term < 1e-18 * total or total > classify.DIVERGENCE_CUTOFF:
            return total, n
    return total, horizon


def _reference_sup(mu, w, horizon, unbounded):
    prefix = 0.0
    for n in range(horizon + 1):
        prefix = max(prefix, mu[n] * (n + 1.0) ** w)
        if unbounded and prefix > classify.DIVERGENCE_CUTOFF:
            return prefix, n
    return prefix, horizon


@pytest.mark.parametrize("name", GOLDEN_MEASURES)
def test_scans_match_the_scalar_loop(name):
    m = _golden_measure(name)
    mu = [m.weighted_mass(-float(n))[0] for n in range(10_001)]
    for power, w in SERIES:
        sv = classify.series_verdict(m, weight_exponent=w, power=power)
        partial, used = _reference_series(mu, power, w, 10_000)
        assert sv.n_terms == used, (power, w)
        assert sv.partial == pytest.approx(partial, rel=1e-12, abs=0), (power, w)
    for w in SUPS:
        sv = classify.sup_verdict(m, weight_exponent=w)
        prefix, used = _reference_sup(mu, w, 2048, sv.outcome == "unbounded")
        assert sv.n_terms == used, w
        assert sv.partial == pytest.approx(prefix, rel=1e-12, abs=0), w


# -- moments past double range warn nowhere ------------------------------------------


@pytest.mark.parametrize("argv", [
    ["report", "--measure", "dirac:1e-300"],
    ["classify", "--measure", "dirac:1e-50"],
    ["moments", "--measure", "beta:1e308:2"],  # v*v overflowed in the Stirling series
])
def test_far_moments_raise_no_warning(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert code == 0, err.getvalue()
