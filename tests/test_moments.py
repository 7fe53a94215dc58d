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

EXAMPLES = harness._example_measures()
CLOSED_FORM_MEASURES = {
    "geom": EXAMPLES["geom"],
    "atoms-1+1/k": EXAMPLES["atoms-1+1/k"],
    "atom-at-1-family": EXAMPLES["atom-at-1-family"],
    "power:1.5": measure.PowerTailDensity(1.5),
    "beta:2.5:1.5": measure.BetaTailDensity(2.5, 1.5),
    "beta:-0.3:0.5": measure.BetaTailDensity(-0.3, 0.5),
    "mellin-hardy2": EXAMPLES["mellin-hardy2"],
    "nested-mellin": measure.MellinConvolution(
        measure.MellinConvolution(measure.dirac(0.5), measure.hardy_measure()),
        measure.BetaTailDensity(2.0, 2.0)),
    "scaled-geom": measure.Scaled(3.0, EXAMPLES["geom"]),
    "scaled-mellin": measure.Scaled(0.5, measure.MellinConvolution(
        measure.dirac(2.0), measure.PowerTailDensity(2.5))),
}
N = 400


@pytest.mark.parametrize("name", CLOSED_FORM_MEASURES)
def test_log_moments_match_weighted_mass(name):
    m = CLOSED_FORM_MEASURES[name]
    log_mu = m.log_moments(N)
    assert log_mu.shape == (N + 1,)
    want = np.array([m.weighted_mass(-float(n))[0] for n in range(N + 1)])
    np.testing.assert_allclose(np.exp(log_mu), want, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(m.log_moments(N, 150), log_mu[150:])


def test_quadrature_backed_log_moments_match_weighted_mass():
    bump = measure.Density(lambda t: t, (1.0, 2.0), label="ramp")
    product = measure.Scaled(2.0, measure.MellinConvolution(bump, measure.dirac(1.5)))
    for m in (bump, product):
        want = [m.weighted_mass(-float(n))[0] for n in range(12)]
        np.testing.assert_allclose(np.exp(m.log_moments(11)), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("m, log_mu", [
    # mu_n = t**-n for a Dirac of mass t at t
    (measure.dirac(1e-300), lambda n: n * 300.0 * math.log(10.0)),
    (measure.dirac(1e300), lambda n: -n * 300.0 * math.log(10.0)),
    (measure.MellinConvolution(measure.dirac(1e-200), measure.hardy_measure()),
     lambda n: n * 200.0 * math.log(10.0) - math.log(n + 1.0)),
])
def test_log_moments_past_double_range(m, log_mu):
    want = np.array([log_mu(n) for n in range(N + 1)])
    np.testing.assert_allclose(m.log_moments(N), want, rtol=1e-12, atol=1e-12)


def test_closed_forms_extend_in_doubling_chunks_and_quadrature_by_one():
    op = HausdorffOperator(measure.hardy_measure())
    assert len(op.log_moments(0)) == 64
    assert len(op.log_moments(64)) == 128
    assert len(op.log_moments(1000)) == 1001
    quad = HausdorffOperator(measure.Density(lambda t: 1.0, (1.0, 2.0)))
    assert len(quad.log_moments(0)) == 1
    assert len(quad.log_moments(5)) == 6
    with pytest.raises(ValueError):
        op.eigenvalue(-1)


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
])
def test_far_moments_raise_no_warning(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert code == 0, err.getvalue()
