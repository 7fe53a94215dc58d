"""The averaging operator f(z) -> integral of f(z/t) dmu(t)/t.

Monomials are eigenfunctions with eigenvalue mu_n, so the primary route
multiplies Taylor coefficients by the moment sequence, which the measure
computes and keeps; the operator holds only its measure.  The defining
integral is kept as an independent quadrature oracle, and dilation
operator norms from a Fock space into a smaller one are bracketed and
estimated through monomial Rayleigh quotients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measure as msr
from .entire import CoeffFunction, unit_phases
from .focknorm import _LOG_DBL_MAX, INF, _check_exponent, log_monomial_norm
from .measure import DomainError, MeasureSpec


QUAD_MAX_WORK = 1 << 28  # Horner steps one quadrature action may take, at least 64 a value


class IllDefined(Exception):
    """The operator is not even continuous on entire functions (support reaches 0)."""


class HausdorffOperator:
    """The averaging operator of a measure; its eigenvalues are the measure's moments."""

    def __init__(self, m: MeasureSpec):
        self.measure = m

    def eigenvalue(self, n: int) -> float:
        """mu_n, the eigenvalue at the degree-n monomial.

        Outside the tests its one caller is the benchmark's tracer, which counts
        these calls: keep it when pruning surface that nothing else calls.
        """
        return float(msr.exp_moments(self.measure.log_moments(n)[n]))

    def __repr__(self) -> str:
        return f"HausdorffOperator({self.measure!r})"


def _image_log_moments(op: HausdorffOperator, f: CoeffFunction) -> np.ndarray:
    """log mu_0..log mu_deg, once the operator is defined and the image of f in double range.

    Both routes check this before any arithmetic, so an image coefficient
    a_n mu_n past double range raises DomainError rather than reading inf or NaN.
    """
    if not op.measure.inf_support > 0.0:
        raise IllDefined(
            "support reaches 0: the moment roots are unbounded "
            "(criterion entire/root-moment-bound)"
        )
    log_mu = op.measure.log_moments(f.degree)[: f.degree + 1]
    nonzero = f.coeffs != 0
    log_image = np.log(np.abs(f.coeffs[nonzero])) + log_mu[nonzero]
    if (log_image > _LOG_DBL_MAX).any():
        n = int(np.flatnonzero(nonzero)[np.argmax(log_image)])
        raise DomainError(f"image coefficient a_{n} mu_{n} lies past double range")
    return log_mu


def apply_spectral(op: HausdorffOperator, f: CoeffFunction) -> CoeffFunction:
    """Diagonal action: a_n becomes a_n mu_n, formed in logs as (a_n/|a_n|)
    exp(log|a_n| + log mu_n) where mu_n alone is inf or below the smallest normal double."""
    log_mu = _image_log_moments(op, f)
    mu = msr.exp_moments(log_mu)
    coeffs = f.coeffs * np.where(mu == np.inf, 0.0, mu)
    far = ((mu < np.finfo(float).tiny) | (mu == np.inf)) & (f.coeffs != 0)
    a = f.coeffs[far]
    coeffs[far] = unit_phases(a) * np.exp(np.log(np.abs(a)) + log_mu[far])
    return CoeffFunction(coeffs, label=f.label)


def apply_quadrature(op: HausdorffOperator, f: CoeffFunction, z_samples) -> np.ndarray:
    """Evaluate the defining integral of the transformed function at sample points.

    The integral of f(z/t) dmu(t)/t is ``measure.integrate(h)`` in the contraction
    factor s = 1/t, with h(s) = f(z s) for every sample z at once: atoms are
    summed exactly, the tails and densities go through Gauss rules whose panels
    bisect until two rules agree on the modulus of every value, a Mellin product
    evaluates its grid of nodes in one call, and an integral that does not
    converge raises DivergentMoment (DomainError where no rule carries a tail's
    endpoint power).  A product nests the rules of its atomless factors, so its
    grids grow as a power of their nodes: past QUAD_MAX_WORK Horner steps in
    all, each value of f counted at no fewer than 64 for the rules' own work
    on it, the action raises DomainError.  This is the oracle for apply_spectral.
    """
    _image_log_moments(op, f)
    zs = np.atleast_1d(np.asarray(z_samples, dtype=complex))
    cost, used = zs.size * max(f.degree + 1, 64), 0

    def h(s):
        nonlocal used
        used += s.size * cost
        if used > QUAD_MAX_WORK:
            raise DomainError(f"the quadrature action takes more than {QUAD_MAX_WORK} "
                              "Horner steps")
        return f(np.multiply.outer(s, zs))

    return np.asarray(op.measure.integrate(h), dtype=complex)


@dataclass(frozen=True)
class DilationBounds:
    """Shape bounds for the dilation norm from exponent q down to p <= q.

    The true norm sits between lower and upper up to multiplicative
    constants the theory leaves undetermined; both are reported with the
    constants set to 1.
    """

    lower: float
    upper: float


def dilation_opnorm_bounds(t: float, p: float, q: float) -> DilationBounds:
    """Bounds (1-1/t^2)**(1/(2q)-1/(2p)) and t**(2/q) (1-1/t^2)**(1/q-1/p).

    Neither depends on alpha.  For p = q the dilation is an exact isometry
    bound and both sides are 1.
    """
    p = _check_exponent(p, "p")
    q = _check_exponent(q, "q")
    if t <= 1.0:
        raise ValueError("need t > 1")
    inv_p = 0.0 if p == INF else 1.0 / p
    inv_q = 0.0 if q == INF else 1.0 / q
    if inv_p < inv_q:
        raise DomainError("need p <= q")
    if p == q:
        return DilationBounds(lower=1.0, upper=1.0)
    s = 1.0 - 1.0 / (t * t)
    lower = s ** (0.5 * inv_q - 0.5 * inv_p)
    upper = t ** (2.0 * inv_q) * s ** (inv_q - inv_p)
    return DilationBounds(lower=lower, upper=upper)


RAYLEIGH_N = 600  # the monomial degrees 0..RAYLEIGH_N that the estimate scans


def _dilation_rayleigh(t: float, p: float, q: float) -> tuple[float, int]:
    """max over n <= RAYLEIGH_N of t**-n ||u_n||_p / ||u_n||_q, with the argmax; both
    norms carry alpha**(-n/2), so the quotient is the one at alpha = 1."""
    log_t = math.log(t)
    best, best_n = -np.inf, 0
    for n in range(RAYLEIGH_N + 1):
        val = -n * log_t + log_monomial_norm(n, p, 1.0) - log_monomial_norm(n, q, 1.0)
        if val > best:
            best, best_n = val, n
    return math.exp(best), best_n


def dilation_opnorm_estimate(t: float, p: float, q: float) -> float:
    """Certified lower bound on the dilation norm from exponent q down to p: the
    largest monomial quotient of _dilation_rayleigh, the same at every alpha."""
    p = _check_exponent(p, "p")
    q = _check_exponent(q, "q")
    if t <= 1.0:
        raise ValueError("need t > 1")
    value, _ = _dilation_rayleigh(t, p, q)
    return value
