"""The averaging operator f(z) -> integral of f(z/t) dmu(t)/t.

Monomials are eigenfunctions with eigenvalue mu_n, so the primary route
multiplies Taylor coefficients by the moment sequence.  The defining
integral is kept as an independent quadrature oracle, and dilation
operator norms from a Fock space into a smaller one are bracketed and
estimated through monomial Rayleigh quotients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import measure as msr
from .entire import CoeffFunction
from .focknorm import INF, _check_exponent, log_monomial_norm
from .measure import CLOSED_FORM, DomainError, MeasureSpec, MomentSequence


class IllDefined(Exception):
    """The operator is not even continuous on entire functions (support reaches 0)."""


class HausdorffOperator:
    """A measure together with its lazily extended array of log-moments."""

    def __init__(self, m: MeasureSpec):
        self.measure = m
        self.support = msr.support_report(m)
        self.method = m.weighted_mass(0.0)[1]  # closed form, or quadrature
        self._log_mu = np.empty(0)

    def log_moments(self, n_max: int) -> np.ndarray:
        """log mu_0..log mu_{n_max} and any computed past it, grown as measure.py says."""
        if n_max < 0:
            raise ValueError("moment index must be >= 0")
        have = len(self._log_mu)
        if n_max >= have:
            stop = max(n_max, 2 * have - 1, 63) if self.method == CLOSED_FORM else n_max
            self._log_mu = np.append(self._log_mu, self.measure.log_moments(stop, have))
        return self._log_mu

    def eigenvalue(self, n: int) -> float:
        """mu_n, the eigenvalue at the degree-n monomial."""
        return float(msr.exp_moments(self.log_moments(n)[n]))

    def moments(self, n_max: int) -> MomentSequence:
        return MomentSequence.from_logs(self.log_moments(n_max)[: n_max + 1], self.method)

    def _require_well_defined(self) -> None:
        if not self.support.inf_support > 0.0:
            raise IllDefined(
                "support reaches 0: the moment roots are unbounded "
                "(criterion entire/root-moment-bound)"
            )

    def __repr__(self) -> str:
        return f"HausdorffOperator({self.measure!r})"


def apply_spectral(op: HausdorffOperator, f: CoeffFunction) -> CoeffFunction:
    """Diagonal action: coefficient n is multiplied by mu_n."""
    op._require_well_defined()
    mu = msr.exp_moments(op.log_moments(f.degree)[: f.degree + 1])
    return CoeffFunction(f.coeffs * mu, label=f.label)


def _complex_quad(func, lo, hi, **weight):
    kw = dict(epsabs=1e-300, epsrel=1e-11, limit=400, **weight)
    re, _ = integrate.quad(lambda u: func(u).real, lo, hi, **kw)
    im, _ = integrate.quad(lambda u: func(u).imag, lo, hi, **kw)
    return complex(re, im)


def _action_at(m: MeasureSpec, fcall, z: complex) -> complex:
    """integral of fcall(z/t) dm(t)/t by structural recursion.

    No factor of a density integrand leaves double range: the power tail is
    integrated in u = log t with its density e**(-a u) in log form, and the
    beta tail in s = 1/t, where its density is the algebraic weight
    s**(a-b) (1-s)**(b-1) of quad.  A generic Density still evaluates
    phi(e**u), which is safe only while a Density with hi = inf fails to
    construct (measure._log_substituted_quad raises DivergentMoment for it).
    """
    if isinstance(m, msr.PointMasses):
        return sum((lam / t) * fcall(z / t) for lam, t in m.atoms)
    if isinstance(m, msr.Scaled):
        return m.c * _action_at(m.inner, fcall, z)
    if isinstance(m, msr.MellinConvolution):
        return _action_at(m.left, lambda w: _action_at(m.right, fcall, w), z)
    if isinstance(m, msr.PowerTailDensity):
        a = m.a
        return _complex_quad(lambda u: fcall(z * math.exp(-u)) * math.exp(-a * u), 0.0, np.inf)
    if isinstance(m, msr.BetaTailDensity):
        # s = 1/t turns (t-1)**(b-1) t**-a dt/t on (1, inf) into s**(a-b) (1-s)**(b-1) ds
        # on (0, 1); quad's algebraic weight carries both endpoint powers (each > -1
        # since a+1 > b > 0), which leaves fcall(z s) as the whole integrand.
        return _complex_quad(
            lambda s: fcall(z * s), 0.0, 1.0, weight="alg", wvar=(m.a - m.b, m.b - 1.0)
        )
    if isinstance(m, msr.Density):
        lo, hi = m.support
        u_lo = math.log(lo) if lo > 0 else -np.inf
        u_hi = math.log(hi) if math.isfinite(hi) else np.inf
        return _complex_quad(
            lambda u: fcall(z * math.exp(-u)) * m.phi(math.exp(u)), u_lo, u_hi
        )
    raise TypeError(f"no quadrature rule for measure type {type(m).__name__}")


def apply_quadrature(op: HausdorffOperator, f: CoeffFunction, z_samples) -> np.ndarray:
    """Evaluate the defining integral of the transformed function at sample points.

    Atoms are summed exactly; density parts go through adaptive quadrature
    after t = e**u (t = 1/s for the beta tail), with the densities written so
    that no factor of the integrand leaves double range.  This is the
    independent oracle for apply_spectral.
    """
    op._require_well_defined()
    out = [
        _action_at(op.measure, lambda w: complex(f(w)), complex(z))
        for z in np.atleast_1d(np.asarray(z_samples, dtype=complex))
    ]
    return np.array(out, dtype=complex)


@dataclass(frozen=True)
class DilationBounds:
    """Shape bounds for the dilation norm from exponent q down to p <= q.

    The true norm sits between lower and upper up to multiplicative
    constants the theory leaves undetermined; both are reported with the
    constants set to 1 and flagged as such.
    """

    lower: float
    upper: float
    constants_undetermined: bool = True


def dilation_opnorm_bounds(t: float, p: float, q: float, alpha: float) -> DilationBounds:
    """Bounds (1-1/t^2)**(1/(2q)-1/(2p)) and t**(2/q) (1-1/t^2)**(1/q-1/p).

    For p = q the dilation is an exact isometry bound and both sides are 1.
    """
    p = _check_exponent(p, "p")
    q = _check_exponent(q, "q")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
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


def _dilation_rayleigh(t: float, p: float, q: float, alpha: float,
                       n_max: int) -> tuple[float, int]:
    """max over n <= n_max of t**-n ||u_n||_p / ||u_n||_q, with the argmax."""
    log_t = math.log(t)
    best, best_n = -np.inf, 0
    for n in range(n_max + 1):
        val = -n * log_t + log_monomial_norm(n, p, alpha) - log_monomial_norm(n, q, alpha)
        if val > best:
            best, best_n = val, n
    return math.exp(best), best_n


def dilation_opnorm_estimate(t: float, p: float, q: float, alpha: float,
                             n_max: int = 400) -> float:
    """Certified lower bound on the dilation norm from monomial quotients."""
    p = _check_exponent(p, "p")
    q = _check_exponent(q, "q")
    if t <= 1.0:
        raise ValueError("need t > 1")
    value, _ = _dilation_rayleigh(t, p, q, alpha, n_max)
    return value
