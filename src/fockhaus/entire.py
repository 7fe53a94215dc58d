"""Entire functions as finite Taylor-coefficient vectors.

Every function carried by the library is a trimmed complex coefficient
sequence with an explicit truncation certificate where it stands in for a
transcendental family (exponential kernels, Gaussian-type peaks).
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.polynomial import polynomial as P


# log k! for the weighted coefficient sums (coeff_weighted_lp, the harness).  The
# Taylor coefficients of exp(s*z) do not go through it; see _exp_coeffs
_log_factorial_table = np.zeros(1)  # log 0!
_log_factorial_table.flags.writeable = False


def _check_alpha(alpha: float) -> float:
    """alpha as a float, or ValueError unless it is positive and finite."""
    alpha = float(alpha)
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be a positive finite real, got {alpha!r}")
    return alpha


def log_factorials(n_max: int) -> np.ndarray:
    """log k! = math.lgamma(k + 1) for k = 0..n_max, a read-only view of one table.

    A larger n_max replaces the table by one that starts with the old entries.
    """
    global _log_factorial_table
    table = _log_factorial_table
    if n_max >= len(table):
        size = 1 << int(n_max).bit_length()  # the next power of two past n_max
        table = np.concatenate([table, [math.lgamma(k + 1.0) for k in range(len(table), size)]])
        table.flags.writeable = False
        _log_factorial_table = table
    return table[: n_max + 1]


def logsumexp(a, axis=None, b=None):
    """log(sum(b * exp(a))) over axis, in the form of scipy.special.logsumexp.

    The maximum terms are split out of the sum: with m the total weight at the
    maximum a_max and s the weighted sum of exp(a - a_max) over the other terms,
    the result is log1p(s / m) + log(m) + a_max.  Weights b must be positive.  A
    row that is all -inf gives -inf, without a warning.
    """
    a = np.asarray(a, dtype=float)
    a_max = np.max(a, axis=axis, keepdims=True)
    at_max = a == a_max
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    terms = np.exp(np.where(at_max, -np.inf, a - shift))
    if b is None:
        m = np.sum(at_max, axis=axis, keepdims=True, dtype=float)
    else:
        m = np.sum(np.where(at_max, b, 0.0), axis=axis, keepdims=True)
        terms = b * terms
    s = np.sum(terms, axis=axis, keepdims=True)
    out = np.log1p(s / m) + np.log(m) + a_max
    return np.squeeze(out, axis=axis)[()]


def unit_phases(coeffs) -> np.ndarray:
    """coeffs / |coeffs| entrywise, and 1 where an entry is 0.

    numpy divides a complex by the reciprocal of its divisor, which overflows
    for a subnormal modulus; those entries are scaled by 2**64 first, exactly,
    and every other entry is divided as it is.
    """
    c = np.asarray(coeffs, dtype=complex)
    c = c * np.where(np.abs(c) < np.finfo(float).tiny, 2.0**64, 1.0)
    mod = np.abs(c)
    return np.divide(c, mod, out=np.ones_like(c), where=mod > 0)


class TruncationError(Exception):
    """The requested relative tail bound is unreachable within the degree cap."""


class CoeffFunction:
    """An entire function given by coefficients a_0..a_N (trailing zeros trimmed)."""

    def __init__(self, coeffs, label: str | None = None):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        nz = np.nonzero(arr)[0]
        if len(nz) == 0:
            arr = arr[:1] * 0.0
        else:
            arr = arr[: nz[-1] + 1]
        self.coeffs = arr
        self.label = label

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        if np.ndim(z) == 0:  # a Python complex keeps Horner's rule off 0-d arrays
            return P.polyval(complex(z), self.coeffs)
        return P.polyval(np.asarray(z, dtype=complex), self.coeffs)

    def __repr__(self) -> str:
        name = self.label or "f"
        return f"CoeffFunction({name}, degree={self.degree})"

    def to_json_dict(self) -> dict:
        return {"coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs]}


def from_json_dict(data: dict) -> CoeffFunction:
    return CoeffFunction([complex(re, im) for re, im in data["coeffs"]])


def monomial(n: int) -> CoeffFunction:
    """u_n(z) = z**n."""
    if n < 0:
        raise ValueError("monomial degree must be >= 0")
    c = np.zeros(n + 1, dtype=complex)
    c[n] = 1.0
    return CoeffFunction(c, label=f"u_{n}")


def _exp_series_degree(x: float, rel_tol: float, cap: int) -> int:
    """The smallest N with sum_{n>N} x**n/n! <= rel_tol * e**x.

    Tail bound: x**(N+1)/(N+1)! * 1/(1 - x/(N+2)) once N+2 > x.  TruncationError
    when no N <= cap meets it (always for x > cap, x = inf included).
    """
    needed = 0
    if x > 0.0:
        log_target = math.log(rel_tol) + x
        for needed in range(int(min(x, cap + 1.0)), cap + 1):
            if needed + 2 > x:
                log_tail = ((needed + 1) * math.log(x) - math.lgamma(needed + 2.0)
                            - math.log(1.0 - x / (needed + 2)))
                if log_tail <= log_target:
                    break
        else:
            raise TruncationError(
                f"tail {rel_tol:g} at scale {x:g} needs more than {cap} coefficients"
            )
    return needed


def _exp_coeffs(scale: float, theta: float, n_deg: int) -> np.ndarray:
    # coefficient n of exp(s*z) with |s| = scale, s = scale * e**(-i theta).  The
    # magnitudes come from the recurrence c_n = c_(n-1) * scale / n, one rounding per
    # step: to degree 250 at scales 0.37, 2, 7.3 and 10 they are within 3.1e-15 of the
    # exact rationals, where exp(n log scale - log n!) is off by up to 3.3e-13.  Each
    # phase e**(-i n theta) has modulus 1 to a rounding, where the n-th power of a
    # rounded unit phase compounds its error n times
    mags = np.cumprod(np.r_[1.0, scale / np.arange(1.0, n_deg + 1)])
    return mags * np.exp(-1j * theta * np.arange(n_deg + 1))


def kernel(beta: float, a: complex, radius: float = 8.0) -> CoeffFunction:
    """Truncated expansion of exp(beta * z * conj(a)).

    The degree is the smallest that keeps the dropped tail below 1e-14 relative
    to the peak value on |z| <= radius; a degree beyond 500 raises TruncationError.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    a = complex(a)
    x = beta * abs(a) * radius
    n_deg = _exp_series_degree(x, 1e-14, 500)
    if a == 0:
        return CoeffFunction([1.0], label=f"K_{beta:g}(.,0)")
    coeffs = _exp_coeffs(beta * abs(a), cmath.phase(a), n_deg)
    return CoeffFunction(coeffs, label=f"K_{beta:g}(.,{a!r})")


def gaussian_peak(n: int, alpha: float) -> CoeffFunction:
    """Truncated expansion of exp(n*z - n**2/(2*alpha)).

    Normalized so its weighted sup norm is 1; tail below 1e-12 relative on
    |z| <= 2n/alpha.
    """
    if n < 1:
        raise ValueError("peak index must be >= 1")
    alpha = _check_alpha(alpha)
    x = n * (2.0 * n / alpha)
    n_deg = _exp_series_degree(x, 1e-12, 2000)
    coeffs = _exp_coeffs(float(n), 0.0, n_deg)
    coeffs = coeffs * math.exp(-(n**2) / (2.0 * alpha))
    return CoeffFunction(coeffs, label=f"peak_{n}")


def dilate(f: CoeffFunction, t: float) -> CoeffFunction:
    """f(z/t): coefficient n picks up the factor t**-n.  Requires t >= 1."""
    if t < 1.0:
        raise ValueError("dilation parameter must satisfy t >= 1")
    if t == 1.0:
        return f
    n = np.arange(f.degree + 1)
    return CoeffFunction(f.coeffs * t ** (-n.astype(float)), label=f.label)


def rademacher_randomize(f: CoeffFunction, signs) -> CoeffFunction:
    """Flip coefficient signs: coefficient n becomes a_n * signs[n]."""
    signs = np.asarray(signs)
    if len(signs) < f.degree + 1:
        raise ValueError("need a sign for every coefficient")
    if not np.all(np.abs(signs[: f.degree + 1]) == 1):
        raise ValueError("signs must be +1 or -1")
    return CoeffFunction(f.coeffs * signs[: f.degree + 1], label=f.label)
