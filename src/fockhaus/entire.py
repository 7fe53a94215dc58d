"""Entire functions as finite Taylor-coefficient vectors.

Every function carried by the library is a trimmed complex coefficient
sequence with an explicit truncation certificate where it stands in for a
transcendental family (exponential kernels, Gaussian-type peaks).
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.polynomial import polynomial as P


# log k! as scipy.special.gammaln(k + 1) gives it, bit for bit: Cephes lgam (S. L. Moshier)
# at x = k + 1, log((x-1)!) below 13 and the Stirling series above.  math.lgamma differs
# in the last bit for most k, and the p < 1 norms of degree-200 kernels move by ~4e-8
# relative when their coefficients do
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _log_factorial(k: int) -> float:
    x = k + 1.0
    if x < 13.0:
        return math.log(math.factorial(k))
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    series = 0.0
    for c in _STIRLING:
        series = series * p + c
    return q + series / x


_log_factorial_table = np.zeros(1)  # log 0!
_log_factorial_table.flags.writeable = False


def log_factorials(n_max: int) -> np.ndarray:
    """log k! for k = 0..n_max, a read-only view of one table.

    A larger n_max replaces the table by one of twice the size (or more) that
    starts with the old entries.
    """
    global _log_factorial_table
    table = _log_factorial_table
    if n_max >= len(table):
        size = len(table)
        while size <= n_max:
            size *= 2
        table = np.concatenate([table, [_log_factorial(k) for k in range(len(table), size)]])
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

    def __eq__(self, other) -> bool:
        return isinstance(other, CoeffFunction) and np.array_equal(
            self.coeffs, other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __repr__(self) -> str:
        name = self.label or "f"
        return f"CoeffFunction({name}, degree={self.degree})"

    def to_json_dict(self) -> dict:
        return {"coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def from_json_dict(data: dict) -> CoeffFunction:
    return CoeffFunction([complex(re, im) for re, im in data["coeffs"]])


def from_json(text: str) -> CoeffFunction:
    return from_json_dict(json.loads(text))


def monomial(n: int) -> CoeffFunction:
    """u_n(z) = z**n."""
    if n < 0:
        raise ValueError("monomial degree must be >= 0")
    c = np.zeros(n + 1, dtype=complex)
    c[n] = 1.0
    return CoeffFunction(c, label=f"u_{n}")


def _exp_series_degree(x: float, rel_tol: float, cap: int) -> int:
    """Smallest N with sum_{n>N} x**n/n! <= rel_tol * e**x, or TruncationError.

    Tail bound: x**(N+1)/(N+1)! * 1/(1 - x/(N+2)) once N+2 > x.
    """
    if x <= 0.0:
        return 0
    log_target = math.log(rel_tol) + x
    for n_cut in range(max(0, int(x)), cap + 1):
        if n_cut + 2 <= x:
            continue
        log_tail = (
            (n_cut + 1) * math.log(x)
            - _log_factorial(n_cut + 1)
            - math.log(1.0 - x / (n_cut + 2))
        )
        if log_tail <= log_target:
            return n_cut
    raise TruncationError(
        f"tail {rel_tol:g} at scale {x:g} needs more than {cap} coefficients"
    )


def _exp_coeffs(log_scale: float, phase: complex, n_deg: int) -> np.ndarray:
    # coefficient n of exp(s*z) with |s| = e**log_scale, s/|s| = phase
    n = np.arange(n_deg + 1)
    mags = np.exp(n * log_scale - log_factorials(n_deg))
    return mags * phase**n


def kernel(
    beta: float,
    a: complex,
    n_max: int | None = None,
    radius: float = 8.0,
    rel_tol: float = 1e-14,
) -> CoeffFunction:
    """Truncated expansion of exp(beta * z * conj(a)).

    The truncation degree keeps the dropped tail below rel_tol relative to
    the peak value on |z| <= radius.  With n_max given, that degree is used
    after checking it meets the bound; degrees beyond 500 are refused.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    a = complex(a)
    x = beta * abs(a) * radius
    needed = _exp_series_degree(x, rel_tol, cap=500)
    if n_max is None:
        n_max = needed
    elif n_max < needed:
        raise TruncationError(
            f"degree {n_max} misses the {rel_tol:g} tail bound (needs {needed})"
        )
    if a == 0:
        return CoeffFunction([1.0], label=f"K_{beta:g}(.,0)")
    phase = np.conj(a) / abs(a)
    coeffs = _exp_coeffs(math.log(beta * abs(a)), phase, n_max)
    return CoeffFunction(coeffs, label=f"K_{beta:g}(.,{a!r})")


def gaussian_peak(n: int, alpha: float, n_max: int | None = None,
                  rel_tol: float = 1e-12) -> CoeffFunction:
    """Truncated expansion of exp(n*z - n**2/(2*alpha)).

    Normalized so its weighted sup norm is 1; tail below rel_tol relative on
    |z| <= 2n/alpha.
    """
    if n < 1:
        raise ValueError("peak index must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = n * (2.0 * n / alpha)
    needed = _exp_series_degree(x, rel_tol, cap=2000)
    if n_max is None:
        n_max = needed
    elif n_max < needed:
        raise TruncationError(
            f"degree {n_max} misses the {rel_tol:g} tail bound (needs {needed})"
        )
    coeffs = _exp_coeffs(math.log(float(n)), 1.0 + 0j, n_max)
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
