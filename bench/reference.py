"""Closed-form references, derived here and never imported from fockhaus.

Measures are described by plain tuples so that the oracle (this module)
and the constructor (``build_measure``) read the same description but share
no code path:

    ("hardy",)                      dt/t on (1, inf)
    ("power", a)                    t**-a dt on (1, inf)
    ("beta", a, b)                  (t-1)**(b-1) t**-a dt on (1, inf)
    ("geom", lam, r)                sum_k>=1 lam**k delta(r**k)
    ("dirac", t)                    t * delta(t)          (mu_0 = 1)
    ("atoms", ((w, t), ...), inf)   finite atoms; inf overrides the infimum
    ("density", k, lo, hi)          t**-k dt on (lo, hi), hi may be inf
    ("constant", lo, hi)            1 dt on (lo, hi)
    ("scaled", c, inner)            c * inner
    ("mellin", left, right)         Mellin convolution

Moments are mu_n = integral of t**-(n+1) dmu(t).
"""

from __future__ import annotations

import math

INF = float("inf")


def log_monomial_norm(n: int, q: float, alpha: float) -> float:
    """log ||z**n||_{q,alpha}; the circle mean of z**n is r**n for every p.

    alpha*q * int_0^inf r**(n q) e^{-alpha q r^2/2} r dr
        = (2/(alpha q))**(n q/2) * Gamma(n q/2 + 1),
    and for q = inf the weighted sup of r**n e^{-alpha r^2/2} sits at
    r**2 = n/alpha.
    """
    if q == INF:
        return 0.0 if n == 0 else 0.5 * n * (math.log(n / alpha) - 1.0)
    half = 0.5 * n * q
    return (half * math.log(2.0 / (alpha * q)) + math.lgamma(half + 1.0)) / q


def log_kernel_norm(c_abs: float, alpha: float) -> float:
    """log ||exp(c z)||_{p,alpha} = |c|**2/(2 alpha), the same for every p."""
    return c_abs * c_abs / (2.0 * alpha)


def rel_err_log(log_value: float, log_ref: float) -> float:
    """|value/ref - 1| computed from logarithms."""
    return abs(math.expm1(log_value - log_ref))


def digits(rel_err: float) -> float:
    """-log10 of a relative error, floored at 1e-16 (16 digits)."""
    return 16.0 if rel_err <= 1e-16 else -math.log10(rel_err)


# -- measures -------------------------------------------------------------------


def inf_support(spec) -> float:
    kind = spec[0]
    if kind in ("hardy", "power", "beta"):
        return 1.0
    if kind == "geom":
        return spec[2]
    if kind == "dirac":
        return spec[1]
    if kind == "atoms":
        return spec[2] if spec[2] is not None else min(t for _, t in spec[1])
    if kind in ("density", "constant"):
        return spec[-2]
    if kind == "scaled":
        return inf_support(spec[2])
    if kind == "mellin":
        return inf_support(spec[1]) * inf_support(spec[2])
    raise ValueError(kind)


def atom_at_one(spec) -> bool:
    kind = spec[0]
    if kind == "dirac":
        return spec[1] == 1.0
    if kind == "atoms":
        return any(t == 1.0 for _, t in spec[1])
    if kind == "geom":
        return spec[2] == 1.0
    if kind == "scaled":
        return atom_at_one(spec[2])
    if kind == "mellin":
        # only atom-atom products carry atoms; the generator never builds those
        return False
    return False


def expected_bounded(spec) -> bool:
    """Bounded on every (mixed) Fock space iff no mass below 1."""
    return inf_support(spec) >= 1.0


def expected_compact(spec) -> bool:
    """Compact iff no mass on (0, 1]."""
    return inf_support(spec) >= 1.0 and not atom_at_one(spec)


def _pow_neg(t: float, e: float) -> float:
    """t**-e, overflowing to inf instead of raising."""
    try:
        return math.exp(-e * math.log(t))
    except OverflowError:
        return INF


def moment(spec, n: int) -> float:
    kind = spec[0]
    if kind == "hardy":
        return 1.0 / (n + 1.0)
    if kind == "power":
        return 1.0 / (n + spec[1])
    if kind == "beta":
        a, b = spec[1], spec[2]
        second = n + a - b + 1.0
        return math.exp(math.lgamma(b) + math.lgamma(second) - math.lgamma(b + second))
    if kind == "geom":
        x = spec[1] * spec[2] ** -(n + 1.0)
        return x / (1.0 - x)
    if kind == "dirac":
        return _pow_neg(spec[1], float(n))
    if kind == "atoms":
        return math.fsum(w * _pow_neg(t, n + 1.0) for w, t in spec[1])
    if kind in ("density", "constant"):
        # int_lo^hi t**-(e+1) dt = lo**-e * (1 - (lo/hi)**e) / e with e = n + k
        k, lo, hi = (0.0, *spec[1:]) if kind == "constant" else spec[1:]
        e = n + k
        if e == 0.0:
            return math.log(hi / lo)
        return lo**-e * -math.expm1(e * math.log(lo / hi)) / e
    if kind == "scaled":
        return spec[1] * moment(spec[2], n)
    if kind == "mellin":
        return moment(spec[1], n) * moment(spec[2], n)
    raise ValueError(kind)
