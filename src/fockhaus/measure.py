"""Positive Borel measures on (0, inf), their moments and support facts.

A measure is described symbolically (atoms, named densities, Mellin
convolutions, scalings) and never sampled.  Moments

    mu_n = integral over (0, inf) of t**-(n+1) dmu(t)

are computed in closed form where the family admits one and by quadrature
otherwise, with numpy alone.  The quadrature rules are Gauss rules built by
Golub & Welsch ("Calculation of Gauss quadrature rules", Math. Comp. 23, 1969)
from np.linalg.eigvalsh on first use.  One engine, ``_adapt``, integrates a
vectorised integrand over a finite interval with endpoint powers: from the
whole interval as one panel, every round evaluates the 8- and 16-node rules of
each pending panel in one call, and bisects the panels on which they disagree
by more than QUAD_REL_TOL of the integral of |f|, so the tolerance holds on the
modulus of a complex value.  An integrand that raises or is not finite, rules
that never agree, and a Density value past PLAUSIBILITY_BOUND raise
DivergentMoment; endpoint powers whose mass the final rules miss, and a weighted
sum past double range, raise DomainError.

The operator's quadrature action and the support masses of Mellin products go
through one structural recursion, ``integrate(h)``, in the contraction factor
s = 1/t: atoms are summed, a beta tail (the power tail t**-a is the one at
b = 1) is a Gauss-Jacobi rule in s, a Density is Gauss-Legendre panels in
u = log t, and a Mellin product hands its inner factor the whole grid of nodes
at once.  Density moments take every index from one node set per level: the
panels the engine chose for mu_0, cut in half at each level, with each index
kept at the first level that agrees with the one before, so no moment depends
on which others were asked with it.

A measure keeps its own moments.  ``log_moments(n_max)`` is the read-only array
log mu_0..log mu_{n_max} (and any computed past n_max), grown on each leaf
measure in doubling chunks (from 64) through each leaf class's vectorised
``_log_masses``; a chunk keeps its moments up to the first one that fails
(only a Density's can), and raises DivergentMoment only for an index asked
for.  A scaling or a Mellin product keeps no array: it returns log c plus its
inner measure's array, or the sum over the shorter of its factors' arrays,
whole, so ``normalize(m)`` hands a scan every moment m holds at once.  Past
double range a moment reads inf, without a warning.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .entire import DomainError, logsumexp


class DivergentMoment(Exception):
    """The defining integral of a moment (or of mu_0) diverges."""


class ZeroMeasure(Exception):
    """Normalization was requested for the zero measure."""


CLOSED_FORM = "closed-form"
QUAD_REL_TOL = 1e-10
QUAD_TAG = f"quadrature({QUAD_REL_TOL:g})"
GEOMETRIC_ATOMS_MAX = 10_000  # atoms geometric_atoms may materialize
GEOMETRIC_TAIL = 1e-16  # the share of mu_0 that geometric_atoms may drop


@dataclass(frozen=True)
class DecayBound:
    """One-sided envelope ``e**log_const * ratio**n * (n+1)**(-power)`` for mu_n.

    Valid for every n >= 0.  Used to certify convergence/divergence of the
    classification series; never inferred from numerical moment values.  The
    constant is kept as its log: Gamma(b) of a beta tail passes double range at b ~ 171.
    """

    ratio: float
    power: float
    log_const: float

    def pointwise(self, n: int) -> float:
        return math.exp(self.log_const) * self.ratio**n * (n + 1.0) ** (-self.power)


@dataclass(frozen=True)
class SupportReport:
    """Exact support facts: infimum and the masses at/below the unit point."""

    inf_support: float
    mass_below_1: float
    mass_at_1: float
    mass_unit_interval: float
    total_weighted_mass: float  # mu_0

    def __post_init__(self) -> None:
        if abs(self.mass_unit_interval - (self.mass_below_1 + self.mass_at_1)) > 1e-12 * (
            1.0 + self.mass_unit_interval
        ):
            raise ValueError("mass_unit_interval must equal mass_below_1 + mass_at_1")
        if self.inf_support >= 1.0 and self.mass_below_1 != 0.0:
            raise ValueError("inf_support >= 1 forces mass_below_1 = 0")


@dataclass
class MomentSequence:
    """Cached values mu_0..mu_N with a provenance tag per entry."""

    values: list[float]
    methods: list[str]

    def __getitem__(self, n: int) -> float:
        return self.values[n]


class MeasureSpec:
    """Base class for symbolic measure descriptions; its defaults describe an atomless one."""

    # -- structure ---------------------------------------------------------

    @property
    def inf_support(self) -> float:
        raise NotImplementedError

    @property
    def has_atoms(self) -> bool:
        return False

    def mass_below(self, x):
        """mu((0, x)), exact where the structure allows.

        Elementwise over an array x for a measure without atoms, which is how a
        product's mass function calls its atomless factor.
        """
        raise NotImplementedError

    def mass_at(self, x: float) -> float:
        """mu({x}); nonzero only for atomic parts."""
        return 0.0

    def sum_atoms(self, g, x: float) -> float:
        """sum of lam * g(x / t) over the atoms (lam, t).

        Masses look up atoms by exact position: x * (1/t) can miss one, as 0.1 * 0.1 != 0.01.
        """
        return 0.0

    # -- integrals ---------------------------------------------------------

    def integrate(self, h):
        """integral of h(s) dmu(t)/t in the contraction factor s = 1/t.

        h is vectorised: it takes an array of s and returns its values, real or
        complex, with the shape of s followed by any trailing shape, which the
        integral keeps; the operator's action at the points zs is
        ``integrate(lambda s: f(np.multiply.outer(s, zs)))``.  Atoms are summed
        exactly.  A beta tail is a Gauss-Jacobi rule in s with its weight
        s**(a-b) (1-s)**(b-1), a Density is a Gauss-Legendre rule in u = log t,
        and each bisects the panels on which two rules disagree (see
        ``_adapt``); h is never called at an end of the interval.  A Mellin
        product hands its inner factor the grid of inner times outer nodes in
        one call.  A product of two atomless factors integrates one factor's
        mass function over the other with it; an atomic factor is the outer one
        and goes through ``sum_atoms`` instead: its sum is exact there, while an
        atomic inner factor would hand quadrature a step function.  A failure
        raises DivergentMoment, or DomainError where the rules cannot carry an
        endpoint power or a sum passes double range (see ``_adapt``).
        """
        raise NotImplementedError

    def weighted_mass(self, exponent: float) -> tuple[float, str]:
        """integral of t**exponent dmu(t)/t with a provenance tag.

        ``weighted_mass(-n)`` is the moment mu_n; ``weighted_mass(0)`` is mu_0.
        Raises DivergentMoment when the integral does not converge.
        """
        raise NotImplementedError

    _log_mu = np.empty(0)  # the moments computed so far; each instance grows its own

    def log_moments(self, n_max: int) -> np.ndarray:
        """log mu_0..log mu_{n_max} and any computed past n_max, kept on the measure, read-only.

        The array grows in doubling chunks (from 64).
        """
        if n_max < 0:
            raise ValueError("moment index must be >= 0")
        have = len(self._log_mu)
        if n_max >= have:
            more = self._log_moments(have, max(n_max, 2 * have - 1, 63))
            self._log_mu = _read_only(np.append(self._log_mu, more))
            if n_max >= len(self._log_mu):
                raise DivergentMoment(f"mu_{len(self._log_mu)} has no quadrature value")
        return self._log_mu

    def _log_moments(self, n_min: int, n_max: int) -> np.ndarray:
        """log mu_{n_min}..log mu_{n_max} from the leaf's vectorised ``_log_masses``, or
        those before the first that failed (nan or inf); log_moments raises if that is
        short of its n."""
        log_mu = self._log_masses(-np.arange(n_min, n_max + 1.0))
        ok = log_mu < np.inf  # False at nan and inf
        return log_mu if ok.all() else log_mu[: np.argmin(ok)]

    # -- decay certificates --------------------------------------------------

    def decay_bounds(self) -> tuple[DecayBound | None, DecayBound | None]:
        """(upper, lower) envelopes of mu_n, each None where the structure certifies none;
        a leaf computes them once, as its cached ``_decay_bounds``: every verdict asks."""
        return self._decay_bounds

    # -- common plumbing -----------------------------------------------------

    @functools.cached_property
    def _mass0(self) -> tuple[float, str]:
        """weighted_mass(0): mu_0, and the tag that says how every moment is computed."""
        return self.weighted_mass(0.0)

    @property
    def mu0(self) -> float:
        return self._mass0[0]

    @property
    def closed_form(self) -> bool:
        """Every moment in closed form; else each goes through quadrature."""
        return self._mass0[1] == CLOSED_FORM

    def _check_mu0(self) -> None:
        mu0 = self.mu0
        if not math.isfinite(mu0):
            raise DivergentMoment("mu_0 = integral dmu(t)/t is not finite")

    def to_json_dict(self) -> dict:
        raise NotImplementedError


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def exp_moments(log_mu: np.ndarray) -> np.ndarray:
    """mu from log mu; a moment past double range reads inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.exp(log_mu)


def _as_positive(x: float, what: str) -> float:
    x = float(x)
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"{what} must be a positive finite real, got {x!r}")
    return x


class PointMasses(MeasureSpec):
    """Finite atomic measure sum of lam_k * delta(t_k), t_k > 0.

    Atoms are merged at equal positions and kept sorted by position.  An infinite
    family enters as a finite prefix, ``tail_certificate`` bounding the dropped
    mu_0 and ``declared_inf_support`` the infimum of the whole family's support.
    """

    def __init__(
        self,
        atoms,
        declared_inf_support: float | None = None,
        tail_certificate: float = 0.0,
    ):
        merged: dict[float, float] = {}
        for lam, t in atoms:
            lam = _as_positive(lam, "atom weight")
            t = _as_positive(t, "atom position")
            merged[t] = merged.get(t, 0.0) + lam
        if not merged:
            raise ValueError("PointMasses needs at least one atom")
        self.atoms: tuple[tuple[float, float], ...] = tuple(
            (merged[t], t) for t in sorted(merged)
        )
        if declared_inf_support is not None:
            declared_inf_support = float(declared_inf_support)
            if declared_inf_support < 0 or declared_inf_support > self.atoms[0][1]:
                raise ValueError("declared support infimum must be <= smallest atom")
        self.declared_inf_support = declared_inf_support
        self.tail_certificate = float(tail_certificate)
        self._check_mu0()

    @property
    def inf_support(self) -> float:
        if self.declared_inf_support is not None:
            return self.declared_inf_support
        return self.atoms[0][1]

    @property
    def has_atoms(self) -> bool:
        return True

    def mass_below(self, x: float) -> float:
        return sum(lam for lam, t in self.atoms if t < x)

    def mass_at(self, x: float) -> float:
        return sum(lam for lam, t in self.atoms if t == x)

    def integrate(self, h):
        lam, t = np.array(self.atoms).T
        return np.einsum("k,k...->...", lam / t, _evaluate(h, 1.0 / t))

    def sum_atoms(self, g, x: float) -> float:
        return sum(lam * g(x / t) for lam, t in self.atoms)

    def _log_masses(self, exponents: np.ndarray) -> np.ndarray:
        """log integral of t**e dmu(t)/t per e, a block of rows of (e x atoms) at a time."""
        log_lam, log_t = np.log(self.atoms).T
        rows = max(1, (1 << 16) // len(self.atoms))
        out = np.empty(len(exponents))
        for i in range(0, len(exponents), rows):
            terms = log_lam + np.outer(exponents[i : i + rows] - 1.0, log_t)
            peak = terms.max(axis=1)
            out[i : i + rows] = peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
        return out

    def weighted_mass(self, exponent: float) -> tuple[float, str]:
        return float(exp_moments(self._log_masses(np.array([exponent])))[0]), CLOSED_FORM

    @functools.cached_property
    def _decay_bounds(self) -> tuple[DecayBound, DecayBound]:
        # lam_1 t_1**-(n+1) <= mu_n <= mu_0 t_1**-n, t_1 the smallest position
        lam, t_min = self.atoms[0]
        return (DecayBound(ratio=1.0 / t_min, power=0.0, log_const=math.log(self.mu0)),
                DecayBound(ratio=1.0 / t_min, power=0.0, log_const=math.log(lam / t_min)))

    def to_json_dict(self) -> dict:
        out = {"type": "point_masses", "atoms": [[lam, t] for lam, t in self.atoms],
               "declared_inf_support": self.declared_inf_support,
               "tail_certificate": self.tail_certificate or None}
        return {k: v for k, v in out.items() if v is not None}

    def __repr__(self) -> str:
        return f"PointMasses({list(self.atoms)!r})"


# B_2k / (2k (2k-1)), k = 1..6: Stirling's series for log Gamma
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0)


def _log_beta(b: float, s: np.ndarray) -> np.ndarray:
    """log B(b, s) = lgamma(b) + lgamma(s) - lgamma(b + s) for an array s > 0.

    At b = 1 exactly -log s, since B(1, s) = 1/s.  Otherwise below 16 through
    math.lgamma, and from 16 on the difference of the two Stirling series, with
    its leading terms as (s - 1/2) log1p(b/s) + b log(s + b) - b, so that
    nothing cancels: within ~1e-14 of the exact value at s = 2e4, where the
    difference of two math.lgamma values is off by ~6e-11.
    """
    if b == 1.0:
        return -np.log(s)
    out = np.empty_like(s)
    small = s < 16.0
    out[small] = [math.lgamma(x) - math.lgamma(b + x) for x in s[small].tolist()]
    x = s[~small]
    y = x + b

    def series(v):  # sum of c_k v**(1-2k), by Horner's rule in 1/v**2
        with np.errstate(over="ignore"):  # v*v = inf past 1.3e154, where 1/v**2 is 0 anyway
            w = 1.0 / (v * v)
        acc = np.full_like(v, _STIRLING[-1])
        for c in _STIRLING[-2::-1]:
            acc = acc * w + c
        return acc / v

    out[~small] = b - (x - 0.5) * np.log1p(b / x) - b * np.log(y) - (series(y) - series(x))
    return math.lgamma(b) + out


class BetaTailDensity(MeasureSpec):
    """Density (t-1)**(b-1) * t**-a on (1, inf), a+1 > b > 0, both finite; moments
    B(b, n+a+1-b), with a+1-b formed as a + (1-b): exactly a at b = 1, where this is
    the power tail t**-a and its moments are 1/(n+a)."""

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"need a finite a and b, got a={a}, b={b}")
        if not (b > 0.0 and a + (1.0 - b) > 0.0):
            raise DomainError(f"need a+1 > b > 0, got a={a}, b={b}")
        self.a, self.b = a, b
        self._check_mu0()

    @property
    def inf_support(self) -> float:
        return 1.0

    def mass_below(self, x):
        # in s = 1/t the mass below x is s**(a-b-1) (1-s)**(b-1) ds over (c, 1), c = 1/x;
        # s = c + (1-c) y maps it to (0, 1), where the Gauss-Jacobi rule carries (1-y)**(b-1)
        if np.ndim(x) == 0 and x <= 1.0:
            return 0.0
        a, b = self.a, self.b
        if b == 1.0:  # the power tail's closed form; the rule below reads 0 from a ~ 1e6 on
            x = np.maximum(x, 1.0)
            return np.log(x) if a == 1.0 else (1.0 - x ** (1.0 - a)) / (a - 1.0)
        c = 1.0 / np.maximum(x, 1.0)
        power = _integrate(lambda y: (c + np.multiply.outer(y, 1.0 - c)) ** (a - b - 1.0),
                           0.0, 1.0, beta=b - 1.0)
        return (1.0 - c) ** b * power

    def integrate(self, h):
        # s = 1/t turns (t-1)**(b-1) t**-a dt/t on (1, inf) into s**(a-b) (1-s)**(b-1) ds
        # on (0, 1); the Gauss-Jacobi rule carries both endpoint powers (each > -1
        # since a+1 > b > 0), which leaves h as the whole integrand
        return _integrate(h, 0.0, 1.0, alpha=self.a - self.b, beta=self.b - 1.0)

    def _log_masses(self, exponents: np.ndarray) -> np.ndarray:
        return _log_beta(self.b, self.a + (1.0 - self.b) - exponents)

    def weighted_mass(self, exponent: float) -> tuple[float, str]:
        second = self.a + (1.0 - self.b) - exponent
        if not second > 0.0:
            raise DivergentMoment(
                f"beta-tail integral with exponent {exponent:g} diverges"
            )
        try:  # B(1, s) = 1/s at b = 1, where exp(-log s) is 2.4e-14 off at s = 1e-300
            mass = (1.0 / second if self.b == 1.0
                    else math.exp(self._log_masses(np.array([exponent]))[0]))
        except OverflowError:
            mass = math.inf
        if math.isinf(mass):  # e.g. mu_0 ~ 1/b for a tiny b, or 1/a for a tiny a at b = 1
            raise DomainError(
                f"beta-tail integral with exponent {exponent:g} lies past double range")
        return mass, CLOSED_FORM

    @functools.cached_property
    def _decay_bounds(self) -> tuple[DecayBound, DecayBound]:
        # B(b,m), m = n+m0, m0 = 1+a-b > 0.  For b >= 1, u*exp(-u) <= 1-exp(-u) <= u inside
        # B(b,m) = int (1-e^-u)^(b-1) e^-mu du gives Gamma(b)*(n+a)^-b <= B <= Gamma(b)*m^-b;
        # for b < 1, Wendel's inequality gives Gamma(b)*m^-b <= B <= that * (1+b/m0)^(1-b).
        # Then m and n+a are squeezed against (n+1).
        a, b = self.a, self.b
        m0 = a + (1.0 - b)
        up = math.lgamma(b) - b * math.log(min(1.0, m0))  # m >= min(1, m0)*(n+1)
        if b >= 1.0:  # n+a <= max(1, a)*(n+1)
            lo = math.lgamma(b) - b * math.log(max(1.0, a))
        else:
            lo = math.lgamma(b) - b * math.log(max(1.0, m0))  # m <= max(1, m0)*(n+1)
            up += (1.0 - b) * math.log1p(b / m0)
        return (DecayBound(ratio=1.0, power=b, log_const=up),
                DecayBound(ratio=1.0, power=b, log_const=lo))

    def to_json_dict(self) -> dict:
        return {"type": "density", "kind": "beta_tail", "a": self.a, "b": self.b}

    def __repr__(self) -> str:
        return f"BetaTailDensity(a={self.a!r}, b={self.b!r})"


PLAUSIBILITY_BOUND = 1e50  # desk-scale integrability certificate
_LOG_PLAUSIBILITY_BOUND = math.log(PLAUSIBILITY_BOUND)

# -- the quadrature engine ---------------------------------------------------------

_NODES = 8  # a panel is measured by its 8- and 16-node Gauss rules
_MAX_PANELS = 1024
_MIN_SHARE = 2.0**-60  # no panel narrower than this share of the interval
_MAX_LEVEL_NODES = 1 << 15  # nodes of the finest Density level


@functools.lru_cache(maxsize=512)
def _log_jacobi_mass(alpha: float, beta: float) -> float:
    """log B(alpha+1, beta+1), the integral of x**alpha (1-x)**beta over (0, 1): by
    _log_beta, within ~1e-14 at alpha ~ 3e5, where math.lgamma values are off by ~5e-10."""
    small, large = sorted((alpha, beta))
    return float(_log_beta(small + 1.0, np.array([large + 1.0]))[0])


@functools.lru_cache(maxsize=512)
def _gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss rule for x**alpha (1-x)**beta on (0, 1).

    Golub & Welsch, "Calculation of Gauss quadrature rules", Math. Comp. 23 (1969):
    the nodes are the eigenvalues of the Jacobi matrix of the orthonormal
    recurrence.  Two Newton steps on p_n polish them, and the weights are the
    Christoffel numbers mass / sum of p_k(x)**2 over k < n, with p_k orthonormal
    for the weight scaled to mass 1, so that no p_k overflows.  The rule is exact for
    polynomials of degree up to 2n - 1; alpha, beta > -1.  A power past 1/eps
    raises DomainError: the rule's nodes would round onto an end of (0, 1).
    """
    if max(alpha, beta) * np.finfo(float).eps >= 1.0:
        raise DomainError(f"no Gauss rule carries the endpoint power {max(alpha, beta):g}")
    a, b = beta, alpha  # the Jacobi weight (1-y)**a (1+y)**b in y = 2x - 1
    k = np.arange(n + 1.0)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (b * b - a * a) / (s * (s + 2.0))
        off2 = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    diag[0] = (b - a) / (a + b + 2.0)  # the limits where a + b is 0 or -1
    off2[1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    diag = (1.0 + diag[:n]) / 2.0  # the recurrence in x
    off = np.sqrt(off2[1:]) / 2.0  # off[j] couples p_j and p_(j+1)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    for _ in range(2):
        p_prev, p = np.zeros(n), np.ones(n)
        d_prev, d = np.zeros(n), np.zeros(n)
        squares = p * p
        for j in range(n):
            back = off[j - 1] if j else 0.0
            p_prev, p, d_prev, d = (p, ((x - diag[j]) * p - back * p_prev) / off[j],
                                    d, ((x - diag[j]) * d + p - back * d_prev) / off[j])
            if j < n - 1:
                squares += p * p
        x = x - p / d
    return _read_only(x), _read_only(math.exp(_log_jacobi_mass(alpha, beta)) / squares)


def _panel_rule(a: float, b: float, lo: float, hi: float, alpha: float, beta: float,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node rule on the panel (a, b) of (lo, hi) for the weight (x-lo)**alpha (hi-x)**beta.

    A panel at an end of (lo, hi) takes that end's power into its Gauss rule;
    a power at an end it does not touch is smooth there and goes into the weights.
    """
    left = alpha if a == lo else 0.0
    right = beta if b == hi else 0.0
    x, w = _gauss_jacobi(n, left, right)
    nodes = a + (b - a) * x
    weights = (b - a) ** (1.0 + left + right) * w
    if left != alpha:
        weights = weights * (nodes - lo) ** alpha
    if right != beta:
        weights = weights * (hi - nodes) ** beta
    return nodes, weights


def _evaluate(h, nodes: np.ndarray) -> np.ndarray:
    """h at the nodes; DivergentMoment if h raises or returns a value that is not finite."""
    try:
        with np.errstate(all="ignore"):
            values = np.asarray(h(nodes))
    except (ArithmeticError, ValueError) as exc:
        raise DivergentMoment(f"integrand raised {exc!r}") from exc
    if not np.isfinite(values).all():
        raise DivergentMoment("integrand is not finite")
    return values


def _adapt(h, lo: float, hi: float, alpha: float = 0.0, beta: float = 0.0):
    """(integral, panels) of h(x) (x-lo)**alpha (hi-x)**beta dx over the finite (lo, hi).

    h takes a 1-d array of nodes and returns its values with the nodes on the
    first axis, real or complex, with any trailing shape; the integral has that
    trailing shape.  The error estimate is the difference of a Gauss rule and
    the one with twice its nodes, and the tolerance is QUAD_REL_TOL of the
    integral of |h|, in every component, or the smallest normal double if that
    is larger: a component below the normal range is accurate to that level.
    The panels start as (lo, hi) alone, each is measured by its 8- and 16-node
    rules, and each round bisects the panels whose estimate exceeds their share
    of the tolerance (or the worst one) until the estimates sum to within it.
    Every round calls h once, on all its new nodes.  The panels returned are the
    final ones, in order.  More than _MAX_PANELS panels, or one narrower than
    _MIN_SHARE of (lo, hi), raise DivergentMoment.  Final weights that miss the
    mass of (x-lo)**alpha (hi-x)**beta by QUAD_REL_TOL raise DomainError: a steep
    power, alpha ~ 1e6, vanishes at every node of a panel off its end, where the
    two rules would agree on a wrong 0.  So does a weighted sum past double
    range, where every value of h is finite.
    """
    log_mass = (1.0 + alpha + beta) * math.log(hi - lo) + _log_jacobi_mass(alpha, beta)
    done = np.empty((0, 2))
    value = size = err = weight = 0.0  # of the done panels
    pending = np.array([[lo, hi]])
    while True:
        rules = [_panel_rule(a, b, lo, hi, alpha, beta, n)
                 for a, b in pending for n in (_NODES, 2 * _NODES)]
        values = _evaluate(h, np.concatenate([x for x, _ in rules]))
        values = values.reshape((len(pending), 3 * _NODES) + values.shape[1:])
        fine_w = np.array([w for _, w in rules[1::2]])
        with np.errstate(over="ignore"):
            coarse = np.einsum("pk,pk...->p...", np.array([w for _, w in rules[0::2]]),
                               values[:, :_NODES])
            fine = np.einsum("pk,pk...->p...", fine_w, values[:, _NODES:])
            sizes = np.einsum("pk,pk...->p...", fine_w, np.abs(values[:, _NODES:]))
            total = size + sizes.sum(axis=0)
        # the weights are positive, so a finite total bounds every fine sum and their total
        if not (np.isfinite(total).all() and np.isfinite(coarse).all()):
            raise DomainError("a weighted sum of the integrand lies past double range")
        # no tolerance below the smallest normal double, where QUAD_REL_TOL * total underflows
        tol = np.maximum(QUAD_REL_TOL * total, np.finfo(float).tiny)
        errs = np.abs(fine - coarse)
        if np.all(err + errs.sum(axis=0) <= tol):
            with np.errstate(divide="ignore"):  # weights that all underflow read -inf
                if not abs(np.log(weight + fine_w.sum()) - log_mass) <= QUAD_REL_TOL:
                    raise DomainError(f"the Gauss rules miss the mass of the endpoint powers "
                                      f"{alpha:g} and {beta:g}")
            panels = np.concatenate([done, pending])
            return value + fine.sum(axis=0), panels[np.argsort(panels[:, 0])]
        # each panel's estimate against its share of the tolerance, in its worst component
        share = (pending[:, 1] - pending[:, 0]) / (hi - lo)
        excess = (errs / tol).reshape(len(pending), -1).max(axis=1, initial=0.0) / share
        split = excess > 1.0
        if not split.any():
            split = excess == excess.max()
        keep = ~split
        done = np.concatenate([done, pending[keep]])
        value = value + fine[keep].sum(axis=0)
        size = size + sizes[keep].sum(axis=0)
        err = err + errs[keep].sum(axis=0)
        weight += fine_w[keep].sum()
        rest = pending[split]
        if len(done) + 2 * len(rest) > _MAX_PANELS or (
            (rest[:, 1] - rest[:, 0]).min() < _MIN_SHARE * (hi - lo)
        ):
            raise DivergentMoment("the Gauss rules did not agree within the panel cap")
        mid = rest.mean(axis=1)
        pending = np.concatenate([np.c_[rest[:, 0], mid], np.c_[mid, rest[:, 1]]])


def _integrate(h, lo: float, hi: float, alpha: float = 0.0, beta: float = 0.0):
    """integral of h(x) (x-lo)**alpha (hi-x)**beta dx over (lo, hi); see _adapt."""
    return _adapt(h, lo, hi, alpha, beta)[0]


def _smoothstep(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(v) = v**2 (3 - 2v) on (0, 1) and its derivative 6 v (1 - v).

    The derivative vanishes at both ends, so a density like (t - a)**-1/2, which
    Gauss rules resolve only slowly, is smooth in v.
    """
    return v * v * (3.0 - 2.0 * v), 6.0 * v * (1.0 - v)


class Density(MeasureSpec):
    """Generic density phi(t) dt on an interval (a, b) within (0, inf), b finite.

    phi is a nonnegative callable, called with numpy arrays of t (a constant
    may return a scalar).  Every integral runs in u = log t, in the variable v
    in (0, 1) with u = log a + (log b - log a) S(v) (see _smoothstep).  mu_0 is
    evaluated at construction and acts as the integrability certificate:
    construction fails with DivergentMoment otherwise, and for b = inf, whose
    tail in u has no bound here.  Support touching 0 is cut at t = e**-700,
    below which double precision underflows.
    """

    def __init__(self, phi, support: tuple[float, float], label: str | None = None):
        lo, hi = float(support[0]), float(support[1])
        if not (0.0 <= lo < hi):
            raise ValueError(f"support must satisfy 0 <= a < b, got {support}")
        self.phi = phi
        self.support = (lo, hi)
        self.label = label
        self._levels: list[tuple[np.ndarray, np.ndarray]] = []
        self._check_mu0()

    @property
    def inf_support(self) -> float:
        return self.support[0]

    @property
    def _u_range(self) -> tuple[float, float]:
        lo, hi = self.support
        if not math.isfinite(hi):
            raise DivergentMoment("a Density needs a finite upper end")
        return (math.log(lo) if lo > 0 else -700.0), math.log(hi)

    def _phi(self, t: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.phi(t), dtype=float), np.shape(t))

    def _u(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u = log t at v in (0, 1), and du/dv."""
        u_lo, u_hi = self._u_range
        step, slope = _smoothstep(v)
        return u_lo + (u_hi - u_lo) * step, (u_hi - u_lo) * slope

    def mass_below(self, x):
        """mu((0, x)), elementwise over an array x: phi(e**u) e**u du over (log lo, log x)
        for each x, mapped to (0, 1) so that one rule serves every x."""
        u_lo, u_hi = self._u_range
        with np.errstate(divide="ignore"):
            width = np.clip(np.log(x), u_lo, u_hi) - u_lo  # 0 for x <= lo

        def mass(v):
            step, slope = _smoothstep(v)
            t = np.exp(u_lo + np.multiply.outer(step, width))
            return self._phi(t) * t * np.multiply.outer(slope, width)

        value = _integrate(mass, 0.0, 1.0)
        if np.any(value > PLAUSIBILITY_BOUND):
            raise DivergentMoment(f"mass {np.max(value):g} is beyond the plausibility bound")
        return value

    def integrate(self, h):
        def integrand(v):
            u, du = self._u(v)
            values = h(np.exp(-u))
            weight = self._phi(np.exp(u)) * du
            return values * weight.reshape(weight.shape + (1,) * (np.ndim(values) - 1))

        return _integrate(integrand, 0.0, 1.0)

    @functools.cached_property
    def _panels(self) -> np.ndarray:
        """The panels in v on which the engine integrates phi(e**u) du, i.e. mu_0."""
        def mu0(v):
            u, du = self._u(v)
            return self._phi(np.exp(u)) * du

        return _adapt(mu0, 0.0, 1.0)[1]

    def _level(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes u and log(weight * phi(e**u) du/dv) of the 16-node Gauss-Legendre rule
        on every panel cut into 2**level equal parts; kept on the measure."""
        x, w = _gauss_jacobi(2 * _NODES, 0.0, 0.0)
        while len(self._levels) <= level:
            parts = 1 << len(self._levels)
            a, b = self._panels.T
            width = np.repeat((b - a) / parts, parts)
            left = (a[:, None] + (b - a)[:, None] * np.arange(parts) / parts).ravel()
            u, du = self._u((left[:, None] + width[:, None] * x).ravel())
            phi = _evaluate(lambda u: self._phi(np.exp(u)), u)
            if (phi < 0.0).any():
                raise DivergentMoment("the density is negative")
            with np.errstate(divide="ignore"):
                log_w = np.log((width[:, None] * w).ravel() * du) + np.log(phi)
            self._levels.append((u, log_w))
        return self._levels[level]

    def _log_masses(self, exponents: np.ndarray) -> np.ndarray:
        """log of the integral of t**e phi(t) dt/t = phi(e**u) e**(e u) du for each e.

        Every level doubles the nodes; each e takes the first level that agrees
        with the one before within QUAD_REL_TOL, so its value depends on e
        alone, not on the exponents it is asked with.  The entry is nan where
        no level up to _MAX_LEVEL_NODES agrees, inf past the plausibility bound.
        """
        out = np.full(len(exponents), np.nan)
        todo, before = np.arange(len(exponents)), None
        top = int(math.log2(_MAX_LEVEL_NODES / (2 * _NODES * len(self._panels))))
        for level in range(top + 1):
            u, log_w = self._level(level)
            now = logsumexp(log_w + np.multiply.outer(exponents[todo], u), axis=1)
            if before is not None:
                with np.errstate(invalid="ignore"):
                    agree = (now == before) | (np.abs(np.expm1(now - before)) <= QUAD_REL_TOL)
                out[todo[agree]] = now[agree]
                todo, now = todo[~agree], now[~agree]
                if not len(todo):
                    break
            before = now
        out[out > _LOG_PLAUSIBILITY_BOUND] = np.inf
        return out

    def weighted_mass(self, exponent: float) -> tuple[float, str]:
        log_mass = self._log_masses(np.array([exponent], dtype=float))[0]
        if np.isnan(log_mass):
            raise DivergentMoment("the quadrature levels did not agree within the node cap")
        if log_mass == np.inf:
            raise DivergentMoment("integral is beyond the plausibility bound")
        return math.exp(log_mass), QUAD_TAG

    @functools.cached_property
    def _decay_bounds(self) -> tuple[DecayBound | None, DecayBound | None]:
        # t >= lo on the support gives mu_n <= mu_0 lo**-n, of use for lo >= 1; the
        # witness interval [lo, mid] gives mu_n >= mass([lo, mid]) * mid**-(n+1)
        lo, hi = self.support
        mid = (lo + hi) / 2.0
        mass = float(self.mass_below(mid))
        return (DecayBound(1.0 / lo, 0.0, math.log(self.mu0)) if lo >= 1.0 else None,
                DecayBound(1.0 / mid, 0.0, math.log(mass / mid)) if mass > 0.0 else None)

    def to_json_dict(self) -> dict:
        raise ValueError("generic densities have no JSON form; use a named kind")

    def __repr__(self) -> str:
        name = self.label or "phi"
        return f"Density({name} on {self.support})"


class MellinConvolution(MeasureSpec):
    """Mellin convolution of two measures; moments multiply factorwise."""

    def __init__(self, left: MeasureSpec, right: MeasureSpec):
        self.left = left
        self.right = right
        self._check_mu0()

    @property
    def inf_support(self) -> float:
        return self.left.inf_support * self.right.inf_support

    @property
    def has_atoms(self) -> bool:
        return self.left.has_atoms and self.right.has_atoms

    def mass_below(self, x):
        if np.ndim(x) == 0 and x <= self.inf_support:
            return 0.0
        # nu((0, x)) = integral of right((0, x/t)) dleft(t), or with the factors swapped
        outer, inner = self.left, self.right
        if inner.has_atoms and not outer.has_atoms:
            outer, inner = inner, outer
        if outer.has_atoms:
            return outer.sum_atoms(inner.mass_below, x)
        x = np.asarray(x, dtype=float)
        return outer.integrate(lambda s: inner.mass_below(np.multiply.outer(s, x))
                               / s.reshape(s.shape + (1,) * x.ndim))

    def mass_at(self, x: float) -> float:
        return self.left.sum_atoms(self.right.mass_at, x)

    def integrate(self, h):
        # the inner integral at every outer node s at once, on the grid of r times s
        return self.left.integrate(
            lambda s: self.right.integrate(lambda r: h(np.multiply.outer(r, s))))

    def sum_atoms(self, g, x: float) -> float:
        return self.left.sum_atoms(lambda y: self.right.sum_atoms(g, y), x)

    def weighted_mass(self, exponent: float) -> tuple[float, str]:
        lv, lt = self.left.weighted_mass(exponent)
        rv, rt = self.right.weighted_mass(exponent)
        tag = CLOSED_FORM if lt == CLOSED_FORM and rt == CLOSED_FORM else QUAD_TAG
        return lv * rv, tag

    def log_moments(self, n_max: int) -> np.ndarray:
        left, right = self.left.log_moments(n_max), self.right.log_moments(n_max)
        n = min(len(left), len(right))
        return _read_only(left[:n] + right[:n])

    def decay_bounds(self) -> tuple[DecayBound | None, DecayBound | None]:
        # the moments multiply factorwise, and so do their envelopes
        return tuple(
            None if a is None or b is None
            else DecayBound(a.ratio * b.ratio, a.power + b.power, a.log_const + b.log_const)
            for a, b in zip(self.left.decay_bounds(), self.right.decay_bounds()))

    def to_json_dict(self) -> dict:
        return {
            "type": "mellin",
            "left": self.left.to_json_dict(),
            "right": self.right.to_json_dict(),
        }

    def __repr__(self) -> str:
        return f"MellinConvolution({self.left!r}, {self.right!r})"


class Scaled(MeasureSpec):
    """c times an inner measure, c > 0."""

    def __init__(self, c: float, inner: MeasureSpec):
        self.c = _as_positive(c, "scale factor")
        self.inner = inner

    @property
    def inf_support(self) -> float:
        return self.inner.inf_support

    @property
    def has_atoms(self) -> bool:
        return self.inner.has_atoms

    def mass_below(self, x: float) -> float:
        return self.c * self.inner.mass_below(x)

    def mass_at(self, x: float) -> float:
        return self.c * self.inner.mass_at(x)

    def integrate(self, h):
        return self.c * self.inner.integrate(h)

    def sum_atoms(self, g, x: float) -> float:
        return self.c * self.inner.sum_atoms(g, x)

    def weighted_mass(self, exponent: float) -> tuple[float, str]:
        val, tag = self.inner.weighted_mass(exponent)
        return self.c * val, tag

    def log_moments(self, n_max: int) -> np.ndarray:
        return _read_only(math.log(self.c) + self.inner.log_moments(n_max))

    @functools.cached_property
    def _mass0(self) -> tuple[float, str]:
        mu0, tag = self.inner._mass0
        return self.c * mu0, tag

    def decay_bounds(self) -> tuple[DecayBound | None, DecayBound | None]:
        return tuple(
            None if b is None else DecayBound(b.ratio, b.power, math.log(self.c) + b.log_const)
            for b in self.inner.decay_bounds())

    def to_json_dict(self) -> dict:
        return {"type": "scaled", "c": self.c, "inner": self.inner.to_json_dict()}

    def __repr__(self) -> str:
        return f"Scaled({self.c!r}, {self.inner!r})"


# -- top-level operations ----------------------------------------------------


def moments(m: MeasureSpec, n_max: int) -> MomentSequence:
    """mu_0..mu_{n_max} with per-entry provenance tags."""
    values = exp_moments(m.log_moments(n_max)[: n_max + 1]).tolist()
    return MomentSequence(values=values, methods=[m._mass0[1]] * len(values))


def support_report(m: MeasureSpec) -> SupportReport:
    below = m.mass_below(1.0)
    at = m.mass_at(1.0)
    return SupportReport(
        inf_support=m.inf_support,
        mass_below_1=below,
        mass_at_1=at,
        mass_unit_interval=below + at,
        total_weighted_mass=m.mu0,
    )


def normalize(m: MeasureSpec) -> Scaled:
    """Wrap m so that the scaled measure has mu_0 = 1."""
    mu0 = m.mu0
    if mu0 == 0.0:
        raise ZeroMeasure("cannot normalize the zero measure")
    return Scaled(1.0 / mu0, m)


# -- named measures and JSON ingestion ---------------------------------------


def hardy_measure() -> BetaTailDensity:
    """dt/t on (1, inf): the averaging kernel of the classical Hardy operator."""
    return BetaTailDensity(1.0, 1.0)


def PowerTailDensity(a: float) -> BetaTailDensity:
    """Density t**-a on (1, inf), a > 0 finite: the beta tail at b = 1."""
    return BetaTailDensity(_as_positive(a, "power-tail exponent a"), 1.0)


def dirac(t: float) -> PointMasses:
    """Atom at t of weight t, making mu_0 = 1."""
    t = _as_positive(t, "atom position")
    return PointMasses([(t, t)])


def geometric_atoms(lam: float, ratio: float) -> PointMasses:
    """Truncation of sum over k >= 1 of lam**k * delta(ratio**k).

    Needs 0 < lam < 1 and ratio >= 1; the dropped tail of mu_0 is below
    GEOMETRIC_TAIL relative.  DomainError when that takes more than
    GEOMETRIC_ATOMS_MAX atoms, or when the last position ratio**k_max is past
    double range.
    """
    lam = _as_positive(lam, "weight base")
    ratio = _as_positive(ratio, "position ratio")
    if lam >= 1.0 or ratio < 1.0:
        raise ValueError("need 0 < lam < 1 and ratio >= 1")
    x = lam / ratio
    k_max = max(4, int(math.ceil(math.log(GEOMETRIC_TAIL * (1 - x)) / math.log(x))))
    if k_max > GEOMETRIC_ATOMS_MAX:
        raise DomainError(f"the tail {GEOMETRIC_TAIL:g} needs {k_max} atoms, "
                          f"more than {GEOMETRIC_ATOMS_MAX}")
    tail = x ** (k_max + 1) / (1 - x)
    try:
        return PointMasses([(lam**k, ratio**k) for k in range(1, k_max + 1)],
                           tail_certificate=tail)
    except OverflowError:  # from a position ratio**k
        raise DomainError(f"atom position {ratio:g}**{k_max} lies past double range") from None


def named_measure(name: str) -> MeasureSpec:
    """Resolve built-in measure descriptors: hardy | beta:a:b | dirac:t | geom:l:r."""
    parts = name.split(":")
    head = parts[0]
    if head == "hardy" and len(parts) == 1:
        return hardy_measure()
    if head == "beta" and len(parts) == 3:
        return BetaTailDensity(float(parts[1]), float(parts[2]))
    if head == "dirac" and len(parts) == 2:
        return dirac(float(parts[1]))
    if head == "geom" and len(parts) == 3:
        return geometric_atoms(float(parts[1]), float(parts[2]))
    raise ValueError(f"unknown measure descriptor {name!r}")


def from_json_dict(data: dict) -> MeasureSpec:
    kind = data.get("type")
    if kind == "point_masses":
        return PointMasses([(float(l), float(t)) for l, t in data["atoms"]],
                           data.get("declared_inf_support"), data.get("tail_certificate", 0.0))
    if kind == "density":
        sub = data.get("kind")
        if sub == "power_tail":
            return PowerTailDensity(data["a"])
        if sub == "beta_tail":
            return BetaTailDensity(float(data["a"]), float(data["b"]))
        raise ValueError(f"unknown density kind {sub!r}")
    if kind == "mellin":
        return MellinConvolution(from_json_dict(data["left"]), from_json_dict(data["right"]))
    if kind == "scaled":
        return Scaled(float(data["c"]), from_json_dict(data["inner"]))
    raise ValueError(f"unknown measure type {kind!r}")
