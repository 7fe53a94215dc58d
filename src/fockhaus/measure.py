"""Positive Borel measures on (0, inf), their moments and support facts.

A measure is described symbolically (atoms, named densities, Mellin
convolutions, scalings) and never sampled.  Moments

    mu_n = integral over (0, inf) of t**-(n+1) dmu(t)

are computed in closed form where the family admits one and by quadrature
otherwise.  Every quadrature in the package goes through one engine, ``_quad``:
each node is evaluated once, the tolerance QUAD_REL_TOL is relative to a pilot
integral of |f| (so it holds on the modulus of a complex integral, not per
part), and a failure of any kind raises DivergentMoment.  Density moments and
support masses call it after the substitution t = e**u; the operator's
quadrature action and the support masses of Mellin products go through one
structural recursion, ``integrate(h)``, which calls it once per density.  The
engine is QUADPACK through scipy.integrate.quad.  scipy is imported only where
it is used: scipy.integrate inside ``_quad``, on the first quadrature, and
scipy.special with the first beta-tail moments; atoms, the other closed-form
moments and the norms need numpy alone.

A measure keeps its own moments.  ``log_moments(n_max)`` is the read-only array
log mu_0..log mu_{n_max} (and any computed past n_max), grown on each leaf
measure: closed forms in doubling chunks (from 64) through each class's
vectorised ``_log_moments``, quadrature one index at a time, so a scan that
stops early computes no quadrature moment past its stop.  A scaling or a Mellin
product keeps no array: it returns log c plus its inner measure's array, or the
sum over the shorter of its factors' arrays, whole, so ``normalize(m)`` hands a
scan every moment m holds at once.  Past double range a moment reads inf,
without a warning.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np


class DivergentMoment(Exception):
    """The defining integral of a moment (or of mu_0) diverges."""


class ZeroMeasure(Exception):
    """Normalization was requested for the zero measure."""


class DomainError(Exception):
    """Parameters outside the admissible range of a closed form."""


CLOSED_FORM = "closed-form"
QUAD_REL_TOL = 1e-10
QUAD_TAG = f"quadrature({QUAD_REL_TOL:g})"


@dataclass(frozen=True)
class DecayBound:
    """One-sided envelope ``const * ratio**n * (n+1)**(-power)`` for mu_n.

    Valid for every n >= 0.  Used to certify convergence/divergence of the
    classification series; never inferred from numerical moment values.
    """

    ratio: float
    power: float
    const: float

    def pointwise(self, n: int) -> float:
        return self.const * self.ratio**n * (n + 1.0) ** (-self.power)


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

    @classmethod
    def from_logs(cls, log_mu: np.ndarray, method: str) -> MomentSequence:
        values = exp_moments(log_mu).tolist()
        return cls(values=values, methods=[method] * len(values))

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

    def mass_below(self, x: float) -> float:
        """mu((0, x)), exact where the structure allows."""
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
        """integral of h(s) dmu(t)/t in the contraction factor s = 1/t, h real or complex.

        The operator's action at z is ``integrate(lambda s: f(z * s))``.  Atoms are
        summed, densities go through the engine ``_quad``, and the beta tail's
        rule samples the ends of (0, 1), so h may be called at s = 0.  A
        product of two atomless factors integrates one factor's mass function over
        the other with it; an atomic factor is the outer one and goes through
        ``sum_atoms`` instead: its sum is exact there, while an atomic inner factor
        would hand quadrature a step function.
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
        """log mu_0..log mu_{n_max} and any computed past n_max, kept on the measure, read-only."""
        if n_max < 0:
            raise ValueError("moment index must be >= 0")
        have = len(self._log_mu)
        if n_max >= have:
            stop = max(n_max, 2 * have - 1, 63) if self.closed_form else n_max
            self._log_mu = _read_only(np.append(self._log_mu, self._log_moments(have, stop)))
        return self._log_mu

    def _log_moments(self, n_min: int, n_max: int) -> np.ndarray:
        """log mu_{n_min}..log mu_{n_max}; here one weighted_mass per index."""
        with np.errstate(divide="ignore"):
            return np.log([self.weighted_mass(-float(n))[0] for n in range(n_min, n_max + 1)])

    # -- decay certificates --------------------------------------------------

    def decay_upper(self) -> DecayBound | None:
        mu0 = self.mu0
        inf = self.inf_support
        if inf >= 1.0:
            # t >= inf on the support gives mu_n <= mu0 * inf**-n
            return DecayBound(ratio=1.0 / inf, power=0.0, const=mu0)
        return None

    def decay_lower(self) -> DecayBound | None:
        return None

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


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

    Atoms are merged at equal positions and kept sorted by position.
    Infinite families enter through :func:`truncated_atom_family`, which
    materializes a finite prefix under a user-supplied tail certificate.
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
        return sum((lam / t) * h(1.0 / t) for lam, t in self.atoms)

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

    def _log_moments(self, n_min: int, n_max: int) -> np.ndarray:
        return self._log_masses(-np.arange(n_min, n_max + 1.0))

    def decay_upper(self) -> DecayBound:
        t_min = self.atoms[0][1]
        return DecayBound(ratio=1.0 / t_min, power=0.0, const=self.mu0)

    def decay_lower(self) -> DecayBound:
        lam, t_min = self.atoms[0]
        return DecayBound(ratio=1.0 / t_min, power=0.0, const=lam / t_min)

    def to_json_dict(self) -> dict:
        out = {"type": "point_masses", "atoms": [[lam, t] for lam, t in self.atoms],
               "declared_inf_support": self.declared_inf_support,
               "tail_certificate": self.tail_certificate or None}
        return {k: v for k, v in out.items() if v is not None}

    def __repr__(self) -> str:
        return f"PointMasses({list(self.atoms)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PointMasses) and self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)


def truncated_atom_family(
    weight,
    position,
    k_max: int,
    tail_bound: float,
    inf_support: float | None = None,
    k_start: int = 1,
) -> PointMasses:
    """Materialize the atom family (weight(k), position(k)) for k_start..k_max.

    ``tail_bound`` is the caller's certificate that the dropped tail satisfies
    sum_{k > k_max} weight(k)/position(k) <= tail_bound.  ``inf_support`` may
    declare the infimum of the ideal (untruncated) support, e.g. 1 for
    positions accumulating at 1 from above.
    """
    atoms = [(weight(k), position(k)) for k in range(k_start, k_max + 1)]
    return PointMasses(
        atoms, declared_inf_support=inf_support, tail_certificate=float(tail_bound)
    )


class PowerTailDensity(MeasureSpec):
    """Density t**-a on (1, inf); moments 1/(n+a)."""

    def __init__(self, a: float):
        self.a = _as_positive(a, "power-tail exponent a")
        self._check_mu0()

    @property
    def inf_support(self) -> float:
        return 1.0

    def mass_below(self, x: float) -> float:
        if x <= 1.0:
            return 0.0
        if self.a == 1.0:
            return math.log(x)
        return (1.0 - x ** (1.0 - self.a)) / (self.a - 1.0)

    def integrate(self, h):
        # in u = log t the density e**(-a u) stays in log form, inside double range
        a = self.a
        return _quad(lambda u: h(math.exp(-u)) * math.exp(-a * u), 0.0, np.inf)

    def weighted_mass(self, exponent: float) -> tuple[float, str]:
        if exponent >= self.a:
            raise DivergentMoment(
                f"integral t**({exponent - self.a - 1:g}) over (1,inf) diverges"
            )
        return 1.0 / (self.a - exponent), CLOSED_FORM

    def _log_moments(self, n_min: int, n_max: int) -> np.ndarray:
        return -np.log(np.arange(n_min, n_max + 1.0) + self.a)

    def decay_upper(self) -> DecayBound:
        return DecayBound(ratio=1.0, power=1.0, const=max(1.0, 1.0 / self.a))

    def decay_lower(self) -> DecayBound:
        return DecayBound(ratio=1.0, power=1.0, const=min(1.0, 1.0 / self.a))

    def to_json_dict(self) -> dict:
        return {"type": "density", "kind": "power_tail", "a": self.a}

    def __repr__(self) -> str:
        return f"PowerTailDensity(a={self.a!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerTailDensity) and self.a == other.a

    def __hash__(self):
        return hash(("power_tail", self.a))


def beta_moment(a: float, b: float, n: int) -> float:
    """Euler Beta B(b, n+a-b+1), the closed-form moment mu_n of the density
    (t-1)**(b-1) * t**-a on (1, inf).  Requires a+1 > b > 0."""
    return BetaTailDensity(a, b).weighted_mass(-float(n))[0]


class BetaTailDensity(MeasureSpec):
    """Density (t-1)**(b-1) * t**-a on (1, inf), a+1 > b > 0."""

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (b > 0.0 and a + 1.0 > b):
            raise DomainError(f"need a+1 > b > 0, got a={a}, b={b}")
        self.a, self.b = a, b
        self._check_mu0()

    @property
    def inf_support(self) -> float:
        return 1.0

    def mass_below(self, x: float) -> float:
        if x <= 1.0:
            return 0.0
        return _log_substituted_quad(lambda t: (t - 1.0) ** (self.b - 1.0) * t**-self.a, 1.0, x)

    def integrate(self, h):
        # s = 1/t turns (t-1)**(b-1) t**-a dt/t on (1, inf) into s**(a-b) (1-s)**(b-1) ds
        # on (0, 1); quad's algebraic weight carries both endpoint powers (each > -1
        # since a+1 > b > 0), which leaves h as the whole integrand
        return _quad(h, 0.0, 1.0, weight="alg", wvar=(self.a - self.b, self.b - 1.0))

    def weighted_mass(self, exponent: float) -> tuple[float, str]:
        second = self.a - exponent - self.b + 1.0
        if not second > 0.0:
            raise DivergentMoment(
                f"beta-tail integral with exponent {exponent:g} diverges"
            )
        return (
            math.exp(math.lgamma(self.b) + math.lgamma(second) - math.lgamma(self.b + second)),
            CLOSED_FORM,
        )

    def _log_moments(self, n_min: int, n_max: int) -> np.ndarray:
        # the sums of weighted_mass(-n), on scipy's gammaln (which math.lgamma may
        # differ from in the last bit); scipy.special loads with the first beta moments
        from scipy.special import gammaln

        second = self.a + np.arange(n_min, n_max + 1.0) - self.b + 1.0
        return gammaln(self.b) + gammaln(second) - gammaln(self.b + second)

    def _envelope_consts(self) -> tuple[float, float]:
        # B(b,m), m = n+m0, m0 = 1+a-b > 0.  For b >= 1, u*exp(-u) <= 1-exp(-u) <= u inside
        # B(b,m) = int (1-e^-u)^(b-1) e^-mu du gives Gamma(b)*(n+a)^-b <= B <= Gamma(b)*m^-b;
        # for b < 1, Wendel's inequality gives Gamma(b)*m^-b <= B <= that * (1+b/m0)^(1-b).
        # Then m and n+a are squeezed against (n+1).
        a, b = self.a, self.b
        m0 = 1.0 + a - b
        gb = math.exp(math.lgamma(b))
        m_factor = min(1.0, m0) ** (-b)  # m >= min(1, m0)*(n+1)
        m_factor_lo = max(1.0, m0) ** (-b)  # m <= max(1, m0)*(n+1)
        if b >= 1.0:  # n+a <= max(1, a)*(n+1)
            return gb * m_factor, gb * max(1.0, a) ** (-b)
        return gb * (1.0 + b / m0) ** (1.0 - b) * m_factor, gb * m_factor_lo

    def decay_upper(self) -> DecayBound:
        c_up, _ = self._envelope_consts()
        return DecayBound(ratio=1.0, power=self.b, const=c_up)

    def decay_lower(self) -> DecayBound:
        _, c_lo = self._envelope_consts()
        return DecayBound(ratio=1.0, power=self.b, const=c_lo)

    def to_json_dict(self) -> dict:
        return {"type": "density", "kind": "beta_tail", "a": self.a, "b": self.b}

    def __repr__(self) -> str:
        return f"BetaTailDensity(a={self.a!r}, b={self.b!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BetaTailDensity)
            and (self.a, self.b) == (other.a, other.b)
        )

    def __hash__(self):
        return hash(("beta_tail", self.a, self.b))


PLAUSIBILITY_BOUND = 1e50  # desk-scale integrability certificate


def _quad(func, lo, hi, **weight):
    """integral of a real or complex func over (lo, hi); ``weight`` passes on to quad.

    func is evaluated once per node, in a memo every pass reads.  A two-panel pilot
    of |func| sets the absolute tolerance QUAD_REL_TOL * pilot of both passes, so a
    part that cancels stops at the scale of |func|; the imaginary pass runs only if
    func returned a complex value.  An integrand raising ZeroDivisionError,
    OverflowError or ValueError, a quad warning, a non-finite value or an error
    estimate above 1e-6 of the pilot (or of |value|, if larger) raise DivergentMoment.
    """
    from scipy import integrate  # scipy loads on the first quadrature, not with the package

    values = {}

    def at(u):
        value = values.get(u)
        if value is None:
            try:
                value = values[u] = func(u)
            except (ZeroDivisionError, OverflowError, ValueError) as exc:
                raise DivergentMoment(f"integrand raised {exc!r} at {u:g}") from exc
        return value

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        # QAWS refuses limit=1
        pilot = integrate.quad(lambda u: abs(at(u)), lo, hi, limit=2, **weight)[0]
        is_complex = any(isinstance(v, complex) for v in values.values())
        parts = (lambda u: at(u).real, lambda u: at(u).imag) if is_complex else (at,)
        warnings.simplefilter("error", integrate.IntegrationWarning)
        kw = dict(epsabs=QUAD_REL_TOL * pilot, epsrel=QUAD_REL_TOL, limit=400, **weight)
        try:
            passes = [integrate.quad(part, lo, hi, **kw) for part in parts]
        except integrate.IntegrationWarning as exc:
            raise DivergentMoment(f"quadrature did not converge: {exc}") from exc
    value = complex(passes[0][0], passes[1][0]) if is_complex else passes[0][0]
    err = max(e for _, e in passes)
    if not (math.isfinite(pilot) and cmath.isfinite(value)):
        raise DivergentMoment("integral is not finite")
    scale = max(pilot, abs(value))  # a pilot that misses a peak reads low
    if err > 1e-6 * scale:
        raise DivergentMoment(f"error estimate {err:g} too large for {scale:g}")
    return value


def _log_substituted_quad(phi, lo: float, hi: float, exponent: float = 1.0) -> float:
    """integral of t**(exponent-1) * phi(t) dt over (lo, hi) via t = e**u.

    The substitution turns power decay into exponential decay, which the adaptive
    rule resolves reliably.  Support touching 0 is cut at t = e**-700 (below double
    underflow anyway); a value beyond the plausibility bound raises DivergentMoment.
    """
    u_lo = math.log(lo) if lo > 0 else -700.0
    u_hi = math.log(hi) if math.isfinite(hi) else np.inf
    val = _quad(lambda u: phi(math.exp(u)) * math.exp(u) ** exponent, u_lo, u_hi)
    if abs(val) > PLAUSIBILITY_BOUND:
        raise DivergentMoment(f"integral {val:g} is beyond the plausibility bound")
    return val


class Density(MeasureSpec):
    """Generic density phi(t) dt on an interval (a, b) within (0, inf).

    phi is a positive callable; moments go through adaptive quadrature.
    mu_0 is evaluated at construction and acts as the integrability
    certificate: construction fails with DivergentMoment otherwise.
    """

    def __init__(self, phi, support: tuple[float, float], label: str | None = None):
        lo, hi = float(support[0]), float(support[1])
        if not (0.0 <= lo < hi):
            raise ValueError(f"support must satisfy 0 <= a < b, got {support}")
        self.phi = phi
        self.support = (lo, hi)
        self.label = label
        self._check_mu0()

    @property
    def inf_support(self) -> float:
        return self.support[0]

    def mass_below(self, x: float) -> float:
        lo, hi = self.support
        if x <= lo:
            return 0.0
        return _log_substituted_quad(self.phi, lo, min(hi, x))

    def integrate(self, h):
        # phi(e**u) stays in double range only while a Density with hi = inf fails to
        # construct (_log_substituted_quad raises DivergentMoment for it)
        lo, hi = self.support
        u_lo = math.log(lo) if lo > 0 else -np.inf
        u_hi = math.log(hi) if math.isfinite(hi) else np.inf
        return _quad(lambda u: h(math.exp(-u)) * self.phi(math.exp(u)), u_lo, u_hi)

    def weighted_mass(self, exponent: float) -> tuple[float, str]:
        lo, hi = self.support
        return _log_substituted_quad(self.phi, lo, hi, exponent=exponent), QUAD_TAG

    def decay_lower(self) -> DecayBound | None:
        # witness interval [lo, mid]: mu_n >= mass([lo, mid]) * mid**-(n+1)
        lo, hi = self.support
        mid = (lo + hi) / 2.0 if math.isfinite(hi) else lo + 1.0
        mass = _log_substituted_quad(self.phi, lo, mid)
        if mass <= 0.0:
            return None
        return DecayBound(ratio=1.0 / mid, power=0.0, const=mass / mid)

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

    def mass_below(self, x: float) -> float:
        if x <= self.inf_support:
            return 0.0
        # nu((0, x)) = integral of right((0, x/t)) dleft(t), or with the factors swapped
        outer, inner = self.left, self.right
        if inner.has_atoms and not outer.has_atoms:
            outer, inner = inner, outer
        if outer.has_atoms:
            return outer.sum_atoms(inner.mass_below, x)
        return outer.integrate(lambda s: inner.mass_below(x * s) / s if s else 0.0).real

    def mass_at(self, x: float) -> float:
        return self.left.sum_atoms(self.right.mass_at, x)

    def integrate(self, h):
        return self.left.integrate(lambda s: self.right.integrate(lambda r: h(s * r)))

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

    @staticmethod
    def _combine(a: DecayBound | None, b: DecayBound | None) -> DecayBound | None:
        if a is None or b is None:
            return None
        return DecayBound(
            ratio=a.ratio * b.ratio, power=a.power + b.power, const=a.const * b.const
        )

    def decay_upper(self) -> DecayBound | None:
        return self._combine(self.left.decay_upper(), self.right.decay_upper())

    def decay_lower(self) -> DecayBound | None:
        return self._combine(self.left.decay_lower(), self.right.decay_lower())

    def to_json_dict(self) -> dict:
        return {
            "type": "mellin",
            "left": self.left.to_json_dict(),
            "right": self.right.to_json_dict(),
        }

    def __repr__(self) -> str:
        return f"MellinConvolution({self.left!r}, {self.right!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MellinConvolution)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash(("mellin", self.left, self.right))


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

    def decay_upper(self) -> DecayBound | None:
        b = self.inner.decay_upper()
        return None if b is None else DecayBound(b.ratio, b.power, self.c * b.const)

    def decay_lower(self) -> DecayBound | None:
        b = self.inner.decay_lower()
        return None if b is None else DecayBound(b.ratio, b.power, self.c * b.const)

    def to_json_dict(self) -> dict:
        return {"type": "scaled", "c": self.c, "inner": self.inner.to_json_dict()}

    def __repr__(self) -> str:
        return f"Scaled({self.c!r}, {self.inner!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Scaled) and self.c == other.c and self.inner == other.inner

    def __hash__(self):
        return hash(("scaled", self.c, self.inner))


# -- top-level operations ----------------------------------------------------


def moment(m: MeasureSpec, n: int) -> float:
    """mu_n = integral of t**-(n+1) dmu(t)."""
    if n < 0:
        raise ValueError("moment index must be >= 0")
    return m.weighted_mass(-float(n))[0]


def moments(m: MeasureSpec, n_max: int) -> MomentSequence:
    """mu_0..mu_{n_max} with per-entry provenance tags."""
    return MomentSequence.from_logs(m.log_moments(n_max)[: n_max + 1], m._mass0[1])


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


def hardy_measure() -> PowerTailDensity:
    """dt/t on (1, inf): the averaging kernel of the classical Hardy operator."""
    return PowerTailDensity(1.0)


def dirac(t: float, mass: float | None = None) -> PointMasses:
    """Atom at t.  Default weight t, making mu_0 = 1."""
    t = _as_positive(t, "atom position")
    return PointMasses([(t if mass is None else mass, t)])


def geometric_atoms(lam: float, ratio: float, tol: float = 1e-16) -> PointMasses:
    """Truncation of sum over k >= 1 of lam**k * delta(ratio**k).

    Needs 0 < lam < 1 and ratio >= 1; the dropped tail of mu_0 is below
    tol relative.
    """
    lam = _as_positive(lam, "weight base")
    ratio = _as_positive(ratio, "position ratio")
    if lam >= 1.0 or ratio < 1.0:
        raise ValueError("need 0 < lam < 1 and ratio >= 1")
    x = lam / ratio
    k_max = max(4, int(math.ceil(math.log(tol * (1 - x)) / math.log(x))))
    tail = x ** (k_max + 1) / (1 - x)
    return truncated_atom_family(
        lambda k: lam**k, lambda k: ratio**k, k_max=k_max, tail_bound=tail
    )


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
            return PowerTailDensity(float(data["a"]))
        if sub == "beta_tail":
            return BetaTailDensity(float(data["a"]), float(data["b"]))
        raise ValueError(f"unknown density kind {sub!r}")
    if kind == "mellin":
        return MellinConvolution(from_json_dict(data["left"]), from_json_dict(data["right"]))
    if kind == "scaled":
        return Scaled(float(data["c"]), from_json_dict(data["inner"]))
    raise ValueError(f"unknown measure type {kind!r}")


def from_json(text: str) -> MeasureSpec:
    return from_json_dict(json.loads(text))
