"""Circle means, Fock norms and mixed norms in log-scaled arithmetic.

Norm conventions, for f entire, 0 < p, q <= inf, alpha > 0:

    M_p(f, r)        p-th power mean of |f| over the circle of radius r
    ||f||_{p,alpha}  = (alpha*p * int_0^inf M_p(f,r)**p e^{-alpha*p*r^2/2} r dr)**(1/p)
    ||f||_{p,q,alpha}= same with M_p integrated at exponent q
    q = inf          sup_r M_p(f,r) e^{-alpha*r^2/2}

Factorials and powers overflow long before the interesting degrees do, so
every accumulation happens on logarithms; only the final norm is
exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, logsumexp

from .entire import CoeffFunction

INF = float("inf")

_ANGLE_EVALS = 4  # per p = inf circle maximum: the grid angle, then 3 Newton steps
_SUP_ROUNDS = 6  # bracket rounds of the radial sup, each 8-fold narrower


def _check_exponent(p: float, name: str = "p") -> float:
    p = float(p)
    if p == INF:
        return p
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError(f"{name} must be in (0, inf], got {p!r}")
    return p


@dataclass(frozen=True)
class FockParams:
    """Exponent pair and weight parameter for a (mixed) Fock norm."""

    p: float
    q: float
    alpha: float

    def __post_init__(self) -> None:
        _check_exponent(self.p, "p")
        _check_exponent(self.q, "q")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be a positive finite real")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tunables for the quadrature routes.

    angle_nodes is the starting angular resolution of finite-p means
    (default 4*(degree+1), at least 64); it is doubled until the circle mean
    is stable to abs_tol in the log or max_angle_nodes is reached.  The
    radial rule is composite Gauss-Legendre on [0, R] with
    R = sqrt(2*(degree+40)/(alpha*min(p,q,1))).

    The p = inf circle maximum polishes the best of max(64, 8*(degree+1))
    FFT angles by Newton steps; the radial sup refines the best of sup_grid
    radii by rounds of 17 radii, each bracket 8-fold narrower.  Either
    maximum is the largest value evaluated, so never below its grid maximum.
    """

    angle_nodes: int | None = None
    gl_order: int = 24
    abs_tol: float = 1e-12
    max_angle_nodes: int = 8192
    sup_grid: int = 512


DEFAULT_CFG = QuadratureConfig()


def radial_cutoff(degree: int, p_min: float, alpha: float) -> float:
    """Radius beyond which the weighted radial integrand is below 1e-16 of its peak."""
    eff = min(p_min, 1.0)
    return math.sqrt(2.0 * (degree + 40.0) / (alpha * eff))


def _gl_panels(R: float, width: float, order: int):
    """Graded composite Gauss-Legendre nodes/weights on [0, R].

    Three geometrically shrinking starter panels absorb the fractional-power
    behaviour of r**(np+1) at the origin.
    """
    edges = [0.0]
    for frac in (1.0 / 64.0, 1.0 / 16.0, 1.0 / 4.0):
        e = width * frac
        if e < R and e > edges[-1]:
            edges.append(e)
    while edges[-1] < R:
        edges.append(min(edges[-1] + width, R))
    edges = np.asarray(edges)
    x, w = leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _log_abs(coeffs: np.ndarray) -> np.ndarray:
    out = np.full(len(coeffs), -np.inf)
    nz = coeffs != 0
    out[nz] = np.log(np.abs(coeffs[nz]))
    return out


def _log_pos(x: np.ndarray) -> np.ndarray:
    """log x where x > 0, -inf elsewhere."""
    return np.log(x, out=np.full_like(x, -np.inf), where=x > 0)


def _scaled_rows(coeffs: np.ndarray, radii: np.ndarray):
    """Per-radius rescaled coefficients c_n * r**n / exp(L) with the log scale L.

    L is chosen as the largest log term of the row, so every scaled entry has
    modulus <= 1 and the row sum stays in range.
    """
    la = _log_abs(coeffs)
    n = np.arange(len(coeffs), dtype=float)
    logr = _log_pos(radii)
    with np.errstate(invalid="ignore"):
        log_terms = la[None, :] + n[None, :] * logr[:, None]
    # r = 0 rows: only the constant term survives (kill the 0 * -inf artifacts)
    log_terms[radii == 0.0, 1:] = -np.inf
    log_terms[radii == 0.0, 0] = la[0]
    L = log_terms.max(axis=1)
    finite = L > -np.inf
    scaled = np.zeros_like(log_terms)
    scaled[finite] = np.exp(log_terms[finite] - L[finite, None])
    phases = np.ones(len(coeffs), dtype=complex)
    nz = coeffs != 0
    phases[nz] = coeffs[nz] / np.abs(coeffs[nz])
    return scaled * phases[None, :], L


def _log_mean_p(coeffs: np.ndarray, p: float, radii: np.ndarray,
                cfg: QuadratureConfig) -> np.ndarray:
    """log M_p(f, r) for finite p != 2 via FFT power means with refinement.

    The angle count doubles until the mean is stable; if the cap is reached
    (a zero of f close to a sampled circle gives algebraic convergence) the
    last three levels are Aitken-extrapolated, which removes the leading
    K**-s error term.
    """
    deg = len(coeffs) - 1
    scaled, L = _scaled_rows(coeffs, radii)
    K = cfg.angle_nodes or max(64, 4 * (deg + 1))
    K = max(K, deg + 1)

    def means_at(block: np.ndarray, k: int) -> np.ndarray:
        vals = np.fft.fft(block, n=k, axis=1)
        return _log_pos(np.mean(np.abs(vals) ** p, axis=1)) / p

    out = means_at(scaled, K) + L
    active = np.ones(len(radii), dtype=bool)
    hist = [np.full_like(out, np.nan), np.full_like(out, np.nan), out.copy()]
    while active.any() and K < cfg.max_angle_nodes:
        K *= 2
        cur = means_at(scaled[active], K) + L[active]
        hist = [h.copy() for h in hist[1:]] + [hist[-1].copy()]
        hist[-1][active] = cur
        out[active] = cur
        with np.errstate(invalid="ignore"):
            diff = np.abs(hist[-1] - hist[-2])
        diff[~np.isfinite(diff)] = 0.0
        active &= diff > cfg.abs_tol * 10
    if active.any():
        # cap reached on rows with algebraically converging means (a zero of f
        # near the circle): Aitken-extrapolate the last three levels
        m1, m2, m3 = (h[active] for h in hist)
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = m3 - 2.0 * m2 + m1
            corr = np.where(np.abs(denom) > 1e-300, (m3 - m2) ** 2 / denom, 0.0)
        corr[~np.isfinite(corr)] = 0.0
        out[active] = m3 - corr
    return out


def _log_mean_2(coeffs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    la = _log_abs(coeffs)
    n = np.arange(len(coeffs), dtype=float)
    logr = _log_pos(radii)
    with np.errstate(invalid="ignore"):
        log_terms = 2.0 * la[None, :] + 2.0 * n[None, :] * logr[:, None]
    log_terms[radii == 0.0, 1:] = -np.inf
    log_terms[radii == 0.0, 0] = 2.0 * la[0]
    return 0.5 * logsumexp(log_terms, axis=1)


def _log_mean_inf(coeffs: np.ndarray, radii: np.ndarray,
                  cfg: QuadratureConfig) -> np.ndarray:
    """log M_inf(f, r): FFT grid maximum, then Newton polish of the angle.

    np.fft.fft samples g(theta) = sum s_n e^{i n theta} at theta = -k*h, so
    each row starts at the angle of its largest grid value.  Newton steps on
    |g|^2 use g, g' and g'' (coefficients s_n, i n s_n, -n^2 s_n) from one
    phase matrix per step and stay inside the +-h bracket around the start.
    The result is the largest |g| evaluated, grid values included.
    """
    deg = len(coeffs) - 1
    scaled, L = _scaled_rows(coeffs, radii)
    K = max(64, 8 * (deg + 1))
    vals = np.abs(np.fft.fft(scaled, n=K, axis=1))
    best = np.argmax(vals, axis=1)
    peak = vals[np.arange(len(radii)), best]
    h = 2.0 * math.pi / K
    start = -best * h
    n = np.arange(len(coeffs), dtype=float)
    derivs = np.stack([np.ones_like(n), 1j * n, -n * n], axis=1)
    theta = start
    for _ in range(_ANGLE_EVALS):
        g, g1, g2 = ((scaled * np.exp(1j * np.outer(theta, n))) @ derivs).T
        peak = np.maximum(peak, np.abs(g))
        slope = np.real(np.conj(g) * g1)
        curv = np.abs(g1) ** 2 + np.real(np.conj(g) * g2)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(curv < 0, -slope / curv, np.sign(slope) * h)
        theta = np.clip(theta + step, start - h, start + h)
    return _log_pos(peak) + L


def _log_circle_means(coeffs: np.ndarray, p: float, radii: np.ndarray,
                      cfg: QuadratureConfig) -> np.ndarray:
    radii = np.asarray(radii, dtype=float)
    if p == 2.0:
        return _log_mean_2(coeffs, radii)
    if p == INF:
        return _log_mean_inf(coeffs, radii, cfg)
    return _log_mean_p(coeffs, p, radii, cfg)


def circle_mean(f: CoeffFunction, p: float, r: float,
                cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """M_p(f, r).  p = 2 is Parseval-exact, p = inf is a polished maximum."""
    p = _check_exponent(p)
    if r < 0:
        raise ValueError("radius must be >= 0")
    return float(np.exp(_log_circle_means(f.coeffs, p, np.array([r]), cfg)[0]))


def _log_radial_sup(coeffs: np.ndarray, p: float, alpha: float,
                    cfg: QuadratureConfig) -> float:
    """log sup_r M_p(f,r) * exp(-alpha r^2 / 2): radial grid, then bracket rounds.

    The sup_grid radii on [0, R] are one batched circle-mean call.  Each of
    _SUP_ROUNDS further calls puts 17 radii on the bracket [r_{k-1}, r_{k+1}]
    around the best radius so far, shrinking it 8-fold.  The result is the
    largest weighted mean evaluated.
    """
    deg = len(coeffs) - 1
    radii = np.linspace(0.0, radial_cutoff(deg, 1.0, alpha), cfg.sup_grid)
    best = -np.inf
    for _ in range(_SUP_ROUNDS + 1):
        g = _log_circle_means(coeffs, p, radii, cfg) - alpha * radii**2 / 2.0
        k = int(np.argmax(g))
        best = max(best, float(g[k]))
        lo, hi = radii[max(k - 1, 0)], radii[min(k + 1, len(radii) - 1)]
        radii = np.linspace(lo, hi, 17)
    return best


def _log_radial_integral(coeffs: np.ndarray, p: float, q: float, alpha: float,
                         cfg: QuadratureConfig) -> float:
    """log of alpha*q * int_0^R M_p(f,r)**q e^{-alpha q r^2/2} r dr."""
    deg = len(coeffs) - 1
    R = radial_cutoff(deg, min(p, q), alpha)
    width = min(0.5 / math.sqrt(alpha * q), R / 16.0)
    nodes, weights = _gl_panels(R, width, cfg.gl_order)
    log_m = _log_circle_means(coeffs, p, nodes, cfg)
    with np.errstate(divide="ignore"):
        log_integrand = q * log_m + np.log(nodes) - alpha * q * nodes**2 / 2.0
    finite = np.isfinite(log_integrand)
    if not finite.any():
        return -np.inf
    return float(
        logsumexp(log_integrand[finite], b=weights[finite]) + math.log(alpha * q)
    )


def _log_norm_2_exact(coeffs: np.ndarray, alpha: float) -> float:
    la = _log_abs(coeffs)
    n = np.arange(len(coeffs), dtype=float)
    terms = 2.0 * la + gammaln(n + 1.0) - n * math.log(alpha)
    finite = np.isfinite(terms)
    if not finite.any():
        return -np.inf
    return 0.5 * float(logsumexp(terms[finite]))


def fock_norm(f: CoeffFunction, p: float, alpha: float,
              cfg: QuadratureConfig = DEFAULT_CFG, method: str = "auto") -> float:
    """||f||_{p,alpha}.

    method = "auto" uses the exact coefficient series at p = 2 and radial
    quadrature otherwise; "quadrature" forces the integral route (p = inf
    always goes through the sup search).
    """
    p = _check_exponent(p)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if p == INF:
        return float(np.exp(_log_radial_sup(f.coeffs, INF, alpha, cfg)))
    if p == 2.0 and method == "auto":
        return float(np.exp(_log_norm_2_exact(f.coeffs, alpha)))
    log_int = _log_radial_integral(f.coeffs, p, p, alpha, cfg)
    return float(np.exp(log_int / p))


def mixed_norm(f: CoeffFunction, params: FockParams,
               cfg: QuadratureConfig = DEFAULT_CFG, method: str = "auto") -> float:
    """||f||_{p,q,alpha}, with the q = inf branch returning the weighted sup."""
    p, q, alpha = params.p, params.q, params.alpha
    if p == q:
        return fock_norm(f, p, alpha, cfg, method=method)
    if q == INF:
        return float(np.exp(_log_radial_sup(f.coeffs, p, alpha, cfg)))
    log_int = _log_radial_integral(f.coeffs, p, q, alpha, cfg)
    return float(np.exp(log_int / q))


def log_monomial_norm(n: int, p: float, alpha: float) -> float:
    """log ||u_n||_{p,alpha} from the closed forms (exact, overflow-free)."""
    p = _check_exponent(p)
    if n < 0:
        raise ValueError("monomial degree must be >= 0")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if p == INF:
        if n == 0:
            return 0.0
        return 0.5 * n * (math.log(n) - math.log(alpha) - 1.0)
    half_np = 0.5 * n * p
    return (half_np * math.log(2.0 / (alpha * p)) + gammaln(half_np + 1.0)) / p


def monomial_norm_closed(n: int, p: float, alpha: float) -> float:
    """||u_n||_{p,alpha} in closed form; p = inf uses (n/(alpha*e))**(n/2)."""
    return math.exp(log_monomial_norm(n, p, alpha))


def kernel_norm_closed(beta: float, a: complex, p: float, alpha: float) -> float:
    """||exp(beta * . * conj(a))||_{p,alpha} = exp(beta^2 |a|^2 / (2 alpha)), any p."""
    _check_exponent(p)
    if beta <= 0 or alpha <= 0:
        raise ValueError("beta and alpha must be positive")
    return math.exp(beta**2 * abs(complex(a)) ** 2 / (2.0 * alpha))


def coeff_weighted_lp(f: CoeffFunction, p: float, alpha: float,
                      gamma: float = 0.0) -> float:
    """l_p norm of the sequence a_n * sqrt(n!/alpha^n) * (n+1)**gamma."""
    p = _check_exponent(p)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    la = _log_abs(f.coeffs)
    n = np.arange(len(f.coeffs), dtype=float)
    logw = la + 0.5 * (gammaln(n + 1.0) - n * math.log(alpha)) + gamma * np.log(n + 1.0)
    finite = np.isfinite(logw)
    if not finite.any():
        return 0.0
    if p == INF:
        return float(np.exp(logw[finite].max()))
    return float(np.exp(logsumexp(p * logw[finite]) / p))
