"""Circle means, Fock norms and mixed norms in log-scaled arithmetic.

Norm conventions, for f entire, 0 < p, q <= inf, alpha > 0:

    M_p(f, r)        p-th power mean of |f| over the circle of radius r
    ||f||_{p,alpha}  = (alpha*p * int_0^inf M_p(f,r)**p e^{-alpha*p*r^2/2} r dr)**(1/p)
    ||f||_{p,q,alpha}= same with M_p integrated at exponent q
    q = inf          sup_r M_p(f,r) e^{-alpha*r^2/2}

Factorials and powers overflow long before the interesting degrees do, so
every accumulation happens on logarithms.  A value leaves logs in one
place, _exp, which raises measure.DomainError when it is past double range
instead of returning inf.  _log_norm is the one place a norm's route is
chosen.  The module needs numpy only.  The radial rule's Gauss-Legendre panels
come from measure._gauss_jacobi, the package's one (Golub-Welsch) Gauss-rule builder.

Every even p = 2k is a Parseval route: M_2k(f, r)**2k = sum |b_n|**2 r**(2n)
with b_n the Taylor coefficients of f**k, so ||f||_{2k,alpha}**2k =
sum |b_n|**2 n!/(alpha*k)**n exactly.  fock_norm at p = 2k takes that sum
and builds no radial rule; the mixed (2k, q) and (2k, inf) norms take the
Parseval means.  For k > 1, f**k comes from k - 1 convolutions while it has
at most PARSEVAL_MAX_TERMS terms; past that, p = 2k takes the FFT means below.
_log_radial_integral(coeffs, p, p, alpha) / p is the radial rule at any p,
so at every even p the rule has an exact oracle.

Circle means factor out z**m, m the index of the first nonzero coefficient
(|z**m h(z)| = r**m |h(z)| on |z| = r), so c*z**n costs one 64-angle level.
The angle counts are rounded up to 5-smooth numbers 2**a * 3**b * 5**c,
where an FFT is several times faster per point than at a length with a
large prime factor such as 764 = 4*191.

Exponents below MIN_EXPONENT are refused (DomainError): there the q-th root
of a mean or of the radial integral cancels to about eps/q.  So is a radial
rule past MAX_RULE_CELLS, which a huge q would need.

A radial rule tells the circle means how much each radius counts: the
integral passes its log-weights log r + log w_i - alpha*q*r^2/2 with q, the
sup passes -alpha*r^2/2 with q = inf.  From the first-level estimate each
row gets a relevance (_relevance); a finite-p row stops refining once its
change times its relevance is at most 10*ABS_TOL, or once the change is
within twice the FFT's rounding floor, and a p = inf row is Newton-polished
only if its relevance lets the grid maximum's error reach the norm.  Rows
that stop early then move the log of the integral's q-th root by at most
2*10*ABS_TOL, and the sup by nothing, beyond the rounding floor.  A call
without weights (the contraction suite) gives every row relevance 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entire import (_LOG_DBL_MAX, CoeffFunction, _check_alpha, log_factorials, logsumexp,
                     unit_phases)
from .measure import DomainError, _gauss_jacobi

INF = float("inf")

# finite-p means start at _fft_len(max(64, 4*(degree+1))) angles, the degree
# taken after z**m is factored out, so c*z**n transforms 64 angles
MIN_ANGLE_NODES = 64
MAX_ANGLE_NODES = 8192  # finite-p doubling stops at the first level >= this
ABS_TOL = 1e-12  # a finite-p mean stable to this in the log stops doubling
# |g| <= _NOISE * sum |s_n| at an FFT node is rounding noise of the transform
_NOISE = 8.0 * np.finfo(float).eps / 2.0
# K >= 8(deg+1) grid angles put the grid maximum of |g| within this of the true one in
# the log: |g|**2 is a trigonometric polynomial of degree deg, so by Bernstein's
# inequality its grid maximum is within pi**2/2 (deg/K)**2 <= 0.077 of its maximum
_GRID_MAX_LOG_ERR = 0.1
_SUP_NATS = 1.0  # a sup row this far below the largest weighted mean cannot win
GL_ORDER = 24  # Gauss-Legendre nodes per radial panel
_GL_NODES, _GL_WEIGHTS = _gauss_jacobi(GL_ORDER, 0.0, 0.0)  # on (0, 1)
_GL_NODES, _GL_WEIGHTS = 2.0 * _GL_NODES - 1.0, 2.0 * _GL_WEIGHTS  # on (-1, 1)
SUP_GRID = 512  # radii of the radial sup's first grid
_ANGLE_EVALS = 4  # per p = inf circle maximum: the grid angle, then 3 Newton steps
_SUP_ROUNDS = 6  # bracket rounds of the radial sup, each 8-fold narrower
_INF_BLOCK = 64  # rows per FFT block of the p = inf grid, which bounds its memory
# a radial rule whose circle means would transform more values than this (nodes times
# first-level angles) is refused: 4.3 times the most any test or benchmark run asks for
MAX_RULE_CELLS = 1 << 23
# down to here fock_norm(z**3, p) keeps its log within 1.5e-10 of the closed form, as at
# p = 1e-2; at p = 1e-6 it is off by 1e-9, at 1e-8 by 2.3e-7
MIN_EXPONENT = 1e-5
PARSEVAL_MAX_TERMS = 8192  # even p = 2k is a Parseval route while k*len(coeffs) <= this
_TINY = 2.0**-1074  # the least subnormal: what one underflowing operation can lose
# a Parseval sum is kept when it is this far (1/eps) above what underflow can add to it
_PARSEVAL_MARGIN = -math.log(np.finfo(float).eps)
_PARSEVAL_BLOCK = 1 << 20  # entries of one round's matrix of Parseval terms
_LOG_SUM_MIN = -650.0  # 58 nats above exp's subnormal range


def _check_exponent(p: float, name: str = "p") -> float:
    p = float(p)
    if p == INF:
        return p
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError(f"{name} must be in (0, inf], got {p!r}")
    return p


def _inv(p: float) -> float:  # 1/p, with 1/inf = 0
    return 0.0 if p == INF else 1.0 / p


@dataclass(frozen=True)
class FockParams:
    """Exponent pair and weight parameter for a (mixed) Fock norm, checked floats."""

    p: float
    q: float
    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_exponent(self.p, "p"))
        object.__setattr__(self, "q", _check_exponent(self.q, "q"))
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))


def radial_cutoff(degree: int, p_min: float, alpha: float) -> float:
    """Radius beyond which the weighted radial integrand is below 1e-16 of its peak.

    Raises ValueError when the radius is not a finite float (alpha near 0).
    """
    scale = alpha * min(p_min, 1.0)
    R = math.sqrt(2.0 * (degree + 40.0) / scale) if scale > 0.0 else INF
    if not math.isfinite(R):
        raise ValueError(f"radial cutoff is not finite at alpha = {alpha!r}")
    return R


def _gl_panels(R: float, width: float):
    """Graded composite Gauss-Legendre nodes/weights on [0, R], GL_ORDER per panel.

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
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _fft_len(n: int) -> int:
    """The least 5-smooth number 2**a * 3**b * 5**c >= n."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _log_pos(x: np.ndarray) -> np.ndarray:
    """log x where x > 0, -inf elsewhere."""
    return np.log(x, out=np.full_like(x, -np.inf), where=x > 0)


def _log_terms(coeffs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """log|c_n r**n|, one row per radius and one column per index n."""
    la = _log_pos(np.abs(coeffs))
    n = np.arange(len(coeffs), dtype=float)
    logr = _log_pos(radii)
    with np.errstate(invalid="ignore"):
        log_terms = la[None, :] + n[None, :] * logr[:, None]
    # r = 0 rows: only the constant term survives (kill the 0 * -inf artifacts)
    log_terms[radii == 0.0, 1:] = -np.inf
    log_terms[radii == 0.0, 0] = la[0]
    return log_terms


def _scaled_rows(coeffs: np.ndarray, radii: np.ndarray):
    """Per-radius rescaled coefficients c_n * r**n / exp(L) with the log scale L.

    L is chosen as the largest log term of the row, so every scaled entry has
    modulus <= 1 and the row sum stays in range.
    """
    log_terms = _log_terms(coeffs, radii)
    L = log_terms.max(axis=1)
    finite = L > -np.inf
    scaled = np.zeros_like(log_terms)
    scaled[finite] = np.exp(log_terms[finite] - L[finite, None])
    return scaled * unit_phases(coeffs)[None, :], L


def _relevance(log_mean: np.ndarray, log_w: np.ndarray | None, q: float) -> np.ndarray:
    """How much an error in each row's log mean can move the norm, from an estimate.

    For an integral at exponent q, with share_i the row's part of
    sum_j exp(q*log_mean_j + log_w_j), the relevance is min(1, N*share_i) over
    N rows: if every row's log-mean error times its relevance is at most tau,
    the log of the integral's q-th root moves by at most 2*tau (tau from the
    rows at 1, tau/N from each other row).  For the sup (q = inf) rows within
    _SUP_NATS of the largest log_mean + log_w count 1 and the others 0.  With
    no weights every row counts 1.
    """
    if log_w is None:
        return np.ones_like(log_mean)
    if q == INF:
        t = log_mean + log_w
        return (t >= t.max() - _SUP_NATS).astype(float)
    t = q * log_mean + log_w
    share = np.zeros_like(t)
    finite = np.isfinite(t)
    if finite.any():
        share[finite] = np.exp(t[finite] - logsumexp(t[finite]))
    return np.minimum(1.0, len(t) * share)


def _log_mean_p(coeffs: np.ndarray, p: float, radii: np.ndarray,
                log_w: np.ndarray | None = None, q: float = INF) -> np.ndarray:
    """log M_p(f, r) for finite p via FFT power means with nested refinement.

    _log_circle_means sends an even p here only past PARSEVAL_MAX_TERMS.

    The first level has K = _fft_len(max(MIN_ANGLE_NODES, 4*(deg+1))) angles,
    a 5-smooth count, and so is every doubling of it; deg is the degree left
    once _log_circle_means has factored z**m out of f.  Each row carries its
    running sum of |g|**p over the K angles so far.  The 2K-node
    trapezoid rule is the K-node rule plus the K midpoints, and those are
    g(theta + pi/K), one length-K FFT of s_n e^{-i pi n/K} (K >= deg + 1), so
    a doubling transforms only the new nodes.

    After each doubling a row stops when its change `diff` in the log
    satisfies either of
      diff * relevance <= 10*ABS_TOL   relevance from _relevance(first level,
                                       log_w, q), computed once; 1 without weights,
                                       which is a plain stability test;
      diff <= 2*floor                  the change is rounding noise: floor is
                                       share * (_NOISE*S)**p / (running mean of
                                       |g|**p) / p, with S = sum |s_n| and share
                                       the fraction of the new midpoints where
                                       |g| <= _NOISE*S, which the FFT cannot resolve.
    A row far below the rest of a weighted rule thus gets exactly one
    doubling.  Doubling stops at the first K >= MAX_ANGLE_NODES, so the last
    level can hold almost twice that many angles, and rows still unsettled
    there (a zero of f close to a sampled circle gives algebraic
    convergence) are Aitken-extrapolated from the last three levels, which
    removes the leading K**-s error term.

    |g| <= deg + 1 on the scaled rows, so |g|**p stays in range unless p is
    large.  Past that, each row sums (|g|/top)**p, with top its largest |g|
    so far (>= 1), and rescales its running sum whenever top rises.  That
    costs a max and a division pass per level: taken at every p it slowed
    the radial integrals of degree-213 functions by 9 %, so smaller p keep
    the plain sum (top = 1).  A row whose last level moved its mean by
    log(2)/(2p) or more is led by its largest nodes: each doubling halves
    the mean of a sum that barely grows.  That is not the K**-s error Aitken
    removes, so such a row keeps its last level at the cap.
    """
    deg = len(coeffs) - 1
    scaled, L = _scaled_rows(coeffs, radii)
    K = _fft_len(max(MIN_ANGLE_NODES, 4 * (deg + 1)))
    n = np.arange(deg + 1)
    rescale = p * math.log(deg + 2.0) > _LOG_DBL_MAX - math.log(4.0 * MAX_ANGLE_NODES)
    top = np.ones(len(radii))
    sums = np.zeros(len(radii))

    def add_powers(block: np.ndarray, rows, k: int) -> np.ndarray:
        """Adds sum (|g|/top)**p over the k-point FFT of block to sums[rows]; returns |g|/top."""
        vals = np.abs(np.fft.fft(block, n=k, axis=1))
        if rescale:
            new_top = np.maximum(top[rows], vals.max(axis=1))
            sums[rows] *= (top[rows] / new_top) ** p
            top[rows] = new_top
            vals /= new_top[:, None]
        sums[rows] += np.sum(vals ** p, axis=1)
        return vals

    add_powers(scaled, slice(None), K)
    out = _log_pos(sums / K) / p + np.log(top) + L
    relevance = _relevance(out, log_w, q)
    noise = _NOISE * np.sum(np.abs(scaled), axis=1)
    floor = np.zeros_like(out)
    active = np.ones(len(radii), dtype=bool)
    hist = [np.full_like(out, np.nan), np.full_like(out, np.nan), out.copy()]
    while active.any() and K < MAX_ANGLE_NODES:
        midpoints = scaled[active] * np.exp(-1j * math.pi * n / K)
        vals = add_powers(midpoints, active, K)
        noisy = np.count_nonzero(vals <= (noise[active] / top[active])[:, None], axis=1) / K
        K *= 2
        cur = _log_pos(sums[active] / K) / p + np.log(top[active]) + L[active]
        hist = [h.copy() for h in hist[1:]] + [hist[-1].copy()]
        hist[-1][active] = cur
        out[active] = cur
        with np.errstate(invalid="ignore", divide="ignore"):
            floor[active] = (noisy * (noise[active] / top[active]) ** p
                             / (sums[active] / K) / p)
            diff = np.abs(hist[-1] - hist[-2])
        diff[~np.isfinite(diff)] = 0.0
        active &= (diff * relevance > ABS_TOL * 10) & (diff > 2.0 * floor)
    if active.any():
        # cap reached on rows with algebraically converging means (a zero of f
        # near the circle): Aitken-extrapolate the last three levels
        m1, m2, m3 = (h[active] for h in hist)
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = m3 - 2.0 * m2 + m1
            corr = np.where(np.abs(denom) > 1e-300, (m3 - m2) ** 2 / denom, 0.0)
        corr[~np.isfinite(corr) | (np.abs(m3 - m2) >= math.log(2.0) / (2.0 * p))] = 0.0
        out[active] = m3 - corr
    return out


def _even_k(p: float, n_terms: int) -> int:
    """k when p = 2k and Parseval serves it: always at k = 1, which convolves
    nothing, and for k > 1 while f**k, f with n_terms coefficients, has at most
    PARSEVAL_MAX_TERMS of them; 0 otherwise."""
    if p == INF or p % 2.0:
        return 0
    k = int(p) // 2
    return k if k == 1 or k * n_terms <= PARSEVAL_MAX_TERMS else 0


def _power_coeffs(coeffs: np.ndarray, k: int, log_rho: float):
    """(b, log_scale, log_err): f(rho*z)**k has the Taylor coefficients
    b*exp(log_scale), and exp(log_err) bounds the underflow error of each b_n.

    The coefficients c_n rho**n are divided by the largest of them, and the
    running power by its largest coefficient after each of the k - 1
    convolutions, so every entry is at most 1 in modulus.  Underflow then
    loses at most _TINY per scaled coefficient, per product and per division;
    an error e in the running power becomes at most e*sum|c_n| in the next one.
    """
    la = _log_pos(np.abs(coeffs)) + np.arange(len(coeffs)) * log_rho
    log_scale = la.max()
    c = np.exp(la - log_scale) * unit_phases(coeffs)
    s = float(np.sum(np.abs(c)))
    b, err = c, _TINY
    log_scale *= k
    for _ in range(k - 1):
        b = np.convolve(b, c)
        top = float(np.abs(b).max())
        if not top > 0.0:
            return b, log_scale, INF
        err = (err * s + (len(b) + len(c)) * _TINY) / top + _TINY
        b /= top
        log_scale += math.log(top)
    return b, log_scale, math.log(err)


def _log_mean_2(coeffs: np.ndarray, radii: np.ndarray, k: int = 1) -> np.ndarray:
    """log M_2(f**k, r)/k = log M_2k(f, r) by Parseval: the log of
    sum |b_n|**2 r**(2n) over 2k, b_n the Taylor coefficients of f**k.

    For k > 1, f**k is formed once per round at the largest radius rho not yet
    done (_power_coeffs), for at most _PARSEVAL_BLOCK // len(b) rows, the
    largest radii first.  Then |b_n| <= 1 and r <= rho, so each row's sum
    of |b_n|**2 (r/rho)**(2n) is taken without a shift.  A row keeps its
    mean once that is _PARSEVAL_MARGIN above what underflow can add to it,
    sqrt(len(b)) times the error of each b_n, and once its sum is above
    e**_LOG_SUM_MIN, so that the terms that matter are normal floats.  The
    other rows take the next round.  The row at rho is always kept:
    max |b_n| = 1 puts its mean at >= 1, so only an error bound grown by
    cancellation, which would spoil the FFT means as much, can fall short.
    """
    if k == 1:
        return 0.5 * logsumexp(2.0 * _log_terms(coeffs, radii), axis=1)
    if not coeffs.any():
        return np.full(len(radii), -np.inf)
    out = np.empty(len(radii))
    out[radii == 0.0] = _log_pos(np.abs(coeffs[:1]))[0]  # M_p(f, 0) = |f(0)|
    todo = np.flatnonzero(radii > 0.0)
    todo = todo[np.argsort(-radii[todo], kind="stable")]
    n = np.arange(k * (len(coeffs) - 1) + 1)
    while len(todo):
        rows = todo[:max(1, _PARSEVAL_BLOCK // len(n))]
        rho = radii[rows[0]]
        b, log_scale, log_err = _power_coeffs(coeffs, k, math.log(rho))
        log_x = np.maximum(_log_pos(radii[rows] / rho), -_LOG_DBL_MAX)  # r/rho may underflow
        # powers below e**(_LOG_SUM_MIN - 50) are raised to it: a kept row's sum moves by at
        # most len(b) e**-50 of itself, and exp never takes its slow subnormal path
        powers = np.maximum(np.multiply.outer(2.0 * log_x, n), _LOG_SUM_MIN - 50.0)
        m = 0.5 * _log_pos(np.exp(powers, out=powers) @ (np.abs(b) ** 2))
        floor = max(0.5 * _LOG_SUM_MIN, log_err + 0.5 * math.log(len(b)) + _PARSEVAL_MARGIN)
        kept = (m >= floor) | (radii[rows] == rho)
        out[rows[kept]] = (m[kept] + log_scale) / k
        todo = np.concatenate([rows[~kept], todo[len(rows):]])
    return out


def _log_mean_inf(coeffs: np.ndarray, radii: np.ndarray,
                  log_w: np.ndarray | None = None, q: float = INF) -> np.ndarray:
    """log M_inf(f, r): FFT grid maximum, then Newton polish of the angle.

    The grid has K = _fft_len(max(64, 8*(deg+1))) angles, a 5-smooth count;
    deg is the degree left once _log_circle_means has factored z**m out of
    f.  It is transformed _INF_BLOCK rows at a time.  np.fft.fft samples
    g(theta) = sum s_n e^{i n theta} at theta = -k*h, so each row starts at
    the angle of its largest grid value.  With K >= 8(deg+1) that grid
    maximum is within _GRID_MAX_LOG_ERR of the true one in the log
    (Bernstein's inequality on |g|**2), so only rows with
    _GRID_MAX_LOG_ERR * relevance > 10*ABS_TOL are polished; relevance comes
    from _relevance(grid maximum, log_w, q) and is 1 without weights.  Newton
    steps on |g|^2 use g, g' and g'' (coefficients s_n, i n s_n, -n^2 s_n)
    from one phase matrix per step and stay inside the +-h bracket around
    the start.  The result is the largest |g| evaluated, grid values
    included, so never below the grid maximum.
    """
    deg = len(coeffs) - 1
    scaled, L = _scaled_rows(coeffs, radii)
    K = _fft_len(max(64, 8 * (deg + 1)))
    best = np.empty(len(radii), dtype=int)
    peak = np.empty(len(radii))
    for i in range(0, len(radii), _INF_BLOCK):
        vals = np.abs(np.fft.fft(scaled[i:i + _INF_BLOCK], n=K, axis=1))
        best[i:i + _INF_BLOCK] = np.argmax(vals, axis=1)
        peak[i:i + _INF_BLOCK] = vals[np.arange(len(vals)), best[i:i + _INF_BLOCK]]
    polish = _GRID_MAX_LOG_ERR * _relevance(_log_pos(peak) + L, log_w, q) > ABS_TOL * 10
    h = 2.0 * math.pi / K
    start = -best[polish] * h
    rows, top = scaled[polish], peak[polish]
    n = np.arange(len(coeffs), dtype=float)
    derivs = np.stack([np.ones_like(n), 1j * n, -n * n], axis=1)
    theta = start
    for _ in range(_ANGLE_EVALS):
        g, g1, g2 = ((rows * np.exp(1j * np.outer(theta, n))) @ derivs).T
        top = np.maximum(top, np.abs(g))
        slope = np.real(np.conj(g) * g1)
        curv = np.abs(g1) ** 2 + np.real(np.conj(g) * g2)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(curv < 0, -slope / curv, np.sign(slope) * h)
        theta = np.clip(theta + step, start - h, start + h)
    peak[polish] = top
    return _log_pos(peak) + L


def _log_circle_means(coeffs: np.ndarray, p: float, radii: np.ndarray,
                      log_w: np.ndarray | None = None, q: float = INF) -> np.ndarray:
    """log M_p(f, r) per radius, with z**m factored out of f = z**m h.

    m*log r + log M_p(h, r): rows at r = 0 are -inf when m > 0.  log_w and q,
    when given, are the radial rule's per-row log-weights and exponent (q =
    inf for a sup); see _relevance.  They move by q*m*log r (m*log r for the
    sup), so that they weigh the means of h.  An even p = 2k takes the
    Parseval means of h**k (_log_mean_2) while _even_k allows.
    """
    radii = np.asarray(radii, dtype=float)
    nonzero = np.flatnonzero(coeffs)
    m = int(nonzero[0]) if len(nonzero) else 0
    h = coeffs[m:]
    if m and log_w is not None:
        log_w = log_w + (m if q == INF else q * m) * _log_pos(radii)
    k = _even_k(p, len(h))
    if k:
        out = _log_mean_2(h, radii, k)
    elif p == INF:
        out = _log_mean_inf(h, radii, log_w, q)
    else:
        out = _log_mean_p(h, p, radii, log_w, q)
    if m:
        with np.errstate(divide="ignore"):
            out = out + m * np.log(radii)
    return out


def _log_radial_sup(coeffs: np.ndarray, p: float, alpha: float) -> float:
    """log sup_r M_p(f,r) * exp(-alpha r^2 / 2): radial grid, then bracket rounds.

    The SUP_GRID radii on [0, R] are one batched circle-mean call.  Each of
    _SUP_ROUNDS further calls puts 17 radii on the bracket [r_{k-1}, r_{k+1}]
    around the best radius so far, shrinking it 8-fold.  The result is the
    largest weighted mean evaluated.  Each call passes the log-weights
    -alpha r^2/2 with q = inf: only rows within _SUP_NATS of the call's best
    weighted first estimate are refined to 10*ABS_TOL (polished, at p = inf),
    and the others, which cannot hold the maximum, keep an estimate good to
    well under a nat.
    """
    deg = len(coeffs) - 1
    radii = np.linspace(0.0, radial_cutoff(deg, 1.0, alpha), SUP_GRID)
    best = -np.inf
    for _ in range(_SUP_ROUNDS + 1):
        log_w = -alpha * radii**2 / 2.0
        g = _log_circle_means(coeffs, p, radii, log_w, INF) + log_w
        k = int(np.argmax(g))
        best = max(best, float(g[k]))
        lo, hi = radii[max(k - 1, 0)], radii[min(k + 1, len(radii) - 1)]
        radii = np.linspace(lo, hi, 17)
    return best


def _log_radial_integral(coeffs: np.ndarray, p: float, q: float, alpha: float) -> float:
    """log of alpha*q * int_0^R M_p(f,r)**q e^{-alpha q r^2/2} r dr.

    The rule is composite Gauss-Legendre (GL_ORDER nodes per panel) on [0, R],
    R = sqrt(2*(degree+40)/(alpha*min(p,q,1))).  The circle means get the
    rule's log-weights log r + log w_i - alpha*q*r^2/2 with q, so a row
    refines only while it can still move the result: the error the means add
    to the log of the integral's q-th root is at most 2*10*ABS_TOL, plus
    what the FFT's rounding floor leaves (see _log_mean_p).

    The panel width shrinks like 1/sqrt(q), so a huge q would build a rule
    without bound: one whose nodes times the first-level angles of the means
    of h (f = z**m h) pass MAX_RULE_CELLS raises DomainError before it is built.
    """
    deg = len(coeffs) - 1
    R = radial_cutoff(deg, min(p, q), alpha)
    width = min(0.5 / math.sqrt(alpha * q), R / 16.0)
    nodes = GL_ORDER * (R / width + 4.0) if width > 0.0 else INF  # width 0: alpha*q overflowed
    nonzero = np.flatnonzero(coeffs)
    angles = _fft_len(max(MIN_ANGLE_NODES, 4 * (len(coeffs) - int(nonzero[0] if len(nonzero) else 0))))
    if not nodes * angles <= MAX_RULE_CELLS:
        raise DomainError(f"the radial rule needs {nodes:.3g} nodes of {angles} angles, "
                          f"more than {MAX_RULE_CELLS} values")
    nodes, weights = _gl_panels(R, width)
    log_w = np.log(nodes) + np.log(weights) - alpha * q * nodes**2 / 2.0
    log_m = _log_circle_means(coeffs, p, nodes, log_w, q)
    with np.errstate(divide="ignore"):
        log_integrand = q * log_m + np.log(nodes) - alpha * q * nodes**2 / 2.0
    finite = np.isfinite(log_integrand)
    if not finite.any():
        return -np.inf
    return float(
        logsumexp(log_integrand[finite], b=weights[finite]) + math.log(alpha * q)
    )


def _exp(log_value: float, what: str) -> float:
    """exp(log_value), the one exit from logs: DomainError (CLI exit 2), not an
    overflow warning, past double range or at NaN.  np.exp keeps the routes' bits."""
    if not log_value <= _LOG_DBL_MAX:
        raise DomainError(f"{what} is not in double range: its log is {float(log_value):.13g}")
    return float(np.exp(log_value))


def _check_floor(*exponents: float) -> None:
    """DomainError below MIN_EXPONENT, where a q-th root cancels to about eps/q."""
    if min(exponents) < MIN_EXPONENT:
        raise DomainError(f"exponent {min(exponents):.3g} is below {MIN_EXPONENT:g}, "
                          f"where its root loses about eps/{min(exponents):.3g} in the log")


def _log_even_norm(coeffs: np.ndarray, k: int, alpha: float) -> float:
    """log ||f||_{2k,alpha} = log(sum |b_n|**2 n!/(alpha*k)**n)/(2k), b_n the
    Taylor coefficients of f**k: Parseval on each circle, then the radial
    integral term by term.  At k = 1 it is the series sum |a_n|**2 n!/alpha**n.

    f**k, of degree N, is formed at the scale rho with alpha*k*rho**2 =
    N!**(1/N) (_power_coeffs).  An error e in each b_n rho**n moves the root
    of the sum by at most e*sqrt(sum_n w_n), w_n = n!/(alpha*k*rho**2)**n,
    and this rho makes w_0 = w_N = max w_n, so a sum led by its top terms is
    certain at any N.  NaN when the sum is not _PARSEVAL_MARGIN above that
    bound.
    """
    log_alpha_k = math.log(alpha) + math.log(k)
    if k == 1 or not coeffs.any():
        return _log_coeff_lp(_log_pos(np.abs(coeffs)), 2.0, log_alpha_k)
    n = np.arange(k * (len(coeffs) - 1) + 1, dtype=float)
    log_fact = log_factorials(len(n) - 1)
    log_x = log_fact[-1] / n[-1] if len(n) > 1 else 0.0
    log_rho = 0.5 * (log_x - log_alpha_k)
    b, log_scale, log_err = _power_coeffs(coeffs, k, log_rho)
    out = _log_coeff_lp(_log_pos(np.abs(b)) + (log_scale - n * log_rho), 2.0, log_alpha_k)
    slack = 0.5 * logsumexp(log_fact - n * log_x)
    if not out >= log_err + log_scale + slack + _PARSEVAL_MARGIN:
        return math.nan
    return out / k


def _log_norm(coeffs: np.ndarray, p: float, q: float, alpha: float) -> float:
    """log ||f||_{p,q,alpha}, the one place a route is chosen: q = inf is the sup
    search; p = q = 2k the exact Parseval sum of f**k (_log_even_norm) while
    _even_k allows; everything else, and a sum that underflow leaves uncertain,
    the q-th root of the radial integral."""
    _check_floor(p, q)
    if q == INF:
        return _log_radial_sup(coeffs, p, alpha)
    k = _even_k(p, len(coeffs))
    if p == q and k:
        out = _log_even_norm(coeffs, k, alpha)
        if not math.isnan(out):
            return out
    return _log_radial_integral(coeffs, p, q, alpha) / q


def fock_norm(f: CoeffFunction, p: float, alpha: float) -> float:
    """||f||_{p,alpha}, the mixed norm at q = p; _log_norm names the routes."""
    return mixed_norm(f, FockParams(p, p, alpha))


def mixed_norm(f: CoeffFunction, params: FockParams) -> float:
    """||f||_{p,q,alpha}, with q = inf the weighted sup; _log_norm names the routes."""
    return _exp(_log_norm(f.coeffs, params.p, params.q, params.alpha), "norm")


def log_monomial_norm(n: int, p: float, alpha: float) -> float:
    """log ||u_n||_{p,alpha} from the closed forms (exact, overflow-free)."""
    p = _check_exponent(p)
    if n < 0:
        raise ValueError("monomial degree must be >= 0")
    alpha = _check_alpha(alpha)
    if p == INF:
        if n == 0:
            return 0.0
        return 0.5 * n * (math.log(n) - math.log(alpha) - 1.0)
    half_np = 0.5 * n * p
    return (half_np * math.log(2.0 / (alpha * p)) + math.lgamma(half_np + 1.0)) / p


def monomial_norm_closed(n: int, p: float, alpha: float) -> float:
    """||u_n||_{p,alpha} in closed form; p = inf uses (n/(alpha*e))**(n/2)."""
    return _exp(log_monomial_norm(n, p, alpha), "norm")


def kernel_norm_closed(beta: float, a: complex, p: float, alpha: float) -> float:
    """||exp(beta * . * conj(a))||_{p,alpha} = exp(beta^2 |a|^2 / (2 alpha)), any p."""
    _check_exponent(p)
    _check_alpha(alpha)
    if beta <= 0:
        raise ValueError("beta must be positive")
    return _exp(beta**2 * abs(complex(a)) ** 2 / (2.0 * alpha), "norm")


def _log_coeff_lp(la: np.ndarray, p: float, log_alpha: float, gamma: float = 0.0) -> float:
    """log of the l_p norm of the sequence a_n * sqrt(n!/alpha^n) * (n+1)**gamma,
    from la_n = log|a_n|."""
    n = np.arange(len(la), dtype=float)
    logw = (la + 0.5 * (log_factorials(len(la) - 1) - n * log_alpha)
            + gamma * np.log(n + 1.0))
    finite = np.isfinite(logw)
    if not finite.any():
        return -INF
    if p == INF:
        return logw[finite].max()
    return logsumexp(p * logw[finite]) / p


def coeff_weighted_lp(f: CoeffFunction, p: float, alpha: float,
                      gamma: float = 0.0) -> float:
    """l_p norm of the sequence a_n * sqrt(n!/alpha^n) * (n+1)**gamma."""
    p, alpha = _check_exponent(p), _check_alpha(alpha)
    log_norm = _log_coeff_lp(_log_pos(np.abs(f.coeffs)), p, math.log(alpha), gamma)
    return _exp(log_norm, "weighted l_p norm")
