import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, hyp2f1

from fockhaus import entire, focknorm, harness
from fockhaus.focknorm import (
    INF,
    FockParams,
    circle_mean,
    coeff_weighted_lp,
    fock_norm,
    kernel_norm_closed,
    log_monomial_norm,
    mixed_norm,
    monomial_norm_closed,
)
from fockhaus.measure import DomainError


def rand_poly(rng, degree):
    c = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
    return entire.CoeffFunction(c)


class TestCircleMean:
    def test_monomial_mean_is_power(self):
        for p in (0.5, 1.0, 2.0, 3.0, INF):
            for r in (0.0, 0.3, 2.0):
                got = circle_mean(entire.monomial(4), p, r)
                assert got == pytest.approx(r**4, abs=1e-14)

    def test_parseval_case(self):
        f = entire.CoeffFunction([1.0, 1.0])
        assert circle_mean(f, 2.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_one_plus_z_at_p1(self):
        # closed form: (1/2pi) int |1+e^{i t}| dt = 4/pi
        f = entire.CoeffFunction([1.0, 1.0])
        assert circle_mean(f, 1.0, 1.0) == pytest.approx(4.0 / math.pi, rel=1e-10)

    def test_fractional_p_against_adaptive_reference(self):
        f = entire.CoeffFunction([1.0, 1.0])
        for p in (0.5, 1.5):
            ref = (
                quad(lambda th: (2 * abs(math.cos(th / 2))) ** p, 0, math.pi, limit=200)[0]
                / math.pi
            ) ** (1 / p)
            assert circle_mean(f, p, 1.0) == pytest.approx(ref, rel=1e-9)

    def test_quadrature_mean_matches_parseval_to_high_degree(self):
        rng = np.random.default_rng(7)
        for degree in (10, 50, 100):
            f = rand_poly(rng, degree)
            for r in (0.5, 1.0, 3.0):
                exact = focknorm._log_mean_2(f.coeffs, np.array([r]))[0]
                generic = focknorm._log_mean_p(f.coeffs, 2.0, np.array([r]))[0]
                assert abs(generic - exact) <= 1e-12

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(5)
        f = rand_poly(rng, 12)
        radii = np.linspace(0.0, 3.0, 40)
        for p in (0.5, 1.0, 2.0, INF):
            vals = focknorm._log_circle_means(f.coeffs, p, radii)
            assert (np.diff(vals) >= -1e-10).all()


class TestFockNorm:
    def test_constant_has_unit_norm(self):
        for p in (0.5, 1.0, 2.0, 4.0, INF):
            for alpha in (0.5, 1.0, 2.0):
                assert fock_norm(entire.monomial(0), p, alpha) == pytest.approx(
                    1.0, rel=1e-12
                )
                assert monomial_norm_closed(0, p, alpha) == 1.0

    def test_u2_closed_form(self):
        assert monomial_norm_closed(2, 2.0, 1.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-14
        )
        assert fock_norm(entire.monomial(2), 2.0, 1.0, method="quadrature") == (
            pytest.approx(math.sqrt(2.0), rel=1e-10)
        )

    def test_sup_norm_of_u2(self):
        assert monomial_norm_closed(2, INF, 1.0) == pytest.approx(2.0 / math.e, rel=1e-14)
        assert fock_norm(entire.monomial(2), INF, 1.0) == pytest.approx(
            2.0 / math.e, rel=1e-11
        )

    def test_kernel_norm_example(self):
        k = entire.kernel(1.0, 1.0, radius=12.0)
        assert fock_norm(k, 4.0, 1.0) == pytest.approx(math.exp(0.5), rel=1e-10)

    def test_quadrature_matches_closed_form_on_monomials(self):
        for n in (0, 1, 7, 23):
            for p in (0.5, 1.0, 4.0):
                for alpha in (0.5, 2.0):
                    got = fock_norm(entire.monomial(n), p, alpha, method="quadrature")
                    assert got == pytest.approx(
                        monomial_norm_closed(n, p, alpha), rel=1e-10
                    )

    def test_exact_two_norm_series(self):
        f = entire.CoeffFunction([1.0, 2.0j, 0.0, -0.5])
        expected = math.sqrt(1.0 + 4.0 * 1.0 + 0.25 * 6.0)
        assert fock_norm(f, 2.0, 1.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0, INF])
    def test_subnormal_coefficient_leaves_the_norm_at_one(self, p):
        # the phase of 1e-320 once overflowed to NaN and dropped every radius: norm 0
        f = entire.CoeffFunction([1.0, 0.0, 1e-320])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fock_norm(f, p, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_kernel_with_subnormal_tail_coefficients(self):
        k = entire.CoeffFunction(entire._exp_coeffs(10.0, 0.0, 300))  # kernel(2, 5) to degree 300
        assert np.abs(k.coeffs[-1]) < np.finfo(float).tiny
        assert fock_norm(k, 1.0, 1.0) == pytest.approx(math.exp(50.0), rel=1e-10)


class TestMixedNorm:
    def test_equal_exponents_match_fock_norm(self):
        rng = np.random.default_rng(2)
        f = rand_poly(rng, 9)
        for p in (0.5, 1.0, 2.0, 4.0):
            quad_val = mixed_norm(f, FockParams(p, p, 1.0), method="quadrature")
            ref = fock_norm(f, p, 1.0)
            assert quad_val == pytest.approx(ref, rel=1e-10)

    def test_monomial_mixed_norm_only_sees_q(self):
        for n in (0, 2, 6):
            for p in (0.5, 1.0, 4.0, INF):
                for q in (1.0, 2.0, INF):
                    got = mixed_norm(entire.monomial(n), FockParams(p, q, 1.0))
                    assert got == pytest.approx(
                        monomial_norm_closed(n, q, 1.0), rel=1e-10
                    )

    def test_u1_weighted_sup(self):
        got = mixed_norm(entire.monomial(1), FockParams(1.0, INF, 1.0))
        assert got == pytest.approx(math.exp(-0.5), rel=1e-11)


def grid_max(coeffs, r, nodes=2**20):
    """max |f| on |z| = r over an FFT grid, refined by 2049 points in its best cell."""
    s = np.asarray(coeffs) * r ** np.arange(len(coeffs))
    vals = np.abs(np.fft.fft(s, n=nodes))
    k = int(np.argmax(vals))
    h = 2.0 * math.pi / nodes
    theta = -k * h + np.linspace(-h, h, 2049)  # the FFT samples angle -k*h
    cell = np.abs(np.exp(1j * np.outer(theta, np.arange(len(s)))) @ s)
    return max(vals[k], cell.max()), vals[k]


class TestSupMaximiser:
    @pytest.mark.parametrize("size", [2.0, 5.0, 7.0])
    @pytest.mark.parametrize("phase", [0.4, 1.3, 2.2, 3.9, 5.5])
    def test_complex_kernel_matches_closed_form(self, size, phase):
        for beta in (1.0, 2.0):
            a = size / beta * complex(math.cos(phase), math.sin(phase))
            got = fock_norm(entire.kernel(beta, a), INF, 1.0)
            assert got == pytest.approx(kernel_norm_closed(beta, a, INF, 1.0), rel=1e-12)

    def test_circle_max_matches_fine_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            f = rand_poly(rng, int(rng.integers(1, 21)))
            for r in (0.4, 1.0, 1.7, 3.0):
                ref, coarse = grid_max(f.coeffs, r)
                got = circle_mean(f, INF, r)
                assert got == pytest.approx(ref, rel=1e-10)
                assert got >= coarse * (1.0 - 1e-14)

    def test_monomial_weighted_sup_matches_closed_form(self):
        for n in (0, 1, 2, 7, 40, 99, 150, 200):
            for p in (0.5, 2.0, INF):
                got = mixed_norm(entire.monomial(n), FockParams(p, INF, 1.0))
                assert math.log(got) == pytest.approx(
                    log_monomial_norm(n, INF, 1.0), rel=1e-12, abs=1e-12
                )

    def test_radial_sup_batches_circle_means(self, monkeypatch):
        calls = []
        inner = focknorm._log_circle_means

        def counted(*args):
            calls.append(len(args[2]))
            return inner(*args)

        monkeypatch.setattr(focknorm, "_log_circle_means", counted)
        f = entire.kernel(1.0, 3.0 + 4.0j)
        for p in (0.5, 2.0, INF):
            calls.clear()
            focknorm._log_radial_sup(f.coeffs, p, 1.0)
            assert 1 < len(calls) <= 8
            assert calls[0] == focknorm.SUP_GRID

    def test_circle_mean_routes_are_warning_free(self):
        funcs = [
            entire.CoeffFunction([0.0]),
            entire.monomial(0),
            entire.monomial(3),
            entire.CoeffFunction([0.0, 1j, -2.0]),
            entire.CoeffFunction([1.0, 0.0, 0.5 - 0.5j]),
        ]
        radii = np.array([0.0, 0.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in funcs:
                for p in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, INF):
                    focknorm._log_circle_means(f.coeffs, p, radii)
                    for r in radii:
                        circle_mean(f, p, r)
                    mixed_norm(f, FockParams(p, INF, 1.0))


def full_recompute_log_mean_p(coeffs, p, radii, log_w=None, q=INF):
    """The finite-p mean that transforms all 2K angles at every doubling.

    It stops rows by the rules of focknorm._log_mean_p (relevance from the
    first level, the rounding floor from the nodes new at each level), so that
    it differs only in not reusing the previous level.  Returns the log means
    and the mask of rows that reached the cap.
    """
    deg = len(coeffs) - 1
    scaled, L = focknorm._scaled_rows(coeffs, radii)
    K = focknorm._fft_len(max(focknorm.MIN_ANGLE_NODES, 4 * (deg + 1)))
    noise = focknorm._NOISE * np.abs(scaled).sum(axis=1)

    def moduli(block, k):
        return np.abs(np.fft.fft(block, n=k, axis=1))

    def log_means(vals):
        return focknorm._log_pos(np.mean(vals ** p, axis=1)) / p

    out = log_means(moduli(scaled, K)) + L
    relevance = focknorm._relevance(out, log_w, q)
    floor = np.zeros_like(out)
    active = np.ones(len(radii), dtype=bool)
    hist = [np.full_like(out, np.nan), np.full_like(out, np.nan), out.copy()]
    while active.any() and K < focknorm.MAX_ANGLE_NODES:
        K *= 2
        vals = moduli(scaled[active], K)
        cur = log_means(vals) + L[active]
        new = vals[:, 1::2]  # the nodes this level adds
        share = np.count_nonzero(new <= noise[active, None], axis=1) / new.shape[1]
        with np.errstate(invalid="ignore", divide="ignore"):
            floor[active] = share * noise[active] ** p / np.mean(vals ** p, axis=1) / p
        hist = [h.copy() for h in hist[1:]] + [hist[-1].copy()]
        hist[-1][active] = cur
        out[active] = cur
        with np.errstate(invalid="ignore"):
            diff = np.abs(hist[-1] - hist[-2])
        diff[~np.isfinite(diff)] = 0.0
        active &= (diff * relevance > focknorm.ABS_TOL * 10) & (diff > 2.0 * floor)
    if active.any():
        m1, m2, m3 = (h[active] for h in hist)
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = m3 - 2.0 * m2 + m1
            corr = np.where(np.abs(denom) > 1e-300, (m3 - m2) ** 2 / denom, 0.0)
        corr[~np.isfinite(corr)] = 0.0
        out[active] = m3 - corr
    return out, active


@pytest.fixture
def fft_work(monkeypatch):
    """Records (rows, length) of every np.fft.fft call."""
    calls = []
    fft = np.fft.fft

    def counted(a, n=None, axis=-1):
        calls.append((a.shape[0], n))
        return fft(a, n=n, axis=axis)

    monkeypatch.setattr(np.fft, "fft", counted)
    return calls


class TestNestedRefinement:
    @pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
    def test_matches_full_recompute(self, p):
        rng = np.random.default_rng(23)
        capped = 0
        for degree in (1, 5, 17, 40):
            f = rand_poly(rng, degree)
            radii = np.linspace(0.0, 4.0, 81)
            got = focknorm._log_mean_p(f.coeffs, p, radii)
            want, at_cap = full_recompute_log_mean_p(f.coeffs, p, radii)
            np.testing.assert_allclose(got[~at_cap], want[~at_cap], rtol=0, atol=1e-13)
            np.testing.assert_allclose(got[at_cap], want[at_cap], rtol=0, atol=1e-6)
            capped += at_cap.sum()
        if p < 1:
            assert capped > 0  # the Aitken rows are exercised too

    @pytest.mark.parametrize("p", [4, 6, 8])
    def test_even_p_takes_no_fft(self, p, fft_work):
        rng = np.random.default_rng(29)
        for degree in (3, 12, 30):
            f = rand_poly(rng, degree)
            power = np.array([1.0 + 0j])
            for _ in range(p // 2):
                power = np.convolve(power, f.coeffs)
            radii = np.array([0.0, 0.3, 1.0, 1.8, 2.5])
            # M_p(f, r)**p = M_2(f**(p/2), r)**2 = sum |b_n|**2 r**(2n)
            parseval = np.array(
                [np.sum(np.abs(power) ** 2 * r ** (2.0 * np.arange(len(power)))) for r in radii]
            )
            fft_work.clear()
            got = focknorm._log_circle_means(f.coeffs, float(p), radii)
            assert not fft_work
            np.testing.assert_allclose(got, np.log(parseval) / p, rtol=0, atol=1e-13)
            fft_mean = focknorm._log_mean_p(f.coeffs, float(p), radii)
            np.testing.assert_allclose(fft_mean, got, rtol=0, atol=1e-13)

    def test_midpoints_halve_the_transform_work(self, fft_work):
        f = entire.kernel(2.0, 5.0)
        got = fock_norm(f, 0.5, 1.0)
        nested = sum(rows * n for rows, n in fft_work)
        fft_work.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                focknorm, "_log_mean_p", lambda *args: full_recompute_log_mean_p(*args)[0]
            )
            want = fock_norm(f, 0.5, 1.0)
        full = sum(rows * n for rows, n in fft_work)
        assert nested <= 0.6 * full
        assert got == pytest.approx(want, rel=1e-6)


def is_5_smooth(n):
    for prime in (2, 3, 5):
        while n % prime == 0:
            n //= prime
    return n == 1


# the (p, q) of the norms-highdeg benchmark: fock_norm at p, mixed_norm at q in {1, inf}
HIGHDEG_PAIRS = list(dict.fromkeys((p, q) for p in (0.5, 1.0, 4.0, INF) for q in (p, 1.0, INF)))


def highdeg_norm(f, p, q):
    if p == q:
        return fock_norm(f, p, 1.0)
    return mixed_norm(f, FockParams(p, q, 1.0))


class TestFFTLengths:
    def test_fft_len_is_the_least_5_smooth_length(self):
        for n in range(5001):
            want = max(n, 1)
            while not is_5_smooth(want):
                want += 1
            assert focknorm._fft_len(n) == want

    def test_highdeg_norms_transform_at_5_smooth_lengths(self, fft_work):
        rng = np.random.default_rng(31)
        for degree in (128, 163, 190, 213):
            f = rand_poly(rng, degree)
            for p, q in HIGHDEG_PAIRS:
                highdeg_norm(f, p, q)
        lengths = {n for _, n in fft_work}
        assert len(lengths) > 4
        assert all(is_5_smooth(n) for n in lengths), sorted(lengths)


class TestMonomialFactor:
    @pytest.mark.parametrize("p", [0.5, 1.0, 3.0, 4.0, INF])
    def test_z_power_factors_out_of_the_mean(self, p):
        rng = np.random.default_rng(37)
        h = rand_poly(rng, 15).coeffs
        radii = np.linspace(0.1, 3.0, 30)
        for m in (1, 4, 30):
            zh = np.concatenate([np.zeros(m), h])
            got = focknorm._log_circle_means(zh, p, radii)
            want = m * np.log(radii) + focknorm._log_circle_means(h, p, radii)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, 4.0, INF])
    def test_the_origin_row_is_minus_inf(self, p):
        zh = np.array([0.0, 0.0, 1.0 + 1j, -0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = focknorm._log_circle_means(zh, p, np.array([0.0, 1.0]))
        assert got[0] == -np.inf and np.isfinite(got[1])

    @pytest.mark.parametrize("n", [120, 190])
    def test_scaled_monomial_norms_take_one_short_level(self, n, fft_work):
        lead = 1.3 * np.exp(0.7j)
        f = entire.CoeffFunction([0.0] * n + [lead])
        for p, q in HIGHDEG_PAIRS:
            got = math.log(highdeg_norm(f, p, q))
            want = math.log(abs(lead)) + log_monomial_norm(n, q, 1.0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (p, q)
        assert fft_work and max(n for _, n in fft_work) <= focknorm.MIN_ANGLE_NODES


def z_power_minus_c_norm(m, c, p, alpha=1.0):
    """||z**m - c||_{p,alpha} by quad over r of the closed-form circle mean.

    On |z| = r, with A <= B the two of r**m and |c|,
    M_p(f, r)**p = B**p 2F1(-p/2, -p/2; 1; (A/B)**2).  The integrand has a
    kink at r = |c|**(1/m), where A = B, and its peak near sqrt(m/alpha).
    """
    c = abs(c)

    def integrand(r):
        a, b = sorted((r**m, c))
        return (b**p * hyp2f1(-p / 2, -p / 2, 1.0, (a / b) ** 2)
                * math.exp(-alpha * p * r * r / 2) * r)

    knee = c ** (1.0 / m)
    top = math.sqrt(m / alpha) + 14 / math.sqrt(alpha * p) + 10
    total = sum(quad(integrand, lo, hi, limit=200, epsabs=0, epsrel=1e-13)[0]
                for lo, hi in ((0.0, knee), (knee, top)))
    return (alpha * p * total) ** (1 / p)


class TestZPowerMinusConstant:
    """z**m - c has m zeros on the circle |z| = |c|**(1/m): the mean's slowest case.

    The bounds pin the worst errors over the grid (9.6e-6, 2.6e-7, 8.2e-12
    and 2.2e-15 at p = 0.5, 1, 3, 4), so that a rule which refines fewer
    circle means cannot lose accuracy near the zeros unseen.
    """

    @pytest.mark.parametrize("p, bound", [(0.5, 1.2e-5), (1.0, 3.3e-7), (3.0, 1.0e-11),
                                          (4.0, 1e-14)])
    def test_norms_match_the_hypergeometric_mean(self, p, bound):
        worst = 0.0
        for m in (1, 2, 3, 5, 8, 13, 20, 40):
            for c in (0.3, 1.0, 2.0, -30.0, 5j):
                f = entire.CoeffFunction([-c] + [0.0] * (m - 1) + [1.0])
                got = fock_norm(f, p, 1.0)
                worst = max(worst, abs(got / z_power_minus_c_norm(m, c, p) - 1.0))
        assert worst <= bound


class TestWeightedStops:
    """The stop rules that use the radial rule's weights and the rounding floor."""

    def test_rows_without_noise_nodes_keep_the_stability_rule(self, monkeypatch):
        # with _NOISE = 0 no node counts as noise and the floor is 0: every row
        # doubles until it is stable to 10*ABS_TOL, as without the floor rule
        rng = np.random.default_rng(41)
        cases = [(rand_poly(rng, 30).coeffs, 0.5), (rand_poly(rng, 30).coeffs, 1.5),
                 (entire.kernel(2.0, 5.0, radius=12.0).coeffs, 0.5)]
        radii = np.linspace(0.0, 4.0, 41)
        noisy_rows = clean_rows = 0
        for coeffs, p in cases:
            got = focknorm._log_circle_means(coeffs, p, radii)
            with monkeypatch.context() as mp:
                mp.setattr(focknorm, "_NOISE", 0.0)
                plain = focknorm._log_circle_means(coeffs, p, radii)
            # every node of every level lies on the finest grid
            scaled, _ = focknorm._scaled_rows(coeffs, radii)
            k = focknorm._fft_len(max(focknorm.MIN_ANGLE_NODES, 4 * len(coeffs)))
            while k < focknorm.MAX_ANGLE_NODES:
                k *= 2
            vals = np.abs(np.fft.fft(scaled, n=k, axis=1))
            noise = focknorm._NOISE * np.abs(scaled).sum(axis=1)
            clean = (vals > 2.0 * noise[:, None]).all(axis=1)
            np.testing.assert_array_equal(got[clean], plain[clean])
            noisy_rows += (~clean).sum()
            clean_rows += clean.sum()
        assert noisy_rows > 0 and clean_rows > 60

    def test_anchor_kernel_at_p_half_transforms_less(self, fft_work):
        # before the weighted rule: 6 993 216 FFT points and this value
        got = fock_norm(entire.kernel(2.0, 5.0, radius=12.0), 0.5, 1.0)
        assert sum(rows * n for rows, n in fft_work) <= 0.45 * 6_993_216
        assert got == pytest.approx(5.1848327307567e21, rel=1e-8)

    def test_a_row_without_share_doubles_once(self, fft_work):
        # z - 1 at r = 1.001: a zero just inside the circle, so the mean converges
        # slowly; the same row twice, the second weighted e**-100 below the first
        coeffs = np.array([-1.0, 1.0], dtype=complex)
        radii = np.array([1.001, 1.001])
        focknorm._log_mean_p(coeffs, 0.5, radii)
        assert [rows for rows, _ in fft_work].count(2) > 3
        fft_work.clear()
        log_w = np.array([0.0, -100.0])
        assert focknorm._relevance(np.zeros(2), log_w, 0.5)[1] < 1e-30
        got = focknorm._log_mean_p(coeffs, 0.5, radii, log_w, 0.5)
        assert [rows for rows, _ in fft_work].count(2) == 2  # the first level, one doubling
        assert len(fft_work) > 3  # the first row goes on
        assert abs(got[1] - got[0]) < 1e-3

    @pytest.mark.parametrize("p, q", [(0.5, 0.5), (INF, 1.0), (1.0, INF), (INF, INF)])
    def test_weights_move_with_the_z_power(self, p, q, monkeypatch):
        # the means of h weigh r**(q*m) (r**m for the sup) more than those of z**m h
        seen = []

        def record(*args):  # (h, [p,] radii, log_w, q)
            seen.append(args[-2])
            return np.zeros(3)

        monkeypatch.setattr(focknorm, "_log_mean_p", record)
        monkeypatch.setattr(focknorm, "_log_mean_inf", record)
        radii = np.array([0.0, 0.5, 2.0])
        log_w = np.array([-1.0, 0.0, 1.0])
        zh = np.array([0.0, 0.0, 0.0, 1.0, 2.0j])
        focknorm._log_circle_means(zh, p, radii, log_w, q)
        with np.errstate(divide="ignore"):
            want = log_w + (3 if q == INF else 3 * q) * np.log(radii)
        np.testing.assert_array_equal(seen[0], want)

    def test_the_sup_polishes_only_rows_near_the_maximum(self, monkeypatch):
        rng = np.random.default_rng(43)
        coeffs = rand_poly(rng, 213).coeffs
        inner = focknorm._log_mean_inf
        polished = far = 0

        def checked(h, radii, log_w=None, q=INF):
            nonlocal polished, far
            out = inner(h, radii, log_w, q)
            scaled, L = focknorm._scaled_rows(h, radii)
            k = focknorm._fft_len(max(64, 8 * len(h)))
            grid = focknorm._log_pos(np.abs(np.fft.fft(scaled, n=k, axis=1)).max(axis=1)) + L
            near = grid + log_w >= (grid + log_w).max() - 1.0
            np.testing.assert_array_equal(out[~near], grid[~near])
            assert (out[near] > grid[near]).all()  # Newton moved off the grid angle
            polished += near.sum()
            far += (~near).sum()
            return out

        monkeypatch.setattr(focknorm, "_log_mean_inf", checked)
        got = focknorm._log_radial_sup(coeffs, INF, 1.0)
        assert polished > 0 and far > 0
        monkeypatch.setattr(focknorm, "_log_mean_inf", lambda h, radii, *_: inner(h, radii))
        assert focknorm._log_radial_sup(coeffs, INF, 1.0) == got


class TestEvenParseval:
    """p = 2k: the Parseval sum of f**k, with the radial rule as its oracle."""

    @pytest.mark.parametrize("p", [4.0, 6.0])
    def test_closed_form_matches_the_radial_rule(self, p):
        rng = np.random.default_rng(53)
        k = int(p) // 2
        worst = 0.0
        for f in harness.build_corpus(42):
            for flip in range(4):
                signs = rng.choice([-1.0, 1.0], len(f.coeffs)) if flip else 1.0
                coeffs = f.coeffs * signs
                exact = focknorm._log_norm(coeffs, p, p, 1.0, "auto")
                worst = max(worst, abs(exact - focknorm._log_norm(coeffs, p, p, 1.0, "quadrature")))
                # the same sum from f**k formed at a second scale, rho = 1
                b, log_scale, _ = focknorm._power_coeffs(coeffs, k, 0.0)
                n = np.arange(len(b))
                terms = 2.0 * (focknorm._log_abs(b) + log_scale) + gammaln(n + 1) - n * math.log(k)
                second = focknorm.logsumexp(terms[np.isfinite(terms)]) / p
                assert abs(second - exact) <= 1e-13
        assert worst <= 1e-13

    def test_even_norms_build_no_radial_rule(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a radial rule was built")

        monkeypatch.setattr(focknorm, "_gl_panels", refuse)
        k = entire.kernel(2.0, 5.0, radius=12.0)  # degree 213, norm e**50 at every p
        for p in (2.0, 4.0, 6.0, 8.0):
            assert math.log(fock_norm(k, p, 1.0)) == pytest.approx(50.0, rel=1e-14)
        for n, p in ((190, 4.0), (40, 6.0), (40, 8.0)):
            got = math.log(fock_norm(entire.monomial(n), p, 1.0))
            assert got == pytest.approx(log_monomial_norm(n, p, 1.0), rel=1e-15)
        # p = 2 convolves nothing, so no length cap applies: this rule would need 16 730
        # nodes.  The norm, e**89036, is past double range, so its log is compared
        got = focknorm._log_norm(entire.monomial(30000).coeffs, 2.0, 2.0, 1.0, "auto")
        assert got == pytest.approx(log_monomial_norm(30000, 2.0, 1.0), rel=1e-15)

    def test_rounds_reach_radii_far_below_the_largest(self, monkeypatch):
        rng = np.random.default_rng(59)
        coeffs = rand_poly(rng, 213).coeffs
        radii = np.concatenate([[0.0], np.geomspace(1e-3, 22.5, 80)])
        rounds = []
        inner = focknorm._power_coeffs
        monkeypatch.setattr(focknorm, "_power_coeffs", lambda *a: rounds.append(a[2]) or inner(*a))
        got = focknorm._log_circle_means(coeffs, 4.0, radii)
        assert len(rounds) > 1 and np.isfinite(got).all()
        want = focknorm._log_mean_p(coeffs, 4.0, radii)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-13)

    def test_an_uncertain_sum_takes_the_radial_rule(self, monkeypatch):
        rng = np.random.default_rng(61)
        coeffs = rand_poly(rng, 30).coeffs
        radii = np.linspace(0.1, 6.0, 25)
        want = focknorm._log_mean_2(coeffs, radii, 2)
        monkeypatch.setattr(focknorm, "_PARSEVAL_MARGIN", INF)
        # one round per row, each kept at its own scale
        np.testing.assert_allclose(focknorm._log_mean_2(coeffs, radii, 2), want, rtol=0, atol=1e-14)
        assert math.isnan(focknorm._log_even_norm(coeffs, 2, 1.0))
        assert (focknorm._log_norm(coeffs, 4.0, 4.0, 1.0, "auto")
                == focknorm._log_norm(coeffs, 4.0, 4.0, 1.0, "quadrature"))


class TestKernelNormClosed:
    def test_center_zero(self):
        assert kernel_norm_closed(1.0, 0.0, 2.0, 1.0) == 1.0

    def test_unit_case(self):
        assert kernel_norm_closed(1.0, 1.0, 7.0, 1.0) == pytest.approx(
            math.exp(0.5), rel=1e-14
        )

    def test_beta_two_against_quadrature(self):
        k = entire.kernel(2.0, 1.0, radius=16.0)
        got = fock_norm(k, 1.0, 1.0, method="quadrature")
        assert got == pytest.approx(math.exp(2.0), rel=1e-8)
        assert kernel_norm_closed(2.0, 1.0, 1.0, 1.0) == pytest.approx(
            math.exp(2.0), rel=1e-14
        )


class TestCoeffWeightedLp:
    def test_constant(self):
        for gamma in (-1.0, 0.0, 2.0):
            assert coeff_weighted_lp(entire.monomial(0), 2.0, 1.0, gamma) == 1.0

    def test_single_term(self):
        n, alpha, gamma = 6, 0.5, 0.75
        expected = math.exp(
            0.5 * (gammaln(n + 1) - n * math.log(alpha)) + gamma * math.log(n + 1)
        )
        for p in (0.5, 1.0, 3.0, INF):
            got = coeff_weighted_lp(entire.monomial(n), p, alpha, gamma)
            assert got == pytest.approx(expected, rel=1e-13)

    def test_pythagoras(self):
        f = entire.CoeffFunction([1.0, 1.0])
        assert coeff_weighted_lp(f, 2.0, 1.0, 0.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-14
        )


class TestInvariantBrackets:
    def test_embedding_chain_on_polynomials(self):
        rng = np.random.default_rng(4)
        grid = (0.5, 1.0, 2.0, 4.0, INF)
        for _ in range(6):
            f = rand_poly(rng, int(rng.integers(2, 12)))
            norms = {
                (p, q): mixed_norm(f, FockParams(p, q, 1.0)) for p in grid for q in grid
            }
            for q in grid:
                chain = [norms[(p, q)] for p in grid]
                assert all(
                    a <= b * (1 + 1e-9) for a, b in zip(chain, chain[1:])
                ), f"p-chain broken at q={q}"
            for p in grid:
                for q1 in (0.5, 1.0, 2.0, 4.0):
                    for q2 in (0.5, 1.0, 2.0, 4.0):
                        if q1 > q2:
                            continue
                        assert norms[(p, INF)] <= norms[(p, q2)] * (1 + 1e-9)
                        assert (
                            norms[(p, q2)]
                            <= (q2 / q1) ** (1.0 / q2) * norms[(p, q1)] * (1 + 1e-9)
                        )

    def test_compact_inclusion_ratio_is_geometric(self):
        # ||u_n||_{q,alpha} / ||u_n||_{q,beta} = (beta/alpha)^(n/2), exactly
        for q in (1.0, 2.0, INF):
            for beta, alpha in ((0.5, 1.0), (1.0, 2.0)):
                for n in (1, 5, 40, 200):
                    log_ratio = log_monomial_norm(n, q, alpha) - log_monomial_norm(
                        n, q, beta
                    )
                    assert log_ratio == pytest.approx(
                        0.5 * n * math.log(beta / alpha), rel=1e-12
                    )

    def test_monomial_asymptotics_bracket(self):
        # ratio ||u_n|| / (sqrt(n!/a^n) n^(1/(2p)-1/4)) within the first-build
        # regression bracket [0.62, 1.16] for n = 5..80
        for p in (0.5, 1.0, 2.0, 4.0, INF):
            ip = 0.0 if p == INF else 1.0 / p
            for alpha in (0.5, 1.0, 2.0):
                for n in range(5, 81):
                    log_ref = 0.5 * (gammaln(n + 1) - n * math.log(alpha)) + (
                        0.5 * ip - 0.25
                    ) * math.log(n)
                    ratio = math.exp(log_monomial_norm(n, p, alpha) - log_ref)
                    assert 0.62 <= ratio <= 1.16


class TestValidation:
    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            fock_norm(entire.monomial(0), 0.0, 1.0)
        with pytest.raises(ValueError):
            fock_norm(entire.monomial(0), -2.0, 1.0)
        with pytest.raises(ValueError):
            fock_norm(entire.monomial(0), 2.0, -1.0)
        with pytest.raises(ValueError):
            FockParams(1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            fock_norm(entire.monomial(0), 2.0, 1.0, method="montecarlo")
        with pytest.raises(ValueError):  # returned 1.414... at p != q
            mixed_norm(entire.monomial(1), FockParams(1.0, 2.0, 1.0), method="montecarlo")

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_bad_alpha(self, alpha):
        f = entire.monomial(3)
        for call in (lambda: fock_norm(f, 1.0, alpha), lambda: fock_norm(f, INF, alpha),
                     lambda: FockParams(1.0, 2.0, alpha),
                     lambda: coeff_weighted_lp(f, 2.0, alpha),
                     lambda: log_monomial_norm(3, 1.0, alpha)):
            with pytest.raises(ValueError, match="alpha"):
                call()

    @pytest.mark.parametrize("alpha", [1e-320, 5e-324])
    def test_cutoff_past_double_range_is_refused(self, alpha):
        # the cutoff overflowed to inf, and _gl_panels never reached it
        with pytest.raises(ValueError, match="cutoff"):
            focknorm.radial_cutoff(3, 0.5, alpha)
        with pytest.raises(ValueError, match="cutoff"):
            fock_norm(entire.monomial(3), 1.0, alpha)

    @pytest.mark.parametrize("p", [1e-2, 1e-3, 1e-4, focknorm.MIN_EXPONENT])
    def test_small_exponents_keep_the_closed_form(self, p):
        got = math.log(fock_norm(entire.monomial(3), p, 1.0))
        assert abs(got - log_monomial_norm(3, p, 1.0)) <= 2e-10

    @pytest.mark.parametrize("p", [1e-6, 1e-8, 1e-12, 1e-20, 1e-300])
    def test_exponents_below_the_floor_are_refused(self, p):
        # the q-th root cancelled: off by 2.3e-7 in the log at 1e-8, exactly 1 at 1e-20
        f = entire.monomial(3)
        for call in (lambda: fock_norm(f, p, 1.0), lambda: mixed_norm(f, FockParams(1.0, p, 1.0)),
                     lambda: mixed_norm(f, FockParams(p, INF, 1.0)), lambda: circle_mean(f, p, 1.0)):
            with pytest.raises(DomainError, match="below"):
                call()

    @pytest.mark.parametrize("p", [1e9, 1e300, 1e5 + 0.5])
    def test_a_radial_rule_past_the_node_cap_is_refused(self, p):
        # 1e9 asked numpy for 13.4 GiB, 1e300 ran for minutes; 1e5 + 0.5 needs 1.4e5
        # nodes of 64 angles, 9.0e6 values
        with pytest.raises(DomainError, match="nodes"):
            fock_norm(entire.monomial(3), p, 1.0)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_high_degree_monomials_keep_the_closed_form(self, p):
        # 1.7e4 and 1.9e4 nodes, but of 64 angles each once z**20000 is factored out.  The
        # norm is past double range, so its log is compared
        got = focknorm._log_norm(entire.monomial(20000).coeffs, p, p, 1.0, "auto")
        assert got == pytest.approx(log_monomial_norm(20000, p, 1.0), rel=1e-14)

    def test_huge_p_means_stay_below_the_maximum(self):
        # M_p(e**z, r) = e**r (I_0(p r) e**(-p r))**(1/p) <= e**r, so the (p, inf) norm
        # lies in [e**0.5 (2 pi p)**(-1/p), e**0.5]; Aitken on the log(2)/p steps between
        # angle levels took p = 1e9 to 1.00216 e**0.5
        k = entire.kernel(1.0, 1.0, radius=12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (1e3, 1e3 + 0.5, 1e9, 1e300):
                got = math.log(mixed_norm(k, FockParams(p, INF, 1.0)))
                assert 0.5 - math.log(2.0 * math.pi * p) / p - 1e-12 <= got <= 0.5 + 1e-12, p

    def test_zero_function_norms(self):
        z = entire.CoeffFunction([0.0])
        assert fock_norm(z, 2.0, 1.0) == 0.0
        assert fock_norm(z, 1.0, 1.0, method="quadrature") == 0.0
        assert fock_norm(z, INF, 1.0) == 0.0
        for p in (4.0, 6.0):  # the zero function's Parseval sum has no scale: its log is -inf
            assert fock_norm(z, p, 1.0) == fock_norm(z, p, 1.0, method="quadrature") == 0.0

    @pytest.mark.parametrize("call", [
        lambda: fock_norm(entire.monomial(3), 4.0, 1e-300),  # ||u_3|| is about e**1036
        lambda: mixed_norm(entire.monomial(3), FockParams(4.0, INF, 1e-300)),
        lambda: coeff_weighted_lp(entire.monomial(3), 2.0, 1e-320),
        lambda: circle_mean(entire.monomial(300), 2.0, 1e3),  # warned and returned inf
        lambda: monomial_norm_closed(10**6, 2.0, 1e-300),  # raised OverflowError
        lambda: kernel_norm_closed(30.0, 30.0, 2.0, 1e-3),  # raised OverflowError
    ], ids=["fock_norm", "mixed_norm", "coeff_weighted_lp", "circle_mean",
            "monomial_norm_closed", "kernel_norm_closed"])
    def test_norm_past_double_range_is_a_domain_error(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="double range"):
                call()

    def test_the_exit_from_logs_keeps_the_largest_double(self):
        assert focknorm._exp(focknorm._LOG_DBL_MAX, "x") == np.exp(focknorm._LOG_DBL_MAX)
        assert focknorm._exp(-INF, "x") == 0.0
        with pytest.raises(DomainError):
            focknorm._exp(math.nan, "x")
