import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from fockhaus import entire, focknorm
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
                generic = focknorm._log_mean_p(
                    f.coeffs, 2.0, np.array([r]), focknorm.DEFAULT_CFG
                )[0]
                assert abs(generic - exact) <= 1e-12

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(5)
        f = rand_poly(rng, 12)
        radii = np.linspace(0.0, 3.0, 40)
        for p in (0.5, 1.0, 2.0, INF):
            vals = focknorm._log_circle_means(f.coeffs, p, radii, focknorm.DEFAULT_CFG)
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
            focknorm._log_radial_sup(f.coeffs, p, 1.0, focknorm.DEFAULT_CFG)
            assert 1 < len(calls) <= 8
            assert calls[0] == focknorm.DEFAULT_CFG.sup_grid

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
                for p in (0.5, 1.0, 2.0, 3.0, INF):
                    focknorm._log_circle_means(f.coeffs, p, radii, focknorm.DEFAULT_CFG)
                    for r in radii:
                        circle_mean(f, p, r)
                    mixed_norm(f, FockParams(p, INF, 1.0))


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

    def test_zero_function_norms(self):
        z = entire.CoeffFunction([0.0])
        assert fock_norm(z, 2.0, 1.0) == 0.0
        assert fock_norm(z, 1.0, 1.0, method="quadrature") == 0.0
        assert fock_norm(z, INF, 1.0) == 0.0
