import cmath
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fockhaus import entire


class TestMonomial:
    def test_constant(self):
        u0 = entire.monomial(0)
        assert u0.degree == 0
        assert u0(0.7 + 0.2j) == pytest.approx(1.0)

    def test_cube_at_two(self):
        assert entire.monomial(3)(2.0) == pytest.approx(8.0)

    def test_dilated_fifth_power(self):
        f = entire.dilate(entire.monomial(5), 2.0)
        assert f(2.0) == pytest.approx(1.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            entire.monomial(-1)


class TestKernel:
    def test_zero_point_gives_constant(self):
        k = entire.kernel(1.0, 0.0)
        assert k.degree == 0
        assert k(5.0) == pytest.approx(1.0)

    def test_value_matches_exponential(self):
        k = entire.kernel(1.0, 1.0, radius=4.0)
        assert abs(k(1.0) - math.e) <= 1e-12 * math.e

    def test_coefficient_formula(self):
        k = entire.kernel(2.0, 1.0, radius=4.0)
        assert k.coeffs[3] == pytest.approx(8.0 / 6.0, rel=1e-14)

    def test_coefficient_ratio(self):
        a = 0.8 - 0.3j
        beta = 1.7
        k = entire.kernel(beta, a, radius=5.0)
        for n in range(k.degree - 1):
            ratio = k.coeffs[n + 1] / k.coeffs[n]
            assert ratio == pytest.approx(beta * np.conj(a) / (n + 1), rel=1e-12)

    def test_truncation_error_past_the_degree_cap(self):
        with pytest.raises(entire.TruncationError):
            entire.kernel(5.0, 10.0, radius=12.0)  # needs degree beyond the cap

    def test_complex_evaluation_against_exp(self):
        a = 1.0 + 0.5j
        k = entire.kernel(1.0, a, radius=3.0)
        for z in (0.5, 1.0j, 1.0 + 1.0j, -2.0):
            assert k(z) == pytest.approx(np.exp(z * np.conj(a)), rel=1e-12)


class TestDilate:
    def test_identity(self):
        f = entire.CoeffFunction([1.0, 2.0, 3.0])
        assert entire.dilate(f, 1.0) is f

    def test_monomial_coefficient(self):
        g = entire.dilate(entire.monomial(2), 2.0)
        assert g.coeffs[2] == pytest.approx(0.25)

    def test_affine_example(self):
        f = entire.CoeffFunction([1.0, 1.0])
        assert entire.dilate(f, 4.0)(4.0) == pytest.approx(2.0)

    def test_composition_is_product(self):
        rng = np.random.default_rng(3)
        f = entire.CoeffFunction(rng.normal(size=8) + 1j * rng.normal(size=8))
        for s, t in ((1.5, 2.0), (1.0, 3.0), (2.5, 2.5)):
            lhs = entire.dilate(entire.dilate(f, s), t)
            rhs = entire.dilate(f, s * t)
            np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-14)

    def test_rejects_contraction(self):
        with pytest.raises(ValueError):
            entire.dilate(entire.monomial(1), 0.5)


class TestRademacher:
    def test_all_plus_signs(self):
        f = entire.CoeffFunction([1.0, -2.0, 3.0j])
        g = entire.rademacher_randomize(f, [1, 1, 1])
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_single_flip(self):
        u3 = entire.monomial(3)
        g = entire.rademacher_randomize(u3, [1, 1, 1, -1])
        assert g.coeffs[3] == pytest.approx(-1.0)

    def test_involution(self):
        rng = np.random.default_rng(11)
        f = entire.CoeffFunction(rng.normal(size=12) + 1j * rng.normal(size=12))
        signs = rng.choice((-1, 1), size=12)
        g = entire.rademacher_randomize(entire.rademacher_randomize(f, signs), signs)
        np.testing.assert_allclose(g.coeffs, f.coeffs, rtol=0, atol=0)

    def test_sign_vector_too_short(self):
        with pytest.raises(ValueError):
            entire.rademacher_randomize(entire.monomial(3), [1, 1])

    def test_non_unit_signs_rejected(self):
        with pytest.raises(ValueError):
            entire.rademacher_randomize(entire.monomial(1), [1, 2])


class TestGaussianPeak:
    def test_value_at_origin(self):
        f = entire.gaussian_peak(1, 1.0)
        assert f(0.0) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_unit_weighted_sup(self):
        # sup_r exp(n r - n^2/(2 alpha) - alpha r^2/2) = 1, attained at r = n/alpha
        for n in range(1, 6):
            f = entire.gaussian_peak(n, 1.0)
            r = np.linspace(0.0, 2.0 * n + 4.0, 4001)
            vals = np.abs(f(r)) * np.exp(-(r**2) / 2.0)
            assert vals.max() <= 1.0 + 1e-10
            at_peak = abs(f(float(n))) * math.exp(-(n**2) / 2.0)
            assert at_peak == pytest.approx(1.0, rel=1e-10)

    def test_normalized_value_at_peak_radius(self):
        for alpha in (0.5, 1.0, 2.0):
            for n in (1, 3):
                f = entire.gaussian_peak(n, alpha)
                x = n / alpha
                val = abs(f(x)) * math.exp(-alpha * x * x / 2.0)
                assert val == pytest.approx(1.0, rel=1e-11)


class TestCoeffFunction:
    def test_trailing_zeros_trimmed(self):
        f = entire.CoeffFunction([1.0, 2.0, 0.0, 0.0])
        assert f.degree == 1

    def test_zero_function(self):
        f = entire.CoeffFunction([0.0, 0.0])
        assert f.degree == 0
        assert f(3.0) == 0.0

    def test_polynomial_evaluation_exact(self):
        f = entire.CoeffFunction([1.0, -1.0, 2.0])
        z = 0.5 + 0.25j
        assert f(z) == pytest.approx(1.0 - z + 2.0 * z * z, rel=1e-15)

    def test_json_round_trip(self):
        f = entire.CoeffFunction([1.0 + 2.0j, 0.5])
        g = entire.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
        assert np.array_equal(g.coeffs, f.coeffs)
        assert f.to_json_dict() == {"coeffs": [[1.0, 2.0], [0.5, 0.0]]}

    @pytest.mark.parametrize("z", [0.7 + 0.2j, 2.0, 0, np.float64(-1.5), np.complex128(3j),
                                   np.array(0.5 - 0.5j)])
    def test_scalar_evaluation_matches_array_evaluation(self, z):
        # scalar and array complex products may round the last bit differently
        f = entire.kernel(1.0, 0.5 + 0.3j)
        value = f(z)
        assert isinstance(value, complex)
        assert value == pytest.approx(f(np.array([z]))[0], rel=4e-16, abs=0)

    @pytest.mark.parametrize("z", [0.7 + 0.2j, 2.5, np.float64(-1.5), np.array(0.5 - 0.5j),
                                   np.array([0.7 + 0.2j, -3.0, 40j]), np.array([0.5, -2.0]),
                                   np.array([[1.5, -2.0], [0.5j, 30.0]])],
                             ids=["complex", "float", "float64", "0-d", "array", "real-array",
                                  "2-d"])
    @pytest.mark.parametrize("scale", [1.0, 1e300], ids=["finite", "overflow"])
    def test_horner_is_numpy_polyval_bit_for_bit(self, z, scale):
        # the same arithmetic in the same order: the same bits, type and warnings.  Scale
        # 1e300 overflows for |z| >= 1, and |z| = 40 at degree 219 at either scale
        from numpy.polynomial.polynomial import polyval

        rng = np.random.default_rng(7)
        for degree in (0, 1, 5, 60, 219):
            c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            f = entire.CoeffFunction(scale * c)
            with warnings.catch_warnings(record=True) as got_warnings:
                warnings.simplefilter("always")
                got = f(z)
            with warnings.catch_warnings(record=True) as want_warnings:
                warnings.simplefilter("always")
                want = polyval(complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex),
                               f.coeffs)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]


class TestUnitPhases:
    def test_normal_entries_keep_their_bits(self):
        c = np.array([3.0 + 4.0j, -1e-300, 2.5e300j, 0.1 - 0.7j])
        got = entire.unit_phases(c)
        assert got.tobytes() == (c / np.abs(c)).tobytes()

    def test_subnormal_entries_and_zeros(self):
        # numpy's complex division overflows on these: 1/|c| is past double range
        c = np.array([1e-320, -1e-320j, 3 * 2.0**-1074 + 4j * 2.0**-1074, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                got = entire.unit_phases(c)
        np.testing.assert_allclose(got, [1.0, -1j, 0.6 + 0.8j, 1.0], rtol=1e-15, atol=0)


class TestLogHelpers:
    """log_factorials, kernel coefficients and logsumexp against independent references."""

    def test_log_factorials_are_lgamma(self):
        want = [math.lgamma(k + 1.0) for k in range(5001)]
        np.testing.assert_array_equal(entire.log_factorials(5000), want)

    @pytest.mark.parametrize("scale", [10.0, 7.3, 2.0, 0.37])
    def test_kernel_coefficients_match_exact_rationals(self, scale):
        # |c_n| = scale**n / n! in exact arithmetic on the double scale; a = 1 makes the
        # phase exactly 1.  Entries past the normal range round to the subnormal grid,
        # so only normal ones are compared
        mags = np.abs(entire._exp_coeffs(scale, 0.0, 250))
        worst = 0.0
        for n, got in enumerate(mags):
            exact = Fraction(scale) ** n / math.factorial(n)
            if exact >= np.finfo(float).tiny:
                worst = max(worst, float(abs(Fraction(float(got)) - exact) / exact))
        assert worst <= 1e-14

    def test_kernel_phases_keep_the_exact_coefficients(self):
        # a = 7.3 has phase exactly 1, so every coefficient is the real 7.3**n / n!; a
        # phase formed as conj(a) / |a| read 0.9999999999999999 and put 2.8e-14 on c_250
        worst = 0.0
        for n, got in enumerate(entire._exp_coeffs(7.3, 0.0, 250)):
            exact = Fraction(7.3) ** n / math.factorial(n)
            assert got.imag == 0.0
            worst = max(worst, float(abs(Fraction(got.real) - exact) / exact))
        assert worst <= 4e-15
        # a = 3 + 4i with beta = 1.5 has |beta a| = 7.5 exactly; |c_n|**2 is the rational
        # (beta**2 |a|**2)**n / n!**2.  The argument -n theta carries n roundings of theta,
        # so the moduli are compared
        worst = 0.0
        for n, got in enumerate(entire._exp_coeffs(1.5 * 5.0, cmath.phase(3.0 + 4.0j), 250)):
            exact2 = Fraction(56.25) ** n / math.factorial(n) ** 2
            got2 = Fraction(got.real) ** 2 + Fraction(got.imag) ** 2
            worst = max(worst, abs(math.sqrt(float(got2 / exact2)) - 1.0))
        assert worst <= 4e-15

    def test_a_real_positive_point_keeps_the_recurrence_bits(self):
        # kernel(2, 5), the norms-highdeg anchor: phases exactly 1, coefficients the recurrence
        k = entire.kernel(2.0, 5.0)
        mags = np.cumprod(np.r_[1.0, 10.0 / np.arange(1.0, k.degree + 1)])
        assert k.coeffs.tobytes() == mags.astype(complex).tobytes()

    def test_log_factorials_are_views_of_one_read_only_table(self):
        long = entire.log_factorials(5000)
        short = entire.log_factorials(10)
        assert len(short) == 11 and len(long) == 5001
        assert np.shares_memory(short, long)
        assert not long.flags.writeable and not short.flags.writeable

    def test_rows_match_scipy(self):
        # the shape of _log_mean_2: one row per radius, -inf past the first column at radius 0
        from scipy.special import logsumexp

        rng = np.random.default_rng(1)
        a = rng.normal(scale=40.0, size=(64, 50))
        a[0, 1:] = -np.inf
        a[1] = -np.inf
        a[2, [3, 7]] = a[2].max() + 1.0  # a tied maximum
        got, want = entire.logsumexp(a, axis=1), logsumexp(a, axis=1)
        assert got[1] == want[1] == -np.inf
        finite = np.isfinite(want)
        np.testing.assert_array_max_ulp(got[finite], want[finite], maxulp=1)

    def test_weighted_sum_matches_scipy(self):
        # the shape of the radial integral: 1-D log-integrand with quadrature weights
        from scipy.special import logsumexp

        rng = np.random.default_rng(2)
        for size in (1, 24, 600):
            a, b = rng.normal(scale=30.0, size=size), rng.random(size) + 1e-3
            np.testing.assert_array_max_ulp(entire.logsumexp(a, b=b), logsumexp(a, b=b),
                                            maxulp=1)
            np.testing.assert_array_max_ulp(entire.logsumexp(a), logsumexp(a), maxulp=1)

    def test_all_minus_inf_gives_minus_inf_without_a_warning(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert entire.logsumexp(np.full(5, -np.inf)) == -np.inf
            assert entire.logsumexp(np.full(3, -np.inf), b=np.ones(3)) == -np.inf
            np.testing.assert_array_equal(
                entire.logsumexp(np.full((2, 4), -np.inf), axis=1), [-np.inf, -np.inf])
