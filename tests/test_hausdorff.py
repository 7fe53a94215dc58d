import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockhaus import entire, measure as msr
from fockhaus.focknorm import INF, log_monomial_norm
from fockhaus.hausdorff import (
    RAYLEIGH_N,
    DomainError,
    HausdorffOperator,
    IllDefined,
    apply_quadrature,
    apply_spectral,
    dilation_opnorm_bounds,
    dilation_opnorm_estimate,
    _dilation_rayleigh,
)


def rand_poly(rng, degree):
    c = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
    return entire.CoeffFunction(c)


class TestSpectral:
    def test_hardy_shrinks_monomials(self):
        op = HausdorffOperator(msr.hardy_measure())
        for n in (0, 1, 4, 9):
            g = apply_spectral(op, entire.monomial(n))
            assert g.coeffs[n] == pytest.approx(1.0 / (n + 1), rel=1e-14)

    def test_unit_mass_fixes_constants(self):
        for m in (msr.hardy_measure(), msr.dirac(2.0), msr.geometric_atoms(0.5, 2.0)):
            op = HausdorffOperator(msr.normalize(m))
            g = apply_spectral(op, entire.monomial(0))
            assert g.coeffs[0] == pytest.approx(1.0, rel=1e-12)

    def test_atom_example(self):
        op = HausdorffOperator(msr.PointMasses([(2.0, 2.0)]))
        g = apply_spectral(op, entire.CoeffFunction([1.0, 1.0]))
        np.testing.assert_allclose(g.coeffs, [1.0, 0.5], rtol=1e-14)

    def test_eigenfunction_property_large_degree(self):
        op = HausdorffOperator(msr.hardy_measure())
        for n in (0, 3, 50, 200):
            g = apply_spectral(op, entire.monomial(n))
            assert g.degree == n
            assert g.coeffs[n] == pytest.approx(op.eigenvalue(n), rel=0)

    @pytest.mark.parametrize("t, coeffs, want", [
        (1e-200, [1.0, 2.0, 1e-300], [1.0, 2e200, 1e100]),  # mu_2 = 1e400 reads inf
        (1e-200, [1.0, 0.0, -3e-301 + 4e-301j], [1.0, 0.0, -3e99 + 4e99j]),
        (1e200, [1.0, 2.0, 1e300], [1.0, 2e-200, 1e-100]),  # mu_2 = 1e-400 underflows
        (1e-200, [1.0, 0.0, 0.0, 1e-300], [1.0, 0.0, 0.0, 1e300]),  # 0 * mu_2 stays 0
        (2.0**-600, [1.0, 0.0, -1j * 2.0**-1070], [1.0, 0.0, -1j * 2.0**130]),  # subnormal a_2
    ])
    def test_image_in_double_range_while_the_moment_is_not(self, t, coeffs, want):
        op = HausdorffOperator(msr.dirac(t))
        f = entire.CoeffFunction(coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = apply_spectral(op, f)
        np.testing.assert_allclose(g.coeffs, want, rtol=1e-12, atol=0)
        mu_1 = op.eigenvalue(1)
        assert g.coeffs[:2].tolist() == [f.coeffs[0], f.coeffs[1] * mu_1]  # in range: a_n mu_n

    def test_ill_defined_when_support_reaches_zero(self):
        m = msr.truncated_atom_family(
            lambda k: 2.0**-k, lambda k: 1.0 / k, 30, 2.0**-25, inf_support=0.0
        )
        op = HausdorffOperator(m)
        with pytest.raises(IllDefined):
            apply_spectral(op, entire.monomial(1))
        with pytest.raises(IllDefined):
            apply_quadrature(op, entire.monomial(1), [1.0])

    def test_moment_cache_and_tags(self):
        m = msr.hardy_measure()
        seq = msr.moments(m, 5)
        assert seq.values == pytest.approx([1 / (n + 1) for n in range(6)], rel=1e-14)
        assert seq.methods == [msr.CLOSED_FORM] * 6
        assert HausdorffOperator(m).eigenvalue(3) == seq[3]

    def test_sign_commutation(self):
        rng = np.random.default_rng(8)
        op = HausdorffOperator(msr.hardy_measure())
        f = rand_poly(rng, 14)
        signs = rng.choice((-1, 1), size=15)
        lhs = apply_spectral(op, entire.rademacher_randomize(f, signs))
        rhs = entire.rademacher_randomize(apply_spectral(op, f), signs)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-14)

    def test_mellin_composition(self):
        rng = np.random.default_rng(9)
        left, right = msr.hardy_measure(), msr.BetaTailDensity(2.0, 1.0)
        conv_op = HausdorffOperator(msr.MellinConvolution(left, right))
        f = rand_poly(rng, 10)
        sequential = apply_spectral(
            HausdorffOperator(left), apply_spectral(HausdorffOperator(right), f)
        )
        direct = apply_spectral(conv_op, f)
        np.testing.assert_allclose(direct.coeffs, sequential.coeffs, rtol=1e-13)


class TestQuadratureRoute:
    def test_hardy_integrates_monomial(self):
        # averaged u_1 at z: (1/z) * integral_0^z xi dxi = z/2
        op = HausdorffOperator(msr.hardy_measure())
        vals = apply_quadrature(op, entire.monomial(1), [2.0])
        assert vals[0] == pytest.approx(1.0, rel=1e-10)

    def test_normalized_atom_is_dilation(self):
        t = 3.0
        op = HausdorffOperator(msr.dirac(t))
        f = entire.CoeffFunction([1.0, 2.0, 1.0j])
        zs = [1.0, 1.0 + 1.0j, -2.0j]
        vals = apply_quadrature(op, f, zs)
        for z, v in zip(zs, vals):
            assert v == pytest.approx(f(z / t), rel=1e-14)

    def test_agreement_with_spectral_oracle(self):
        rng = np.random.default_rng(10)
        measures = [
            msr.hardy_measure(),
            msr.BetaTailDensity(2.0, 1.0),
            msr.dirac(2.0),
            msr.MellinConvolution(msr.hardy_measure(), msr.hardy_measure()),
        ]
        zs = rng.uniform(-1.5, 1.5, 8) + 1j * rng.uniform(-1.5, 1.5, 8)
        for m in measures:
            op = HausdorffOperator(m)
            f = rand_poly(rng, 10)
            spect = apply_spectral(op, f)
            quadr = apply_quadrature(op, f, zs)
            for z, qv in zip(zs, quadr):
                sv = spect(z)
                assert abs(sv - qv) <= 1e-8 * max(abs(sv), 1e-12), (
                    f"{m!r} at z={z}: spectral {sv}, quadrature {qv}, "
                    f"relative error {abs(sv - qv) / max(abs(sv), 1e-12):.3g}"
                )

    def test_nested_action_whose_real_part_cancels(self):
        # the classify benchmark's seed-1 cycle-11 polynomial and points
        # (Classify(1).inputs(11) in bench/workloads.py), where a tolerance per real and
        # imaginary part chased the rounding of a cancelling part until quad warned
        f = entire.CoeffFunction([
            (0.3971900265544873-0.32830132011499463j), (0.6604859650656566+0.06047330721089944j),
            (-0.751624451543043-0.394977770606402j), (0.3688198951047456+0.02756133055722909j),
            (-0.6328786554230035-0.22587233905615747j), (-0.6032697680643084+0.12443767925280985j),
        ])
        zs = np.array([(-0.1377088400152097-1.4379318097282685j),
                       (0.23923615325610265+1.3448967028895202j)])
        op = HausdorffOperator(msr.MellinConvolution(msr.hardy_measure(), msr.hardy_measure()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quadr = apply_quadrature(op, f, zs)
        spect = apply_spectral(op, f)(zs)
        np.testing.assert_allclose(quadr, spect, rtol=1e-10, atol=0)

    @pytest.mark.parametrize(
        "a, b", [(2.0, 1.0), (2.5, 1.5), (2.0, 2.0), (-0.3, 0.5), (0.5, 0.3)]
    )
    def test_beta_tail_agrees_with_spectral(self, a, b):
        # b < 1 puts an integrable singularity at t = 1, a < 0 a slowly decaying tail
        rng = np.random.default_rng(11)
        op = HausdorffOperator(msr.BetaTailDensity(a, b))
        f = rand_poly(rng, 10)
        zs = rng.uniform(-1.5, 1.5, 8) + 1j * rng.uniform(-1.5, 1.5, 8)
        spect = apply_spectral(op, f)(zs)
        quadr = apply_quadrature(op, f, zs)
        np.testing.assert_allclose(quadr, spect, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("m", [
        *(msr.BetaTailDensity(3.0 * 10.0**k, b) for k in range(9) for b in (0.3, 2.0)),
        *(msr.PowerTailDensity(3.0 * 10.0**k) for k in range(8)),
    ], ids=repr)
    def test_a_steep_tail_agrees_with_spectral_or_is_refused(self, m):
        # an endpoint power ~1e6 vanishes at every node of a panel off its end, where the
        # two rules agreed on a wrong 0; now the weights must sum to the power's mass
        f = entire.CoeffFunction([0.4 - 0.3j, 1.1, 0.2j, 0.7])
        zs = np.array([0.9 + 0.6j, -1.2 + 0.3j])
        spect = apply_spectral(HausdorffOperator(m), f)(zs)
        try:
            quadr = apply_quadrature(HausdorffOperator(m), f, zs)
        except DomainError:
            assert m.a >= 3e6  # the rules carry every tail up to 3e5
            return
        np.testing.assert_allclose(quadr, spect, rtol=1e-8, atol=0)


point_masses = st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.25, 4.0)), min_size=1,
                        max_size=3).map(msr.PointMasses)
densities = st.one_of(
    st.builds(msr.PowerTailDensity, st.floats(0.5, 3.0)),
    st.builds(lambda b, gap: msr.BetaTailDensity(b + gap, b), st.floats(0.5, 2.5),
              st.floats(-0.5, 2.0)))
# Any factor of a product may be a density: its inner integrals run on the whole grid of
# outer nodes at once.
measures = st.recursive(st.one_of(densities, point_masses), lambda inner: st.one_of(
    st.builds(msr.Scaled, st.floats(0.1, 10.0), inner),
    st.builds(msr.MellinConvolution, inner, inner)), max_leaves=3)
unit_complex = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@given(measures,
       st.lists(unit_complex, min_size=1, max_size=9),
       st.lists(unit_complex, min_size=1, max_size=3))
def test_quadrature_matches_spectral_on_random_polynomials(m, coeffs, points):
    op = HausdorffOperator(m)
    f = entire.CoeffFunction(coeffs)
    zs = 1.5 * np.array(points)
    quadr = apply_quadrature(op, f, zs)
    spect = apply_spectral(op, f)(zs)
    # quadrature errors scale with the integral of |f(z s)|, bounded by the image of |f| at |z|
    scale = apply_spectral(op, entire.CoeffFunction(np.abs(f.coeffs)))(np.abs(zs)).real
    assert np.all(np.abs(quadr - spect) <= 1e-8 * scale), m


class TestDilationBounds:
    def test_large_t_asymptotics(self):
        b = dilation_opnorm_bounds(1e6, 1.0, 2.0)
        assert b.lower == pytest.approx(1.0, rel=1e-9)
        assert b.upper == pytest.approx((1e6) ** 1.0, rel=1e-9)

    def test_equal_exponents(self):
        for t in (1.5, 10.0):
            b = dilation_opnorm_bounds(t, 2.0, 2.0)
            assert (b.lower, b.upper) == (1.0, 1.0)

    def test_plugin_arithmetic(self):
        b = dilation_opnorm_bounds(1.1, 1.0, 2.0)
        s = 1.0 - 1.0 / 1.21
        assert b.lower == pytest.approx(s ** (-0.25), rel=1e-12)
        assert b.upper == pytest.approx(1.1 * s ** (-0.5), rel=1e-12)

    def test_rejects_p_above_q(self):
        with pytest.raises(DomainError):
            dilation_opnorm_bounds(1.5, 3.0, 2.0)

    def test_infinite_q(self):
        b = dilation_opnorm_bounds(2.0, 1.0, INF)
        assert b.upper == pytest.approx((1.0 - 0.25) ** (0.0 - 1.0), rel=1e-12)
        assert b.lower == pytest.approx((1.0 - 0.25) ** (0.0 - 0.5), rel=1e-12)


class TestDilationEstimate:
    def test_equal_exponents_give_one(self):
        assert dilation_opnorm_estimate(1.3, 2.0, 2.0) == pytest.approx(1.0)
        _, argmax = _dilation_rayleigh(1.3, 2.0, 2.0)
        assert argmax == 0

    def test_argmax_against_bruteforce_oracle(self):
        # oracle: direct scan of -n log t + log||u_n||_1 - log||u_n||_inf
        t = 1.01
        vals = [
            -n * math.log(t)
            + log_monomial_norm(n, 1.0, 1.0)
            - log_monomial_norm(n, INF, 1.0)
            for n in range(RAYLEIGH_N + 1)
        ]
        oracle_argmax = int(np.argmax(vals))
        est, argmax = _dilation_rayleigh(t, 1.0, INF)
        assert argmax == oracle_argmax
        assert est == pytest.approx(math.exp(max(vals)), rel=1e-12)
        # the maximizer sits near a / log t with a = 1/2, not near 1/(t-1)
        assert abs(argmax - 0.5 / math.log(t)) <= 3

    def test_estimate_against_lower_bound_shape(self):
        # est / lower stays within a fixed factor over small t (constants are
        # existential; the recorded factor is a regression value)
        for p, q in ((1.0, 2.0), (2.0, INF)):
            for t in (1.02, 1.05, 1.1):
                est = dilation_opnorm_estimate(t, p, q)
                b = dilation_opnorm_bounds(t, p, q)
                assert est <= b.upper * 2.0
                assert est >= b.lower * 0.3

    def test_rejects_t_below_one(self):
        with pytest.raises(ValueError):
            dilation_opnorm_estimate(0.9, 1.0, 2.0)
