import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from fockhaus import classify, entire, harness
from fockhaus import measure as msr
from fockhaus.hausdorff import HausdorffOperator, apply_spectral


def quad_moment_oracle(phi, lo, hi, n):
    """Independent moment oracle: direct adaptive quadrature in t."""
    val, _ = integrate.quad(
        lambda t: phi(t) * t ** -(n + 1.0), lo, hi, epsrel=1e-12, limit=400
    )
    return val


class TestMoments:
    def test_hardy_density_moment(self):
        m = msr.PowerTailDensity(1.0)
        assert m.weighted_mass(-2.0)[0] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_point_mass_moment_zero(self):
        m = msr.PointMasses([(2.0, 2.0)])
        assert m.weighted_mass(0.0)[0] == pytest.approx(1.0, rel=1e-14)

    def test_mellin_square_moment(self):
        m = msr.MellinConvolution(msr.hardy_measure(), msr.hardy_measure())
        assert m.weighted_mass(-3.0)[0] == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_power_tail_matches_quadrature_oracle(self):
        m = msr.PowerTailDensity(1.5)
        for n in (0, 1, 4, 9):
            ref = quad_moment_oracle(lambda t: t**-1.5, 1.0, np.inf, n)
            assert m.weighted_mass(-float(n))[0] == pytest.approx(ref, rel=1e-10)

    def test_generic_density_moment_quadrature(self):
        m = msr.Density(lambda t: 1.0, (0.5, 1.0))
        for n in (0, 1, 5):
            ref = quad_moment_oracle(lambda t: 1.0, 0.5, 1.0, n)
            assert m.weighted_mass(-float(n))[0] == pytest.approx(ref, rel=1e-9)

    def test_moment_methods_tagged(self):
        seq = msr.moments(msr.hardy_measure(), 3)
        assert all(tag == msr.CLOSED_FORM for tag in seq.methods)
        seq = msr.moments(msr.Density(lambda t: 1.0, (0.5, 1.0)), 2)
        assert all(tag.startswith("quadrature") for tag in seq.methods)

    def test_divergent_density_rejected(self):
        with pytest.raises(msr.DivergentMoment):
            msr.Density(lambda t: 1.0 / t, (0.0, 1.0))

    def test_scaled_moments(self):
        m = msr.Scaled(3.0, msr.hardy_measure())
        assert m.weighted_mass(-1.0)[0] == pytest.approx(1.5, rel=1e-14)

    def test_tiny_power_tail_exponent_converges_past_double_range(self):
        # mu_0 = 1/a = 1e320 converges; it was reported as a DivergentMoment
        with pytest.raises(msr.DomainError, match="double range"):
            msr.PowerTailDensity(1e-320)
        assert msr.PowerTailDensity(1e-300).mu0 == pytest.approx(1e300, rel=1e-15)


class TestBetaMoment:
    def test_unit_case(self):
        mu0 = msr.BetaTailDensity(1.0, 1.0).weighted_mass(0.0)[0]
        assert mu0 == pytest.approx(1.0, rel=1e-14)

    def test_integer_case_with_quadrature_crosscheck(self):
        m = msr.BetaTailDensity(2.0, 1.0)
        assert m.weighted_mass(-3.0)[0] == pytest.approx(0.2, rel=1e-13)
        ref = quad_moment_oracle(lambda t: t**-2.0, 1.0, np.inf, 3)
        assert m.weighted_mass(-3.0)[0] == pytest.approx(ref, rel=1e-10)

    def test_half_integer_case_against_defining_integral(self):
        val = msr.BetaTailDensity(2.0, 0.5).weighted_mass(-2.0)[0]
        ref = quad_moment_oracle(
            lambda t: (t - 1.0) ** -0.5 * t**-2.0, 1.0, np.inf, 2
        )
        assert val == pytest.approx(ref, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(msr.DomainError):
            msr.BetaTailDensity(0.5, 2.0)  # violates a+1 > b
        with pytest.raises(msr.DomainError):
            msr.BetaTailDensity(1.0, -1.0)

    def test_beta_tail_density_agrees(self):
        # mu_n = B(b, n + a - b + 1) from math.lgamma, exact enough at these small arguments
        m = msr.BetaTailDensity(2.0, 0.5)
        for n in (0, 2, 7):
            want = math.exp(math.lgamma(0.5) + math.lgamma(n + 2.5) - math.lgamma(n + 3.0))
            assert m.weighted_mass(-float(n))[0] == pytest.approx(want, rel=1e-14)


class TestPowerTailIsTheBetaTailAtBOne:
    @pytest.mark.parametrize("a", [1e-300, 1e-17, 0.3, 1.0, 1.5, 3e7])
    def test_the_power_tail_forms_keep_their_bits(self, a):
        # log mu_n = -log(n + a), mu_e = 1/(a - e) and the mass below x, as the power tail
        # class formed them; a + (1 - b) is exactly a at b = 1
        m = msr.PowerTailDensity(a)
        assert isinstance(m, msr.BetaTailDensity) and m.b == 1.0
        log_mu = m.log_moments(300)
        np.testing.assert_array_equal(log_mu, -np.log(np.arange(len(log_mu)) + a))
        for e in (0.0, -1.0, -7.0, -1e5, a / 2.0, -a):
            assert m.weighted_mass(e)[0] == 1.0 / (a - e), e
        for x in (1.5, 2.0, 1e3):
            want = math.log(x) if a == 1.0 else (1.0 - x ** (1.0 - a)) / (a - 1.0)
            assert m.mass_below(x) == want, x

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (math.inf, 0.5), (-math.inf, 1.0),
                                      (math.nan, 1.0), (1.0, math.inf), (2.0, math.nan)])
    def test_non_finite_parameters_are_refused(self, a, b):
        # beta:inf:1 warned in _log_beta and then read mu_0 as not finite
        with pytest.raises(ValueError, match="finite"):
            msr.BetaTailDensity(a, b)

    @pytest.mark.parametrize("a", [math.inf, math.nan, 0.0, -1.0])
    def test_the_power_tail_needs_a_positive_finite_exponent(self, a):
        with pytest.raises(ValueError, match="positive finite"):
            msr.PowerTailDensity(a)

    def test_tiny_exponents_are_admissible(self):
        # a + 1.0 > b rounded to 1.0 > 1.0 here, and refused both
        for a in (1e-17, 1e-300):
            assert msr.BetaTailDensity(a, 1.0).mu0 == 1.0 / a


class TestLogBeta:
    # the largest |_log_beta - log B| / max(1, |log B|) against 40-digit mpmath, as measured,
    # over s = 1e-300..1e15 in half decades and 0.05..40 in steps of 0.05, which crosses
    # the switch to Stirling's series at 16.  From b = 16 on, lgamma(b) is never formed:
    # below 16 the lgamma difference cancelled for a large b, to 4.6e-13 at (344.05, 0.25)
    # and 1.8e-11 at (1e4, 0.25)
    BOUNDS = {1.0: 1.1e-16, 0.5: 1.4e-14, 1.5: 2.1e-15, 2.5: 1.8e-15, 16.5: 6.2e-16,
              40.0: 9.0e-16, 111.43: 7.3e-16, 344.05: 1.1e-15, 1e4: 4.9e-16}

    @pytest.mark.parametrize("b", sorted(BOUNDS))
    def test_against_mpmath(self, b):
        s = np.unique(np.r_[10.0 ** np.arange(-300.0, 15.5, 0.5), np.arange(1, 801) * 0.05])
        got = msr._log_beta(b, s)
        worst = 0.0
        with mpmath.workdps(40):
            for value, x in zip(got.tolist(), s.tolist()):
                want = mpmath.log(mpmath.beta(b, x))
                worst = max(worst, float(abs(value - want) / max(1, abs(want))))
        assert worst <= self.BOUNDS[b]


class TestSupportReport:
    def test_atoms_at_and_above_one(self):
        rep = msr.support_report(msr.PointMasses([(1.0, 1.0), (1.0, 2.0)]))
        assert rep.mass_at_1 == 1.0
        assert rep.mass_below_1 == 0.0
        assert rep.inf_support == 1.0

    def test_hardy_support(self):
        rep = msr.support_report(msr.hardy_measure())
        assert rep.mass_unit_interval == 0.0
        assert rep.inf_support == 1.0

    def test_bump_below_one(self):
        rep = msr.support_report(msr.Density(lambda t: 1.0, (0.5, 1.0)))
        assert rep.mass_below_1 == pytest.approx(0.5, rel=1e-10)
        assert rep.inf_support == 0.5

    def test_mellin_of_atoms(self):
        left = msr.PointMasses([(1.0, 1.0), (0.5, 0.5)])
        right = msr.PointMasses([(1.0, 1.0), (2.0, 2.0)])
        conv = msr.MellinConvolution(left, right)
        # atom pairs: (1*1)=1 w 1, (1*2)=2 w 2, (0.5*1)=0.5 w 0.5, (0.5*2)=1 w 1
        assert conv.mass_at(1.0) == pytest.approx(2.0)
        assert conv.mass_below(1.0) == pytest.approx(0.5)
        assert conv.inf_support == 0.5

    def test_depth_three_atomic_product(self):
        # atom triples with positions multiplying to 1: (0.5, 0.5, 4) 1*3*6, (0.5, 2, 1) 1*4*5,
        # (2, 0.5, 1) 2*3*5, (2, 2, 0.25) 2*4*7; to less than 1: 15 + 21 + 28 + 42
        a = msr.PointMasses([(1.0, 0.5), (2.0, 2.0)])
        b = msr.PointMasses([(3.0, 0.5), (4.0, 2.0)])
        c = msr.PointMasses([(5.0, 1.0), (6.0, 4.0), (7.0, 0.25)])
        mellin = msr.MellinConvolution
        for conv in (mellin(mellin(a, b), c), mellin(a, mellin(b, c)), mellin(c, mellin(b, a))):
            assert conv.mass_at(1.0) == 124.0
            assert conv.mass_below(1.0) == 106.0
        assert mellin(msr.Scaled(0.5, mellin(a, b)), c).mass_at(1.0) == 62.0

    @pytest.mark.parametrize("positions", [(10.0, 10.0, 0.01), (3.0, 3.0, 1.0 / 9.0)])
    def test_identity_from_atoms_off_the_binary_grid(self, positions):
        # each product is delta_1 in any nesting; 0.1 * 0.1 misses 0.01 by one rounding,
        # so the atom at 1 is found by dividing by the positions, not by their reciprocals
        a, b, c = (msr.dirac(t) for t in positions)
        mellin = msr.MellinConvolution
        identity = classify.classify_compact(msr.dirac(1.0)).verdict
        for conv in (mellin(a, mellin(b, c)), mellin(mellin(a, b), c), mellin(c, mellin(b, a))):
            assert conv.mass_at(1.0) == pytest.approx(1.0, rel=1e-15)
            assert conv.mass_below(1.0) == 0.0
            assert classify.classify_compact(conv).verdict == identity

    def test_duplicate_atoms_merged(self):
        m = msr.PointMasses([(1.0, 2.0), (2.0, 2.0), (1.0, 1.0)])
        assert m.atoms == ((1.0, 1.0), (3.0, 2.0))


def bump() -> msr.Density:
    return msr.Density(lambda t: 1.0, (0.5, 1.0))


class TestProductMassBelowOne:
    """Products with an atomless factor, in both orders; exact values from dt-integrals."""

    def test_bump_and_hardy(self):
        # integral over (1/2, 1) of log(1/r) dr
        for conv in (msr.MellinConvolution(bump(), msr.hardy_measure()),
                     msr.MellinConvolution(msr.hardy_measure(), bump())):
            assert conv.mass_below(1.0) == pytest.approx(0.5 - 0.5 * math.log(2.0), rel=1e-12)
            assert conv.mass_at(1.0) == 0.0

    def test_atom_and_two_hardy_factors(self):
        # hardy * hardy has mass (log x)**2 / 2 below x; the atom reads it at x = 2, weight 1/2
        mellin, d, h = msr.MellinConvolution, msr.dirac(0.5), msr.hardy_measure()
        for conv in (mellin(mellin(d, h), h), mellin(mellin(h, d), h), mellin(h, mellin(h, d)),
                     mellin(d, mellin(h, h)), mellin(mellin(h, h), d)):
            rep = msr.support_report(conv)
            assert rep.mass_below_1 == pytest.approx(math.log(2.0) ** 2 / 4.0, rel=1e-12)
            assert rep.mass_at_1 == 0.0

    def test_beta_and_bump(self):
        # integral over (1/2, 1) of (log(1/r) + r - 1) dr, the beta:2:2 mass below 1/r
        beta = msr.BetaTailDensity(2.0, 2.0)
        one = msr.MellinConvolution(beta, bump()).mass_below(1.0)
        other = msr.MellinConvolution(bump(), beta).mass_below(1.0)
        assert one == pytest.approx(other, rel=1e-12)
        assert one == pytest.approx(0.375 - 0.5 * math.log(2.0), rel=1e-10)


def cubic(s):
    z = (0.9 + 0.6j) * s
    return 0.4 - 0.3j + z * (1.1 + z * (0.2j + 0.7 * z))


class TestQuadEngine:
    """The one quadrature engine: Gauss rules on panels, the integrand called once a round."""

    @pytest.mark.parametrize("measure", [
        msr.PowerTailDensity(1.5),
        msr.MellinConvolution(msr.hardy_measure(), msr.hardy_measure()),
    ], ids=["power-tail", "hardy-hardy"])
    def test_one_call_per_node_and_spectral_values(self, measure):
        # cubic(s) is f(z s) for this f at z = 0.9+0.6j, so integrate(cubic) is the image at z
        f = entire.CoeffFunction([0.4 - 0.3j, 1.1, 0.2j, 0.7])
        want = apply_spectral(HausdorffOperator(measure), f)(0.9 + 0.6j)
        batches = []

        def counted(s):
            batches.append(np.array(s))
            return cubic(s)

        got = measure.integrate(counted)
        assert abs(got - want) <= 1e-10 * abs(want) and got.imag != 0.0
        # a cubic is exact on the first panel, so one batch holds every node: the
        # 8 + 16 of the power tail, or that grid squared for the product
        assert len(batches) == 1
        assert batches[0].size == (24 if isinstance(measure, msr.BetaTailDensity) else 24 * 24)
        assert ((batches[0] > 0.0) & (batches[0] < 1.0)).all()

    @staticmethod
    def _adapt_counted(h, lo, hi):
        """_adapt's (value, panels), and the node count of each call of h."""
        rounds = []

        def counted(x):
            rounds.append(len(x))
            assert ((x > lo) & (x < hi)).all()
            return h(x)

        value, panels = msr._adapt(counted, lo, hi)
        # panels in order that cover (lo, hi)
        assert panels[0, 0] == lo and panels[-1, 1] == hi
        assert (panels[1:, 0] == panels[:-1, 1]).all() and (panels[:, 1] > panels[:, 0]).all()
        # one call a round on the 8 + 16 nodes of each pending panel: (lo, hi) alone first,
        # then both halves of each panel split, every split adding one panel
        assert rounds[0] == 24 and all(n % 48 == 0 for n in rounds[1:])
        assert len(panels) == 1 + sum(rounds[1:]) // 48
        return value, panels, rounds

    def test_a_smooth_integrand_is_bisected_from_one_panel(self):
        value, panels, rounds = self._adapt_counted(lambda u: np.exp(-2.0 * u), 0.0, 40.0)
        assert value == pytest.approx(0.5 * -math.expm1(-80.0), rel=1e-13)
        assert isinstance(value, float) and len(rounds) > 1

    def test_a_kink_is_bisected_to(self):
        # |x - 1/3| has its kink off every dyadic point: panels narrow towards it
        value, panels, _ = self._adapt_counted(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0)
        assert value == pytest.approx(5.0 / 18.0, rel=msr.QUAD_REL_TOL)
        widths = panels[:, 1] - panels[:, 0]
        k = int(np.flatnonzero((panels[:, 0] < 1.0 / 3.0) & (panels[:, 1] > 1.0 / 3.0))[0])
        assert widths[k] == widths.min() < 1e-4
        assert (np.diff(widths[: k + 1]) <= 0.0).all() and (np.diff(widths[k:]) >= 0.0).all()

    @pytest.mark.parametrize("func, hi", [
        (lambda u: np.sqrt(-u) if (u > 0).all() else math.sqrt(-1.0), 1.0),  # ValueError
        (lambda u: 1.0 / u, 1.0),  # divergent at 0: the rules never agree
        (lambda u: np.array([math.exp(v) for v in u]), 1000.0),  # OverflowError far out
        (lambda u: np.full(len(u), math.inf), 1.0),  # not finite
    ], ids=["raises", "diverges", "overflows", "inf"])
    def test_every_failure_is_a_divergent_moment(self, func, hi):
        with pytest.raises(msr.DivergentMoment):
            msr._integrate(func, 0.0, hi)

    @pytest.mark.parametrize("h", [
        lambda x: np.full(len(x), 1e308),  # each value finite, their sum over (0, 4) not
        lambda x: np.full(len(x), 1e308 + 1e308j),  # finite parts, a modulus past range
    ], ids=["real", "complex"])
    def test_a_sum_past_double_range_is_a_domain_error(self, h):
        # the two rules' sums were inf, their difference nan, and no panel was split
        with pytest.raises(msr.DomainError):
            msr._integrate(h, 0.0, 4.0)

    def test_a_density_reaching_infinity_is_refused(self):
        # a density with hi = inf has no tail bound in u; the benchmark's density-inf probe
        with pytest.raises(msr.DivergentMoment):
            msr.Density(lambda t: t**-3.0, (1.0, np.inf))


def beta_moment_exact(alpha: float, beta: float, k: int) -> float:
    """B(alpha+k+1, beta+1): B(alpha+1, beta+1) from math.lgamma times the exact rational
    product of (alpha+1+j) / (alpha+beta+2+j), j < k, so that no lgamma of a large argument
    carries its last-bit error into the reference."""
    base = math.exp(math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0)
                    - math.lgamma(alpha + beta + 2.0))
    ratio = Fraction(1)
    for j in range(k):
        ratio *= Fraction(alpha + 1.0 + j) / Fraction(alpha + beta + 2.0 + j)
    return base * float(ratio)


class TestRules:
    # the endpoint powers of the power tails a = 0.5, 1, 1.5, 2.5 and of the beta tails
    # (a, b) = (2, 1), (2.5, 1.5), (2, 2), (-0.3, 0.5), (0.5, 0.3)
    WEIGHTS = [(-0.5, 0.0), (0.0, 0.0), (0.5, 0.0), (1.5, 0.0), (1.0, 0.0), (1.0, 0.5),
               (0.0, 1.0), (-0.8, -0.5), (0.2, -0.7)]

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_jacobi_rules_are_exact_to_degree_2n_minus_1(self, n):
        for alpha, beta in self.WEIGHTS:
            x, w = msr._gauss_jacobi(n, alpha, beta)
            assert ((0.0 < x) & (x < 1.0)).all() and (w > 0.0).all()
            for k in range(2 * n):
                want = beta_moment_exact(alpha, beta, k)
                assert math.fsum(w * x**k) == pytest.approx(want, rel=1e-14), (alpha, beta, k)

    @pytest.mark.parametrize("k, lo, hi", [(1.5, 0.8, 2.5), (0.0, 0.7, 1.0), (2.0, 2.0, 5.0),
                                           (-1.0, 1.0, 2.0), (3.0, 20.0, 21.0)])
    def test_density_moments_match_the_closed_form(self, k, lo, hi):
        # mu_n of t**-k on (lo, hi) is (lo**-e - hi**-e) / e with e = n + k, or log(hi/lo)
        # at e = 0; in logs, so that lo**-e never leaves double range
        m = msr.Density(lambda t: t**-k, (lo, hi))
        log_mu = m.log_moments(256)[:257]
        log_ratio = math.log(hi / lo)
        for n in range(257):
            e = n + k
            want = (math.log(log_ratio) if e == 0 else
                    -e * math.log(lo) + math.log(-math.expm1(-e * log_ratio) / e))
            if abs(want) < 700.0:  # the moment lies in double range
                assert math.exp(log_mu[n]) == pytest.approx(math.exp(want), rel=1e-12), n

    def test_moments_do_not_depend_on_the_batch(self):
        def fresh():
            return msr.Density(lambda t: t**-1.5, (0.8, 2.5))

        grown = fresh()
        grown.log_moments(10)
        np.testing.assert_array_equal(grown.log_moments(256)[:257], fresh().log_moments(256)[:257])
        one = fresh()
        assert all(one.weighted_mass(-float(n))[0] == math.exp(grown.log_moments(256)[n])
                   for n in (0, 1, 64, 200, 256))

    def test_an_inverse_square_root_at_the_lower_end(self):
        # integral of dt / (t sqrt(t - a)) is (2 / sqrt(a)) atan(sqrt((t - a) / a))
        m = msr.Density(lambda t: (t - 0.8) ** -0.5, (0.8, 2.0))
        assert m.mu0 == pytest.approx(2.0 / math.sqrt(0.8) * math.atan(math.sqrt(1.5)), rel=1e-12)
        assert m.mass_below(2.0) == pytest.approx(2.0 * math.sqrt(1.2), rel=1e-12)
        ref = quad_moment_oracle(lambda t: (t - 0.8) ** -0.5, 0.8, 2.0, 7)
        assert m.weighted_mass(-7.0)[0] == pytest.approx(ref, rel=1e-10)

    def test_moments_agree_with_adaptive_quadrature(self):
        m = msr.Density(lambda t: np.exp(-t) * (1.0 + t), (0.7, 3.0))
        for n in (0, 1, 5, 40, 256):
            ref = quad_moment_oracle(lambda t: math.exp(-t) * (1.0 + t), 0.7, 3.0, n)
            assert m.weighted_mass(-float(n))[0] == pytest.approx(ref, rel=1e-11), n


class TestNormalize:
    def test_already_normalized(self):
        m = msr.PointMasses([(2.0, 2.0)])
        normed = msr.normalize(m)
        assert isinstance(normed, msr.Scaled)
        assert normed.c == pytest.approx(1.0, rel=1e-14)

    def test_scale_factor_half(self):
        normed = msr.normalize(msr.PointMasses([(4.0, 2.0)]))
        assert normed.c == pytest.approx(0.5, rel=1e-14)

    def test_hardy_is_probability_after_weighting(self):
        # mu_0 = 1 already, verified independently by quadrature
        ref = quad_moment_oracle(lambda t: t**-1.0, 1.0, np.inf, 0)
        assert ref == pytest.approx(1.0, rel=1e-10)
        normed = msr.normalize(msr.hardy_measure())
        assert normed.c == pytest.approx(1.0, rel=1e-12)


class TestInvariants:
    MEASURES = None

    def _measures(self):
        return [
            msr.hardy_measure(),
            msr.BetaTailDensity(2.0, 1.0),
            msr.BetaTailDensity(3.0, 2.5),
            msr.dirac(2.0),
            msr.MellinConvolution(msr.hardy_measure(), msr.hardy_measure()),
            msr.geometric_atoms(0.5, 2.0),
            msr.PointMasses([(2.0**-k, 1.0 + 1.0 / k) for k in range(1, 61)],
                            declared_inf_support=1.0, tail_certificate=2.0**-60),
        ]

    def test_moments_non_increasing_when_support_above_one(self):
        for m in self._measures():
            seq = msr.moments(m, 40)
            diffs = np.diff(seq.values)
            assert (diffs <= 1e-12).all(), repr(m)

    def test_moment_roots_non_decreasing_when_normalized(self):
        for m in self._measures():
            normed = msr.normalize(m)
            seq = msr.moments(normed, 40)
            roots = [seq[n] ** (1.0 / n) for n in range(1, 41)]
            assert (np.diff(roots) >= -1e-12).all(), repr(m)

    def test_root_bracket_from_support(self):
        for m in self._measures():
            rep = msr.support_report(m)
            bound = max(rep.total_weighted_mass, 1.0) / rep.inf_support
            seq = msr.moments(m, 40)
            for n in range(1, 41):
                assert seq[n] ** (1.0 / n) <= bound + 1e-12, repr(m)

    def test_mellin_moments_are_products(self):
        left = msr.BetaTailDensity(2.0, 1.0)
        right = msr.geometric_atoms(0.25, 1.5)
        conv = msr.MellinConvolution(left, right)
        for n in range(25):
            assert conv.weighted_mass(-float(n))[0] == pytest.approx(
                left.weighted_mass(-float(n))[0] * right.weighted_mass(-float(n))[0], rel=1e-13
            )

    def test_geometric_atoms_match_finite_sum_formula(self):
        lam, ratio = 0.5, 2.0
        m = msr.geometric_atoms(lam, ratio)
        k = len(m.atoms)
        for n in (0, 1, 3, 8):
            y = lam / ratio ** (n + 1.0)
            ref = y * (1.0 - y**k) / (1.0 - y)
            assert m.weighted_mass(-float(n))[0] == pytest.approx(ref, rel=1e-12)


class TestDecayBounds:
    """lo(n) <= mu_n <= up(n) for the (upper, lower) envelopes of every measure class."""

    @staticmethod
    def _check(m, n_terms=60, upper=True):
        up, lo = m.decay_bounds()
        for n in range(n_terms):
            mu = m.weighted_mass(-float(n))[0]
            if upper:
                assert mu <= up.pointwise(n) * (1 + 1e-12), (m, n)
            assert mu >= lo.pointwise(n) * (1 - 1e-12), (m, n)

    def test_power_tail_envelope(self):
        for a in (0.5, 1.0, 3.0):
            self._check(msr.PowerTailDensity(a))

    def test_beta_tail_envelope(self):
        for a, b in ((2.0, 1.5), (2.0, 0.5), (1.0, 1.8), (4.0, 3.0), (-0.3, 0.5), (0.1, 0.95)):
            self._check(msr.BetaTailDensity(a, b), n_terms=80)

    def test_atom_envelope(self):
        self._check(msr.PointMasses([(0.5, 1.5), (0.25, 4.0)]), n_terms=40)

    @pytest.mark.parametrize("m", [
        msr.MellinConvolution(msr.PowerTailDensity(1.5), msr.BetaTailDensity(2.0, 0.5)),
        msr.MellinConvolution(msr.PointMasses([(0.5, 1.5), (0.25, 4.0)]),
                              msr.PowerTailDensity(2.0)),
        msr.Scaled(3.0, msr.BetaTailDensity(4.0, 3.0)),
        msr.Scaled(0.25, msr.geometric_atoms(0.5, 1.5)),
        msr.geometric_atoms(0.5, 2.0),
        msr.geometric_atoms(0.9, 1.0),
    ], ids=["power*beta", "atoms*power", "3beta", "geom/4", "geom", "geom-at-1"])
    def test_composite_and_geometric_envelopes(self, m):
        self._check(m)

    def test_density_envelopes(self):
        # a support reaching below 1 certifies no upper envelope, only the lower one of
        # the witness interval [lo, mid]; inside [1.2, 3] the support infimum gives
        # the geometric upper one
        below = msr.Density(np.sqrt, (0.5, 2.0))
        assert below.decay_bounds()[0] is None
        self._check(below, upper=False)
        self._check(msr.Density(lambda t: 1.0 + np.sin(t), (1.2, 3.0)))


class TestJson:
    CASES = [
        {"type": "point_masses", "atoms": [[1.0, 1.0], [0.5, 2.0]]},
        {"type": "density", "kind": "beta_tail", "a": 1.0, "b": 1.0},
        {"type": "density", "kind": "beta_tail", "a": 2.0, "b": 1.0},
        {
            "type": "mellin",
            "left": {"type": "density", "kind": "beta_tail", "a": 1.0, "b": 1.0},
            "right": {"type": "density", "kind": "beta_tail", "a": 1.5, "b": 1.0},
        },
        {
            "type": "scaled",
            "c": 0.5,
            "inner": {"type": "point_masses", "atoms": [[1.0, 1.0]]},
        },
    ]

    def test_round_trip(self):
        for case in self.CASES:
            m = msr.from_json_dict(case)
            again = msr.from_json_dict(json.loads(json.dumps(m.to_json_dict())))
            assert again.to_json_dict() == m.to_json_dict() == case

    def test_power_tail_input_reads_as_the_beta_tail_at_b_1(self):
        power = {"type": "density", "kind": "power_tail", "a": 1.5}
        beta = {"type": "density", "kind": "beta_tail", "a": 1.5, "b": 1.0}
        assert msr.from_json_dict(power).to_json_dict() == beta
        product = {"type": "mellin", "left": power, "right": power}
        assert msr.from_json_dict(product).to_json_dict() == {
            "type": "mellin", "left": beta, "right": beta}
        assert msr.hardy_measure().to_json_dict() == {
            "type": "density", "kind": "beta_tail", "a": 1.0, "b": 1.0}

    def test_round_trip_keeps_atom_certificates(self):
        m = harness._example_measures()["atoms-1+1/k"]
        again = msr.from_json_dict(m.to_json_dict())
        assert again.inf_support == m.inf_support == 1.0
        assert again.tail_certificate == m.tail_certificate == 2.0**-60

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            msr.from_json_dict({"type": "mystery"})

    def test_generic_density_has_no_json(self):
        with pytest.raises(ValueError):
            msr.Density(lambda t: 1.0, (0.5, 1.0)).to_json_dict()


class TestNamedMeasures:
    def test_named(self):
        hardy = msr.named_measure("hardy")
        assert isinstance(hardy, msr.BetaTailDensity) and (hardy.a, hardy.b) == (1.0, 1.0)
        assert isinstance(msr.named_measure("beta:2:1"), msr.BetaTailDensity)
        d = msr.named_measure("dirac:2")
        assert d.atoms == ((2.0, 2.0),)
        assert d.mu0 == pytest.approx(1.0)
        assert isinstance(msr.named_measure("geom:0.5:2"), msr.PointMasses)
        with pytest.raises(ValueError):
            msr.named_measure("nope")

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            msr.PointMasses([(-1.0, 1.0)])
        with pytest.raises(ValueError):
            msr.PointMasses([(1.0, 0.0)])
        with pytest.raises(ValueError):
            msr.PointMasses([])
