import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from antsel import analytic, verify
from antsel.analytic import (
    AnalyticSpec,
    QuadratureError,
    adaptive_quadrature,
    binomial_identity_check,
    chi2n_cdf,
    dmt_curve,
    exp_integral,
    leading_coefficient_exact,
    outage_coefficient,
    pr_outage_quadrature,
    random_pair_outage,
    series_partial,
    theta0_cdf,
    theta0_pdf,
    theta_cdf,
    theta_pdf,
)
from coefficient_oracle import reference_coefficients


class TestAngleDensity:
    def test_spot_value(self):
        assert theta_pdf(math.pi / 4, 2) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n_r", range(2, 7))
    def test_normalization(self, n_r):
        total, _ = integrate.quad(lambda t: theta_pdf(t, n_r), 0.0, math.pi / 2)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_vanishes_at_origin(self):
        assert theta_pdf(1e-9, 3) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theta_pdf(0.0, 2)
        with pytest.raises(ValueError):
            theta_pdf(math.pi / 2, 2)
        with pytest.raises(ValueError):
            theta_pdf(0.5, 1)

    def test_cdf_consistent_with_pdf(self):
        for n_r in (2, 4):
            val, _ = integrate.quad(lambda t: theta_pdf(t, n_r), 0.0, 0.9)
            assert theta_cdf(0.9, n_r) == pytest.approx(val, rel=1e-10)


@pytest.mark.parametrize("law", [theta_pdf, theta_cdf, theta0_pdf, theta0_cdf, chi2n_cdf], ids=lambda f: f.__name__)
@pytest.mark.parametrize("arg", [math.nan, np.array([0.5, math.nan])], ids=["scalar", "array"])
def test_nan_argument_raises(law, arg):
    # every comparison with nan is False, so the domain checks once let it
    # through and the laws returned nan
    with pytest.raises(ValueError):
        law(arg, 3)


@pytest.mark.parametrize("law,message", [(chi2n_cdf, "degrees parameter must be positive, got 0"),
                                         (theta0_pdf, "order parameter must be positive, got 0"),
                                         (theta0_cdf, "order parameter must be positive, got 0")],
                         ids=["chi2n_cdf", "theta0_pdf", "theta0_cdf"])
def test_order_zero_raises(law, message):
    with pytest.raises(ValueError, match=message):
        law(0.5, 0)


class TestChi2nCdf:
    def test_zero(self):
        assert chi2n_cdf(0.0, 3) == 0.0

    def test_median_of_one_term(self):
        assert chi2n_cdf(math.log(2.0), 1) == pytest.approx(0.5, rel=1e-12)

    def test_small_x_head(self):
        x = 1e-4
        assert chi2n_cdf(x, 3) / x ** 3 == pytest.approx(1.0 / 6.0, rel=1e-3)

    def test_matches_series_form(self):
        for n in (1, 2, 6):
            for x in (0.3, 1.7, 5.0):
                series = 1.0 - math.exp(-x) * sum(x ** k / math.factorial(k) for k in range(n))
                assert chi2n_cdf(x, n) == pytest.approx(series, rel=1e-12)


class TestLargestAngleLaw:
    def test_reduces_to_pair_law_at_order_one(self):
        grid = np.linspace(0.2, 1.4, 9)
        np.testing.assert_allclose(theta0_pdf(grid, 1), theta_pdf(grid, 2), rtol=1e-12)

    def test_cdf_endpoint(self):
        assert theta0_cdf(math.pi / 2, 5) == pytest.approx(1.0)

    def test_cdf_spot_value(self):
        assert theta0_cdf(math.pi / 4, 4) == pytest.approx(0.0625, rel=1e-12)

    def test_order_statistics_factorization(self):
        # the largest of n_t - 1 independent reference angles
        n_t, n_r = 4, 3
        m = (n_t - 1) * (n_r - 1)
        grid = np.linspace(0.1, 1.5, 8)
        np.testing.assert_allclose(theta0_cdf(grid, m), theta_cdf(grid, n_r) ** (n_t - 1), rtol=1e-12)


class TestExpansionCoefficients:
    def test_three_by_three(self):
        coeff = outage_coefficient(3, 3)
        assert coeff.m == 4
        assert coeff.leading_exact == Fraction(1, 120)
        assert coeff.leading == pytest.approx(1 / 120)

    def test_two_by_two_empty_sum(self):
        coeff = outage_coefficient(2, 2)
        assert coeff.m == 1
        assert coeff.b_m == 0.0
        assert coeff.leading_exact == 1

    def test_four_by_three(self):
        # 1/720 - 6 (1/5040 + 1/40320), frozen against the quadrature anchor below
        coeff = outage_coefficient(4, 3)
        assert coeff.leading_exact == Fraction(1, 20160)

    def test_expansion_head_structure(self):
        for n_t, n_r in ((2, 2), (3, 3), (4, 3)):
            coeff = outage_coefficient(n_t, n_r)
            assert coeff.a[0] == pytest.approx(1.0, abs=1e-12)
            assert all(abs(v) < 1e-12 for v in coeff.a[1:coeff.m])
            assert coeff.a[coeff.m] == pytest.approx(-1.0 / math.factorial(coeff.m), rel=1e-12)

    def test_head_polynomial_starts_at_reciprocal_m(self):
        coeff = outage_coefficient(4, 4)
        assert coeff.c[0] == pytest.approx(1.0 / coeff.m, rel=1e-12)

    def test_positivity_window(self):
        for n_t in range(2, 13):
            for n_r in range(2, 13):
                assert leading_coefficient_exact(n_t, n_r) > 0

    def test_matches_the_double_sums(self):
        # every float of c and a, against the defining sums term by term
        for n_t in range(2, 7):
            for n_r in range(2, 7):
                coeff = outage_coefficient(n_t, n_r)
                assert (coeff.c, coeff.a) == reference_coefficients(n_t, n_r), (n_t, n_r)


class TestOutageQuadrature:
    def test_anchor_three_by_three(self):
        x = 1e-3
        ratio = pr_outage_quadrature(x, 3, 3) / (x ** 4 / 120.0)
        assert 0.98 <= ratio <= 1.02

    def test_anchor_four_by_three(self):
        x = 1e-3
        ratio = pr_outage_quadrature(x, 4, 3) / (x ** 6 / 20160.0)
        assert 0.98 <= ratio <= 1.02

    def test_saturation(self):
        assert pr_outage_quadrature(50.0, 3, 3) >= 1.0 - 1e-6

    def test_monotone_in_threshold(self):
        xs = np.geomspace(1e-3, 10.0, 12)
        vals = [pr_outage_quadrature(x, 3, 3) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_restricted_slope_agreement(self):
        xs = np.geomspace(1e-4, 1e-2, 9)
        s_u = np.polyfit(np.log(xs), np.log([pr_outage_quadrature(x, 3, 3) for x in xs]), 1)[0]
        s_r = np.polyfit(np.log(xs), np.log([pr_outage_quadrature(x, 3, 3, restricted=True) for x in xs]), 1)[0]
        assert abs(s_u - 4.0) <= 0.05
        assert abs(s_u - s_r) <= 0.05

    def test_quadrature_matches_coefficient_nearby(self):
        for n_t, n_r in ((3, 3), (4, 3), (3, 4)):
            coeff = outage_coefficient(n_t, n_r)
            x = 1e-3
            ratio = pr_outage_quadrature(x, n_t, n_r) / (coeff.leading * x ** coeff.m)
            assert ratio == pytest.approx(1.0, abs=0.02)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pr_outage_quadrature(0.0, 3, 3)

    @pytest.mark.parametrize("x", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_threshold_is_named(self, x):
        with pytest.raises(ValueError, match=f"threshold must be finite and positive, got {x}"):
            pr_outage_quadrature(x, 3, 3)

    @pytest.mark.parametrize("restricted", [False, True], ids=["unrestricted", "restricted"])
    def test_one_where_the_gamma_law_is_one(self, restricted):
        # once F_z(x) is 1.0 in double precision the tail integral is x^-m / m exactly
        for x in (1e6, 1e80):
            assert pr_outage_quadrature(x, 3, 3, restricted=restricted) == 1.0

    @pytest.mark.parametrize("restricted", [False, True], ids=["unrestricted", "restricted"])
    def test_an_array_of_thresholds_reads_as_one_call_per_threshold(self, restricted):
        xs = np.array([*verify.QUADRATURE_SLOPE_GRID, 1e-3, 0.1, 1.0, 5.0, 1e6])
        batch = pr_outage_quadrature(xs, 3, 3, restricted=restricted)
        assert isinstance(batch, np.ndarray) and batch.shape == xs.shape
        assert batch.tolist() == [pr_outage_quadrature(x, 3, 3, restricted=restricted) for x in xs.tolist()]
        assert type(pr_outage_quadrature(0.1, 3, 3, restricted=restricted)) is float

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("restricted", [False, True], ids=["unrestricted", "restricted"])
    def test_an_underflowed_probability_reads_zero(self, restricted):
        # m = 110 and 121: the prefactor times x^m is 0.0 in double
        # precision, while the tail's integrand w^-(m+1) overflows; no
        # warning, no QuadratureError
        for shape in ((12, 11), (12, 12)):
            assert pr_outage_quadrature(np.array([1e-12, 1e-8, 1e-6]), *shape, restricted=restricted).tolist() \
                == [0.0] * 3
            assert pr_outage_quadrature(1e-6, *shape, restricted=restricted) == 0.0

    def test_the_slope_integrates_its_grid_in_one_call(self, monkeypatch):
        calls = []

        def counting(f, a, b=math.inf):
            calls.append(np.size(a))
            return adaptive_quadrature(f, a, b)

        monkeypatch.setattr(analytic, "adaptive_quadrature", counting)
        analytic.quadrature_slope(verify.QUADRATURE_SLOPE_GRID, 3, 3)
        assert calls == [len(verify.QUADRATURE_SLOPE_GRID)]


class TestRandomPairOutage:
    """Random selection's exact L = 2 curve: min(a, b) u with a, b iid
    Gamma(n_r) and u ~ Beta(n_r - 1, 1)."""

    @pytest.mark.parametrize("n_r", [2, 3, 4])
    def test_matches_the_plain_integral(self, n_r):
        def integrand(u, x):
            return (n_r - 1) * u ** (n_r - 2) * (1.0 - (1.0 - chi2n_cdf(x / u, n_r)) ** 2)

        for x in (0.02, 0.1, 0.5, 2.0):
            plain, _ = integrate.quad(integrand, 0.0, 1.0, args=(x,), epsabs=0.0, epsrel=1e-10, limit=200)
            assert random_pair_outage(x, n_r) == pytest.approx(plain, rel=1e-9)

    @pytest.mark.parametrize("n_r", [2, 3, 4])
    def test_small_threshold_exponent(self, n_r):
        # the plain integrand is 0 by x = 1e-9; the transformed one keeps x^(n_r - 1)
        deep, shallow = random_pair_outage(1e-12, n_r), random_pair_outage(1e-6, n_r)
        assert deep > 0.0
        assert math.log(shallow / deep) / math.log(1e6) == pytest.approx(n_r - 1, abs=1e-5)

    def test_saturation_and_domain(self):
        assert random_pair_outage(1e6, 3) == 1.0
        with pytest.raises(ValueError, match="threshold"):
            random_pair_outage(0.0, 3)
        with pytest.raises(ValueError, match="n_r >= 2"):
            random_pair_outage(0.1, 1)

    def test_nan_threshold_is_named(self):
        with pytest.raises(ValueError, match="threshold must be finite and positive, got nan"):
            random_pair_outage(math.nan, 3)

    @pytest.mark.filterwarnings("error")
    def test_arrays_and_underflow(self):
        xs = [1e-300, 1e-12, 0.1, 5.0, 1e6]
        batch = random_pair_outage(np.array(xs), 5)
        assert batch.tolist() == [random_pair_outage(x, 5) for x in xs]
        assert batch[0] == 0.0 and batch[-1] == 1.0


class TestAdaptiveQuadrature:
    """The Gauss-Kronrod 7/15 routine against scipy's QUADPACK on every
    integral the package evaluates, and its failure modes."""

    @staticmethod
    def recorded_integrals(monkeypatch, *calls):
        """(integrand, a, b, value) of every adaptive_quadrature
        call that ``calls`` make, one entry per row of a batched call, with
        the integrand of that row as a scalar function."""
        seen = []

        def recording(f, a, b=math.inf):
            out = adaptive_quadrature(f, a, b)
            lower = np.atleast_1d(a)
            for i, (lo, value) in enumerate(zip(lower, np.atleast_1d(out))):
                def row(w, f=f, i=i, n=lower.size):
                    return float(f(np.full((n, 1), w))[i, 0])

                seen.append((row, float(lo), b, float(value)))
            return out

        monkeypatch.setattr(analytic, "adaptive_quadrature", recording)
        for call in calls:
            call()
        return seen

    def assert_match_quadpack(self, seen):
        assert seen
        for row, lo, b, value in seen:
            ref, _ = integrate.quad(row, lo, b, epsabs=0.0, epsrel=1e-13, limit=analytic.QUADRATURE_LIMIT)
            assert value == pytest.approx(ref, rel=1e-12, abs=0.0), (lo, b)

    @pytest.mark.parametrize("restricted", [False, True], ids=["unrestricted", "restricted"])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3), (5, 4)], ids=lambda s: "x".join(map(str, s)))
    def test_tail_integrals_match_quadpack(self, monkeypatch, shape, restricted):
        xs = (*verify.QUADRATURE_SLOPE_GRID, 1e-3, 0.1, 1.0, 5.0)
        self.assert_match_quadpack(self.recorded_integrals(
            monkeypatch, *(lambda x=x: pr_outage_quadrature(x, *shape, restricted=restricted) for x in xs)))

    @pytest.mark.parametrize("n_r", range(2, 6))
    def test_random_pair_law_matches_quadpack(self, monkeypatch, n_r):
        xs = (1e-12, 1e-6, 1e-3, *verify.OUTAGE_GRID, 1.0, 2.0, 5.0)
        self.assert_match_quadpack(self.recorded_integrals(
            monkeypatch, *(lambda x=x: random_pair_outage(x, n_r) for x in xs)))

    def test_selftest_references_match_quadpack(self, monkeypatch):
        # the angle density normalizations and the 39 integrals of m^-k e^-xm over [1, inf)
        seen = self.recorded_integrals(monkeypatch, verify.analytic_selftest)
        assert len(seen) == 5 + 39
        self.assert_match_quadpack(seen)

    def test_rule_is_exact_to_degree_23(self):
        # 15 Kronrod nodes integrate polynomials of degree 3 * 7 + 2 exactly, and no higher
        degree = np.arange(25)
        values, _ = analytic._gauss_kronrod(lambda w: w ** degree[:, None], np.tile([-1.0, 1.0], (25, 1)))
        gap = np.abs(values[:, 0] - (1 + (-1.0) ** degree) / (degree + 1))
        assert gap[:24].max() < 1e-14
        assert gap[24] > 1e-10

    def test_batched_integrals_match_single_ones(self):
        xs = np.array([0.1, 1.0, 5.0])
        batch = adaptive_quadrature(lambda w: np.exp(-xs[:, None] * w), np.ones(3))
        for x, value in zip(xs, batch):
            assert value == pytest.approx(adaptive_quadrature(lambda w: np.exp(-x * w), 1.0), rel=1e-15)
            assert value == pytest.approx(math.exp(-x) / x, rel=1e-13)

    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureError, match=f"in {analytic.QUADRATURE_LIMIT} subintervals"):
            adaptive_quadrature(lambda w: 1.0 / w, 1.0)

    @pytest.mark.parametrize("b", [1.0, math.inf], ids=["finite", "infinite"])
    def test_nan_integrand_raises(self, b):
        with pytest.raises(QuadratureError, match="not finite"):
            adaptive_quadrature(lambda w: np.where(w > 0.5, np.nan, 1.0), 0.0, b)

    def test_nan_at_a_bisection_node_raises(self):
        # finite on the first 15 nodes, whose smallest is 0.0043; the
        # bisections toward the sqrt's kink at 0 reach below 1e-3
        with pytest.raises(QuadratureError, match="from 0.0 to 1.0 met a value that is not finite"):
            adaptive_quadrature(lambda w: np.where(w < 1e-3, np.nan, np.sqrt(np.abs(w))), 0.0, 1.0)


class TestExpIntegral:
    def test_small_argument_limit(self):
        assert exp_integral(3, 1e-8) == pytest.approx(0.5, abs=1e-6)

    def test_unit_argument(self):
        # frozen from direct quadrature of e^{-m}/m over (1, inf)
        assert exp_integral(1, 1.0) == pytest.approx(0.2193839, abs=1e-7)

    def test_recursion_residual(self):
        for k in range(1, 7):
            for x in (0.1, 1.0, 5.0):
                res = k * exp_integral(k + 1, x) - math.exp(-x) + x * exp_integral(k, x)
                assert abs(res) < 1e-12

    @pytest.mark.parametrize("k", range(-4, 9))
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_against_quadrature(self, k, x):
        ref, _ = integrate.quad(lambda t: t ** (-k) * math.exp(-x * t), 1.0, np.inf,
                                epsabs=0.0, epsrel=1e-13, limit=300)
        assert exp_integral(k, x) == pytest.approx(ref, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_integral(2, 0.0)

    def test_nan_argument_is_named(self):
        with pytest.raises(ValueError, match="argument must be finite and positive, got nan"):
            exp_integral(2, math.nan)


class TestSeriesPartial:
    def test_limit_value(self):
        assert series_partial(4, 1000) == pytest.approx(1.0 / 480.0, rel=1e-9)

    def test_single_term(self):
        assert series_partial(3, 1) == pytest.approx(1.0 / math.factorial(5), rel=1e-12)

    def test_monotone_and_bounded(self):
        vals = [series_partial(4, k) for k in (1, 5, 20, 100, 1000)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1.0 / (4 * math.factorial(5))

    def test_order_zero_raises(self):
        with pytest.raises(ValueError, match="need m >= 1 and k_max >= 1, got m=0"):
            series_partial(0, 5)


class TestBinomialIdentity:
    def test_trivial(self):
        assert binomial_identity_check(5, 0)

    def test_hand_case(self):
        # 1 - 5 + 10 = 6 = C(4, 2)
        assert binomial_identity_check(5, 2)

    def test_exhaustive_small(self):
        assert all(binomial_identity_check(m, k) for m in range(1, 21) for k in range(m))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binomial_identity_check(5, 5)


class TestDiversityBoundsAndDmt:
    def test_two_stream_exact(self):
        spec = AnalyticSpec(3, 3, 2)
        assert (spec.m_lower, spec.m_upper) == (4, 4)

    def test_general_l(self):
        spec = AnalyticSpec(5, 3, 3)
        assert (spec.m_lower, spec.m_upper) == (3, 6)

    def test_square_receive_side(self):
        # when n_r equals L the lower bound collapses to n_t - L + 1
        assert AnalyticSpec(6, 3, 3).m_lower == 4

    def test_dmt_points(self):
        assert dmt_curve(3, 3, 2, 0.0) == pytest.approx(4.0)
        assert dmt_curve(3, 3, 2, 1.0) == pytest.approx(2.0)
        assert dmt_curve(3, 3, 2, 2.0) == pytest.approx(0.0)

    def test_dmt_clamps_past_full_rate(self):
        assert dmt_curve(3, 3, 2, 5.0) == 0.0

    def test_dmt_nan_gain_is_named(self):
        with pytest.raises(ValueError, match="multiplexing gain must be finite and non-negative, got nan"):
            dmt_curve(3, 3, 2, math.nan)

    def test_dmt_bounds_at_zero_gain(self):
        assert dmt_curve(4, 4, 3, 0.0, bound="lower") == pytest.approx(4.0)
        assert dmt_curve(4, 4, 3, 0.0, bound="upper") == pytest.approx(6.0)

    def test_exact_requires_two_streams(self):
        with pytest.raises(ValueError):
            dmt_curve(4, 4, 3, 0.0, bound="exact-l2")

    def test_unknown_bound(self):
        with pytest.raises(ValueError, match="unknown bound 'x'"):
            dmt_curve(3, 3, 2, 0.5, bound="x")

    def test_spec_derived_constants(self):
        spec = AnalyticSpec(3, 3, 2)
        assert (spec.m, spec.m_lower, spec.m_upper) == (4, 4, 4)
        assert spec.psi0 == pytest.approx(math.pi / 4)
        with pytest.raises(ValueError):
            AnalyticSpec(2, 3, 3)
        with pytest.raises(ValueError, match="psi0 requires n_t >= 2"):
            AnalyticSpec(1, 1, 1).psi0
