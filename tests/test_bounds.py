import math
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pathdeg.bounds import (
    BoundResult,
    ExpansionParams,
    _w_minus1_of_u,
    girth_bound_clique,
    girth_bound_minor_closed,
    girth_bound_polynomial,
    girth_bound_subexponential,
    lambert_w_minus1,
    lower_bound_poly,
    polynomial_gamma_upper_bound,
    threshold_beta,
    wcol_girth_rule,
)


def scan_gamma_oracle(a: float, b: float, p: int) -> int:
    """Scan half-integers for the largest r' violating r' > A log r' + B,
    independently of the W-based formula; 4 when none does (A*C*p < e)."""
    A = b / math.log(2)
    B = math.log(24 * math.sqrt(2) * a * p ** b) / math.log(2)
    best = None
    rp = 0.5
    while rp < 100000:
        if rp <= A * math.log(rp) + B:
            best = rp
        elif best is not None and rp > 3 * best + 10:
            break
        rp += 0.5
    return 4 if best is None else 2 * int(2 * best) + 4


class TestLambertW:
    def test_branch_point(self):
        assert lambert_w_minus1(-1 / math.e) == -1.0

    def test_reference_value(self):
        assert lambert_w_minus1(-0.1) == pytest.approx(-3.5771520640, abs=1e-9)

    def test_domain(self):
        for bad in (-1.0, 0.0, 0.5, -0.3678794412):
            with pytest.raises(ValueError):
                lambert_w_minus1(bad)

    def test_sandwich_at_e_minus_2(self):
        w = lambert_w_minus1(-math.exp(-2.0))
        assert -1 - math.sqrt(2) - 1 < w < -1 - math.sqrt(2) - 2 / 3

    @given(st.floats(min_value=math.log(1e-14), max_value=math.log(1 / math.e) - 1e-9))
    @settings(max_examples=300, deadline=None)
    def test_residual_small(self, log_mag):
        t = -math.exp(log_mag)
        w = lambert_w_minus1(t)
        assert w <= -1.0
        assert abs(w * math.exp(w) - t) <= 1e-12

    @pytest.mark.parametrize("u", [0.01, 0.1, 1, 5, 10, 50])
    def test_sandwich(self, u):
        w = lambert_w_minus1(-math.exp(-u - 1.0))
        assert -1 - math.sqrt(2 * u) - u < w < -1 - math.sqrt(2 * u) - (2 / 3) * u

    @pytest.mark.parametrize("u_lo, u_hi, max_ulp", [(1e-3, 700.0, 16), (1e-6, 1e-3, 512)])
    def test_against_mpmath(self, u_lo, u_hi, max_ulp):
        mpmath = pytest.importorskip("mpmath")
        steps = 400
        for i in range(steps + 1):
            u = u_lo * (u_hi / u_lo) ** (i / steps)
            t = -math.exp(-1.0 - u)
            with mpmath.workdps(40):
                ref = float(mpmath.lambertw(mpmath.mpf(t), -1).real)
            assert abs(lambert_w_minus1(t) - ref) <= max_ulp * math.ulp(ref), (u, t)

    def test_u_form_against_mpmath_past_float_range(self):
        # u = 1e300 is t = -e^(-1e300-1), far below the smallest float;
        # at u = 1e308 and above, 2u itself overflows
        mpmath = pytest.importorskip("mpmath")
        steps = 400
        for u in [10.0 ** (-12 + 312 * i / steps) for i in range(steps + 1)] + [1e308, sys.float_info.max]:
            with mpmath.workdps(60):
                ref = float(mpmath.lambertw(-mpmath.exp(-1 - mpmath.mpf(u)), -1).real)
            assert abs(_w_minus1_of_u(u) - ref) <= 4 * math.ulp(ref), u

    def test_u_below_zero_refused(self):
        for bad in (-1e-300, -1.0, math.nan):
            with pytest.raises(ValueError, match="u >= 0"):
                _w_minus1_of_u(bad)

    def test_floats_just_above_the_branch_point(self):
        # the root is ill-conditioned here; the residual stays at float level
        t = -1.0 / math.e
        for _ in range(1000):
            t = math.nextafter(t, 0.0)
            w = lambert_w_minus1(t)
            u = max(0.0, -1.0 - math.log(-t))
            assert -1.0 - math.sqrt(2.0 * u) - u <= w <= -1.0 - math.sqrt(2.0 * u) - (2.0 / 3.0) * u <= -1.0
            assert abs(w * math.exp(w) - t) <= 1e-16


class TestThresholdBeta:
    def test_trivial_cases(self):
        assert threshold_beta(1, 0) == 0.0
        assert threshold_beta(2, -5) == 0.0

    def test_reference(self):
        assert threshold_beta(1, 2) == pytest.approx(3.1461932206, abs=1e-9)

    def test_bisection_oracle(self):
        lo, hi = math.e, 100.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid - math.log(mid) - 2 < 0:
                lo = mid
            else:
                hi = mid
        assert threshold_beta(1, 2) == pytest.approx((lo + hi) / 2, abs=1e-9)

    def test_tangency(self):
        # B == A(1 - log A): inequality tangent at x = A
        assert threshold_beta(1.0, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_soundness_sampled(self, rng):
        for _ in range(40):
            A = rng.uniform(0.2, 5.0)
            B = rng.uniform(-2.0, 8.0)
            beta = threshold_beta(A, B)
            for _ in range(25):
                x = beta + rng.uniform(1e-3, 50.0)
                assert x > A * math.log(x) + B
            if beta > 0:
                assert abs(beta - A * math.log(beta) - B) <= 1e-9

    @staticmethod
    def mpmath_beta(mpmath, A: float, u) -> float:
        return 0.0 if u < 0 else float(-A * mpmath.lambertw(-mpmath.exp(-1 - u), -1).real)

    @given(st.floats(min_value=-6.0, max_value=6.0), st.floats(min_value=-10.0, max_value=1e5))
    @settings(max_examples=400, deadline=None)
    def test_against_mpmath_in_u_form(self, log10_a, ratio):
        # B/A past about 745 is where e^(-B/A) underflows a float
        mpmath = pytest.importorskip("mpmath")
        A = 10.0 ** log10_a
        B = A * ratio
        beta = threshold_beta(A, B)
        # the float u = B/A + log(A) - 1 is off by about an ulp of its
        # largest term, which W_-1 magnifies without bound at u = 0; so
        # beta must lie, to a few ulp, between the exact answers at u +- du
        du = 4 * math.ulp(max(abs(B / A), abs(math.log(A)), 1.0))
        with mpmath.workdps(60):
            u = mpmath.mpf(B) / A + mpmath.log(A) - 1
            lo, hi = self.mpmath_beta(mpmath, A, u - du), self.mpmath_beta(mpmath, A, u + du)
        assert lo - 4 * math.ulp(lo) <= beta <= hi + 4 * math.ulp(hi), (A, B)
        for eps in (1e-6, 1e-3, 0.5):
            x = beta + eps * (beta + A)
            assert x > A * math.log(x) + B, (A, B, x)

    @pytest.mark.parametrize("A, B", [(1.0, 800.0), (0.001, 1.0)])
    def test_past_the_exp_underflow(self, A, B):
        # e^(-B/A) underflows to 0.0 here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            ref = self.mpmath_beta(mpmath, A, mpmath.mpf(B) / A + mpmath.log(A) - 1)
        assert abs(threshold_beta(A, B) - ref) <= 4 * math.ulp(ref)

    def test_overflow_refused_by_name(self):
        for A, B in ((1.0, math.inf), (1e-300, 1e10), (math.inf, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match=re.escape(f"A = {A}, B = {B}")):
                threshold_beta(A, B)
        assert threshold_beta(1.0, -math.inf) == 0.0


class TestPolynomialBound:
    def test_frozen_values(self):
        params = ExpansionParams(1, 1)
        assert girth_bound_polynomial(params, 2).threshold == 40
        assert girth_bound_polynomial(params, 3).threshold == 84

    @pytest.mark.parametrize("p", [2, 3, 10, 100])
    def test_matches_scan_oracle(self, p):
        params = ExpansionParams(1, 1)
        res = girth_bound_polynomial(params, p)
        assert res.threshold == max(7, scan_gamma_oracle(1, 1, p)) * (p - 1)

    @pytest.mark.parametrize("a,b,p", [(0.5, 2.0, 4), (3.0, 1.5, 7), (1.0, 0.8, 5)])
    def test_matches_scan_oracle_other_params(self, a, b, p):
        res = girth_bound_polynomial(ExpansionParams(a, b), p)
        assert res.threshold == max(7, scan_gamma_oracle(a, b, p)) * (p - 1)

    @pytest.mark.parametrize("a,b,p,threshold", [(0.01, 1, 2, 7), (1e-300, 1e-3, 3, 14)])
    def test_zero_case_matches_scan_oracle(self, a, b, p, threshold):
        # A*C*p < e: r' > A log r' + B holds for every r', so gamma = 4
        params = ExpansionParams(a, b)
        assert params.log_acp(p) < 1.0
        res = girth_bound_polynomial(params, p)
        assert res.threshold == max(7, scan_gamma_oracle(a, b, p)) * (p - 1) == threshold
        with pytest.raises(ValueError, match=r"needs A\*C\*p >= e"):
            polynomial_gamma_upper_bound(params, p)

    def test_threshold_past_the_float_range_refused_by_name(self):
        # -2A*W_-1 is about 1e311 at b = 1e308, though u is finite
        with pytest.raises(ValueError, match=re.escape("a = 1, b = 1e+308, p = 2")):
            girth_bound_polynomial(ExpansionParams(1, 1e308), 2)
        # beta is finite here, but max(7, gamma)*(p-1) is not
        for a, b, p in ((0.01, 1e300, 10 ** 6), (1, 1, 10 ** 320)):
            with pytest.raises(ValueError, match=re.escape(f"a = {a}, b = {b}, p = {p}")):
                girth_bound_polynomial(ExpansionParams(a, b), p)

    @pytest.mark.parametrize("a,b,p,threshold", [(1e300, 0.001, 2, 4010), (1e300, 0.001, 7, 24060),
                                                  (1e300, 0.01, 3, 8020), (10, 0.002, 5, 144),
                                                  (1e300, 7e-306, 2, 4010)])
    def test_matches_scan_oracle_past_float_scale(self, a, b, p, threshold):
        # C = (24*sqrt(2)*a)**(1/b) is far past the float range here
        assert ExpansionParams(a, b).log_scale > math.log(sys.float_info.max)
        res = girth_bound_polynomial(ExpansionParams(a, b), p)
        assert res.threshold == max(7, scan_gamma_oracle(a, b, p)) * (p - 1) == threshold
        assert math.isfinite(polynomial_gamma_upper_bound(ExpansionParams(a, b), p))

    def test_shape(self):
        params = ExpansionParams(2.5, 1.2)
        for p in (2, 5, 11):
            res = girth_bound_polynomial(params, p)
            assert res.threshold % (p - 1) == 0
            assert res.threshold >= 7 * (p - 1)
            assert res.integer_girth_threshold == math.floor(res.threshold) + 1

    def test_uniform_envelope(self):
        params = ExpansionParams(1, 1)
        A = params.log_slope
        p = 2
        while p <= 10 ** 6:
            w = lambert_w_minus1(-math.exp(-params.log_acp(p)))
            gamma = 2 * math.floor(-2.0 * A * w) + 4
            assert gamma < polynomial_gamma_upper_bound(params, p)
            p = max(p + 1, int(p * 1.35))


class TestMinorClosedBound:
    def test_d6(self):
        res = girth_bound_minor_closed(6, 2)
        assert res.threshold == pytest.approx(18.5098, abs=1e-3)
        assert res.integer_girth_threshold == 19

    def test_clamp_boundary(self):
        assert girth_bound_minor_closed(576, 2).threshold == pytest.approx(6 * math.log2(576) + 3)

    def test_clamp_above(self):
        res = girth_bound_minor_closed(1024, 2)
        assert res.threshold == pytest.approx(4 * 10 + 2 * math.log2(576) + 3)

    def test_scales_with_p(self):
        one = girth_bound_minor_closed(8, 2).threshold
        assert girth_bound_minor_closed(8, 5).threshold == pytest.approx(4 * one)

    def test_overflow_refused_by_name(self):
        # p-1 itself passes the float range, or only the product does
        for p in (10 ** 320, 10 ** 308):
            with pytest.raises(ValueError, match=re.escape(f"d = 6, p = {p}")):
                girth_bound_minor_closed(6, p)


class TestSubexponentialBound:
    def test_constant_expansion(self):
        res = girth_bound_subexponential(lambda _r: 1.0, 2)
        assert res.threshold == 27

    def test_sqrt_exponent(self):
        res = girth_bound_subexponential(lambda d: 2.0 ** math.sqrt(d), 2)
        assert res.threshold == 87

    def test_full_exponential_fails(self):
        with pytest.raises(ValueError, match="sub-exponential"):
            girth_bound_subexponential(lambda d: 2.0 ** d, 2, r_max=50)

    def test_threshold_past_float_range(self):
        # 2.0 ** 1024 overflows; the integer 2 ** 1024 exceeds 1e308
        res = girth_bound_subexponential(lambda _r: 1e308, 2)
        assert res.threshold == 12291 and res.integer_girth_threshold == 12292
        assert res.provenance == "sub-exponential (r=1024)"

    def test_r_starts_at_p(self):
        res = girth_bound_subexponential(lambda _r: 1.0, 4)
        assert res.threshold == (6 * 4 * 4 + 3) * 3


class TestCliqueBound:
    def test_composes_with_minor_closed(self):
        d = 0.638 * 5 * math.sqrt(math.log2(5))
        assert girth_bound_clique(5, 2).threshold == girth_bound_minor_closed(d, 2).threshold

    def test_divisible_by_p_minus_1(self):
        for k, p in ((6, 3), (9, 4)):
            res = girth_bound_clique(k, p)
            assert res.threshold / (p - 1) == pytest.approx(girth_bound_clique(k, 2).threshold)

    def test_leading_term_bounded(self):
        gaps = []
        for k in (2 ** 10, 2 ** 14, 2 ** 18, 2 ** 22):
            res = girth_bound_clique(k, 2)
            gaps.append(res.threshold - 4 * math.log2(k) - 2 * math.log2(math.log2(k)))
        spread = max(gaps) - min(gaps)
        assert spread < 1.0  # constant + o(1) residue only
        assert all(abs(gap) < 40 for gap in gaps)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            girth_bound_clique(4, 2)

    def test_overflow_refused_by_name(self):
        with pytest.raises(ValueError, match=re.escape(f"p = {10 ** 320}")):
            girth_bound_clique(5, 10 ** 320)


class TestLowerBoundPoly:
    def test_theorem_constant_via_alpha(self):
        # alpha = 3/4 gives the 8/(3 log 2) coefficient
        v = lower_bound_poly(1.0, 10, 0.75)
        w = lambert_w_minus1(-math.log(2) / 9)
        assert v == pytest.approx(-(8 / (3 * math.log(2))) * w * 9)

    def test_asymptotic_ratio(self):
        v = lower_bound_poly(1.0, 100, 0.75)
        assert 0.5 <= v / ((8 / 3) * 100 * math.log2(100)) <= 1.5

    def test_p3_alpha1_closed_form(self):
        # W(-log2/2) = -2 log 2 exactly, so the value collapses to 8
        assert lower_bound_poly(1.0, 3, 1.0) == pytest.approx(8.0, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="-1/e"):
            lower_bound_poly(0.1, 3, 1.0)

    def test_overflowing_product_refused_by_name(self):
        # (p-1)*b is +inf, so W_-1's argument would be -0.0
        for b, p in ((math.inf, 3), (1e308, 3), (1e305, 10 ** 5), (1.0, 10 ** 320)):
            with pytest.raises(ValueError, match=re.escape(f"b = {b}, p = {p}")):
                lower_bound_poly(b, p, 0.75)

    def test_infinite_girth_refused_by_name(self):
        # (p-1)*b is finite, the witness girth is not
        with pytest.raises(ValueError, match=re.escape("b = 1e+307, p = 3, alpha = 0.75")):
            lower_bound_poly(1e307, 3, 0.75)


class TestWcolGirthRule:
    def test_examples(self):
        assert wcol_girth_rule(3, 4) == 6
        assert wcol_girth_rule(3, 6) == 5
        assert wcol_girth_rule(4, 5) == 4 + 2 + math.floor(math.log2(4))

    def test_q_at_most_r_rejected(self):
        with pytest.raises(ValueError):
            wcol_girth_rule(3, 3)

    def test_tight_cases(self):
        for r in (2, 3, 5, 8):
            assert wcol_girth_rule(r, r + 1) == r + 2 + math.floor(math.log2(r))
            assert wcol_girth_rule(r, 2 * r) == r + 2

    def test_no_log_term_when_q_at_least_2r(self):
        # including r <= 0, where (q-1) // (q-r) is 0 or negative
        for r in range(-3, 6):
            for q in range(max(r + 1, 2 * r), 2 * r + 8):
                assert wcol_girth_rule(r, q) == r + 2, (r, q)


class TestBoundResult:
    def test_integer_threshold_is_floor_plus_one(self):
        assert BoundResult.of(18.5, "x").integer_girth_threshold == 19
        assert BoundResult.of(27.0, "x").integer_girth_threshold == 28
