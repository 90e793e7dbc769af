import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kfplab.iteration import (
    degiorgi_threshold,
    exponent_sum,
    holder_alpha,
    kappa_exponent,
    moser_product,
    sobolev_p,
)

from conftest import exponent_sum_direct


class TestExponentSum:
    def test_alpha_two_n_three(self):
        # direct sum 3 + 2*2 + 4*1 = 11
        assert exponent_sum(2.0, 3) == pytest.approx(11.0, rel=1e-14)
        assert exponent_sum_direct(2.0, 3) == 11.0

    def test_n_one_is_one(self):
        for alpha in (0.5, 1.7, 3.0, 10.0):
            assert exponent_sum(alpha, 1) == pytest.approx(1.0, rel=1e-13)

    def test_alpha_three_n_four(self):
        # direct: 4 + 3*3 + 9*2 + 27*1 = 58; closed: (3*80 - 4*2)/4
        assert exponent_sum_direct(3.0, 4) == 58.0
        assert exponent_sum(3.0, 4) == pytest.approx(58.0, rel=1e-14)
        assert (3.0 * 80.0 - 4.0 * 2.0) / 4.0 == 58.0

    def test_closed_form_matches_direct_randomly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            alpha = rng.uniform(1.1, 4.0) if rng.uniform() < 0.7 else rng.uniform(0.2, 0.9)
            n = int(rng.integers(1, 26))
            closed = exponent_sum(alpha, n)
            direct = exponent_sum_direct(alpha, n)
            assert closed == pytest.approx(direct, rel=1e-12)

    @given(st.floats(min_value=1.05, max_value=4.0), st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_bound_dominates(self, alpha, n):
        # the dominating bound (alpha / (alpha - 1)^2) alpha^n, valid for alpha > 1
        bound = alpha / (alpha - 1.0) ** 2 * alpha**n
        assert exponent_sum(alpha, n) <= bound * (1 + 1e-12)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            exponent_sum(1.0, 5)

    # 1e12 ** 30 raises OverflowError; 1e10 * 1e10 ** 30 rounds to inf
    @pytest.mark.parametrize("alpha", [1e12, 1e10])
    def test_overflowing_sum_rejected(self, alpha):
        with pytest.raises(ValueError, match="overflows"):
            exponent_sum(alpha, 30)


class TestDeGiorgiThreshold:
    def test_zero_start(self):
        rep = degiorgi_threshold(2.0, 2.0, 0.0)
        assert rep.converges
        assert np.all(rep.direct == 0.0)

    def test_square_recursion(self):
        rep = degiorgi_threshold(1.0, 2.0, 0.5)
        assert rep.gamma == pytest.approx(0.5)
        assert rep.converges
        # direct V_n = V0^(2^n)
        expected = 0.5 ** (2.0 ** np.arange(7))
        assert np.allclose(rep.direct[:7], expected, rtol=1e-12)

    def test_threshold_boundary(self):
        # choose V0 so that gamma = 1.01 > 1
        exponent = 1.5 / 0.5**2
        v0 = 1.01 / 4.0**exponent
        rep = degiorgi_threshold(4.0, 1.5, v0)
        assert rep.gamma == pytest.approx(1.01, rel=1e-12)
        assert rep.verdict == "no conclusion"

    @given(
        st.floats(min_value=1.0, max_value=8.0),
        st.floats(min_value=1.2, max_value=3.0),
        st.floats(min_value=1e-12, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    @example(beta=1.0000000000000002, alpha=2.9375, v0=0.25)  # log terms near 1e9
    def test_bound_dominates_direct(self, beta, alpha, v0):
        rep = degiorgi_threshold(beta, alpha, v0)
        direct_log, bound_log = rep.direct_log[:21], rep.bound_log[:21]
        finite = np.isfinite(direct_log) & np.isfinite(bound_log)
        assert np.all(bound_log[finite] >= direct_log[finite] - 1e-9)

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            degiorgi_threshold(2.0, 1.0, 0.5)


class TestMoserProduct:
    def test_first_factor_unity(self):
        partials, _ = moser_product(3.0, 1.0, 1.0, 5)
        assert partials[0] == pytest.approx(1.0, rel=1e-14)

    def test_exponents_for_d3(self):
        p = sobolev_p(3)
        assert p == 42.0 / 19.0
        # q_n = (p/2)^n = (21/19)^n
        partials, _ = moser_product(p, 1.0, 1.0, 3)
        q1 = p / 2.0
        assert q1 == pytest.approx(21.0 / 19.0, rel=1e-15)

    def test_cauchy_tail(self):
        partials, _ = moser_product(4.0, 2.0, 1.0, 60)
        assert abs(partials[59] - partials[29]) < 1e-6

    def test_monotone_when_factors_exceed_one(self):
        partials, _ = moser_product(3.0, 2.0, 1.0, 40)
        assert np.all(np.diff(partials) >= -1e-15)

    def test_p_at_most_two_rejected(self):
        with pytest.raises(ValueError):
            moser_product(2.0, 1.0, 1.0, 10)


class TestExponentFormulas:
    def test_sobolev_p_values(self):
        assert sobolev_p(3) == 42.0 / 19.0
        assert sobolev_p(1) == 18.0 / 7.0
        assert sobolev_p(2) == 30.0 / 13.0

    def test_holder_alpha_exact_dyadic(self):
        assert holder_alpha(0.5, 0.25) == 1.0 / 3.0

    def test_holder_alpha_range(self):
        with pytest.raises(ValueError):
            holder_alpha(1.0, 0.25)
        with pytest.raises(ValueError):
            holder_alpha(0.5, 1.0)

    def test_kappa_moderately_soft(self):
        assert kappa_exponent(-2.0, 3) == -2.0

    def test_kappa_very_soft(self):
        assert kappa_exponent(-3.0, 3) == -7.0

    def test_kappa_coulomb_general_d(self):
        # Coulomb-type gamma = -d lies in the very-soft branch once d > 2
        for d in (3, 4, 5):
            assert kappa_exponent(float(-d), d) == -3.0 * d + 2.0

    def test_kappa_domain(self):
        with pytest.raises(ValueError):
            kappa_exponent(0.5, 3)
        with pytest.raises(ValueError):
            kappa_exponent(-4.0, 3)

