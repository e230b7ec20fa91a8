import math

import numpy as np
import pytest
from scipy import special as sp

from cloaksim.errors import CapabilityError, DomainError
from cloaksim import specfun
from oracle import gamma_half_int, gamma_half_int_scaled

SQRT_PI = 1.7724538509055159


def double_factorial_gamma_half(n):
    # oracle: direct (2n-1)!!/2^n * sqrt(pi) product
    acc = 1.0
    for k in range(1, 2 * n, 2):
        acc *= k
    return acc / 2.0 ** n * SQRT_PI


class TestGammaHalfInt:
    """The lgamma reference against the direct double-factorial product."""

    def test_base_cases(self):
        assert gamma_half_int(0) == pytest.approx(SQRT_PI, rel=1e-14)
        assert gamma_half_int(1) == pytest.approx(SQRT_PI / 2, rel=1e-14)

    def test_n5_matches_double_factorial_oracle(self):
        # oracle value: 945/32 * sqrt(pi)
        assert double_factorial_gamma_half(5) == pytest.approx(
            52.342777784553520, rel=1e-14)
        assert gamma_half_int(5) == pytest.approx(52.342777784553520, rel=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 20, 80, 140])
    def test_matches_oracle_over_range(self, n):
        assert gamma_half_int(n) == pytest.approx(
            double_factorial_gamma_half(n), rel=1e-12)

    def test_scaled_form_finite_past_overflow(self):
        assert not math.isfinite(gamma_half_int(180))
        sc = gamma_half_int_scaled(180)
        assert math.isfinite(sc.log_mag)
        assert sc.log_mag == pytest.approx(math.lgamma(180.5), rel=1e-15)


class TestSphBessel:
    def test_closed_forms_at_low_order(self):
        j0 = specfun.bessel_ladder(0, 1.0).jn(0).to_complex().real
        assert j0 == pytest.approx(0.8414709848078965, abs=1e-15)
        j0_pi = specfun.bessel_ladder(0, math.pi).jn(0).to_complex().real
        assert abs(j0_pi) < 1e-15
        h0 = specfun.bessel_ladder(0, math.pi / 2).hn(0).to_complex()
        assert h0.real == pytest.approx(2.0 / math.pi, abs=1e-15)
        assert abs(h0.imag) < 1e-15

    @pytest.mark.parametrize("t", [0.1, 0.7, 2.0, 4.5, 13.0, 50.0])
    def test_matches_scipy_over_orders(self, t):
        n_arr = np.arange(0, 61)
        jref = sp.spherical_jn(n_arr, t)
        yref = sp.spherical_yn(n_arr, t)
        lad = specfun.bessel_ladder(60, t)
        for n in range(61):
            j = lad.jn(n).to_complex().real
            y = lad.yn(n).to_complex().real
            assert j == pytest.approx(jref[n], rel=2e-12, abs=1e-280)
            assert y == pytest.approx(yref[n], rel=2e-12, abs=1e-280)

    def test_domain_and_capability_errors(self):
        with pytest.raises(DomainError):
            specfun.bessel_ladder(2, 0.0)
        with pytest.raises(DomainError):
            specfun.bessel_ladder(2, -1.0)
        with pytest.raises(CapabilityError):
            specfun.bessel_ladder(specfun.N_CAP + 1, 1.0)

    def test_scaled_values_where_doubles_fail(self):
        # j_150(1e-4) underflows, y_150(1e-4) overflows; logs must stay finite
        lad = specfun.bessel_ladder(150, 1e-4)
        j, y, h = lad.jn(150), lad.yn(150), lad.hn(150)
        assert math.isfinite(j.log_mag) and math.isfinite(y.log_mag)
        lead_j, lead_h, _, _ = specfun.small_arg_leading(150, 1e-4)
        assert abs((j / lead_j).to_complex() - 1) < 1e-3
        assert abs((h / lead_h).to_complex() - 1) < 1e-3


class TestRiccatiCombos:
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.7, 9.0])
    def test_order0_equals_cos(self, t):
        jj = specfun.bessel_ladder(0, t).riccati_j(0).to_complex().real
        assert jj == pytest.approx(math.cos(t), abs=1e-14)

    def test_order3_at_2_matches_series_oracle(self):
        # frozen 50-digit values from the power-series representations
        lad = specfun.bessel_ladder(3, 2.0)
        jj, hh = lad.riccati_j(3).to_complex().real, lad.riccati_h(3).to_complex()
        assert jj == pytest.approx(0.21472960512566867126, rel=1e-13)
        assert hh.real == pytest.approx(0.21472960512566867126, rel=1e-13)
        assert hh.imag == pytest.approx(2.9851168229539316317, rel=1e-13)

    def test_j3_y3_at_2_match_series_oracle(self):
        lad = specfun.bessel_ladder(3, 2.0)
        j, y = lad.jn(3).to_complex().real, lad.yn(3).to_complex().real
        assert j == pytest.approx(0.060722097662874828461, rel=1e-13)
        assert y == pytest.approx(-1.4843665574430799239, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    @pytest.mark.parametrize("t", [0.2, 1.0, 3.0, 20.0])
    def test_cross_product_identity(self, n, t):
        # J_n h_n - H_n j_n = -i/t
        lad = specfun.bessel_ladder(n, t)
        lhs = (lad.riccati_j(n) * lad.hn(n) - lad.riccati_h(n) * lad.jn(n)).to_complex()
        assert abs(lhs - (-1j / t)) < 1e-12 * max(1.0, 1.0 / t)


class TestIdentityGrids:
    def test_wronskian_grid(self):
        # t^2 (j_n y_n' - j_n' y_n) = 1 over n <= 60, t in [0.1, 50]
        worst = 0.0
        for t in np.linspace(0.1, 50.0, 40):
            lad = specfun.bessel_ladder(60, t)
            for n in range(0, 61):
                j, y = lad.jn(n).to_complex().real, lad.yn(n).to_complex().real
                jp = lad.jn(n - 1).to_complex().real - (n + 1) / t * j
                yp = lad.yn(n - 1).to_complex().real - (n + 1) / t * y
                worst = max(worst, abs(t * t * (j * yp - jp * y) - 1.0))
        assert worst < 1e-11

    def test_three_term_recurrence_consistency(self):
        worst = 0.0
        for t in np.linspace(0.1, 50.0, 25):
            lad = specfun.bessel_ladder(60, t)
            for n in range(1, 60):
                jm, j, jp = (lad.jn(n - 1).to_complex().real,
                             lad.jn(n).to_complex().real,
                             lad.jn(n + 1).to_complex().real)
                if abs(j) > 1e-280:
                    rel = abs(jm + jp - (2 * n + 1) / t * j) / max(
                        abs(jm), abs(jp), abs(j) / t)
                    worst = max(worst, rel)
        assert worst < 1e-10


class TestSmallArgLeading:
    @pytest.mark.parametrize("n,t,tol", [(10, 0.01, 1e-4), (25, 0.05, 1e-4)])
    def test_ratios_approach_one(self, n, t, tol):
        lad = specfun.bessel_ladder(n, t)
        j, h = lad.jn(n), lad.hn(n)
        jj, hh = lad.riccati_j(n), lad.riccati_h(n)
        lead_j, lead_h, lead_jj, lead_hh = specfun.small_arg_leading(n, t)
        assert abs((j / lead_j).to_complex() - 1) < tol
        assert abs((h / lead_h).to_complex() - 1) < tol
        assert abs((jj / lead_jj).to_complex() - 1) < 2e-3
        assert abs((hh / lead_hh).to_complex() - 1) < 2e-3

    def test_first_order_band_measured_not_asserted(self):
        # at n=1, t=0.5 the ratio sits in a 1 + O(t) band; record the O-constant
        lad = specfun.bessel_ladder(1, 0.5)
        j, h = lad.jn(1), lad.hn(1)
        lead_j, lead_h, _, _ = specfun.small_arg_leading(1, 0.5)
        c_j = abs((j / lead_j).to_complex() - 1) / 0.5
        c_h = abs((h / lead_h).to_complex() - 1) / 0.5
        assert c_j < 1.0 and c_h < 1.0  # loose envelope only
