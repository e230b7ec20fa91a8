import cmath
import contextlib
import dataclasses
import gc
import math
import struct
import tracemalloc
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special as sp

from cloaksim.errors import (CapabilityError, ConfigError, DomainError,
                             ResonanceError)
from cloaksim.geometry import CloakParams
from cloaksim import cli, modal, specfun
from cloaksim.scaled import ScaledArray, ScaledComplex
from cloaksim.quadrature import fit_power_law
from oracle import (as_complex, gamma_half_int, mp_denominators, mp_mode,
                    mp_values, pack, packed, packed_error, truncation_tails)


def ref_funcs(n, t):
    # oracle path: scipy spherical Bessel machinery
    j = sp.spherical_jn(n, t)
    y = sp.spherical_yn(n, t)
    h = j + 1j * y
    jj = j + t * sp.spherical_jn(n, t, derivative=True)
    hh = h + t * (sp.spherical_jn(n, t, derivative=True)
                  + 1j * sp.spherical_yn(n, t, derivative=True))
    return j, h, jj, hh


def oracle_solve(n, p, q, f1, f2, params):
    """Independent solve: assemble the two 2x2 systems directly and invert."""
    om, rho, k = params.omega, params.rho, params.k
    se, sm = params.eps0 ** -0.5, params.mu0 ** -0.5
    jr, hr, jjr, hhr = ref_funcs(n, om * rho)
    jk, hk, jjk, hhk = ref_funcs(n, k * om)
    j2, h2, jj2, hh2 = ref_funcs(n, 2 * om)

    # (eta, d, beta) chain: boundary row plus the two tangential rows
    a = np.array([
        [jj2, hh2, 0.0],
        [jjr, hhr, -se * jjk],
        [rho * jr, rho * hr, -sm * k * jk],
    ], dtype=complex)
    rhs = np.array([2 * f2, se * q * hhk, sm * k * q * hk], dtype=complex)
    eta, d, beta = np.linalg.solve(a, rhs)

    a2 = np.array([
        [j2, h2, 0.0],
        [rho * jr, rho * hr, -se * jk],
        [k * jjr, k * hhr, -sm * jjk],
    ], dtype=complex)
    rhs2 = np.array([f1, se * p * hk, sm * p * hhk], dtype=complex)
    gamma, c, alpha = np.linalg.solve(a2, rhs2)
    return gamma, eta, c, d, alpha, beta


SINGLE = CloakParams(rho=0.1, omega=1.0, eps0=1.0, mu0=1.0, r1=0.5)


class TestTransferSet:
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    @pytest.mark.parametrize("rho", [0.3, 0.05, 1e-3])
    def test_wronskian_collapse_of_primed_ratios(self, n, rho):
        params = CloakParams(rho=rho, omega=1.2, eps0=2.0, mu0=0.5, r1=0.5)
        ts = modal.transfer_coeffs([n], params)
        k, om = params.k, params.omega
        lhs1 = (ts.t13p[0, 0] * ts.det[0, 0]).to_complex() * k
        lhs3 = (ts.t13p[1, 0] * ts.det[1, 0]).to_complex()
        assert abs(lhs1 - (-1j / (k * om))) < 1e-10 * abs(1 / (k * om))
        assert abs(lhs3 - (-1j / (k * om))) < 1e-10 * abs(1 / (k * om))

    def test_scaled_survives_extreme_parameters(self):
        params = CloakParams(rho=1e-6, omega=1.0, r1=0.5)
        ts = modal.transfer_coeffs([60], params)
        for pair in (ts.t13, ts.t24, ts.t13p, ts.t24p):
            for value in pair[:, 0]:
                assert math.isfinite(value.log_mag) or value.is_zero

    def test_t4p_limit_ratio(self):
        params = CloakParams(rho=1e-4, omega=1.0, r1=0.5)
        ts = modal.transfer_coeffs([1], params)
        j, h, _, _ = ref_funcs(1, 1.0)
        ratio = ts.t24p[1, 0].to_complex() / (-h / j)
        assert abs(ratio - 1) < 1e-3

    def test_t3_leading_ratio(self):
        n, rho, om = 2, 1e-3, 1.0
        params = CloakParams(rho=rho, omega=om, r1=0.5)
        ts = modal.transfer_coeffs([n], params)
        g12, g32 = gamma_half_int(n), gamma_half_int(n + 1)
        lead = 1j * math.pi * (n + 1) / (g12 * g32 * n) * (om / 2) ** (2 * n + 1) \
            * rho ** (2 * n + 1)
        assert abs(ts.t13[1, 0].to_complex() / lead - 1) < 0.05


class TestSolveMode:
    def test_homogeneous_data_gives_zero(self):
        co = modal.solve_mode(1, 0, 0, 0, 0, SINGLE)
        for v in as_complex(co).values():
            assert v == 0

    def test_against_direct_2x2_oracle(self):
        co = as_complex(modal.solve_mode(1, 0, 1.0, 0, 0, SINGLE))
        ref = oracle_solve(1, 0, 1.0, 0, 0, SINGLE)
        for got, want in zip(
                [co["gamma"], co["eta"], co["c"], co["d"], co["alpha"], co["beta"]],
                ref):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-13)

    def test_oracle_with_boundary_and_both_sources(self):
        params = CloakParams(rho=0.07, omega=1.3, eps0=3.0, mu0=0.7, r1=0.4)
        data = dict(p=0.4 - 0.2j, q=1.1 + 0.3j, f1=0.2j, f2=-0.1 + 0.05j)
        co = as_complex(modal.solve_mode(2, data["p"], data["q"], data["f1"],
                                         data["f2"], params))
        ref = oracle_solve(2, data["p"], data["q"], data["f1"], data["f2"], params)
        for got, want in zip(
                [co["gamma"], co["eta"], co["c"], co["d"], co["alpha"], co["beta"]],
                ref):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("rho", [0.2, 0.05, 1e-3, 1e-6])
    def test_system_residuals(self, rho):
        params = CloakParams(rho=rho, omega=1.0, r1=0.5)
        for n in (1, 2, 7, 20, 200):
            co = modal.solve_mode(n, 0, 1.0, 0, 0, params)
            res = modal.system_residuals(n, 0, 1.0, 0, 0, params, co)
            assert max(res) < max(1e-10, 1e-14 / rho), n

    def test_residuals_with_general_material(self):
        for params, n, data in [
                (CloakParams(rho=0.05, omega=1.1, eps0=2.5, mu0=0.8, r1=0.5),
                 3, (0.5, 1.0 - 0.4j, 0.1, 0.2j)),
                # the right side of the last equation is 1.4e5 times smaller
                # than its products here
                (CloakParams(rho=1e-5, omega=2.0, eps0=2.0, r1=0.5), 2,
                 (0, 1.0, 0, 0))]:
            co = modal.solve_mode(n, *data, params)
            res = modal.system_residuals(n, *data, params, co)
            assert max(res) < max(1e-10, 1e-14 / params.rho), params

    def test_linearity_in_data(self):
        rng = np.random.default_rng(3)
        params = SINGLE
        d1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        d2 = rng.normal(size=4) + 1j * rng.normal(size=4)
        lam = 0.7 - 0.3j
        a = as_complex(modal.solve_mode(2, *d1, params))
        b = as_complex(modal.solve_mode(2, *d2, params))
        c = as_complex(modal.solve_mode(2, *(d1 + lam * d2), params))
        for key in a:
            combined = a[key] + lam * b[key]
            assert c[key] == pytest.approx(combined, rel=1e-12, abs=1e-14)

    def test_extreme_envelope_stays_finite(self):
        # degrees to 60 at inner radius 1e-6: everything finite in log form;
        # residuals only limited by re-evaluation rounding across the
        # structural cancellation (~1e2 decades), far looser than the
        # working envelope
        params = CloakParams(rho=1e-6, omega=1.0, r1=0.5)
        co = modal.solve_mode(60, 0, 1.0, 0, 0, params)
        for v in (co.gamma, co.eta, co.c, co.d, co.alpha, co.beta):
            assert v.is_zero or math.isfinite(v.log_mag)
        assert max(modal.system_residuals(60, 0, 1.0, 0, 0, params, co)) < 1e-6

    def test_beta_converges_to_beta0(self):
        j, h, _, _ = ref_funcs(1, 1.0)
        beta0 = -h / j
        errs, rhos = [], (1e-2, 1e-3, 1e-4)
        for rho in rhos:
            params = CloakParams(rho=rho, omega=1.0, r1=0.5)
            co = as_complex(modal.solve_mode(1, 0, 1.0, 0, 0, params))
            errs.append(abs(co["beta"] - beta0))
        slope = fit_power_law(rhos, errs)
        assert abs(slope - 1.0) < 0.15


class TestLimitCoeffs:
    def test_sigma_wronskian_collapse(self):
        beta0, pref, sigma = modal.limit_coeffs(1, 1.0, SINGLE)
        j, h, _, _ = ref_funcs(1, 1.0)
        assert sigma * j * 1.0 / (-1j) == pytest.approx(1.0, rel=1e-12)
        assert beta0 == pytest.approx(-h / j, rel=1e-12)

    def test_sigma_against_uncollapsed_oracle(self):
        _, _, sigma = modal.limit_coeffs(1, 1.0, SINGLE)
        raw = modal.sigma_uncollapsed(1, 1.0, SINGLE)
        assert sigma == pytest.approx(raw, rel=1e-12)

    def test_spot_value(self):
        _, _, sigma = modal.limit_coeffs(1, 1.0, SINGLE)
        j1 = sp.spherical_jn(1, 1.0)
        assert sigma == pytest.approx(-1j / j1, rel=1e-13)

    def test_d_prefactor_is_rho_power_coefficient(self):
        n = 1
        vals, rhos = [], (1e-2, 1e-3, 1e-4)
        _, pref, _ = modal.limit_coeffs(n, 1.0, SINGLE)
        pref_c = pref.to_complex()
        errs = []
        for rho in rhos:
            params = CloakParams(rho=rho, omega=1.0, r1=0.5)
            d = as_complex(modal.solve_mode(n, 0, 1.0, 0, 0, params))["d"]
            ratio = d / (pref_c * rho ** (n + 1))
            errs.append(abs(ratio - 1.0))
        assert errs[-1] < 2e-4
        slope = fit_power_law(rhos, errs)
        assert abs(slope - 1.0) < 0.15

    def test_limit_chains_give_the_same_beta0_and_sigma(self):
        params = CloakParams(rho=0.1, omega=1.3, eps0=2.0, mu0=0.7, r1=0.5)
        chains = modal.limit_chains(ALL_MODES, params)
        for key, beta0, sigma in zip(chains.keys, chains.b[0],
                                     chains.surface):
            got_beta0, _, got_sigma = modal.limit_coeffs(
                key[0], ALL_MODES.entries[key][1], params)
            assert (np.array([got_beta0, got_sigma]).tobytes()
                    == np.array([beta0.to_complex(), sigma]).tobytes()), key

    def test_interior_resonance_error(self):
        # omega at the first interior dipole resonance j_1(k omega) = 0
        params = CloakParams(rho=0.1, omega=4.493409457909063, r1=0.5)
        with pytest.raises(ResonanceError) as err:
            modal.limit_coeffs(1, 1.0, params)
        assert err.value.n == 1


class TestTruncationAndTables:
    def test_single_mode_truncation(self):
        src = modal.SourceCoeffs(entries={(1, 0): (0j, 1 + 0j)}, r1=0.5)
        assert modal.truncation_order(src, SINGLE, 1e-10) == 1

    def test_empty_source(self):
        src = modal.SourceCoeffs(entries={}, r1=0.5)
        assert modal.truncation_order(src, SINGLE, 1e-10) == 0
        sol = modal.solve_source(src, None, SINGLE)
        assert sol.modes == {} and sol.n_max == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0.0, math.nan),
                                     complex(math.inf, 1.0)])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_table_data_is_rejected(self, bad, slot):
        pair = [0.5 + 0j, 1.0 + 0j]
        pair[slot] = bad
        with pytest.raises(DomainError, match=r"non-finite .*\(2,1\) in source"):
            modal.SourceCoeffs(entries={(1, 0): (0j, 1), (2, 1): tuple(pair)},
                               r1=0.5)
        with pytest.raises(DomainError,
                           match=r"non-finite .*\(2,1\) in boundary"):
            modal.BoundaryCoeffs({(1, 0): (0j, 1), (2, 1): tuple(pair)})

    @pytest.mark.parametrize("mode", [(1, 5), (2, -3), (0, 0), (-1, 0)])
    def test_boundary_modes_are_checked_like_source_modes(self, mode):
        for make, kind in ((lambda e: modal.SourceCoeffs(e, r1=0.5), "source"),
                           (modal.BoundaryCoeffs, "boundary")):
            with pytest.raises(DomainError,
                               match=rf"invalid mode \({mode[0]},{mode[1]}\) "
                                     rf"in {kind} table"):
                make({(1, 0): (0j, 1), mode: (0j, 1)})

    def test_source_radius_must_match_cloak(self):
        src = modal.SourceCoeffs(entries={(1, 0): (0j, 1)}, r1=0.3)
        params = CloakParams(rho=0.1, omega=1.0, r1=0.5)
        with pytest.raises(DomainError, match=r"r1=0\.3.*r1=0\.5"):
            modal.solve_source(src, None, params)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-12])
    def test_tolerance_must_be_positive(self, tol):
        """A NaN tol fails ``tol <= 0`` but would certify nothing: the
        degree-5 mode that the default tolerance drops would be kept."""
        src = modal.SourceCoeffs(entries={(1, 0): (0j, 1),
                                          (5, 0): (0j, 1e-30)}, r1=0.5)
        assert modal.solve_source(src, None, SINGLE).n_max == 1
        with pytest.raises(DomainError, match="tol must be positive"):
            modal.truncation_order(src, SINGLE, tol)

    def test_synthetic_decay_truncation(self):
        # |q_n| = r1^n / |h_n(k w r1)| makes the weighted tail sum to
        # sum n(n+1) r1^n; first N with tail below 1e-10 is 45 (oracle:
        # explicit tail summation)
        r1 = 0.5
        entries = {}
        for n in range(1, 81):
            j, h, _, _ = ref_funcs(n, r1)
            entries[(n, 0)] = (0j, r1 ** n / abs(h))
        src = modal.SourceCoeffs(entries=entries, r1=r1)
        n_max = modal.truncation_order(src, SINGLE, 1e-10)
        tail = sum(n * (n + 1) * 0.5 ** n for n in range(n_max + 1, 81))
        tail_prev = sum(n * (n + 1) * 0.5 ** n for n in range(n_max, 81))
        assert tail < 1e-10 < tail_prev
        assert n_max == 45

    def test_p_only_mode_is_kept(self):
        src = modal.SourceCoeffs(entries={(1, 0): (1 + 0j, 0j)}, r1=0.5)
        assert modal.truncation_order(src, SINGLE, 1e-10) == 1
        sol = modal.solve_source(src, None, SINGLE)
        assert sol.n_max == 1 and list(sol.modes) == [(1, 0)]
        assert sol.modes[(1, 0)].gamma.to_complex() != 0

    def test_p_only_modes_above_q_modes_are_kept(self):
        entries = {(1, 0): (0j, 1 + 0j), (2, 0): (1 + 0j, 0j),
                   (3, 1): (0.5j, 0j)}
        src = modal.SourceCoeffs(entries=entries, r1=0.5)
        sol = modal.solve_source(src, None, SINGLE)
        assert sol.n_max == 3 and sorted(sol.modes) == sorted(entries)

    def test_decay_warning_for_growing_p_tail(self):
        entries = {(1, 0): (0j, 1.0), (2, 0): (1e6, 0j)}
        src = modal.SourceCoeffs(entries=entries, r1=0.5)
        with pytest.warns(UserWarning, match="tail is growing"):
            modal.check_decay_certificate(src, SINGLE)

    def test_decay_warning_for_growing_tail(self):
        entries = {(1, 0): (0j, 1.0), (2, 0): (0j, 1e6)}
        src = modal.SourceCoeffs(entries=entries, r1=0.5)
        with pytest.warns(UserWarning, match="tail is growing"):
            modal.check_decay_certificate(src, SINGLE)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            cli.parse_source_table(
                [{"n": 1, "m": 0, "q_re": 1.0, "bogus": 2}], r1=0.5)
        with pytest.raises(ConfigError, match="unknown fields"):
            cli.parse_boundary_table([{"n": 1, "m": 0, "p_re": 1.0}])

    def test_duplicate_mode_rejected(self):
        rows = [{"n": 1, "m": 0, "q_re": 1.0}, {"n": 1, "m": 0, "q_re": 2.0}]
        with pytest.raises(ConfigError, match="duplicate"):
            cli.parse_source_table(rows, r1=0.5)

    def test_solve_source_covers_boundary_modes(self):
        src = modal.SourceCoeffs(entries={(1, 0): (0j, 1 + 0j)}, r1=0.5)
        bnd = modal.BoundaryCoeffs(entries={(2, 1): (0.5 + 0j, 0j)})
        sol = modal.solve_source(src, bnd, SINGLE)
        assert (1, 0) in sol.modes and (2, 1) in sol.modes
        assert sol.n_max == 2


@settings(max_examples=150, deadline=None)
@given(tol_exp=st.floats(-14.0, -2.0), r1=st.floats(0.1, 0.9),
       data=st.data())
def test_property_truncation_order_is_the_per_mode_rule(tol_exp, r1, data):
    """Up to 40 modes of degree 10 at most, whose term weights spread over
    24 decades: the tails summed per degree in one pass give the degree
    that re-summing every mode above each candidate gives, unless a tail
    lies within 1e-12 of tol, where the two summation orders may round to
    either side."""
    tol, params = 10.0 ** tol_exp, CloakParams(rho=0.1, omega=1.0, r1=r1)
    keys = data.draw(st.lists(st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(-n, n))),
        min_size=1, max_size=40, unique=True))
    # coefficients that give each mode a drawn weight 10^e
    unit = modal._term_weights(
        modal.SourceCoeffs(dict.fromkeys(keys, (1, 1)), r1=r1), params)
    weight = st.floats(-24.0, 0.0).map(lambda e: 10.0 ** e)
    source = modal.SourceCoeffs(
        {key: (data.draw(weight) / unit[key], data.draw(weight) / unit[key])
         for key in keys}, r1=r1)
    want, tails = truncation_tails(source, params, tol)
    assume(all(abs(tail - tol) > 1e-12 * tol for tail in tails))
    assert modal.truncation_order(source, params, tol) == want


# the source of the frozen pairings in tests/test_radial_kernel.py
FROZEN_SOURCE = modal.SourceCoeffs(entries={
    (1, 0): (0.3 - 0.2j, 1.0 + 0.5j),
    (2, 1): (0.25j, -0.4 + 0.1j),
    (3, -2): (0.1 + 0j, 0.2 - 0.3j)}, r1=0.5)

# packed (log-magnitude, phase.real, phase.imag) doubles of gamma, eta, c,
# d, alpha and beta per mode of solve_source(FROZEN_SOURCE), frozen from
# the solve of every degree in one pass over arrays; each coefficient is
# within FROZEN_ACCURACY of the 40-digit mpmath solve of tests/oracle.py
# (test_frozen_doubles_match_mpmath)
FROZEN_PACKED = {
    0.01: {
        (1, 0): [
            -8.798179625265417, -0.3001488343711344, 0.9538923824130526,
            -7.273475695814498, -0.08982122304705022, -0.9959579046778694,
            -9.048099460846732, 0.8320502943378436, -0.554700196225229,
            -7.916415698091995, 0.894427190999916, 0.44721359549995804,
            0.5037646287836233, 0.3601000936522961, 0.9329136736866962,
            1.6354467638756485, -0.6313362306974052, 0.7755092287063984],
        (2, 1): [
            -12.884436232365434, -0.9653395752757339, -0.2609971348625606,
            -13.084426139174456, 0.7163581693206369, 0.6977327376922955,
            -14.227682081623215, 6.6461210668559565e-18, 1.0,
            -13.727366141451954, -0.9701425001453319, 0.24253562503633297,
            2.6539528452256516, -0.9998452290389893, -0.017593122746431804,
            3.154268785378949, -0.22543025147796844, -0.9742593092799163],
        (3, -2): [
            -16.635736173587148, -0.04087356557548929, 0.9991643266435938,
            -15.915938126063146, -0.8697045633591276, -0.4935726617959195,
            -19.83300791692203, 1.0, -3.7910487319668824e-19,
            -18.55053323819126, 0.5547001962252291, -0.8320502943378436,
            5.197026053969255, -0.0005532994805051608, 0.9999998469298307,
            6.479500732700023, 0.8317432516453566, 0.5551604843127874],
    },
    1e-06: {
        (1, 0): [
            -27.20112871258003, -0.3001488343711342, 0.9538923824130526,
            -25.676426355963468, -0.08982122304705016, -0.9959579046778696,
            -27.451048548161346, 0.8320502943378437, -0.5547001962252291,
            -26.319366358240963, 0.8944271909999159, 0.447213595499958,
            0.5265456580466803, 0.3647834972477236, 0.9310923692822963,
            1.6582278479670625, -0.6274312672591897, 0.7786719494533803],
        (2, 1): [
            -40.50128538372146, -0.9653395752757339, -0.2609971348625606,
            -40.7012752905478, 0.7163581693206369, 0.6977327376922955,
            -41.84453123297924, 6.646121077177299e-18, 1.0,
            -41.3442152928253, -0.9701425001453319, 0.24253562503633297,
            2.6762337811797714, -0.9998519750104179, -0.01720546621765189,
            3.176549721333725, -0.22580796969040484, -0.9741718333149945],
        (3, -2): [
            -53.46421963356802, -0.04087356557548929, 0.9991643266435938,
            -52.744421586044034, -0.8697045633591276, -0.4935726617959195,
            -56.66149137690291, 1.0, -3.7910487319676826e-19,
            -55.379016698172144, 0.5547001962252291, -0.8320502943378437,
            5.219221170019955, -0.0005411542156880851, 0.9999998535760468,
            6.501695848750723, 0.8317499941561199, 0.5551503825282789],
    },
}
# a coefficient exp(log_mag) phase carries the rounding of its log
# magnitude times |log_mag| (up to 57 here, so about 1.3e-14); the largest
# relative error of the doubles above against mpmath is 1.4e-14
FROZEN_ACCURACY = 5e-14

# system_residuals of the same solves, frozen alongside: each residual
# over the largest single product of its equation
FROZEN_RESIDUALS = {
    0.01: {
        (1, 0): [1.6021483794827864e-15, 1.3092278833360668e-16,
                 1.1157158156211175e-16, 5.978727511116809e-16,
                 6.280373206423108e-16, 2.4723757508613645e-16],
        (2, 1): [1.7235296186091149e-15, 1.1102230246251573e-16,
                 5.285864071707144e-16, 1.1443916996243858e-16,
                 1.110242279783532e-15, 1.1854562946192727e-16],
        (3, -2): [0.0, 5.551115123125776e-17,
                 4.7965084432824e-15, 1.6011864169946894e-15,
                 1.3322686193917935e-15, 5.109751094820059e-15],
    },
    1e-06: {
        (1, 0): [0.0, 1.1188630228279522e-16,
                 2.2547970988431185e-15, 1.0990647210786465e-15,
                 1.6910413304902245e-15, 2.2704815203954693e-15],
        (2, 1): [0.0, 1.1102230246251652e-16,
                 2.248613209510108e-15, 2.8609792490764095e-15,
                 4.2189178738605984e-15, 1.6799254182761943e-15],
        (3, -2): [0.0, 1.2412670766236368e-16,
                 9.220176102188574e-16, 1.0099979000294677e-14,
                 6.661338152545526e-15, 5.96212527631481e-16],
    },
}


@pytest.mark.parametrize("rho", [1e-2, 1e-6])
def test_frozen_doubles_match_mpmath(rho):
    """The frozen doubles hold the 40-digit mpmath solve to FROZEN_ACCURACY,
    so re-freezing them cannot hide a wrong solve."""
    params = CloakParams(rho, 1.0, r1=0.5)
    for key, doubles in FROZEN_PACKED[rho].items():
        reference = mp_mode(key[0], *FROZEN_SOURCE.entries[key], 0, 0, params)
        assert packed_error(doubles, reference) <= FROZEN_ACCURACY, key


@pytest.mark.parametrize("rho", [1e-2, 1e-6])
def test_solve_source_reproduces_frozen_doubles(rho):
    params = CloakParams(rho, 1.0, r1=0.5)
    sol = modal.solve_source(FROZEN_SOURCE, None, params)
    assert {key: list(packed(co)) for key, co in sol.modes.items()} == (
        FROZEN_PACKED[rho])
    for key, co in sol.modes.items():
        assert modal.system_residuals(
            key[0], *FROZEN_SOURCE.entries[key], 0j, 0j, params, co) == (
            FROZEN_RESIDUALS[rho][key]), key


_ANY_COEFF = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                allow_infinity=False)


@st.composite
def _sources(draw, r1, n_top, coeff):
    keys = draw(st.lists(st.integers(1, n_top).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(-n, n))),
        min_size=1, max_size=5, unique=True))
    return modal.SourceCoeffs({key: (draw(coeff), draw(coeff))
                               for key in keys}, r1=r1)


def _solved_modes(params, source):
    """(key, p, q, coefficients) of every solved mode, after checking that
    each source mode up to n_max was kept; none on ResonanceError."""
    try:
        sol = modal.solve_source(source, None, params)
    except ResonanceError:
        return []
    assert set(sol.modes) == {key for key in source.entries
                              if key[0] <= sol.n_max}
    return [(key, *source.entries[key], co) for key, co in sol.modes.items()]


@settings(max_examples=60, deadline=None)
@given(rho=st.floats(1e-6, 0.5), r1=st.floats(0.1, 0.9), data=st.data())
def test_property_solve_source_keeps_every_mode_or_raises(rho, r1, data):
    """Vacuum at omega = 1 (the benchmark's material), degrees up to 3 and
    any coefficient of magnitude up to 2, subnormals included: every source
    mode up to n_max is kept and meets the matching-residual bound
    max(1e-10, 1e-14 / rho), or the solve raises ResonanceError."""
    params = CloakParams(rho=rho, omega=1.0, r1=r1)
    source = data.draw(_sources(r1, 3, _ANY_COEFF))
    for (n, _), p, q, co in _solved_modes(params, source):
        worst = max(modal.system_residuals(n, p, q, 0j, 0j, params, co))
        assert worst < max(1e-10, 1e-14 / rho), (n, worst)


@settings(max_examples=60, deadline=None)
@given(rho=st.floats(1e-6, 0.5), omega=st.floats(0.1, 4.0),
       eps0=st.floats(0.25, 4.0), mu0=st.floats(0.25, 4.0),
       r1=st.floats(0.1, 0.9), data=st.data())
def test_property_solve_source_any_material_keeps_every_mode(
        rho, omega, eps0, mu0, r1, data):
    """Any material, frequency, degree up to 6 and coefficient magnitude up
    to 2: every source mode up to n_max is kept and meets the
    matching-residual bound max(1e-10, 1e-14 / rho), or the solve raises
    ResonanceError.

    ``system_residuals`` scales each equation by its largest single
    product, so the bound holds where a side cancels: the right side of
    the last equation is about rho times its products (1.4e5 times smaller
    at rho = 1e-5, omega = eps0 = 2, mode (2, 0), q = 1, which reads
    8.2e-15)."""
    params = CloakParams(rho=rho, omega=omega, eps0=eps0, mu0=mu0, r1=r1)
    source = data.draw(_sources(r1, 6, _ANY_COEFF))
    for (n, _), p, q, co in _solved_modes(params, source):
        worst = max(modal.system_residuals(n, p, q, 0j, 0j, params, co))
        assert worst < max(1e-10, 1e-14 / rho), (n, worst)


# -- the per-degree solution --------------------------------------------------

def _all_modes_source(n_top=12, seed=4):
    """Every (n, m) with n <= n_top (168 modes for 12), |p| = |q| = 2^-n at
    seeded phases."""
    rng = np.random.default_rng(seed)
    return modal.SourceCoeffs(
        {(n, m): tuple(2.0 ** -n * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
                       for _ in range(2))
         for n in range(1, n_top + 1) for m in range(-n, n + 1)}, r1=0.5)


ALL_MODES = _all_modes_source()


@pytest.mark.parametrize("rho", [1e-2, 1e-6])
def test_solved_modes_are_solve_mode_bit_for_bit(rho):
    params = CloakParams(rho, 1.0, r1=0.5)
    bnd = modal.BoundaryCoeffs({(2, 1): (0.3 - 0.1j, 0.2j), (13, 0): (0.1, 0j)})
    sol = modal.solve_source(ALL_MODES, bnd, params)
    assert len(sol.modes) == 169 and sol.n_max == 13
    assert list(sol.modes) == sorted(set(ALL_MODES.entries) | set(bnd.entries))
    for key, co in sol.modes.items():
        ref = modal.solve_mode(key[0], *ALL_MODES.entries.get(key, (0j, 0j)),
                               *bnd.entries.get(key, (0j, 0j)), params)
        assert packed(co) == packed(ref), key


def test_solved_modes_are_a_read_only_mapping():
    sol = modal.solve_source(FROZEN_SOURCE, None, CloakParams(1e-2, 1.0, r1=0.5))
    assert (1, 0) in sol.modes and (1, 1) not in sol.modes
    for missing in ((1, 1), (4, 0), "x"):
        with pytest.raises(KeyError):
            sol.modes[missing]
    with pytest.raises(TypeError):
        sol.modes[(1, 0)] = sol.modes[(2, 1)]
    assert sol.modes == dict(sol.modes) and len(sol.modes) == 3


def test_modes_above_the_truncation_degree_are_not_held():
    entries = {(1, 0): (0j, 1 + 0j), (2, 0): (0j, 1e-40 + 0j)}
    sol = modal.solve_source(modal.SourceCoeffs(entries, r1=0.5), None, SINGLE)
    assert sol.n_max == 1 and list(sol.modes) == [(1, 0)]
    with pytest.raises(KeyError):
        sol.modes[(2, 0)]


def test_retained_solution_is_small():
    """A solution keeps twelve packed values per degree, not six
    coefficients per mode: 168 modes of 12 degrees stay under 16 KB."""
    params = CloakParams(1e-6, 1.0, r1=0.5)
    modal.solve_source(ALL_MODES, None, params)  # fill lazy caches first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = modal.solve_source(ALL_MODES, None, params)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sol.modes) == 168
    assert retained < 16 * 1024, retained


def _fresh_chains(solution, region):
    """Chains built afresh, not read from the memo."""
    return modal._solution_chains(solution)[region]


def test_region_chains_never_stale():
    sol_a = modal.solve_source(FROZEN_SOURCE, None, CloakParams(1e-2, 1.0, r1=0.5))
    sol_b = modal.solve_source(FROZEN_SOURCE, None, CloakParams(1e-6, 1.3, r1=0.5))
    want = {(id(sol), region): _fresh_chains(sol, region)
            for sol in (sol_a, sol_b) for region in ("layer", "hidden")}
    for sol in (sol_a, sol_b, sol_a, sol_a, sol_b):
        for region in ("layer", "hidden"):
            assert modal.region_chains(sol, region) == want[(id(sol), region)]
    # another solution of the same params object is a new one, whatever
    # the memo holds, and so is a replaced one
    modal.region_chains(sol_a, "layer")
    one = modal.solve_source(
        modal.SourceCoeffs({(2, 1): FROZEN_SOURCE.entries[(2, 1)]}, r1=0.5),
        None, sol_a.params)
    assert modal.region_chains(one, "layer").keys == [(2, 1)]
    faster = dataclasses.replace(sol_a, params=CloakParams(1e-2, 2.0, r1=0.5))
    assert modal.region_chains(faster, "layer").wavenumber == 2.0
    assert modal.region_chains(sol_a, "layer").wavenumber == 1.0
    assert modal.region_chains(one, "hidden").keys == [(2, 1)]


# -- resonance margins ----------------------------------------------------------

@pytest.mark.parametrize("name, n, rho, eps0, guess", [
    # a root of dn or dnp sits next to a zero of j_n(k omega); its
    # imaginary part, about (omega rho)^(2n+1), is far below the floor at
    # degree 5; dn and dnp coincide in vacuum, hence eps0 = 2
    ("dn", 5, 1e-2, 2.0, 6.6024),
    ("dnp", 5, 1e-2, 2.0, 6.6089),
    # the exterior denominators vanish at real cavity frequencies
    ("t1*h_n(2w) + j_n(2w)", 1, 0.1, 1.0, 3.8093),
    ("t3*H_n(2w) + J_n(2w)", 1, 0.1, 1.0, 4.6617),
], ids=["dn", "dnp", "gamma", "eta"])
def test_each_margin_rejects_its_root(name, n, rho, eps0, guess):
    with mpmath.workdps(30):
        root = mpmath.findroot(
            lambda w: mp_denominators(n, w, mpmath.mpf(rho), eps0)[name],
            mpmath.mpc(guess))
    assert abs(root.imag) < 1e-18 and abs(root.real - guess) < 1e-3
    source = modal.SourceCoeffs({(n, 0): (1.0, 1.0)}, r1=0.5)
    omega = float(root.real)
    with pytest.raises(ResonanceError) as err:
        modal.solve_source(source, None, CloakParams(
            rho=rho, omega=omega, eps0=eps0, mu0=1.0, r1=0.5))
    assert (err.value.n, err.value.quantity) == (n, name)
    # a millionth away the mode solves
    modal.solve_source(source, None, CloakParams(
        rho=rho, omega=omega * (1 + 1e-6), eps0=eps0, mu0=1.0, r1=0.5))


@pytest.mark.parametrize("name, guess", [("dn", 6.6024), ("dnp", 6.6089)])
def test_resonance_of_a_degree_among_many(name, guess):
    """Degrees 1 to 7 at the root of degree 5's dn (then dnp) raise for
    degree 5 and name that margin, as a solve of degree 5 alone does: the
    degrees beneath it pass every margin and its root is reported before
    the ratios divide by the determinant, with no RuntimeWarning."""
    with mpmath.workdps(30):
        root = mpmath.findroot(
            lambda w: mp_denominators(5, w, mpmath.mpf(1e-2), 2.0)[name],
            mpmath.mpc(guess))
    params = CloakParams(rho=1e-2, omega=float(root.real), eps0=2.0,
                         mu0=1.0, r1=0.5)
    source = modal.SourceCoeffs({(n, 0): (1.0, 1.0) for n in range(1, 8)},
                                r1=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ResonanceError) as err:
            modal.solve_source(source, None, params)
        assert (err.value.n, err.value.quantity) == (5, name)
        modal.solve_source(modal.SourceCoeffs(
            {(n, 0): (1.0, 1.0) for n in range(1, 5)}, r1=0.5), None, params)


def test_every_margin_failing_names_the_lowest_degree_and_dn(monkeypatch):
    """With a floor no margin meets, a solve of degrees 2, 3 and 5 raises
    for degree 2 and names dn, the first margin a degree is checked for;
    the determinants that failed are not divided by."""
    monkeypatch.setattr(modal, "DENOM_FLOOR", math.inf)
    source = modal.SourceCoeffs({(n, 0): (1.0, 1.0) for n in (2, 3, 5)},
                                r1=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ResonanceError) as err:
            modal.solve_source(source, None, SINGLE)
    assert (err.value.n, err.value.quantity) == (2, "dn")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 20), t=st.floats(0.1, 30.0),
       eps0=st.floats(0.25, 4.0))
@example(n=1, t=4.493409457909063, eps0=1.0)  # the shipped resonance
@example(n=10, t=1.0, eps0=1.0)
@example(n=20, t=1.0, eps0=1.0)
def test_property_limit_rejects_only_zeros_of_jn(n, t, eps0):
    """The limit path refuses a degree only within 1e-8 (relative) of a
    zero of j_n(k omega), and gives finite beta0 and sigma elsewhere."""
    params = CloakParams(rho=0.1, omega=t / math.sqrt(eps0), eps0=eps0,
                         r1=0.5)
    t = params.k * params.omega
    try:
        beta0, _, sigma = modal.limit_coeffs(n, 1.0, params)
        raw = modal.sigma_uncollapsed(n, 1.0, params)
    except ResonanceError as err:
        assert err.n == n
        zero = mpmath.findroot(lambda x: mpmath.besselj(n + 0.5, x), t)
        assert abs(zero - t) <= 1e-8 * t
    else:
        assert all(map(cmath.isfinite, (beta0, sigma, raw)))


def _one_mode_limit_chains(n, q, params):
    return modal.limit_chains(modal.SourceCoeffs({(n, 0): (0j, q)}, r1=0.5),
                              params)


# at k omega = 1, beta0 = -h_n/j_n overflows doubles from degree 86 (sigma,
# about 1/j_n, still fits), and j_n itself underflows to 0 at degree 200;
# the chains keep r_n scaled, so they fail only where sigma does
@pytest.mark.parametrize("n, limit", [
    (100, modal.limit_coeffs),
    (200, modal.limit_coeffs), (200, _one_mode_limit_chains),
    (200, modal.sigma_uncollapsed)])
def test_limit_beyond_double_range_raises(n, limit):
    with pytest.raises(CapabilityError):
        limit(n, 1.0, CloakParams(rho=0.1, omega=1.0, r1=0.5))


@pytest.mark.parametrize("n", [86, 90, 120])
def test_limit_ratio_beyond_double_range_matches_mpmath(n):
    """r_n = -h_n(1)/j_n(1), the beta0 of q = 1, past 1.8e308 from degree
    86, against mpmath at 30 digits: within 1e-13 relative plus one ulp of
    its log magnitude (about 719 at degree 86, so 1.1e-13), the resolution
    of the log form."""
    with mpmath.workdps(30):
        j, h = mp_values(n, mpmath.mpf(1))[:2]
        ref = -h / j
        log_ref = float(mpmath.log(abs(ref)))
        phase_ref = complex(ref / abs(ref))
    chains = _one_mode_limit_chains(n, 1.0, CloakParams(rho=0.1, omega=1.0,
                                                       r1=0.5))
    r_n = chains.b[0][0]
    assert log_ref > math.log(np.finfo(float).max)
    assert abs(r_n.log_mag - log_ref) <= 1e-13 + np.spacing(log_ref)
    assert abs(r_n.phase - phase_ref) <= 1e-15
    assert cmath.isfinite(chains.surface[0])


# -- the region chains of a solution ----------------------------------------------

def _bits(values) -> bytes:
    """The doubles of ScaledComplex values as bytes: equal only bit for bit."""
    doubles = pack(values)
    return struct.pack(f"{len(doubles)}d", *doubles)


def _assert_chains_are_solve_mode(sol):
    """Every coefficient of both regions' chains is solve_mode's (or the
    source datum's) bit for bit."""
    layer = modal.region_chains(sol, "layer")
    hidden = modal.region_chains(sol, "hidden")
    assert layer.keys == hidden.keys == list(sol.modes)
    for i, key in enumerate(layer.keys):
        p, q = sol.source.entries.get(key, (0j, 0j))
        co = modal.solve_mode(key[0], p, q,
                              *sol.boundary.entries.get(key, (0j, 0j)),
                              sol.params)
        want = [co.gamma, co.c, co.eta, co.d, co.alpha,
                ScaledComplex.from_complex(p), co.beta,
                ScaledComplex.from_complex(q)]
        got = [chain[i] for chains in (layer, hidden)
               for chain in (*chains.a, *chains.b)]
        assert _bits(got) == _bits(want), key


def test_region_chains_are_solve_mode_bit_for_bit():
    # p = 0 or q = 0 in some modes, a mode with neither, boundary data on a
    # source mode, two boundary-only modes (one of a degree with no source
    # mode) and several orders per degree
    source = modal.SourceCoeffs({
        (1, -1): (0.5 + 0.2j, 0j), (1, 0): (0j, 1.0 - 1.0j),
        (1, 1): (0.3, 0.4j), (2, -2): (1e-3j, 0.7), (2, 0): (0j, 0j),
        (2, 2): (-0.25, 0j), (3, 1): (0.2 - 0.1j, 0.1)}, r1=0.5)
    boundary = modal.BoundaryCoeffs({(1, 0): (0.1, 0.2j), (2, 1): (0.5j, 0j),
                                     (4, -3): (0j, 0.3 + 0.3j)})
    for params in (CloakParams(1e-3, 1.3, eps0=2.0, mu0=0.5, r1=0.5),
                   CloakParams(1e-6, 1.0, r1=0.5)):
        sol = modal.solve_source(source, boundary, params)
        assert set(sol.modes) == set(source.entries) | set(boundary.entries)
        _assert_chains_are_solve_mode(sol)


def test_a_mode_does_not_depend_on_its_batch():
    """A mode's coefficients are solve_mode's bit for bit inside a solve of
    every degree from 1 to 60 and inside the same solve without the
    degrees next to it: a mode with p = 0, one with q = 0, a boundary-only
    mode and the first and last degrees."""
    params = CloakParams(1e-4, 1.3, eps0=2.0, mu0=0.5, r1=0.5)
    entries = {(n, n % 3 - 1): (0.5 * cmath.exp(1j * n), 0.25 - 0.5j)
               for n in range(1, 61)}
    entries.update({(7, 2): (0j, 0.5 - 0.2j), (20, -3): (0.3j, 0j)})
    bnd = {(33, 5): (0.2, 0.1j), (20, -3): (0j, 0.4)}
    full = modal.solve_source(modal.SourceCoeffs(entries, r1=0.5),
                              modal.BoundaryCoeffs(bnd), params)
    assert full.n_max == 60
    for key in [(7, 2), (20, -3), (33, 5), (1, 0), (60, -1)]:
        data = (*entries.get(key, (0j, 0j)), *bnd.get(key, (0j, 0j)))
        want = _bits(dataclasses.astuple(modal.solve_mode(key[0], *data,
                                                          params)))
        apart = {k: v for k, v in entries.items()
                 if abs(k[0] - key[0]) != 1}
        sparse = modal.solve_source(modal.SourceCoeffs(apart, r1=0.5),
                                    modal.BoundaryCoeffs(bnd), params)
        assert {key[0] - 1, key[0] + 1}.isdisjoint(
            n for n, _ in sparse.modes)
        for sol in (full, sparse):
            assert _bits(dataclasses.astuple(sol.modes[key])) == want, key


def test_chains_of_an_empty_solution_are_empty():
    sol = modal.solve_source(modal.SourceCoeffs({}, r1=0.5), None,
                             CloakParams(1e-2, 1.0, r1=0.5))
    for region in ("layer", "hidden"):
        chains = modal.region_chains(sol, region)
        assert chains.keys == [] and all(c.log_mag.size == 0 for c in (
            *chains.a, *chains.b))


_BOUNDARY_ROWS = st.lists(st.integers(1, 60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(-n, n))),
    max_size=2, unique=True)


@settings(max_examples=60, deadline=None)
@given(rho=st.floats(1e-6, 0.5), omega=st.floats(0.1, 4.0),
       eps0=st.floats(0.25, 4.0), mu0=st.floats(0.25, 4.0),
       r1=st.floats(0.1, 0.9), data=st.data())
def test_property_chains_keep_every_mode_to_degree_60(
        rho, omega, eps0, mu0, r1, data):
    """Degrees up to 60, the range the modal docstring claims, any material
    and rho down to 1e-6: every source mode up to n_max and every boundary
    mode is kept, or the solve raises ResonanceError, and the chains of
    both regions are solve_mode's bit for bit."""
    params = CloakParams(rho=rho, omega=omega, eps0=eps0, mu0=mu0, r1=r1)
    source = data.draw(_sources(r1, 60, _ANY_COEFF))
    boundary = modal.BoundaryCoeffs({
        key: (data.draw(_ANY_COEFF), data.draw(_ANY_COEFF))
        for key in data.draw(_BOUNDARY_ROWS)})
    try:
        sol = modal.solve_source(source, boundary, params)
    except ResonanceError:
        return
    assert set(sol.modes) == ({key for key in source.entries
                               if key[0] <= sol.n_max} | set(boundary.entries))
    _assert_chains_are_solve_mode(sol)


def _column(values):
    return ScaledArray(np.array([v.log_mag for v in values]).reshape(-1, 1),
                       np.array([v.phase for v in values]).reshape(-1, 1))


@pytest.mark.parametrize("region", ["layer", "hidden", "limit"])
def test_all_modes_expand_is_the_per_degree_combination(region):
    """The expansion of every mode gives, bit for bit, the four
    combinations of each mode's coefficient columns with the rows of its
    degree."""
    params = CloakParams(1e-6, 1.0, r1=0.5)
    if region == "limit":
        chains = modal.limit_chains(ALL_MODES, params)
    else:
        chains = modal.region_chains(
            modal.solve_source(ALL_MODES, None, params), region)
    a0, a1, b0, b1 = map(_column, (*chains.a, *chains.b))
    n = chains.degrees
    for r in (0.55, 0.9, 1.0, 1.7):
        tab = chains.table(r)
        want = [specfun.combine(a0, a1, tab, n),
                specfun.combine_riccati(a0, a1, tab, n),
                specfun.combine(b0, b1, tab, n),
                specfun.combine_riccati(b0, b1, tab, n)]
        got = chains.expand(tab)
        assert got.shape == (4, 168, 1)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
    assert np.array_equal(chains.mode_factors.s_n, np.sqrt(n * (n + 1.0)))


# -- the limit's kept ladders ---------------------------------------------------

def test_limit_degree_beyond_double_range_keeps_no_ratios():
    """A degree whose sigma overflows (200) raises on every limit call and
    keeps no ratios.  A degree whose beta0 alone overflows (100) keeps its
    ratios and gives the chains, while ``limit_coeffs``, which returns
    beta0 as a double, raises on every call; its kept ladder still serves
    sigma_uncollapsed, which fits doubles, bit for bit as a fresh ladder
    does."""
    params = CloakParams(rho=0.1, omega=1.0, r1=0.5)
    fresh = modal.sigma_uncollapsed(100, 1.0, params)
    for _ in range(2):
        with pytest.raises(CapabilityError):
            _one_mode_limit_chains(200, 1.0, params)
        with pytest.raises(CapabilityError):
            modal.limit_coeffs(100, 1.0, params)
        chains = _one_mode_limit_chains(100, 1.0, params)
        assert math.isfinite(chains.b[0][0].log_mag)
        assert cmath.isfinite(chains.surface[0])
    kw, ratios = params.k * params.omega, (params.k, params.omega, params.mu0)
    assert _kept(modal._limit_ladder, 200, kw)
    assert not _kept(modal._unit_ratios, 200, *ratios)
    assert _kept(modal._unit_ratios, 100, *ratios)
    kept = modal.sigma_uncollapsed(100, 1.0, params)
    assert cmath.isfinite(kept) and kept == fresh
    for _ in range(2):
        with pytest.raises(DomainError):
            modal.limit_coeffs(0, 1.0, params)
    assert not _kept(modal._limit_ladder, 0, kw)


def _kept(memo, *args) -> bool:
    """Whether the lru_cache memo holds its value at args: a read of it is
    a hit (a read that raises is no hit)."""
    hits = memo.cache_info().hits
    with contextlib.suppress(CapabilityError, DomainError):
        memo(*args)
    return memo.cache_info().hits > hits


# -- quadrature tables kept by value ----------------------------------------------

KEPT_NODES = np.linspace(0.55, 0.95, 7)


def test_kept_tables_outlive_their_solution_until_evicted():
    """The next solution reads the first one's tables, the same objects;
    a table that as many newer tables as the memo holds push out is freed
    without the collector."""
    params = CloakParams(1e-4, 1.0, r1=0.5)
    first, second = (modal.solve_source(ALL_MODES, None, params)
                     for _ in range(2))
    chains = modal.region_chains(first, "layer")
    tables = [chains.quadrature_table(n, KEPT_NODES) for n in (1, 2, 3)]
    del chains, first
    chains = modal.region_chains(second, "layer")
    assert all(chains.quadrature_table(n, KEPT_NODES.copy()) is tab
               for n, tab in zip((1, 2, 3), tables))
    refs = list(map(weakref.ref, tables))
    del tables
    enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(modal._bessel_table.cache_info().maxsize):
            chains.quadrature_table(1, KEPT_NODES + (i + 1) * 1e-3)
        assert all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()
