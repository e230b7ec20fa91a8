import json
import math

import numpy as np
import pytest
from scipy import special as sp

from cloaksim.errors import ConfigError, DomainError, ResonanceError
from cloaksim.geometry import CloakParams
from cloaksim import modal
from cloaksim.quadrature import fit_power_law


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
        ts = modal.transfer_coeffs(n, params)
        k, om = params.k, params.omega
        lhs1 = (ts.t1p * ts.dn).to_complex() * k
        lhs3 = (ts.t3p * ts.dnp).to_complex()
        assert abs(lhs1 - (-1j / (k * om))) < 1e-10 * abs(1 / (k * om))
        assert abs(lhs3 - (-1j / (k * om))) < 1e-10 * abs(1 / (k * om))

    def test_scaled_survives_extreme_parameters(self):
        params = CloakParams(rho=1e-6, omega=1.0, r1=0.5)
        ts = modal.transfer_coeffs(60, params)
        for name in ("t1", "t2", "t3", "t4", "t1p", "t2p", "t3p", "t4p"):
            assert math.isfinite(getattr(ts, name).log_mag) or getattr(ts, name).is_zero

    def test_t4p_limit_ratio(self):
        params = CloakParams(rho=1e-4, omega=1.0, r1=0.5)
        ts = modal.transfer_coeffs(1, params)
        j, h, _, _ = ref_funcs(1, 1.0)
        ratio = ts.t4p.to_complex() / (-h / j)
        assert abs(ratio - 1) < 1e-3

    def test_t3_leading_ratio(self):
        n, rho, om = 2, 1e-3, 1.0
        params = CloakParams(rho=rho, omega=om, r1=0.5)
        ts = modal.transfer_coeffs(n, params)
        g12 = math.exp(math.lgamma(n + 0.5))
        g32 = math.exp(math.lgamma(n + 1.5))
        lead = 1j * math.pi * (n + 1) / (g12 * g32 * n) * (om / 2) ** (2 * n + 1) \
            * rho ** (2 * n + 1)
        assert abs(ts.t3.to_complex() / lead - 1) < 0.05


class TestSolveMode:
    def test_homogeneous_data_gives_zero(self):
        co = modal.solve_mode(1, 0, 0, 0, 0, SINGLE)
        for v in co.as_complex().values():
            assert v == 0

    def test_against_direct_2x2_oracle(self):
        co = modal.solve_mode(1, 0, 1.0, 0, 0, SINGLE).as_complex()
        ref = oracle_solve(1, 0, 1.0, 0, 0, SINGLE)
        for got, want in zip(
                [co["gamma"], co["eta"], co["c"], co["d"], co["alpha"], co["beta"]],
                ref):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-13)

    def test_oracle_with_boundary_and_both_sources(self):
        params = CloakParams(rho=0.07, omega=1.3, eps0=3.0, mu0=0.7, r1=0.4)
        data = dict(p=0.4 - 0.2j, q=1.1 + 0.3j, f1=0.2j, f2=-0.1 + 0.05j)
        co = modal.solve_mode(2, data["p"], data["q"], data["f1"], data["f2"],
                              params).as_complex()
        ref = oracle_solve(2, data["p"], data["q"], data["f1"], data["f2"], params)
        for got, want in zip(
                [co["gamma"], co["eta"], co["c"], co["d"], co["alpha"], co["beta"]],
                ref):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("rho", [0.2, 0.05, 1e-3])
    def test_system_residuals(self, rho):
        params = CloakParams(rho=rho, omega=1.0, r1=0.5)
        for n in (1, 2, 7, 20):
            co = modal.solve_mode(n, 0, 1.0, 0, 0, params)
            res = modal.system_residuals(n, 0, 1.0, 0, 0, params, co)
            assert max(res) < 1e-10

    def test_residuals_with_general_material(self):
        params = CloakParams(rho=0.05, omega=1.1, eps0=2.5, mu0=0.8, r1=0.5)
        co = modal.solve_mode(3, 0.5, 1.0 - 0.4j, 0.1, 0.2j, params)
        res = modal.system_residuals(3, 0.5, 1.0 - 0.4j, 0.1, 0.2j, params, co)
        assert max(res) < 1e-10

    def test_linearity_in_data(self):
        rng = np.random.default_rng(3)
        params = SINGLE
        d1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        d2 = rng.normal(size=4) + 1j * rng.normal(size=4)
        lam = 0.7 - 0.3j
        a = modal.solve_mode(2, *d1, params).as_complex()
        b = modal.solve_mode(2, *d2, params).as_complex()
        c = modal.solve_mode(2, *(d1 + lam * d2), params).as_complex()
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
            co = modal.solve_mode(1, 0, 1.0, 0, 0, params).as_complex()
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
            d = modal.solve_mode(n, 0, 1.0, 0, 0, params).as_complex()["d"]
            ratio = d / (pref_c * rho ** (n + 1))
            errs.append(abs(ratio - 1.0))
        assert errs[-1] < 2e-4
        slope = fit_power_law(rhos, errs)
        assert abs(slope - 1.0) < 0.15

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

    def test_source_radius_must_match_cloak(self):
        src = modal.SourceCoeffs(entries={(1, 0): (0j, 1)}, r1=0.3)
        params = CloakParams(rho=0.1, omega=1.0, r1=0.5)
        with pytest.raises(DomainError, match=r"r1=0\.3.*r1=0\.5"):
            modal.solve_source(src, None, params)

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

    def test_source_json_round_trip(self, tmp_path):
        rows = [{"n": 1, "m": 0, "p_re": 0.0, "p_im": 0.0,
                 "q_re": 1.0, "q_im": 0.0}]
        path = tmp_path / "src.json"
        path.write_text(json.dumps(rows))
        src = modal.load_source_table(path, r1=0.5)
        assert src.entries[(1, 0)] == (0j, 1 + 0j)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            modal.parse_source_table(
                [{"n": 1, "m": 0, "q_re": 1.0, "bogus": 2}], r1=0.5)
        with pytest.raises(ConfigError, match="unknown fields"):
            modal.parse_boundary_table([{"n": 1, "m": 0, "p_re": 1.0}])

    def test_duplicate_mode_rejected(self):
        rows = [{"n": 1, "m": 0, "q_re": 1.0}, {"n": 1, "m": 0, "q_re": 2.0}]
        with pytest.raises(ConfigError, match="duplicate"):
            modal.parse_source_table(rows, r1=0.5)

    def test_solve_source_covers_boundary_modes(self):
        src = modal.SourceCoeffs(entries={(1, 0): (0j, 1 + 0j)}, r1=0.5)
        bnd = modal.BoundaryCoeffs(entries={(2, 1): (0.5 + 0j, 0j)})
        sol = modal.solve_source(src, bnd, SINGLE)
        assert (1, 0) in sol.modes and (2, 1) in sol.modes
        assert sol.n_max == 2
