import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from cloaksim.errors import DomainError, SingularityError
from cloaksim.harmonics import (ModeFactors, ModeIndex, angular_basis,
                                angular_scalars, angular_table)
from oracle import wave_MN


def sphere_quadrature(n_theta=64, n_phi=128):
    # product rule: Gauss-Legendre in cos(theta) x trapezoid in phi
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    wphi = 2 * np.pi / n_phi
    dirs, weights = [], []
    for t, wt in zip(theta, w):
        for p in phi:
            dirs.append(np.array([math.sin(t) * math.cos(p),
                                  math.sin(t) * math.sin(p),
                                  math.cos(t)]))
            weights.append(wt * wphi)
    return dirs, np.array(weights)


def random_dirs(rng, count):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def fd_curl(field, x, h):
    out = np.zeros(3, dtype=complex)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eb, ec = np.zeros(3), np.zeros(3)
        eb[b] = h
        ec[c] = h
        d_c_b = (field(x + eb)[c] - field(x - eb)[c]) / (2 * h)
        d_b_c = (field(x + ec)[b] - field(x - ec)[b]) / (2 * h)
        out[a] = d_c_b - d_b_c
    return out


class TestModeIndex:
    def test_s_n(self):
        assert ModeFactors.of([(3, -2)]).s_n[0] == pytest.approx(
            math.sqrt(12), rel=1e-15)

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 2), (-1, 0), (2, -3)])
    def test_invalid(self, n, m):
        with pytest.raises(DomainError):
            ModeIndex(n, m)


class TestScalarY:
    def test_dipole_axis_value(self):
        assert angular_basis(ModeIndex(1, 0), [0, 0, 1.0])[0] == pytest.approx(
            0.48860251190291992, rel=1e-13)

    def test_matches_scipy_convention(self):
        rng = np.random.default_rng(0)
        for d in random_dirs(rng, 25):
            theta = math.acos(d[2])
            phi = math.atan2(d[1], d[0])
            for n in (1, 2, 5, 11):
                for m in (-n, -1, 0, 1, n):
                    ref = sp.sph_harm_y(n, m, theta, phi)
                    assert angular_basis(ModeIndex(n, m), d)[0] == pytest.approx(
                        complex(ref), abs=1e-12)

    def test_orthonormality_by_quadrature(self):
        # one table per direction; angular_basis is a row of it
        dirs, w = sphere_quadrature()
        keys = [(1, 0), (2, 1), (3, -2), (6, 4), (3, 1)]
        vals = np.array([angular_table(keys, d)[0] for d in dirs])
        for col in range(4):
            norm = float(np.sum(w * np.abs(vals[:, col]) ** 2))
            assert norm == pytest.approx(1.0, abs=1e-8)
        # cross-orthogonality spot check of (2, 1) and (3, 1)
        assert abs(np.sum(w * vals[:, 1] * np.conj(vals[:, 4]))) < 1e-10

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(1)
        for d in random_dirs(rng, 20):
            for n, m in ((1, 1), (4, 3), (7, 5)):
                lhs = angular_basis(ModeIndex(n, -m), d)[0]
                rhs = (-1) ** m * np.conj(angular_basis(ModeIndex(n, m), d)[0])
                assert abs(lhs - rhs) < 1e-13

    def test_non_unit_direction_rejected(self):
        with pytest.raises(DomainError):
            angular_basis(ModeIndex(1, 0), [0, 0, 1.1])

    def test_high_degree_stays_normalised(self):
        # inline normalisation keeps degree 150 finite and correct
        d = np.array([0.6, 0.0, 0.8])
        for n, m in ((150, 0), (150, 3), (150, 149)):
            got = angular_basis(ModeIndex(n, m), d)[0]
            theta = math.acos(d[2])
            ref = sp.sph_harm_y(n, m, theta, 0.0)
            assert got == pytest.approx(complex(ref), abs=1e-12)


class TestVectorUV:
    def test_tangency(self):
        rng = np.random.default_rng(2)
        for d in random_dirs(rng, 100):
            u, v = angular_basis(ModeIndex(3, 2), d)[1:]
            assert abs(np.dot(d, u)) < 1e-12
            assert abs(np.dot(d, v)) < 1e-12

    def test_cross_relations(self):
        rng = np.random.default_rng(3)
        for d in random_dirs(rng, 30):
            for n, m in ((1, 0), (2, -1), (5, 4)):
                u, v = angular_basis(ModeIndex(n, m), d)[1:]
                assert np.max(np.abs(np.cross(d, v) + u)) < 1e-12
                assert np.max(np.abs(np.cross(d, u) - v)) < 1e-12

    def test_unit_norm_by_quadrature(self):
        # one table per direction; angular_basis is a row of it
        dirs, w = sphere_quadrature()
        keys = [(1, 0), (2, 2), (4, -3)]
        u = np.array([angular_table(keys, d)[1] for d in dirs])
        totals = np.einsum("d,dkc->k", w, np.abs(u) ** 2)
        for total in totals:
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_pole_limits_match_near_pole_values(self):
        # analytic pole values continue the regular evaluation
        for n in (1, 2, 5):
            for m in (-1, 0, 1, min(2, n)):
                for zsign in (1.0, -1.0):
                    near = np.array([1e-7, 0.0, zsign])
                    near /= np.linalg.norm(near)
                    u_near, v_near = angular_basis(ModeIndex(n, m), near)[1:]
                    u_pole, v_pole = angular_basis(
                        ModeIndex(n, m), np.array([0.0, 0.0, zsign]))[1:]
                    assert np.max(np.abs(u_near - u_pole)) < 1e-5
                    assert np.max(np.abs(v_near - v_pole)) < 1e-5


class TestWaveMN:
    def test_values_tangential(self):
        rng = np.random.default_rng(4)
        mode = ModeIndex(2, 1)
        for d in random_dirs(rng, 20):
            x = d * rng.uniform(0.3, 1.8)
            for kind in ("regular", "radiating"):
                val, _ = wave_MN(mode, 1.3, x, kind)
                assert abs(np.dot(x / np.linalg.norm(x), val)) < 1e-12

    def test_radial_curl_component(self):
        # xhat . curl = S_n^2 |x|^-1 f_n(omega |x|) Y
        rng = np.random.default_rng(5)
        mode = ModeIndex(3, -2)
        omega = 1.7
        for d in random_dirs(rng, 10):
            r = rng.uniform(0.4, 1.9)
            x = d * r
            val, curl = wave_MN(mode, omega, x, "regular")
            y = angular_basis(mode, d)[0]
            expected = (mode.n * (mode.n + 1) / r
                        * sp.spherical_jn(mode.n, omega * r) * y)
            assert abs(np.dot(d, curl) - expected) < 1e-12 * max(1, abs(expected))

    def test_curl_against_fd_oracle(self):
        mode = ModeIndex(2, 1)
        omega = 1.1
        x = np.array([0.5, -0.6, 0.7])

        def field(pt):
            return wave_MN(mode, omega, pt, "regular")[0]

        _, curl = wave_MN(mode, omega, x, "regular")
        errs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            errs.append(np.max(np.abs(fd_curl(field, x, h) - curl)))
        order = np.polyfit(np.log([1e-3, 5e-4, 2.5e-4]), np.log(errs), 1)[0]
        assert abs(order - 2.0) < 0.2

    def test_curl_curl_is_omega_squared_times_value(self):
        mode = ModeIndex(1, 0)
        omega = 0.9
        x = np.array([0.8, 0.1, -0.4])

        def curl_field(pt):
            return wave_MN(mode, omega, pt, "regular")[1]

        val, _ = wave_MN(mode, omega, x, "regular")
        cc = fd_curl(curl_field, x, 1e-4)
        assert np.max(np.abs(cc - omega ** 2 * val)) < 1e-5

    def test_tangential_trace_identities(self):
        # xhat x value = S_n f_n U ; xhat x curl = S_n |x|^-1 F_n V
        rng = np.random.default_rng(6)
        mode = ModeIndex(4, 2)
        s_n = math.sqrt(20)
        omega = 2.2
        for d in random_dirs(rng, 15):
            r = rng.uniform(0.3, 1.9)
            x = d * r
            val, curl = wave_MN(mode, omega, x, "radiating")
            y, u, v = angular_basis(mode, d)
            t = omega * r
            hnv = sp.spherical_jn(mode.n, t) + 1j * sp.spherical_yn(mode.n, t)
            dh = (sp.spherical_jn(mode.n, t, derivative=True)
                  + 1j * sp.spherical_yn(mode.n, t, derivative=True))
            big_h = hnv + t * dh
            assert np.max(np.abs(np.cross(d, val) - s_n * hnv * u)) < 1e-12 * abs(hnv) * s_n
            assert np.max(np.abs(np.cross(d, curl) - s_n / r * big_h * v)) < 1e-11 * abs(big_h)

    def test_finite_over_envelope(self):
        rng = np.random.default_rng(7)
        for n in (1, 20, 60):
            mode = ModeIndex(n, min(n, 3))
            for _ in range(5):
                d = rng.normal(size=3)
                d /= np.linalg.norm(d)
                r = rng.uniform(0.05, 2.0)
                omega = rng.uniform(0.5, 5.0)
                for kind in ("regular", "radiating"):
                    val, curl = wave_MN(mode, omega, d * r, kind)
                    assert np.all(np.isfinite(val.view(float)))
                    assert np.all(np.isfinite(curl.view(float)))

    def test_origin_rejected(self):
        with pytest.raises(SingularityError):
            wave_MN(ModeIndex(1, 0), 1.0, [0.0, 0.0, 0.0])

    def test_invalid_kind_rejected(self):
        with pytest.raises(DomainError):
            wave_MN(ModeIndex(1, 0), 1.0, [0.5, 0, 0], kind="standing")


def _scipy_basis(d, n_top=20):
    """(Y, U, V) of scipy.special.sph_harm_y_all at direction d, indexed
    [n, m] for n <= n_top; U from the (d/dtheta, d/dphi) gradient and
    V = d x U."""
    theta, phi = math.acos(d[2]), math.atan2(d[1], d[0])
    y_all, grad_all = sp.sph_harm_y_all(n_top, n_top, theta, phi, diff_n=1)
    theta_hat = np.array([math.cos(theta) * math.cos(phi),
                          math.cos(theta) * math.sin(phi), -math.sin(theta)])
    phi_hat = np.array([-math.sin(phi), math.cos(phi), 0.0])
    s_n = np.sqrt(np.arange(n_top + 1) * np.arange(1, n_top + 2.0))
    with np.errstate(invalid="ignore", divide="ignore"):  # the n = 0 row
        u = ((grad_all[..., :1] * theta_hat
              + grad_all[..., 1:] / math.sin(theta) * phi_hat)
             / s_n[:, None, None])
    return y_all, u, np.cross(d, u)


ALL_KEYS_20 = [(n, m) for n in range(1, 21) for m in range(-n, n + 1)]


class TestAngularTable:
    def test_matches_scipy_all_degrees(self):
        rng = np.random.default_rng(8)
        for d in random_dirs(rng, 6):
            y, u, v = angular_table(ALL_KEYS_20, d)
            assert y.shape == (len(ALL_KEYS_20),)
            assert u.shape == v.shape == (len(ALL_KEYS_20), 3)
            y_all, u_all, v_all = _scipy_basis(d)
            for i, (n, m) in enumerate(ALL_KEYS_20):
                y_ref, u_ref, v_ref = y_all[n, m], u_all[n, m], v_all[n, m]
                assert abs(y[i] - y_ref) < 1e-12, (n, m)
                assert np.max(np.abs(u[i] - u_ref)) < 1e-12, (n, m)
                assert np.max(np.abs(v[i] - v_ref)) < 1e-12, (n, m)

    @pytest.mark.parametrize("zsign", [1.0, -1.0])
    @pytest.mark.parametrize("tilt", [0.0, 1e-11])
    def test_poles_match_scipy_next_to_them(self, zsign, tilt):
        # exactly at a pole, and inside the pole band sin(theta) < 1e-10:
        # the analytic limits continue scipy's values 1e-7 off the pole
        d = np.array([tilt, 0.0, zsign])
        d /= np.linalg.norm(d)
        y, u, v = angular_table(ALL_KEYS_20, d)
        near = np.array([1e-7 * math.cos(0.3), 1e-7 * math.sin(0.3), zsign])
        near /= np.linalg.norm(near)
        y_all, u_all, v_all = _scipy_basis(near)
        for i, (n, m) in enumerate(ALL_KEYS_20):
            y_ref, u_ref, v_ref = y_all[n, m], u_all[n, m], v_all[n, m]
            assert abs(y[i] - y_ref) < 1e-5, (n, m)
            assert np.max(np.abs(u[i] - u_ref)) < 1e-5, (n, m)
            assert np.max(np.abs(v[i] - v_ref)) < 1e-5, (n, m)
            if abs(m) != 1:
                assert not np.any(u[i]) and not np.any(v[i]), (n, m)

    def test_negative_orders_are_conjugates(self):
        rng = np.random.default_rng(9)
        for d in [*random_dirs(rng, 5), np.array([0.0, 0.0, 1.0]),
                  np.array([0.0, 0.0, -1.0])]:
            keys = [(n, m) for n in range(1, 9) for m in range(1, n + 1)]
            pos = angular_table(keys, d)
            neg = angular_table([(n, -m) for n, m in keys], d)
            sign = np.array([(-1.0) ** m for _, m in keys])
            for got, ref in zip(neg, pos):
                want = (sign * ref.T).T.conj()
                assert np.max(np.abs(got - want)) < 1e-13

    def test_single_mode_views_are_table_rows(self):
        rng = np.random.default_rng(10)
        for d in [*random_dirs(rng, 4), np.array([0.0, 0.0, 1.0]),
                  np.array([0.0, 0.0, -1.0])]:
            y, u, v = angular_table(ALL_KEYS_20, d)
            for i, (n, m) in enumerate(ALL_KEYS_20):
                mode = ModeIndex(n, m)
                y_row, u_row, v_row = angular_basis(mode, d)
                assert y_row == y[i]
                assert np.array_equal(u_row, u[i])
                assert np.array_equal(v_row, v[i])

    def test_poles_raise_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for zsign in (1.0, -1.0):
                for tilt in (0.0, 1e-12, 1e-11):
                    d = np.array([tilt, tilt, zsign])
                    d /= np.linalg.norm(d)
                    for values in angular_table(ALL_KEYS_20, d):
                        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("zsign", [1.0, -1.0])
    @pytest.mark.parametrize("sin_theta", [2e-10, 1e-8, 1e-6])
    def test_zonal_gradient_next_to_a_pole_matches_mpmath(self, zsign,
                                                          sin_theta):
        # U_theta of an m = 0 mode is O(sin theta); a derivative divided by
        # sin(theta) loses it to cancellation near a pole
        d = np.array([sin_theta, 0.0, zsign * math.sqrt(1.0 - sin_theta ** 2)])
        keys = [(n, 0) for n in range(1, 13)]
        u_theta = angular_scalars(keys, d)[0][:, 1]
        with mpmath.workdps(50):
            theta = mpmath.atan2(mpmath.mpf(d[0]), mpmath.mpf(d[2]))
            x = mpmath.cos(theta)
            for (n, _), got in zip(keys, u_theta):
                # dP_n(cos theta)/dtheta = -sin(theta) P_n'(x)
                dp = (-mpmath.sin(theta) * n * (x * mpmath.legendre(n, x)
                                                - mpmath.legendre(n - 1, x))
                      / (x * x - 1))
                want = complex(mpmath.sqrt((2 * n + 1) / (4 * mpmath.pi))
                               * dp / mpmath.sqrt(n * (n + 1)))
                assert abs(got - want) <= 1e-12 * abs(want), (n, got, want)

    @pytest.mark.parametrize("keys", [[(0, 0)], [(1, 2)], [(2, -3)],
                                      [(201, 0)], [(1, 0), (2, 5)]])
    def test_invalid_keys_rejected(self, keys):
        with pytest.raises(DomainError):
            angular_table(keys, [0.0, 0.0, 1.0])
