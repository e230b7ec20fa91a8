import math

import numpy as np
import pytest

from cloaksim.errors import DomainError, SingularityError
from cloaksim import geometry as geo

IDENTITY = geo.RadialMap(0.0, 1.0, 0.0, math.inf)  # g(r) = r everywhere


def fd_jacobian(apply_fn, y, h=1e-6):
    # oracle: central-difference Jacobian
    out = np.zeros((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        out[:, j] = (apply_fn(y + e) - apply_fn(y - e)) / (2 * h)
    return out


def random_points(rng, count, lo, hi):
    pts = []
    while len(pts) < count:
        p = rng.uniform(-1, 1, 3)
        r = np.linalg.norm(p)
        if r < 1e-3:
            continue
        pts.append(p / r * rng.uniform(lo, hi))
    return pts


class TestCloakParams:
    def test_derived_quantities(self):
        p = geo.CloakParams(rho=0.1, omega=2.0, eps0=4.0, mu0=1.0, r1=0.5)
        assert p.k == pytest.approx(2.0, rel=1e-15)
        assert p.a + 2 * p.b == pytest.approx(2.0, abs=1e-15)
        assert p.a + p.b * p.rho == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("kw", [dict(rho=0.0), dict(rho=1.0), dict(omega=0.0),
                                    dict(eps0=-1.0), dict(r1=1.5)])
    def test_validation(self, kw):
        base = dict(rho=0.1, omega=1.0)
        base.update(kw)
        with pytest.raises(DomainError):
            geo.CloakParams(**base)

    @pytest.mark.parametrize("name", ["rho", "omega", "eps0", "mu0", "r1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected(self, name, value):
        base = dict(rho=0.1, omega=1.0)
        base[name] = value
        with pytest.raises(DomainError, match=rf"^{name} must be"):
            geo.CloakParams(**base)


class TestBlowupMap:
    def test_unit_vector_images(self):
        x = geo.map_blowup([1.0, 0.0, 0.0])
        assert np.allclose(x, [1.5, 0.0, 0.0], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for y in random_points(rng, 30, 0.05, 1.95):
            back = geo.BlowupMap().inverse(geo.map_blowup(y))
            assert np.linalg.norm(back - y) < 1e-14

    def test_blow_up_limit(self):
        for r in (1e-3, 1e-6, 1e-9):
            x = geo.map_blowup(np.array([0.0, r, 0.0]))
            assert np.linalg.norm(x) == pytest.approx(1.0 + r / 2, rel=1e-12)

    def test_origin_is_singular(self):
        with pytest.raises(SingularityError):
            geo.map_blowup([0.0, 0.0, 0.0])


class TestRegularizedMap:
    @pytest.mark.parametrize("rho", [0.5, 0.1, 0.01])
    def test_branch_continuity_at_rho(self, rho):
        p = geo.CloakParams(rho=rho, omega=1.0)
        d = np.array([0.6, -0.64, 0.48]) / 1.0
        d /= np.linalg.norm(d)
        outer = geo.CloakOuterMap(p).apply(rho * d)
        inner = geo.CloakInnerMap(p).apply(rho * d)
        assert np.linalg.norm(outer - inner) < 1e-14
        assert np.linalg.norm(outer) == pytest.approx(1.0, abs=1e-14)

    def test_boundary_fixed(self):
        p = geo.CloakParams(rho=0.17, omega=1.0)
        y = np.array([0.0, 0.0, 2.0])
        assert np.allclose(geo.map_regularized(p, y), y, atol=1e-14)

    def test_outer_branch_arithmetic(self):
        # rho = 0.1: a = 1.8/1.9, b = 1/1.9, |x| = a + 0.5 b
        p = geo.CloakParams(rho=0.1, omega=1.0)
        x = geo.map_regularized(p, [0.5, 0.0, 0.0])
        assert x[0] == pytest.approx((1.8 + 0.5) / 1.9, rel=1e-15)

    def test_origin_maps_to_origin(self):
        p = geo.CloakParams(rho=0.3, omega=1.0)
        assert np.allclose(geo.map_regularized(p, [0.0, 0.0, 0.0]), 0.0)

    def test_round_trip_both_branches(self):
        p = geo.CloakParams(rho=0.2, omega=1.0)
        rng = np.random.default_rng(9)
        for y in random_points(rng, 20, 0.01, 1.99):
            x = geo.map_regularized(p, y)
            # the inner branch is the dilation x = y / rho
            back = (x * p.rho if np.linalg.norm(x) <= 1.0
                    else geo.CloakOuterMap(p).inverse(x))
            assert np.linalg.norm(back - y) < 1e-13


class TestPushforwardTensor:
    def test_identity_map_fixes_tensor(self):
        _, t = geo.pushforward_tensor(IDENTITY, [0.3, 0.4, 0.5])
        assert np.allclose(t, np.eye(3), atol=1e-14)

    def test_blowup_matches_closed_form_at_200_points(self):
        rng = np.random.default_rng(12)
        fmap = geo.BlowupMap()
        for y in random_points(rng, 200, 1e-3, 1.999):
            x, t = geo.pushforward_tensor(fmap, y)
            ref = geo.ideal_cloak_tensor(x)
            assert np.max(np.abs(t - ref)) < 1e-12

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(4)
        fmap = geo.BlowupMap()
        for y in random_points(rng, 50, 0.05, 1.9):
            _, t = geo.pushforward_tensor(fmap, y)
            assert np.max(np.abs(t - t.T)) < 1e-14
            assert np.min(np.linalg.eigvalsh(t)) > 0.0

    def test_outer_map_eigenvalues_against_fd_oracle(self):
        # radial eigenvalue (|x|-a)^2/(b|x|^2), tangential 1/b; the numerical
        # Jacobian is the deciding oracle for which direction is degenerate
        p = geo.CloakParams(rho=0.05, omega=1.0)
        fmap = geo.CloakOuterMap(p)
        y = fmap.inverse([1.2, 0.0, 0.0])
        x, t = geo.pushforward_tensor(fmap, y)
        big_r = np.linalg.norm(x)
        assert big_r == pytest.approx(1.2, rel=1e-12)
        xhat = x / big_r
        rad_eig = float(xhat @ t @ xhat)
        assert rad_eig == pytest.approx((big_r - p.a) ** 2 / (p.b * big_r**2),
                                        rel=1e-12)
        tang = np.array([0.0, 1.0, 0.0])
        assert float(tang @ t @ tang) == pytest.approx(1.0 / p.b, rel=1e-12)
        jac_fd = fd_jacobian(fmap.apply, y)
        t_fd = jac_fd @ jac_fd.T / np.linalg.det(jac_fd)
        assert np.max(np.abs(t - t_fd)) < 1e-6

    def test_det_relation(self):
        rng = np.random.default_rng(21)
        fmap = geo.BlowupMap()
        for y in random_points(rng, 30, 0.1, 1.9):
            # vacuum: det(M M^T / det M) = 1 / det M
            _, t = geo.pushforward_tensor(fmap, y)
            det_df = fmap.det_jacobian(y)
            assert np.linalg.det(t) == pytest.approx(1.0 / det_df, rel=1e-12)

    def test_degenerate_eigenvalue_quadratic_scaling(self):
        deltas = np.logspace(-4, -2, 7)
        eigs = []
        fmap = geo.BlowupMap()
        for d in deltas:
            y = fmap.inverse([1.0 + d, 0.0, 0.0])
            _, t = geo.pushforward_tensor(fmap, y)
            eigs.append(np.min(np.linalg.eigvalsh(t)))
        slope = np.polyfit(np.log(deltas), np.log(eigs), 1)[0]
        assert abs(slope - 2.0) < 0.05


class TestFieldTransport:
    def test_identity_map_fixes_field(self):
        e = np.array([1 + 2j, -0.5j, 0.25])
        _, out = geo.pushforward_field(IDENTITY, [0.1, 0.2, 0.3], e)
        assert np.allclose(out, e, atol=1e-15)

    def test_round_trip_100_points(self):
        rng = np.random.default_rng(6)
        fmap = geo.BlowupMap()
        for y in random_points(rng, 100, 0.05, 1.9):
            e = rng.normal(size=3) + 1j * rng.normal(size=3)
            _, pushed = geo.pushforward_field(fmap, y, e)
            back = fmap.jacobian(y).T @ pushed  # the pull-back M^T
            assert np.max(np.abs(back - e)) < 1e-12

    def test_tangential_trace_scaling_at_interface(self):
        # xhat x E-tilde at |x| = 1 equals rho * (yhat x E at |y| = rho)
        p = geo.CloakParams(rho=0.05, omega=1.0)
        fmap = geo.CloakOuterMap(p)
        rng = np.random.default_rng(8)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        y = p.rho * d
        e = rng.normal(size=3) + 1j * rng.normal(size=3)
        x, pushed = geo.pushforward_field(fmap, y, e)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)
        lhs = np.cross(x / np.linalg.norm(x), pushed)
        rhs = p.rho * np.cross(d, e)
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_current_round_trip_and_dilation_scaling(self):
        # a current density is a 2-form: pushed by M J / det M, pulled back
        # by det M M^{-1} J-tilde
        p = geo.CloakParams(rho=0.2, omega=1.0)
        # the inner branch x = y / rho: M = I / rho, det M = rho^-3
        mat, det = np.eye(3) / p.rho, p.rho ** -3
        j = np.array([0.3, -1.0 + 0.5j, 2.0])
        pushed = mat @ j / det
        # dilation x = y/rho: det M = rho^-3, M = I/rho -> J scales by rho^2
        assert np.allclose(pushed, p.rho ** 2 * j, atol=1e-15)
        back = det * np.linalg.solve(mat, pushed)
        assert np.allclose(back, j, atol=1e-14)

    def test_identity_current(self):
        j = np.array([1.0, 2.0, 3.0 + 1j])
        y = [0.5, 0, 0]
        out = IDENTITY.jacobian(y) @ j / IDENTITY.det_jacobian(y)
        assert np.allclose(out, j)


class TestMapErrorPaths:
    P = geo.CloakParams(rho=0.1, omega=1.0)

    @pytest.mark.parametrize("fmap, big_r", [
        (geo.BlowupMap(), 0.5), (geo.BlowupMap(), 1.0), (geo.BlowupMap(), 2.5),
        (geo.CloakOuterMap(P), 0.9), (geo.CloakOuterMap(P), 2.5)])
    def test_inverse_outside_the_image(self, fmap, big_r):
        # at |x| = 1 the blow-up's preimage is the origin: a SingularityError,
        # which is a DomainError
        with pytest.raises(DomainError):
            fmap.inverse([0.0, big_r, 0.0])

    @pytest.mark.parametrize("fmap, r", [
        (geo.BlowupMap(), 2.5), (geo.CloakOuterMap(P), 0.05),
        (geo.CloakOuterMap(P), 2.5)])
    def test_apply_outside_the_domain(self, fmap, r):
        with pytest.raises(DomainError):
            fmap.apply([0.0, 0.0, r])
