import cmath
import collections
import contextlib
import dataclasses
import functools
import gc
import json
import math
import weakref
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sp
from scipy.integrate import quad

from cloaksim.errors import AccuracyError, DomainError, ResonanceError
from cloaksim.geometry import CloakParams
from cloaksim.harmonics import ModeIndex, angular_basis
from cloaksim import fields, modal, quadrature, specfun, weak_limit
from cloaksim.quadrature import fit_power_law
from cloaksim.weak_limit import RadialTestFunction
from oracle import (as_complex, interior_trace_normal_at, mode_rows,
                    tangential_trace_at)
from test_radial_kernel import FROZEN_SOURCE

OMEGA = 1.0
R1 = 0.5


def make_solution(rho, q=1.0, eps0=1.0, mu0=1.0):
    src = modal.SourceCoeffs(entries={(1, 0): (0j, complex(q))}, r1=R1)
    params = CloakParams(rho=rho, omega=OMEGA, eps0=eps0, mu0=mu0, r1=R1)
    return modal.solve_source(src, None, params)


BUMP = RadialTestFunction.polynomial_bump([(1, 0)], 0.5, 1.5)
SRC = modal.SourceCoeffs(entries={(1, 0): (0j, 1 + 0j)}, r1=R1)
PARAMS0 = CloakParams(rho=0.5, omega=OMEGA, r1=R1)  # rho unused by limits


class TestTestFunctions:
    def test_bump_support_and_value(self):
        phi = BUMP.profiles[(1, 0)][0]
        assert phi(0.4) == 0.0 and phi(1.6) == 0.0
        assert phi(1.0) == pytest.approx(0.0625, rel=1e-15)

    def test_bump_derivative_consistent(self):
        phi, dphi = BUMP.profiles[(1, 0)]
        for r in (0.7, 1.0, 1.3):
            fd = (phi(r + 1e-7) - phi(r - 1e-7)) / 2e-7
            assert dphi(r) == pytest.approx(fd, rel=1e-6)

    def test_spline_family_clamped_at_outer_boundary(self):
        tf = RadialTestFunction.cubic_spline(
            [(1, 0)], [(0.4, 0.0), (1.0, 1.0), (1.5, 0.5)])
        phi, dphi = tf.profiles[(1, 0)]
        assert phi(2.0) == 0.0
        assert phi(1.0) == pytest.approx(1.0, rel=1e-12)
        assert phi(0.2) == 0.0
        fd = (phi(1.2 + 1e-7) - phi(1.2 - 1e-7)) / 2e-7
        assert dphi(1.2) == pytest.approx(fd, rel=1e-6)

    def test_nonvanishing_outer_value_rejected(self):
        with pytest.raises(DomainError):
            RadialTestFunction({(1, 0): (lambda r: 1.0, lambda r: 0.0)})

    def test_nan_outer_value_rejected(self):
        with pytest.raises(DomainError, match="vanish at r=2"):
            RadialTestFunction({(1, 0): (lambda r: math.nan, lambda r: 0.0)})

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
    def test_non_finite_bump_amplitude_rejected(self, amplitude):
        with pytest.raises(DomainError, match="amplitude"):
            RadialTestFunction.polynomial_bump([(1, 0)], 0.5, 1.5, amplitude)


class TestSplineAgainstScipy:
    """The numpy-free natural spline against scipy's CubicSpline oracle."""

    @pytest.mark.parametrize("knots", [
        [(0.4, 0.0)],                                  # 2 knots after (2, 0)
        [(0.4, 0.0), (1.0, 1.0)],                      # 3 knots
        [(0.4, 0.0), (1.0, 1.0), (2.0, 0.0)],          # r=2 knot supplied
        [(0.4, 0.0), (1.0, 1.0), (1.5, 0.5)],          # (2, 0) appended
        [(0.25, 0.0)] + [(0.25 + 0.0875 * i, math.sin(1.7 * i))
                         for i in range(1, 20)] + [(2.0, 0.0)],
        [(1.4, 0.7), (0.3, 0.0), (0.9, -2.0)],         # unsorted input
    ])
    def test_matches_natural_cubic_spline(self, knots):
        from scipy.interpolate import CubicSpline
        pts = sorted(knots)
        if pts[-1][0] < 2.0:
            pts.append((2.0, 0.0))
        xs, vs = zip(*pts)
        ref = CubicSpline(xs, vs, bc_type="natural")
        dref = ref.derivative()
        phi, dphi = RadialTestFunction.cubic_spline(
            [(1, 0)], knots).profiles[(1, 0)]
        grid = np.concatenate([np.linspace(xs[0], 2.0, 4001), xs])
        for r in grid:
            assert abs(phi(float(r)) - float(ref(r))) < 1e-13
            assert abs(dphi(float(r)) - float(dref(r))) < 1e-13
            assert phi(r) == phi(float(r))

    def test_zero_outside_support(self):
        phi, dphi = RadialTestFunction.cubic_spline(
            [(1, 0)], [(0.4, 0.0), (1.0, 1.0)]).profiles[(1, 0)]
        for r in (0.0, 0.399, 2.0 + 1e-12, 3.0):
            assert phi(r) == 0.0 and dphi(r) == 0.0
        assert phi(2.0) == 0.0 and phi(0.4) == 0.0

    @pytest.mark.parametrize("knots", [
        [(0.4, 0.0), (1.0, 1.0), (1.0, 0.5)],          # repeated radius
        [(0.4, 0.0), (0.4, 0.0), (1.0, 1.0)],          # repeated first knot
        [(0.4, 0.0), (1.0, math.nan)],
        [(0.4, 0.0), (1.0, math.inf)],
        [(math.nan, 0.0), (1.0, 1.0)],
        [(0.4, 0.0), (-math.inf, 0.0)],
        [(2.0, 0.0)],                                  # no knot below r=2
        [(0.0, 0.0), (1.0, 1.0)],                      # radius outside (0, 2]
        [(0.4, 0.0), (2.5, 0.0)],
        [(0.4, 0.0), ("one", 1.0)],
        [(0.4, 0.0), (1.0,)],
        [],
        [(0.4, 1.0)],                                  # first value nonzero
        [(0.4, 0.0), (2.0, 1.0)],                      # nonzero at r=2
    ])
    def test_bad_knots_raise_domain_error(self, knots):
        with pytest.raises(DomainError):
            RadialTestFunction.cubic_spline([(1, 0)], knots)


KNOTS = [(0.4, 0.0), (0.7, 0.9), (1.0, 1.1), (1.4, -0.8)]


def _scalar_bump(lo, hi):
    """The bump and its derivative as per-float Python formulas, each
    square a product."""
    def phi(r):
        u, v = r - lo, hi - r
        return 0.0 if r <= lo or r >= hi else u * u * (v * v)

    def dphi(r):
        if r <= lo or r >= hi:
            return 0.0
        return 2 * (r - lo) * (hi - r) * ((hi - r) - (r - lo))
    return phi, dphi


def _scalar_spline(knots):
    """The natural spline on Python floats: interval by bisection, then
    Horner on that interval's coefficients."""
    xs = [r for r, _ in knots] + [2.0]
    ys, b, c, d = (v.tolist() for v in weak_limit._natural_spline_coeffs(
        xs, [v for _, v in knots] + [0.0]))
    last = len(xs) - 1

    def phi(r):
        if not xs[0] <= r < 2.0:
            return 0.0
        i = bisect_right(xs, r, 1, last) - 1
        t = r - xs[i]
        return ys[i] + t * (b[i] + t * (c[i] + t * d[i]))

    def dphi(r):
        if not xs[0] <= r <= 2.0:
            return 0.0
        i = bisect_right(xs, r, 1, last) - 1
        t = r - xs[i]
        return b[i] + t * (2.0 * c[i] + t * 3.0 * d[i])
    return phi, dphi


class TestArrayProfiles:
    # knots, the support edges, r below the support and r >= 2
    GRID = np.concatenate([
        np.linspace(0.01, 2.6, 997), [r for r, _ in KNOTS],
        [0.5, 1.5, 2.0, np.nextafter(2.0, 0.0), np.nextafter(0.5, 1.0),
         np.nextafter(1.5, 0.0), 0.1, 0.39999, 3.0]])

    @pytest.mark.parametrize("family", ["bump", "spline"])
    def test_array_equals_floats_bit_for_bit(self, family):
        if family == "bump":
            made = RadialTestFunction.polynomial_bump([(1, 0)], 0.5, 1.5)
            scalar = _scalar_bump(0.5, 1.5)
        else:
            made = RadialTestFunction.cubic_spline([(1, 0)], KNOTS)
            scalar = _scalar_spline(KNOTS)
        for prof, ref in zip(made.profiles[(1, 0)], scalar):
            got = prof(self.GRID)
            assert isinstance(got, np.ndarray) and got.shape == self.GRID.shape
            per_float = np.array([prof(r) for r in self.GRID.tolist()])
            assert np.array_equal(got, per_float)
            assert np.array_equal(got, [ref(r) for r in self.GRID.tolist()])

    def test_float_in_gives_float_out(self):
        for made in (BUMP, RadialTestFunction.cubic_spline([(1, 0)], KNOTS)):
            for prof in made.profiles[(1, 0)]:
                for r in (0.2, 1.0, 2.0, 2.5):
                    assert type(prof(r)) is float


class TestInteriorPairing:
    def test_zero_source(self):
        sol = make_solution(0.1, q=0.0)
        assert weak_limit.pairing_interior(sol, BUMP) == 0

    def test_against_dense_quadrature_oracle(self):
        # oracle: plain Simpson rule on a dense grid, independent code path
        sol = make_solution(0.1)
        got = weak_limit.pairing_interior(sol, BUMP, tol=1e-11)
        co = as_complex(sol.modes[(1, 0)])
        q = 1.0
        phi = BUMP.profiles[(1, 0)][0]
        rs = np.linspace(R1, 1.0, 4001)
        js = sp.spherical_jn(1, rs)
        hs = js + 1j * sp.spherical_yn(1, rs)
        vals = 2.0 * (co["beta"] * js + q * hs) * np.array([phi(r) for r in rs]) * rs
        from scipy.integrate import simpson
        ref = simpson(vals, x=rs)
        assert abs(got - ref) < 1e-9 * max(1, abs(ref))

    def test_rho_sequence_approaches_limit_at_first_order(self):
        target, _ = weak_limit.predicted_limit_parts(SRC, BUMP, PARAMS0,
                                                     tol=1e-11)
        errs, rhos = [], (1e-2, 1e-3, 1e-4)
        for rho in rhos:
            sol = make_solution(rho)
            errs.append(abs(weak_limit.pairing_interior(sol, BUMP, tol=1e-11)
                            - target))
        slope = fit_power_law(rhos, errs)
        assert abs(slope - 1.0) < 0.15

    def test_linearity_in_test_function(self):
        sol = make_solution(0.05)
        lam = 0.37
        bump2 = RadialTestFunction.polynomial_bump([(1, 0)], 0.6, 1.9, amplitude=2.0)
        phi1, dphi1 = BUMP.profiles[(1, 0)]
        phi2, dphi2 = bump2.profiles[(1, 0)]
        combo = RadialTestFunction({(1, 0): (
            lambda r: phi1(r) + lam * phi2(r),
            lambda r: dphi1(r) + lam * dphi2(r))})
        lhs = weak_limit.pairing_interior(sol, combo, tol=1e-11)
        rhs = (weak_limit.pairing_interior(sol, BUMP, tol=1e-11)
               + lam * weak_limit.pairing_interior(sol, bump2, tol=1e-11))
        assert abs(lhs - rhs) < 1e-12 * max(1, abs(rhs))


class TestExteriorPairing:
    def test_zero_solution(self):
        sol = make_solution(0.1, q=0.0)
        assert weak_limit.pairing_exterior_normal(sol, BUMP) == 0

    def test_against_3d_product_quadrature_oracle(self):
        # oracle: assemble the physical-space volume integral of
        # (xhat . E) * phi(|x|) Y10(xhat) from pointwise field evaluations
        rho = 1e-2
        sol = make_solution(rho)
        got = weak_limit.pairing_exterior_normal(sol, BUMP, tol=1e-10)

        phi = BUMP.profiles[(1, 0)][0]
        xs, ws = np.polynomial.legendre.leggauss(8)
        phis = np.linspace(0, 2 * np.pi, 4, endpoint=False)
        wphi = 2 * np.pi / len(phis)
        # radial panels geometrically refined toward the interface
        edges = [1.0 + rho * 2.0 ** j for j in range(-4, 30)
                 if 1.0 + rho * 2.0 ** j < 2.0] + [2.0]
        edges = [1.0] + edges
        gl_x, gl_w = np.polynomial.legendre.leggauss(12)
        total = 0j
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for xr, wr in zip(gl_x, gl_w):
                r = mid + half * xr
                if r <= 1.0 or r >= 2.0:
                    continue
                shell = 0j
                for ct, wt in zip(xs, ws):
                    st = math.sqrt(1 - ct * ct)
                    for ph in phis:
                        d = np.array([st * math.cos(ph), st * math.sin(ph), ct])
                        s = fields.eval_physical(sol, r * d)
                        shell += wt * wphi * np.dot(d, s.E) * angular_basis(
                            ModeIndex(1, 0), d)[0]
                total += half * wr * shell * phi(r) * r * r
        assert abs(got - total) < 0.02 * abs(total)

    def test_sweep_approaches_surface_term(self):
        _, _, sigma = modal.limit_coeffs(1, 1.0, PARAMS0)
        target = sigma * BUMP.profiles[(1, 0)][0](1.0)
        errs, rhos = [], (1e-2, 3e-3, 1e-3)
        for rho in rhos:
            sol = make_solution(rho)
            val = weak_limit.pairing_exterior_normal(sol, BUMP, tol=1e-10)
            errs.append(abs(val - target))
        assert errs[-1] < 0.02 * abs(target)
        assert fit_power_law(rhos, errs) >= 0.8

    def test_multimode_pairing_is_mode_additive(self):
        entries = {(1, 0): (0j, 1 + 0j), (2, 1): (0j, 0.5 - 0.25j),
                   (3, -2): (0j, 0.2j)}
        src = modal.SourceCoeffs(entries=entries, r1=R1)
        phi = RadialTestFunction.polynomial_bump(list(entries), 0.5, 1.5)
        params = CloakParams(rho=3e-3, omega=OMEGA, r1=R1)
        total = weak_limit.pairing_exterior_normal(
            modal.solve_source(src, None, params), phi, tol=1e-10)
        acc = 0j
        for key, data in entries.items():
            single = modal.SourceCoeffs(entries={key: data}, r1=R1)
            acc += weak_limit.pairing_exterior_normal(
                modal.solve_source(single, None, params), phi, tol=1e-10)
        assert total == acc
        predicted = weak_limit.predicted_limit(src, phi, params, tol=1e-10)
        interior = weak_limit.pairing_interior(
            modal.solve_source(src, None, params), phi, tol=1e-10)
        assert abs(total + interior - predicted) < 0.01 * abs(predicted)

    def test_far_support_matches_ideal_field_pairing(self):
        # boundary-driven scenario, test support away from the interface:
        # the layer pairing approaches the singular-map transport of the
        # limiting background, with no surface term (phi(1) = 0)
        far = RadialTestFunction.polynomial_bump([(1, 0)], 1.55, 1.95)
        src = modal.SourceCoeffs(entries={(1, 0): (0j, 0j)}, r1=R1)
        bnd = modal.BoundaryCoeffs(entries={(1, 0): (0j, 1 + 0j)})
        params = CloakParams(rho=1e-3, omega=OMEGA, r1=R1)
        sol = modal.solve_source(src, bnd, params)
        got = weak_limit.pairing_exterior_normal(sol, far, tol=1e-10)

        # ideal value: eta0 = 2 f2 / J_1(2w); integrand of the limit map
        t = 2 * OMEGA
        jj2 = sp.spherical_jn(1, t) + t * sp.spherical_jn(1, t, derivative=True)
        eta0 = 2.0 / jj2
        phi = far.profiles[(1, 0)][0]
        def f_re(r):
            g = 1.0 + 0.5 * r
            return (2 * eta0 * sp.spherical_jn(1, OMEGA * r) * phi(g) * g * g / r).real
        ref = quad(f_re, 1.0, 2.0, limit=200)[0]
        assert got.real == pytest.approx(ref, rel=0.01)
        assert abs(got.imag) < 0.01 * abs(ref)


class TestPredictedLimit:
    def test_surface_term_killed_by_vanishing_profile(self):
        away = RadialTestFunction.polynomial_bump([(1, 0)], 1.2, 1.8)
        measurable, surface = weak_limit.predicted_limit_parts(
            SRC, away, PARAMS0)
        assert surface == 0
        assert measurable == 0  # profile vanishes on the interior radii too

    def test_single_mode_surface_term_value(self):
        _, surface = weak_limit.predicted_limit_parts(SRC, BUMP, PARAMS0)
        j1 = sp.spherical_jn(1, 1.0)
        assert surface == pytest.approx(-1j / j1 * 0.0625, rel=1e-12)

    def test_total_matches_richardson_extrapolated_sweep(self):
        predicted = weak_limit.predicted_limit(SRC, BUMP, PARAMS0, tol=1e-10)
        vals = []
        for rho in (3e-3, 1e-3):
            sol = make_solution(rho)
            vals.append(weak_limit.pairing_interior(sol, BUMP, tol=1e-10)
                        + weak_limit.pairing_exterior_normal(sol, BUMP, tol=1e-10))
        # first-order extrapolation in rho
        extrap = vals[1] + (vals[1] - vals[0]) * 1e-3 / (3e-3 - 1e-3)
        assert abs(predicted - extrap) < 0.01 * abs(predicted)


class TestTraces:
    def test_interior_trace_vanishes_at_interface(self):
        tr = weak_limit.interior_trace_normal(SRC, PARAMS0, 1.0)
        assert abs(tr[(1, 0)]) < 1e-13

    def test_interior_trace_at_inner_radius(self):
        tr = weak_limit.interior_trace_normal(SRC, PARAMS0, 0.9)
        j = sp.spherical_jn(1, 0.9)
        h = j + 1j * sp.spherical_yn(1, 0.9)
        j1 = sp.spherical_jn(1, 1.0)
        h1 = j1 + 1j * sp.spherical_yn(1, 1.0)
        expected = 2.0 / 0.9 * (-h1 / j1 * j + h)
        assert tr[(1, 0)] == pytest.approx(expected, rel=1e-12)
        assert abs(tr[(1, 0)]) > 1e-3

    def test_finite_rho_trace_is_first_order(self):
        errs, rhos = [], (1e-2, 1e-3, 1e-4)
        for rho in rhos:
            sol = make_solution(rho)
            tr = interior_trace_normal_at(sol, 1.0)
            errs.append(abs(tr[(1, 0)]))
        slope = fit_power_law(rhos, errs)
        assert abs(slope - 1.0) < 0.15

    @pytest.mark.parametrize("r", [0.1, R1, 1.5, 5.0])
    def test_trace_radius_outside_hidden_region_rejected(self, r):
        sol = make_solution(1e-2)
        with pytest.raises(DomainError):
            interior_trace_normal_at(sol, r)
        with pytest.raises(DomainError):
            weak_limit.interior_trace_normal(SRC, PARAMS0, r)

    def test_tangential_limit_identity(self):
        out = weak_limit.tangential_trace_limit(SRC, PARAMS0)
        t1, t2 = out[(1, 0)]
        j1 = sp.spherical_jn(1, 1.0)
        assert t1 * 1.0 * j1 / 1j == pytest.approx(1.0, rel=1e-12)
        assert t2 == 0

    def test_tangential_zero_for_zero_source(self):
        src0 = modal.SourceCoeffs(entries={(1, 0): (0j, 0j)}, r1=R1)
        out = weak_limit.tangential_trace_limit(src0, PARAMS0)
        assert out[(1, 0)] == (0, 0)

    def test_finite_rho_tangential_converges_first_order(self):
        out = weak_limit.tangential_trace_limit(SRC, PARAMS0)
        t1_limit = out[(1, 0)][0]
        errs, rhos = [], (1e-2, 1e-3, 1e-4)
        for rho in rhos:
            sol = make_solution(rho)
            t1_rho = tangential_trace_at(sol)[(1, 0)][0]
            errs.append(abs(t1_rho - t1_limit))
        slope = fit_power_law(rhos, errs)
        assert abs(slope - 1.0) < 0.15


# every mode up to degree 12, p and q falling as 2^-n
ALL_TO_12 = modal.SourceCoeffs(
    {(n, m): tuple(2.0 ** -n * cmath.exp(1j * (n + m + k)) for k in (0, 1))
     for n in range(1, 13) for m in range(-n, n + 1)}, r1=R1)


class TestTracesAgainstTheOracle:
    """Each mode of a trace, read from its degree's rows, against the scalar
    ``oracle.mode_rows``: every entry within 1e-13 of its mode's largest
    row.  The hidden chains carry a boundary-only mode of degree 160, whose
    y rows leave double range; in the limit the normal trace at r = 1 and
    T2 cancel identically, so they fall below that bound too."""

    @pytest.mark.parametrize("eps0, mu0", [(1.0, 1.0), (2.0, 0.7)])
    @pytest.mark.parametrize("rho", [1e-2, 1e-6])
    @pytest.mark.parametrize("region", ["hidden", "limit"])
    def test_every_entry_within_1e_13_of_its_mode(self, region, rho, eps0,
                                                  mu0):
        params = CloakParams(rho=rho, omega=OMEGA, eps0=eps0, mu0=mu0, r1=R1)
        if region == "limit":
            chains = modal.limit_chains(ALL_TO_12, params)
            normal = functools.partial(weak_limit.interior_trace_normal,
                                       ALL_TO_12, params)
            tangential = weak_limit.tangential_trace_limit(ALL_TO_12, params)
        else:
            sol = modal.solve_source(ALL_TO_12, modal.BoundaryCoeffs(
                {(160, 1): (0.3j, 0.1)}), params)
            chains = modal.region_chains(sol, "hidden")
            normal = functools.partial(interior_trace_normal_at, sol)
            tangential = tangential_trace_at(sol)
        s2 = chains.degrees * (chains.degrees + 1.0)
        for r in (0.55, 0.8, 1.0):
            want = mode_rows(chains, chains.table(r).column(0))
            scale = np.abs(want).max(axis=0)
            got = np.array(list(normal(r).values()))
            assert np.all(np.abs(got - s2 / r * want[2]) <= 1e-13 * s2 / r
                          * scale)
            if region == "limit" and r == 1.0:
                assert np.all(np.abs(got) <= 1e-13 * s2 * scale)
        t1, t2 = np.array(list(tangential.values())).T
        assert np.all(np.abs(t1 - want[3]) <= 1e-13 * scale)
        assert np.all(np.abs(t2 - want[0]) <= 1e-13 * scale)
        if region == "limit":
            assert np.all(np.abs(t2) <= 1e-13 * scale)
        else:
            assert chains.keys[-1] == (160, 1)


class TestEnergy:
    def test_zero_solution(self):
        sol = make_solution(0.1, q=0.0)
        assert weak_limit.energy_integral(sol) == 0.0

    def test_finite_and_stable_under_refinement(self):
        sol = make_solution(0.1)
        coarse = weak_limit.energy_integral(sol, delta=0.0, tol=1e-4)
        fine = weak_limit.energy_integral(sol, delta=0.0, tol=1e-8)
        assert math.isfinite(fine) and fine > 0
        assert abs(coarse - fine) < 0.01 * fine

    def test_exclusion_collar_reduces_energy(self):
        sol = make_solution(0.1)
        full = weak_limit.energy_integral(sol, delta=0.0)
        cut = weak_limit.energy_integral(sol, delta=0.05)
        assert cut < full

    def test_negative_delta_rejected(self):
        sol = make_solution(0.1)
        with pytest.raises(DomainError):
            weak_limit.energy_integral(sol, delta=-0.1)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta):
        sol = make_solution(0.1)
        with pytest.raises(DomainError, match="delta"):
            weak_limit.energy_integral(sol, delta=delta)

    @pytest.mark.parametrize("rho", [1e-2, 1e-4, 1e-6])
    def test_energy_at_delta_zero_reads_the_pairing_tables(
            self, rho, monkeypatch):
        """At delta = 0 the layer integral starts at rho itself, where the
        exterior pairing starts, so it builds no table of its own: every
        table it reads is one the pairings built, the same object."""
        params = CloakParams(rho=rho, omega=OMEGA, r1=R1)
        sol = modal.solve_source(SRC, None, params)
        built = _count_tables(monkeypatch)
        weak_limit.pairing_interior(sol, BUMP)
        weak_limit.pairing_exterior_normal(sol, BUMP)
        paired = {id(tab) for tab in built}
        read, quadrature_table = [], modal.RegionChains.quadrature_table

        def watched(chains, n_max, r):
            read.append(quadrature_table(chains, n_max, r))
            return read[-1]

        monkeypatch.setattr(modal.RegionChains, "quadrature_table", watched)
        weak_limit.energy_integral(sol)
        assert len(built) == len(paired)  # the energy built no table
        assert read and {id(tab) for tab in read} <= paired

    def test_energy_combines_no_mode(self, monkeypatch):
        calls, combine = [], specfun.combine

        def counted(*args):
            calls.append(1)
            return combine(*args)

        monkeypatch.setattr(specfun, "combine", counted)
        params = CloakParams(rho=1e-4, omega=OMEGA, r1=R1)
        weak_limit.energy_integral(
            modal.solve_source(EIGHT_MODES, None, params), delta=0.05)
        assert calls == []

    @pytest.mark.parametrize("rho", [1e-2, 1e-6])
    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_one_integral_matches_per_mode_sum(self, rho, delta):
        params = CloakParams(rho=rho, omega=OMEGA, r1=R1)
        sol = modal.solve_source(FROZEN_SOURCE, None, params)
        total = weak_limit.energy_integral(sol, delta=delta, tol=1e-7)
        one_mode = [modal.solve_source(
            modal.SourceCoeffs({key: FROZEN_SOURCE.entries[key]}, r1=R1),
            None, params) for key in sol.modes]
        per_mode = sum(weak_limit.energy_integral(one, delta=delta, tol=1e-7)
                       for one in one_mode)
        assert len(sol.modes) == 3
        for one, key in zip(one_mode, sol.modes, strict=True):
            assert list(one.modes) == [key]
        assert abs(total - per_mode) <= 1e-13 * per_mode

    def test_accuracy_error_names_the_region(self, monkeypatch):
        sol = make_solution(0.1)
        # two- and four-point rules cannot reach tol on either region
        monkeypatch.setattr(quadrature, "BASE_POINTS", 2)
        monkeypatch.setattr(quadrature, "MAX_POINTS", 4)
        with pytest.raises(AccuracyError, match="^layer energy") as err:
            weak_limit.energy_integral(sol)
        assert err.value.estimate is not None and err.value.achieved > 0
        # with the layer out of the way the hidden region fails next
        monkeypatch.setattr(weak_limit, "integrate_boundary_layer",
                            lambda *args, **kwargs: 0j)
        with pytest.raises(AccuracyError, match="^hidden energy"):
            weak_limit.energy_integral(sol)


def _per_mode_density(chains, r):
    """The energy density of ``weak_limit._energy_density``, mode by mode:
    each mode's four rows from the scalar ``oracle.mode_rows``, squared and
    weighted on their own."""
    w = chains.wavenumber
    tab = specfun.bessel_table(int(chains.degrees.max(initial=0)), w * r)
    ev, hu, er, eu = np.abs(np.stack(
        [mode_rows(chains, tab.column(i)) for i in range(r.size)], axis=-1))
    s2 = (chains.degrees * (chains.degrees + 1.0))[:, None]
    return (s2 * ev * ev * r * r + s2 * eu * eu + s2 ** 2 * er * er
            + w ** 2 * s2 * er * er * r * r
            + s2 * hu * hu / w ** 2 + s2 ** 2 * ev * ev / w ** 2).sum(axis=0)


# three modes of each degree, from 1 up to 60
DENSITY_KEYS = [(n, m) for n in (1, 2, 5, 12, 25, 40, 60) for m in (-n, 0, n)]


def _density_solution(kind, rho):
    """A solution on DENSITY_KEYS driven by p and q, by p only, by q only,
    by boundary data only, or by nothing (every coefficient zero); or
    driven by p and q beside a boundary-only mode of degree 160, whose y
    rows overflow double range, so its zero p and q columns must stay an
    exact 0."""
    params = CloakParams(rho=rho, omega=OMEGA, r1=R1)
    pq = {(n, m): tuple(2.0 ** -n * cmath.exp(1j * (n + m + k))
                        for k in (0, 1)) for n, m in DENSITY_KEYS}
    if kind == "p":
        pq = {key: (p, 0j) for key, (p, _) in pq.items()}
    elif kind == "q":
        pq = {key: (0j, q) for key, (_, q) in pq.items()}
    if kind in ("pq", "p", "q", "pq160"):
        boundary = modal.BoundaryCoeffs(
            {(160, 1): (0.3j, 0.1)} if kind == "pq160" else {})
        return modal.solve_source(modal.SourceCoeffs(pq, R1), boundary,
                                  params)
    data = pq if kind == "boundary" else dict.fromkeys(pq, (0j, 0j))
    return modal.solve_source(modal.SourceCoeffs({}, R1),
                              modal.BoundaryCoeffs(data), params)


class TestEnergyDensityPerDegree:
    """The density summed per degree from Gram sums of the coefficients
    against the same density summed mode by mode."""

    @pytest.mark.parametrize("region", ["layer", "hidden"])
    @pytest.mark.parametrize("rho", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("kind", ["pq", "p", "q", "boundary", "zero",
                                      "pq160"])
    def test_matches_the_per_mode_density(self, kind, rho, region):
        sol = _density_solution(kind, rho)
        extra = [(160, 1)] if kind == "pq160" else []
        assert sorted(sol.modes) == DENSITY_KEYS + extra
        chains = modal.region_chains(sol, region)
        r = (np.geomspace(rho, 2.0, 201)[1:-1] if region == "layer"
             else np.linspace(R1, 1.0, 201)[1:-1])
        want = _per_mode_density(chains, r)
        got = weak_limit._energy_density(chains)(r)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got == 0.0, want == 0.0)
        assert (kind == "zero") == np.all(want == 0.0)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_sums_run_over_each_degree(self):
        chains = modal.region_chains(_density_solution("pq", 1e-4), "layer")
        degrees, starts = chains.runs
        assert degrees.tolist() == [1, 2, 5, 12, 25, 40, 60]
        assert starts.tolist() == list(range(0, 21, 3))
        tab = chains.table(1.3)
        got = chains.squared_sums(tab)
        assert got.shape == (4, 7, 1) and np.all(got >= 0.0)
        modes = np.abs(mode_rows(chains, tab.column(0))) ** 2
        # one row alone cancels more than the density (B(J, H) vanishes at
        # r = 2), so its bound is looser
        for k, start in enumerate(starts):
            want = modes[:, start:start + 3].sum(axis=1)
            assert np.all(np.abs(got[:, k, 0] - want) <= 1e-12 * want)


class TestDeltaStrengthConsistency:
    def test_fitted_constant_matches_sigma(self):
        # fit pairing(rho) ~ const * phi(1) and compare const with sigma
        phi1 = BUMP.profiles[(1, 0)][0](1.0)
        sol = make_solution(1e-3)
        val = weak_limit.pairing_exterior_normal(sol, BUMP, tol=1e-10)
        const = val / phi1
        _, _, sigma = modal.limit_coeffs(1, 1.0, PARAMS0)
        assert abs(const - sigma) < 0.01 * abs(sigma)


def _params_list(*rhos):
    return [CloakParams(rho=rho, omega=OMEGA, r1=R1) for rho in rhos]


class TestConvergenceStudy:
    def test_rows_and_rate(self):
        rows, rate = weak_limit.convergence_study(
            SRC, BUMP, _params_list(1e-2, 3e-3, 1e-3), tol=1e-10)
        assert len(rows) == 3
        assert [row["rho"] for row in rows] == [1e-2, 3e-3, 1e-3]
        assert rows[0]["abs_err"] > rows[-1]["abs_err"]
        assert rate >= 0.8

    def test_rows_record_the_solve_truncation(self):
        rows, _ = weak_limit.convergence_study(
            SRC, BUMP, _params_list(1e-2, 1e-3), tol=1e-8)
        params = CloakParams(rho=1e-3, omega=OMEGA, r1=R1)
        n_max = modal.solve_source(SRC, None, params).n_max
        assert [row["n_max"] for row in rows] == [n_max, n_max]


# -- shared quadrature tables ----------------------------------------------------

# every mode of degrees 1 and 2
EIGHT_MODES = modal.SourceCoeffs(entries={
    (n, m): tuple(4.0 ** -n * cmath.exp(1j * (n + m + k)) for k in (0, 1))
    for n in (1, 2) for m in range(-n, n + 1)}, r1=R1)


def _count_tables(monkeypatch):
    """The tables specfun.bessel_table builds from now on, in a list."""
    built, bessel_table = [], specfun.bessel_table

    def counted(n_max, t):
        built.append(bessel_table(n_max, t))
        return built[-1]

    monkeypatch.setattr(specfun, "bessel_table", counted)
    return built


def _pair(solution, phi):
    return (weak_limit.pairing_interior(solution, phi)
            + weak_limit.pairing_exterior_normal(solution, phi))


@contextlib.contextmanager
def _collector_off():
    """Within the block only reference counting frees objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(autouse=True)
def _fresh_store():
    """Each test starts from empty memos, as a new process does: work kept
    by an earlier test would change what a test sees built."""
    _clear_memos()


def _kept_table(tab):
    """The table the memo holds at tab's order and arguments, building
    none: None where it holds no such table."""
    memo = modal._bessel_table
    misses = memo.cache_info().misses
    kept = memo(tab.n_max, tab.t.tobytes())
    return None if memo.cache_info().misses > misses else kept


class TestSharedQuadratureTables:
    PARAMS = CloakParams(rho=1e-4, omega=OMEGA, r1=R1)

    def test_modes_of_one_degree_share_tables(self, monkeypatch):
        every, one_per_degree = (
            modal.solve_source(EIGHT_MODES, None, self.PARAMS)
            for _ in range(2))
        built = _count_tables(monkeypatch)
        _pair(every, RadialTestFunction.polynomial_bump(
            EIGHT_MODES.modes(), 0.5, 1.5))
        tables_every = len(built)
        _clear_memos()  # the tables are built again
        _pair(one_per_degree, RadialTestFunction.polynomial_bump(
            [(1, 0), (2, 0)], 0.5, 1.5))
        assert tables_every == len(built) - tables_every > 0

    def test_limit_reads_the_interior_pairings_tables(self, monkeypatch):
        sol = modal.solve_source(EIGHT_MODES, None, self.PARAMS)
        weak_limit.pairing_interior(sol, BUMP)
        built = _count_tables(monkeypatch)
        weak_limit.predicted_limit(EIGHT_MODES, BUMP, self.PARAMS)
        # no table at the quadrature nodes, only one-argument ladders
        assert all(tab.t.size == 1 for tab in built)

    def test_tables_of_different_n_max_are_not_shared(self, monkeypatch):
        sol = modal.solve_source(EIGHT_MODES, None, self.PARAMS)
        built = _count_tables(monkeypatch)
        weak_limit.pairing_interior(sol, BUMP)
        weak_limit.energy_integral(sol)
        by_args = {}
        for tab in built:
            by_args.setdefault(tab.t.tobytes(), {})[tab.n_max] = tab
        shared = [tabs for tabs in by_args.values() if {1, 2} <= tabs.keys()]
        assert shared
        for tabs in shared:
            assert tabs[1] is not tabs[2]
            assert (tabs[1].n_max, tabs[2].n_max) == (1, 2)
            assert all(_kept_table(tab) is tab for tab in tabs.values())

    def test_tables_are_read_only(self, monkeypatch):
        sol = modal.solve_source(EIGHT_MODES, None, self.PARAMS)
        built = _count_tables(monkeypatch)
        weak_limit.pairing_interior(sol, BUMP)
        assert built
        for tab in built:
            assert _kept_table(tab) is tab
            for part in (tab.t, tab.j_log, tab.j_sign, tab.y_log,
                         tab.y_sign):
                with pytest.raises(ValueError):
                    part[0] = 0.0

    def test_fresh_tables_are_read_only_and_kept_ones_are_reused(self):
        t = np.array([0.5, 2.0, 7.0])
        tab = specfun.bessel_table(4, t)
        for part in (tab.t, tab.j_log, tab.j_sign, tab.y_log, tab.y_sign):
            with pytest.raises(ValueError):
                part[0] = 0.0
        t[0] = 1.0  # the caller's arguments stay its own and writable
        assert tab.t[0] == 0.5
        chains = modal.region_chains(
            modal.solve_source(EIGHT_MODES, None, self.PARAMS), "hidden")
        r = np.linspace(0.55, 0.95, 7)
        kept = chains.quadrature_table(2, r)
        assert chains.quadrature_table(2, r.copy()) is kept

    def test_next_solution_reads_the_kept_tables(self, monkeypatch):
        """Tables are kept by value, not with their solution: the next
        solution of these params pairs from the first one's tables, layer
        and hidden, the same objects, and builds none; the first one's
        chains go without the collector."""
        first, second = (modal.solve_source(EIGHT_MODES, None, self.PARAMS)
                         for _ in range(2))
        built = _count_tables(monkeypatch)
        value = _pair(first, BUMP)
        chains = [weakref.ref(modal.region_chains(first, region))
                  for region in ("layer", "hidden")]
        kept = list(built)
        assert kept
        with _collector_off():
            del first
            weak_limit._moments.cache_clear()  # moments read tables too
            assert _pair(second, BUMP) == value
            assert all(ref() is None for ref in chains)
        assert built == kept
        assert all(_kept_table(tab) is tab for tab in kept)

    def test_field_point_adds_no_table(self, monkeypatch):
        sol = modal.solve_source(EIGHT_MODES, None, self.PARAMS)
        built = _count_tables(monkeypatch)
        _pair(sol, BUMP)
        kept = list(built)
        info = modal._bessel_table.cache_info()
        assert kept
        fields.eval_physical(sol, np.array([0.3, 0.4, 0.2]))
        fields.eval_physical(sol, np.array([0.9, -0.6, 0.4]))
        assert modal._bessel_table.cache_info() == info
        assert all(_kept_table(tab) is tab for tab in kept)

    def test_an_energy_sweep_over_delta_keeps_at_most_the_bound(
            self, monkeypatch):
        """Each delta integrates over new nodes, so a sweep builds tables
        without end; the memo keeps the ones read last, at most its bound,
        and an evicted table is freed without the collector."""
        sol = modal.solve_source(EIGHT_MODES, None, self.PARAMS)
        refs, bessel_table = [], specfun.bessel_table

        def watched(n_max, t):
            tab = bessel_table(n_max, t)
            refs.append(weakref.ref(tab))
            return tab

        monkeypatch.setattr(specfun, "bessel_table", watched)
        bound = modal._bessel_table.cache_info().maxsize
        with _collector_off():
            for i in range(bound + 50):
                weak_limit.energy_integral(sol, delta=0.004 * (i + 1))
            alive = sum(ref() is not None for ref in refs)
            assert len(refs) > bound + 50
            assert refs[0]() is None
            assert alive <= bound

    def test_sweep_values_equal_a_fresh_table_per_integrand(self, monkeypatch):
        phi = RadialTestFunction.cubic_spline(
            EIGHT_MODES.modes(), [(0.4, 0.0), (0.7, 1.1), (1.0, 0.9),
                                  (1.4, 1.2)])

        def sweep():
            values = []
            for rho in (1e-2, 1e-4, 1e-6):
                params = CloakParams(rho=rho, omega=OMEGA, r1=R1)
                sol = modal.solve_source(EIGHT_MODES, None, params)
                values += [_pair(sol, phi),
                           weak_limit.predicted_limit(EIGHT_MODES, phi, params),
                           weak_limit.energy_integral(sol, tol=1e-7)]
            return values

        shared = sweep()
        monkeypatch.setattr(
            modal.RegionChains, "quadrature_table",
            lambda chains, n_max, r: specfun.bessel_table(
                n_max, chains.wavenumber * r))
        assert sweep() == shared


# -- the hidden region's moments, shared by the interior pairing and the limit ---

def _watched_bump(modes):
    """A bump on every mode through one shared callable, and the list of
    the array arguments it is called with."""
    calls = []
    phi, dphi = RadialTestFunction.polynomial_bump(
        modes, 0.5, 1.5).profiles[modes[0]]

    def watched(r):
        if np.ndim(r):
            calls.append(r)
        return phi(r)
    return RadialTestFunction({mode: (watched, dphi) for mode in modes}), calls


def _kept_moments() -> int:
    """The moment pairs kept, over every profile callable."""
    return weak_limit._moments.cache_info().currsize


def _kept_pair(prof, n, params, tol=1e-9):
    """The hidden moment pair of prof and degree n in the medium of params
    that the memo holds, or None where it held none (it holds one now)."""
    memo = weak_limit._moments
    misses = memo.cache_info().misses
    kept = memo(prof, n, params.k * params.omega, tol, params.r1, 1.0)
    return None if memo.cache_info().misses > misses else kept


def _count_moment_integrals(monkeypatch):
    """The integrals weak_limit's moments run from now on, in a list."""
    runs, integrate = [], weak_limit.integrate_adaptive

    def counted(f, a, b, tol):
        runs.append((a, b))
        return integrate(f, a, b, tol=tol)

    monkeypatch.setattr(weak_limit, "integrate_adaptive", counted)
    return runs


class TestHiddenMoments:
    PARAMS = CloakParams(rho=1e-4, omega=OMEGA, r1=R1)

    @pytest.mark.parametrize("interior_first", [True, False])
    def test_second_hidden_pairing_reads_the_first_ones_moments(
            self, monkeypatch, interior_first):
        """Both orders share the moments, on a params object of their own,
        as in ``convergence_study``."""
        phi, calls = _watched_bump(EIGHT_MODES.modes())
        params = dataclasses.replace(self.PARAMS)
        sol = modal.solve_source(EIGHT_MODES, None, params)
        pairings = [lambda: weak_limit.pairing_interior(sol, phi),
                    lambda: weak_limit.predicted_limit(EIGHT_MODES, phi,
                                                       params)]
        first, second = pairings if interior_first else pairings[::-1]
        first()
        assert calls
        calls.clear()
        built = _count_tables(monkeypatch)
        value = second()
        assert calls == []
        # no table at the quadrature nodes, at most the limit's ladders
        assert all(tab.t.size == 1 for tab in built)
        _clear_memos()
        assert _exact(second()) == _exact(value)

    def test_one_moment_pair_per_degree_and_callable(self, monkeypatch):
        """A callable of its own on every mode integrates a pair per mode
        and leaves the moments of the shared callable the same objects."""
        params = dataclasses.replace(self.PARAMS)
        sol = modal.solve_source(EIGHT_MODES, None, params)
        shared, _ = _watched_bump(EIGHT_MODES.modes())
        distinct = RadialTestFunction(
            {mode: tuple(lambda r, f=f: f(r) for f in pair)
             for mode, pair in shared.profiles.items()})
        runs = _count_moment_integrals(monkeypatch)
        weak_limit.pairing_interior(sol, shared)
        assert len(runs) == _kept_moments() == 2
        prof = shared.profiles[(1, 0)][0]
        held = {n: _kept_pair(prof, n, params) for n in (1, 2)}
        weak_limit.pairing_interior(sol, distinct)
        assert len(runs) == _kept_moments() == 2 + 8
        assert all(_kept_pair(prof, n, params) is pair
                   for n, pair in held.items())
        assert len(runs) == 2 + 8

    def test_moments_meet_tol_relative_to_themselves(self):
        """At degree 60 the j moment is about 1e-104 and the y moment
        -1e111; each is within tol of scipy's, relative to itself."""
        source = modal.SourceCoeffs({(60, 0): (0j, 1 + 0j)}, r1=R1)
        chains = modal.limit_chains(source, self.PARAMS)
        prof = BUMP.profiles[(1, 0)][0]
        m_j, m_h = weak_limit._moments(prof, 60, chains.wavenumber, 1e-9,
                                       R1, 1.0)
        ref_j, ref_y = (quad(lambda r: f(60, r) * prof(r) * r, R1, 1.0,
                             epsabs=0.0, epsrel=1e-13, limit=200)[0]
                        for f in (sp.spherical_jn, sp.spherical_yn))
        assert abs(ref_j) < 1e-100 and abs(ref_y) > 1e100
        assert abs(m_j.to_complex() - ref_j) <= 1e-9 * abs(ref_j)
        ref_h = complex(ref_j, ref_y)
        assert abs(m_h.to_complex() - ref_h) <= 1e-9 * abs(ref_h)

    def _kinked_moments(self, r_lo, tol):
        """Degree-60 moments against a bump on (r_lo, 1.8), and scipy's
        (M_j, M_h) with the kink at r_lo as an interval end; None for the
        moments where the driver refuses them with AccuracyError."""
        source = modal.SourceCoeffs({(60, 0): (0j, 1 + 0j)}, r1=R1)
        chains = modal.limit_chains(source, self.PARAMS)
        prof = RadialTestFunction.polynomial_bump(
            [(60, 0)], r_lo, 1.8).profiles[(60, 0)][0]
        ref_j, ref_y = (quad(lambda r: f(60, r) * prof(r) * r, r_lo, 1.0,
                             epsabs=0.0, epsrel=1e-13, limit=200)[0]
                        for f in (sp.spherical_jn, sp.spherical_yn))
        try:
            moments = weak_limit._moments(prof, 60, chains.wavenumber, tol,
                                          R1, 1.0)
        except AccuracyError:
            moments = None
        return moments, (ref_j, complex(ref_j, ref_y))

    @pytest.mark.parametrize("r_lo", [0.6, 0.8])
    def test_moments_away_from_the_peak_meet_tol(self, r_lo):
        """y_60 peaks at r1 and falls as r^-61, so on the bump's support it
        is (r_lo / r1)^61 (6e4 and 3e12) below its peak on [r1, 1]; each
        moment still meets tol relative to itself."""
        tol = 1e-6
        moments, refs = self._kinked_moments(r_lo, tol)
        assert moments is not None
        for moment, ref in zip(moments, refs):
            assert abs(moment.to_complex() - ref) <= tol * abs(ref)

    @pytest.mark.parametrize("r_lo", [0.6, 0.8])
    def test_moments_at_a_kink_meet_tol_or_raise(self, r_lo):
        """At tol = 1e-9 the kink at r_lo, inside a panel, may stall the
        doubling: then AccuracyError, never a value outside tol."""
        tol = 1e-9
        moments, refs = self._kinked_moments(r_lo, tol)
        for moment, ref in zip(moments or (), refs):
            assert abs(moment.to_complex() - ref) <= tol * abs(ref)

    def test_degree_90_limit_matches_the_interior_pairing(self):
        """r_n = -h_n/j_n of degree 90 leaves double range at k omega = 1;
        the measurable limit still matches the interior pairing at small
        rho, both about 4e188."""
        source = modal.SourceCoeffs({(90, 0): (0j, 1 + 0j)}, r1=R1)
        phi = RadialTestFunction.polynomial_bump([(90, 0)], 0.5, 1.5)
        sol = modal.solve_source(source, None, self.PARAMS)
        interior = weak_limit.pairing_interior(sol, phi)
        measurable, surface = weak_limit.predicted_limit_parts(
            source, phi, self.PARAMS)
        assert cmath.isfinite(interior) and cmath.isfinite(surface)
        assert abs(measurable - interior) <= 1e-9 * abs(interior)


# -- the limit's one ladder per degree ------------------------------------------


def _count_ladders(monkeypatch):
    """The degrees of the ladders specfun.bessel_ladder builds from now on."""
    built, bessel_ladder = [], specfun.bessel_ladder

    def counted(n_max, t):
        built.append(n_max)
        return bessel_ladder(n_max, t)

    monkeypatch.setattr(specfun, "bessel_ladder", counted)
    return built


def _clear_memos():
    """Drop every kept table, ladder, ratio, moment and chains."""
    for memo in (modal._bessel_table, modal._limit_ladder,
                 modal._unit_ratios, weak_limit._moments):
        memo.cache_clear()
    modal._last_chains[:] = None, None


def _exact(value) -> bytes:
    """The doubles of a limit quantity (complex, ScaledComplex, dict or
    tuple of them) as bytes: equal only bit for bit."""
    if isinstance(value, dict):
        return b"".join(_exact(k) + _exact(v) for k, v in value.items())
    if isinstance(value, tuple):
        return b"".join(map(_exact, value))
    if hasattr(value, "log_mag"):
        return np.array([value.log_mag, value.phase], dtype=complex).tobytes()
    return np.array(value, dtype=complex).tobytes()


class TestLimitLadders:
    PHI = RadialTestFunction.polynomial_bump(EIGHT_MODES.modes(), 0.5, 1.5)
    RESONANT = json.loads((Path(__file__).resolve().parent.parent / "scenarios"
                           / "resonant_frequency.json").read_text())

    def test_one_ladder_per_degree_per_k_omega(self, monkeypatch):
        """At most one ladder per degree and k omega: an equal params
        object, or one of another rho, reads the ladders of the first, the
        same objects; one of another frequency builds its own."""
        params = CloakParams(rho=1e-4, omega=OMEGA, r1=R1)
        built = _count_ladders(monkeypatch)
        for _ in range(16):
            weak_limit.predicted_limit(EIGHT_MODES, self.PHI, params)
        assert sorted(built) == [1, 2]
        kw = params.k * params.omega
        ladders = {n: modal._limit_ladder(n, kw) for n in (1, 2)}
        equal = dataclasses.replace(params)
        assert equal == params and equal is not params
        for same in (equal, dataclasses.replace(params, rho=0.3)):
            weak_limit.predicted_limit(EIGHT_MODES, self.PHI, same)
            weak_limit.predicted_limit(EIGHT_MODES, self.PHI, same)
        assert sorted(built) == [1, 2]
        assert all(modal._limit_ladder(n, kw) is lad
                   for n, lad in ladders.items())
        weak_limit.predicted_limit(EIGHT_MODES, self.PHI,
                                   dataclasses.replace(params, omega=1.3))
        assert sorted(built) == [1, 1, 2, 2]

    def test_values_are_those_of_a_fresh_ladder(self, monkeypatch):
        params = CloakParams(rho=1e-4, omega=OMEGA, r1=R1)
        q = 0.3 - 0.8j
        quantities = [
            lambda: weak_limit.predicted_limit(EIGHT_MODES, self.PHI, params),
            lambda: weak_limit.interior_trace_normal(EIGHT_MODES, params, 0.7),
            lambda: weak_limit.tangential_trace_limit(EIGHT_MODES, params),
            *(functools.partial(modal.limit_coeffs, n, q, params)
              for n in (1, 2)),
            *(functools.partial(modal.sigma_uncollapsed, n, q, params)
              for n in (1, 2))]
        for quantity in quantities:
            quantity()
        kept = [_exact(quantity()) for quantity in quantities]
        fresh = []
        for quantity in quantities:
            _clear_memos()
            fresh.append(_exact(quantity()))
        assert kept == fresh

    def test_resonant_degree_raises_on_every_call(self):
        omega = self.RESONANT["params"]["omega"]
        params = CloakParams(rho=0.01, omega=omega, r1=R1)
        for _ in range(2):
            with pytest.raises(ResonanceError):
                weak_limit.predicted_limit(SRC, BUMP, params)
            with pytest.raises(ResonanceError):
                modal.limit_coeffs(1, 1.0, params)
        # the ladder is kept, the ratios are formed again on every call
        assert modal._limit_ladder.cache_info()[:2] == (3, 1)
        assert modal._unit_ratios.cache_info()[1:] == (4, specfun.N_CAP, 0)

    def test_ladders_are_kept_until_evicted(self, monkeypatch):
        """Params of another rho read the first params' ladders, and params
        of another frequency build their own beside them, the first ones
        staying the same objects; the params are not kept.  A ladder that
        as many newer ladders as the memo holds push out is freed without
        the collector."""
        first = CloakParams(rho=1e-4, omega=OMEGA, r1=R1)
        second = CloakParams(rho=1e-4, omega=1.3, r1=R1)
        built = _count_ladders(monkeypatch)
        weak_limit.predicted_limit(EIGHT_MODES, self.PHI, first)
        kw = first.k * first.omega
        ladders = {n: modal._limit_ladder(n, kw) for n in (1, 2)}
        refs = [weakref.ref(first)] + [weakref.ref(lad.table) for lad in
                                       ladders.values()]
        with _collector_off():
            weak_limit.tangential_trace_limit(
                EIGHT_MODES, dataclasses.replace(first, rho=0.2))
            assert sorted(built) == [1, 2]
            weak_limit.tangential_trace_limit(EIGHT_MODES, second)
            assert sorted(built) == [1, 1, 2, 2]
            assert all(modal._limit_ladder(n, kw) is lad
                       for n, lad in ladders.items())
            assert all(modal._limit_ladder(n, second.k * second.omega).t
                       == second.k * second.omega for n in (1, 2))
            del first
            assert refs[0]() is None
            del ladders
            assert all(ref() is not None for ref in refs[1:])
            for i in range(specfun.N_CAP):
                modal._limit_ladder(1, 2.0 + i / 64)
            assert all(ref() is None for ref in refs[1:])

    def test_kept_ladders_are_read_only(self):
        params = CloakParams(rho=1e-4, omega=OMEGA, r1=R1)
        weak_limit.tangential_trace_limit(EIGHT_MODES, params)
        misses = modal._limit_ladder.cache_info().misses
        ladders = [modal._limit_ladder(n, params.k * params.omega)
                   for n in (1, 2)]
        assert modal._limit_ladder.cache_info().misses == misses
        for lad in ladders:
            tab = lad.table
            for part in (tab.t, tab.j_log, tab.j_sign, tab.y_log, tab.y_sign):
                with pytest.raises(ValueError):
                    part[0] = 0.0


# -- work kept by value, shared across the rho of a sweep ------------------------

class _Slotted:
    """A profile callable that cannot be weakly referenced."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f

    def __call__(self, r):
        return self.f(r)


class _Unhashable:
    """A profile callable that cannot be hashed."""

    def __init__(self, f):
        self.f = f

    def __call__(self, r):
        return self.f(r)

    def __eq__(self, other):
        return self is other

    __hash__ = None


class TestSharedMedium:
    RHOS = (1e-1, 3e-2, 1e-2, 1e-3, 1e-4, 1e-6)
    PHI = RadialTestFunction.polynomial_bump(EIGHT_MODES.modes(), 0.6, 1.8)

    def _study(self, rhos):
        return weak_limit.convergence_study(EIGHT_MODES, self.PHI,
                                            _params_list(*rhos))[0]

    def test_a_sweep_builds_each_hidden_table_and_ladder_once(
            self, monkeypatch):
        tables, ladders = (_count_tables(monkeypatch),
                           _count_ladders(monkeypatch))
        self._study(self.RHOS)
        built = collections.Counter((tab.n_max, tab.t.tobytes())
                                    for tab in tables if tab.t.size > 1)
        # the hidden tables, at nodes on [r1, 1], and every layer table
        hidden = [key for key in built if np.frombuffer(key[1]).min() >= R1]
        assert hidden and len(hidden) < len(built)
        assert max(built.values()) == 1
        assert sorted(ladders) == [1, 2]

    def test_rows_are_those_of_fresh_memos_per_rho(self):
        """Bit for bit, in either sweep order."""
        rows = [_exact(tuple(row.values())) for row in self._study(self.RHOS)]
        backward = self._study(self.RHOS[::-1])
        assert [_exact(tuple(row.values())) for row in backward] == rows[::-1]
        fresh = []
        for rho in self.RHOS:
            _clear_memos()
            fresh += [_exact(tuple(row.values()))
                      for row in self._study([rho])]
        assert fresh == rows

    @pytest.mark.parametrize("wrapper, kept", [(_Slotted, 8),
                                               (_Unhashable, 0)])
    def test_a_profile_without_weak_references_or_hash_pairs_the_same(
            self, wrapper, kept):
        """A callable is kept by identity, whether or not it can be weakly
        referenced: one per mode keeps a pair per mode.  An unhashable one
        is paired, to the same bits, but its moments are not kept."""
        params = CloakParams(rho=1e-4, omega=OMEGA, r1=R1)
        phi, dphi = self.PHI.profiles[(1, 0)]
        slotted = RadialTestFunction({mode: (wrapper(phi), dphi)
                                      for mode in EIGHT_MODES.modes()})
        with pytest.raises(TypeError):
            {weakref.ref(slotted.profiles[(1, 0)][0])}
        sol = modal.solve_source(EIGHT_MODES, None, params)

        def pairings(test_function):
            return _exact((
                weak_limit.pairing_interior(sol, test_function),
                weak_limit.predicted_limit(EIGHT_MODES, test_function,
                                           params)))

        got = pairings(slotted)
        assert _kept_moments() == kept
        assert got == pairings(self.PHI)
        assert _kept_moments() == kept + 2


# -- a pairing does not depend on the pairings before it --------------------------

class TestPairingsInTurn:
    MODE = (2, -1)
    SPLINE = RadialTestFunction.cubic_spline(
        [MODE], [(0.4, 0.0), (0.7, 1.1), (1.0, 0.9), (1.4, 1.2)])
    BUMP = RadialTestFunction.polynomial_bump([MODE], 0.5, 1.5)

    @staticmethod
    def _pairings(params, *phis):
        """Interior, layer and limit pairings of each phi in turn, on one
        fresh solution, as bytes."""
        sol = modal.solve_source(EIGHT_MODES, None, params)
        return [_exact(value) for phi in phis for value in (
            weak_limit.pairing_interior(sol, phi),
            weak_limit.pairing_exterior_normal(sol, phi),
            weak_limit.predicted_limit(EIGHT_MODES, phi, params))]

    @pytest.mark.parametrize("rho", [1e-2, 1e-6])
    def test_spline_after_a_bump_is_the_spline_alone(self, rho):
        params = CloakParams(rho=rho, omega=OMEGA, r1=R1)
        alone = self._pairings(params, self.SPLINE)
        assert self._pairings(params, self.BUMP, self.SPLINE)[3:] == alone

    def test_rebuilt_profiles_pair_as_the_originals(self):
        """Profiles wrapped in fresh callables, as a tracer that counts
        profile evaluations rebuilds them, pair to the same bytes."""
        def rebuilt(phi):
            return RadialTestFunction(
                {mode: tuple(lambda r, f=f: f(r) for f in pair)
                 for mode, pair in phi.profiles.items()})

        params = CloakParams(rho=1e-6, omega=OMEGA, r1=R1)
        assert (self._pairings(params, rebuilt(self.BUMP),
                               rebuilt(self.SPLINE))
                == self._pairings(params, self.BUMP, self.SPLINE))


# -- the memos of kept work ---------------------------------------------------------

class TestKeptWork:
    PARAMS = CloakParams(rho=1e-4, omega=OMEGA, r1=R1)
    SPLINE = TestPairingsInTurn.SPLINE

    def test_next_solution_frees_the_chains_without_the_collector(self):
        """Only the chains are kept with their solution, so reading the
        next solution frees them by reference counting; the ladders and
        moments are kept by value, the same objects, whatever params come
        next."""
        params = CloakParams(rho=1e-4, omega=OMEGA, r1=R1)
        sol = modal.solve_source(EIGHT_MODES, None, params)
        _pair(sol, self.SPLINE)
        weak_limit.predicted_limit(EIGHT_MODES, self.SPLINE, params)
        assert modal._last_chains[0] is sol
        chains = [weakref.ref(modal.region_chains(sol, region))
                  for region in ("layer", "hidden")]
        kw = params.k * params.omega
        ladder = modal._limit_ladder(2, kw)
        prof = self.SPLINE.profiles[(2, -1)][0]
        held = _kept_moments()
        moments = _kept_pair(prof, 2, params)
        assert held and moments is not None
        del sol
        with _collector_off():
            _pair(modal.solve_source(EIGHT_MODES, None, CloakParams(
                rho=1e-2, omega=OMEGA, r1=R1)), self.SPLINE)
            assert [ref() is None for ref in chains] == [True] * 2
            _pair(modal.solve_source(EIGHT_MODES, None, CloakParams(
                rho=1e-4, omega=1.3, r1=R1)), self.SPLINE)
        assert modal._limit_ladder(2, kw) is ladder
        assert _kept_moments() == 2 * held  # one set more, at omega 1.3
        assert _kept_pair(prof, 2, params) is moments

    def test_chains_memo_compares_solutions_by_identity_only(
            self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("SolvedModes compared with ==")

        first, second = (modal.solve_source(EIGHT_MODES, None, self.PARAMS)
                         for _ in range(2))
        monkeypatch.setattr(modal.SolvedModes, "__eq__", refuse)
        for sol in (first, second, first, first):
            _pair(sol, BUMP)
            weak_limit.predicted_limit(EIGHT_MODES, BUMP, self.PARAMS)
            assert modal._last_chains[0] is sol

    def test_solutions_of_one_params_object_share_every_table(
            self, monkeypatch):
        """The second solution builds no table: it reads the first one's
        layer tables, the same objects, and the moments the hidden tables
        gave."""
        first, second = (modal.solve_source(EIGHT_MODES, None, self.PARAMS)
                         for _ in range(2))
        built = _count_tables(monkeypatch)
        value = _pair(first, self.SPLINE)
        kept = list(built)
        assert kept
        assert _pair(second, self.SPLINE) == value
        assert built == kept
        assert all(_kept_table(tab) is tab for tab in kept)

    def test_chains_of_an_earlier_solution_pair_the_same(self):
        sol = modal.solve_source(EIGHT_MODES, None, self.PARAMS)
        chains = modal.region_chains(sol, "hidden")
        before = _exact(weak_limit._hidden_pairing(chains, self.SPLINE, 1e-9,
                                                   R1, 1.0))
        prof = self.SPLINE.profiles[(2, -1)][0]
        moments = _kept_pair(prof, 2, self.PARAMS)
        assert moments is not None
        _pair(modal.solve_source(EIGHT_MODES, None, self.PARAMS), self.SPLINE)
        _pair(modal.solve_source(EIGHT_MODES, None, dataclasses.replace(
            self.PARAMS, omega=1.3)), self.SPLINE)
        assert modal.region_chains(sol, "hidden") is not chains
        after = _exact(weak_limit._hidden_pairing(chains, self.SPLINE, 1e-9,
                                                  R1, 1.0))
        assert after == before
        assert _exact(weak_limit.pairing_interior(sol, self.SPLINE)) == before
        assert _kept_pair(prof, 2, self.PARAMS) is moments


# -- the shipped families' profiles compare by value -------------------------------

def _bump(*numbers):
    return RadialTestFunction.polynomial_bump(EIGHT_MODES.modes(), *numbers)


def _spline(knots):
    return RadialTestFunction.cubic_spline(EIGHT_MODES.modes(), knots)


def _moved(knots, i, dr=0.0, dv=0.0):
    """knots with knot i moved by dr in radius and dv in value."""
    return [(r + dr, v + dv) if j == i else (r, v)
            for j, (r, v) in enumerate(knots)]


class TestProfilesByValue:
    PARAMS = CloakParams(rho=1e-4, omega=OMEGA, r1=R1)

    def _hidden(self, phi):
        """The interior pairing and the limit of phi, as bytes."""
        sol = modal.solve_source(EIGHT_MODES, None, self.PARAMS)
        return _exact((weak_limit.pairing_interior(sol, phi),
                       weak_limit.predicted_limit(EIGHT_MODES, phi,
                                                  self.PARAMS)))

    @pytest.mark.parametrize("first, second", [
        (lambda: _bump(0.5, 1.5, 2.0), lambda: _bump(0.5, 1.5, 2.0)),
        (lambda: _bump(0.5, 1.5), lambda: _bump(np.float64(0.5), 1.5, 1)),
        (lambda: _spline(KNOTS), lambda: _spline(KNOTS)),
        (lambda: _spline(KNOTS), lambda: _spline(KNOTS[::-1] + [(2, 0)])),
    ], ids=["bump", "bump-other-types", "spline", "spline-other-order"])
    def test_equal_numbers_share_one_pair_per_degree(self, monkeypatch,
                                                     first, second):
        """Two test functions built apart from equal numbers read one
        moment pair per degree and give the same bits as either alone."""
        one, other = first(), second()
        prof, same = (phi.profiles[(1, 0)][0] for phi in (one, other))
        assert prof is not same
        assert prof == same and hash(prof) == hash(same)
        runs = _count_moment_integrals(monkeypatch)
        value = self._hidden(one)
        assert len(runs) == _kept_moments() == 2
        assert self._hidden(other) == value
        assert len(runs) == _kept_moments() == 2
        _clear_memos()
        assert self._hidden(other) == value

    @pytest.mark.parametrize("first, second", [
        (lambda: _bump(0.5, 1.5), lambda: _bump(0.5, 1.5, 1.25)),
        (lambda: _bump(0.5, 1.5), lambda: _bump(0.55, 1.5)),
        (lambda: _bump(0.5, 1.5), lambda: _bump(0.5, 1.45)),
        (lambda: _spline(KNOTS), lambda: _spline(_moved(KNOTS, 2, dv=0.1))),
        (lambda: _spline(KNOTS), lambda: _spline(_moved(KNOTS, 3, dr=0.1))),
    ], ids=["amplitude", "r_lo", "r_hi", "knot-value", "knot-radius"])
    def test_other_numbers_share_nothing(self, monkeypatch, first, second):
        one, other = first(), second()
        assert one.profiles[(1, 0)][0] != other.profiles[(1, 0)][0]
        runs = _count_moment_integrals(monkeypatch)
        self._hidden(one)
        value = self._hidden(other)
        assert len(runs) == _kept_moments() == 4
        _clear_memos()
        assert self._hidden(other) == value
        assert self._hidden(one) != value

    def test_families_and_derivatives_never_compare_equal(self):
        """A bump and a spline, a profile and its derivative, and a user's
        callable are each equal only to themselves."""
        bump, spline = _bump(0.5, 1.5, 1.0), _spline([(0.5, 0.0), (1.5, 1.0)])
        profiles = [*bump.profiles[(1, 0)], *spline.profiles[(1, 0)],
                    lambda r: bump.profiles[(1, 0)][0](r)]
        for i, a in enumerate(profiles):
            for j, b in enumerate(profiles):
                assert (a == b) is (i == j)

    def test_distinct_amplitudes_keep_at_most_the_bound(self):
        """Every amplitude integrates its own moments; the memo keeps those
        read last, at most its bound, and the first are evicted."""
        source = modal.SourceCoeffs({(1, 0): (0j, 1 + 0j)}, r1=R1)
        sol = modal.solve_source(source, None, self.PARAMS)
        bound = weak_limit._moments.cache_info().maxsize

        def bump(amplitude):
            return RadialTestFunction.polynomial_bump([(1, 0)], 0.5, 1.5,
                                                      amplitude)

        for i in range(2 * bound):
            weak_limit.pairing_interior(sol, bump(1.0 + i))
        info = weak_limit._moments.cache_info()
        assert info.misses == 2 * bound and info.hits == 0
        assert info.currsize <= bound
        last = bump(2.0 * bound).profiles[(1, 0)][0]
        assert _kept_pair(last, 1, self.PARAMS) is not None
        assert _kept_pair(bump(1.0).profiles[(1, 0)][0], 1,
                          self.PARAMS) is None

    def test_a_sweep_rebuilding_its_test_functions_gives_the_shared_bytes(
            self):
        """Every mode of degree up to 2 at three rho, against a bump and a
        spline of its own, built again for every call or built once: the
        same bytes."""
        def profile(family, mode):
            if family == "bump":
                return RadialTestFunction.polynomial_bump([mode], 0.5, 1.5)
            return RadialTestFunction.cubic_spline(
                [mode], _moved(KNOTS, 2, dv=0.1 * (mode[0] + mode[1])))

        def sweep(make):
            values = []
            for rho in (1e-2, 1e-4, 1e-6):
                params = CloakParams(rho=rho, omega=OMEGA, r1=R1)
                sol = modal.solve_source(EIGHT_MODES, None, params)
                for mode in EIGHT_MODES.modes():
                    for family in ("bump", "spline"):
                        values += [
                            weak_limit.pairing_interior(
                                sol, make(family, mode)),
                            weak_limit.pairing_exterior_normal(
                                sol, make(family, mode)),
                            weak_limit.predicted_limit(
                                EIGHT_MODES, make(family, mode), params)]
            return _exact(tuple(values))

        rebuilt = sweep(profile)
        _clear_memos()
        shared = {(family, mode): profile(family, mode)
                  for mode in EIGHT_MODES.modes()
                  for family in ("bump", "spline")}
        assert sweep(lambda family, mode: shared[family, mode]) == rebuilt


class TestInterleavedMedia:
    """Work kept for one medium is never read by another: a key that
    missed a field the values depend on would show here."""
    RHOS = (1e-2, 1e-4, 1e-6)
    OMEGAS = (1.0, 1.3)
    PHI = TestSharedMedium.PHI

    def _values(self, omega, rho):
        params = CloakParams(rho=rho, omega=omega, r1=R1)
        sol = modal.solve_source(EIGHT_MODES, None, params)
        return _exact((
            weak_limit.pairing_interior(sol, self.PHI),
            weak_limit.pairing_exterior_normal(sol, self.PHI),
            *weak_limit.predicted_limit_parts(EIGHT_MODES, self.PHI, params),
            weak_limit.tangential_trace_limit(EIGHT_MODES, params),
            weak_limit.energy_integral(sol),
            weak_limit.energy_integral(sol, delta=0.1)))

    def test_each_medium_gives_what_it_gives_alone(self):
        interleaved = {omega: [] for omega in self.OMEGAS}
        for rho in self.RHOS:
            for omega in self.OMEGAS:
                interleaved[omega].append(self._values(omega, rho))
        for omega in self.OMEGAS:
            _clear_memos()
            alone = [self._values(omega, rho) for rho in self.RHOS]
            assert alone == interleaved[omega]


class TestSourceSupport:
    """The limit path, like ``solve_source``, takes only a source whose
    support radius is the cloak's r1."""
    SOURCE = modal.SourceCoeffs({(1, 0): (0j, 1.0)}, r1=0.3)
    PARAMS = CloakParams(rho=0.01, omega=1.0, r1=0.5)

    @pytest.mark.parametrize("call", [
        lambda src, params: modal.solve_source(src, None, params),
        lambda src, params: weak_limit.predicted_limit(src, BUMP, params),
        weak_limit.tangential_trace_limit,
        lambda src, params: weak_limit.interior_trace_normal(src, params, 0.4),
        modal.limit_chains,
    ], ids=["solve", "predicted_limit", "tangential_trace", "normal_trace",
            "limit_chains"])
    def test_other_support_radius_is_rejected(self, call):
        with pytest.raises(DomainError, match=r"r1=0\.3 .*r1=0\.5"):
            call(self.SOURCE, self.PARAMS)

    def test_same_support_radius_is_accepted(self):
        source = modal.SourceCoeffs(self.SOURCE.entries, r1=0.5)
        assert weak_limit.tangential_trace_limit(source, self.PARAMS)
        assert cmath.isfinite(
            weak_limit.predicted_limit(source, BUMP, self.PARAMS))


@pytest.mark.parametrize("mode", [(0, 0), (1, 5), (2, -3), (-1, 0)])
def test_mode_outside_n_and_m_rule_is_rejected(mode):
    with pytest.raises(DomainError, match=r"invalid mode"):
        RadialTestFunction.polynomial_bump([mode], 0.5, 1.5)
    with pytest.raises(DomainError, match=r"invalid mode"):
        RadialTestFunction({mode: BUMP.profiles[(1, 0)]})
