"""Interface-limit diagnostics: weak pairings, one-sided traces, energy.

The normal component of the layer field, paired against a radial test
profile, concentrates like r**-(n+1) at the inner radius of the virtual
annulus; its limit splits into a measurable interior part plus a surface
term sigma * phi(1) per mode.  Everything here works mode-by-mode: a test
function enters through its radial profiles phi[(n, m)](r), which multiply
the matching field mode (profiles pair diagonally; for m != 0 a profile is
the coefficient against the conjugate harmonic of its mode).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError
from .geometry import CloakParams
from .modal import (ModalSolution, SourceCoeffs, limit_coeffs, solve_source)
from .quadrature import (fit_power_law, integrate_adaptive,
                         integrate_boundary_layer)
from .scaled import ScaledComplex


@dataclass(frozen=True)
class RadialTestFunction:
    """Radial profiles of a test function vanishing on the outer boundary.

    profiles maps (n, m) -> (phi, dphi), callables on (0, 2).  Profiles must
    vanish at r = 2 (checked) and be square-integrable with weight r against
    their derivative (automatic for the shipped families).
    """

    profiles: dict

    def __post_init__(self):
        for (n, m), (phi, _) in self.profiles.items():
            if abs(phi(2.0)) > 1e-12:
                raise DomainError(
                    f"profile ({n},{m}) must vanish at r=2, got {phi(2.0)!r}")

    def modes(self):
        return sorted(self.profiles)

    def value(self, n, m, r):
        entry = self.profiles.get((n, m))
        return 0.0 if entry is None else entry[0](r)

    @staticmethod
    def polynomial_bump(modes, r_lo: float, r_hi: float, amplitude=1.0):
        """C^1 bump amplitude*(r-r_lo)^2*(r_hi-r)^2 on [r_lo, r_hi]."""
        if not 0.0 < r_lo < r_hi <= 2.0:
            raise DomainError("bump support must satisfy 0 < r_lo < r_hi <= 2")

        def phi(r, _lo=r_lo, _hi=r_hi, _a=amplitude):
            if r <= _lo or r >= _hi:
                return 0.0
            return _a * (r - _lo) ** 2 * (_hi - r) ** 2

        def dphi(r, _lo=r_lo, _hi=r_hi, _a=amplitude):
            if r <= _lo or r >= _hi:
                return 0.0
            return _a * 2 * (r - _lo) * (_hi - r) * ((_hi - r) - (r - _lo))

        return RadialTestFunction({(n, m): (phi, dphi) for (n, m) in modes})

    @staticmethod
    def cubic_spline(modes, knots):
        """Natural cubic spline through (r, value) knots, clamped to 0 at r=2.

        The first knot must carry value 0 (the profile continues by zero
        toward the origin); a final (2, 0) knot is appended when absent.
        Knot radii must be distinct and lie in (0, 2], values finite.
        """
        try:
            pts = sorted((float(r), float(v)) for r, v in knots)
        except (TypeError, ValueError) as exc:
            raise DomainError(
                f"spline knots must be (r, value) pairs: {exc}") from exc
        if not all(math.isfinite(r) and math.isfinite(v) for r, v in pts):
            raise DomainError("spline knots must be finite")
        if not pts or pts[0][1] != 0.0:
            raise DomainError("first spline knot must have value 0")
        if pts[0][0] <= 0.0 or pts[-1][0] > 2.0:
            raise DomainError("spline knots must lie within (0, 2]")
        if pts[-1][0] < 2.0:
            pts.append((2.0, 0.0))
        elif pts[-1][1] != 0.0:
            raise DomainError("knot at r=2 must carry value 0")
        if len(pts) < 2:
            raise DomainError("spline needs a knot below r=2")
        if any(a[0] == b[0] for a, b in zip(pts, pts[1:])):
            raise DomainError("spline knot radii must be distinct")
        xs = [r for r, _ in pts]
        ys, b, c, d = _natural_spline_coeffs(xs, [v for _, v in pts])
        lo, last = xs[0], len(xs) - 1

        # scalar Horner on plain floats: the quadrature calls these per node;
        # phi(2) is 0 exactly, not the rounding of the last interval's cubic
        def phi(r):
            if not lo <= r < 2.0:
                return 0.0
            i = bisect_right(xs, r, 1, last) - 1
            t = float(r) - xs[i]
            return ys[i] + t * (b[i] + t * (c[i] + t * d[i]))

        def dphi(r):
            if not lo <= r <= 2.0:
                return 0.0
            i = bisect_right(xs, r, 1, last) - 1
            t = float(r) - xs[i]
            return b[i] + t * (2.0 * c[i] + t * 3.0 * d[i])

        return RadialTestFunction({(n, m): (phi, dphi) for (n, m) in modes})


def _natural_spline_coeffs(xs, ys):
    """Horner coefficients of the natural cubic spline through (xs, ys).

    On [xs[i], xs[i+1]] the spline is ys[i] + t (b[i] + t (c[i] + t d[i]))
    with t = r - xs[i]; returns (ys, b, c, d).  The interior knot moments
    M (second derivatives, zero at both ends) solve the tridiagonal system
    h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1]
    = 6 (slope[i] - slope[i-1]) by the Thomas algorithm; it is diagonally
    dominant, so no pivoting is needed.
    """
    n = len(xs) - 1
    h = [xs[i + 1] - xs[i] for i in range(n)]
    slope = [(ys[i + 1] - ys[i]) / h[i] for i in range(n)]
    diag, rhs = [0.0] * n, [0.0] * n
    for i in range(1, n):
        diag[i] = 2.0 * (h[i - 1] + h[i])
        rhs[i] = 6.0 * (slope[i] - slope[i - 1])
        if i > 1:
            w = h[i - 1] / diag[i - 1]
            diag[i] -= w * h[i - 1]
            rhs[i] -= w * rhs[i - 1]
    moments = [0.0] * (n + 1)
    for i in range(n - 1, 0, -1):
        moments[i] = (rhs[i] - h[i] * moments[i + 1]) / diag[i]
    b = [slope[i] - h[i] * (2.0 * moments[i] + moments[i + 1]) / 6.0
         for i in range(n)]
    c = [0.5 * moments[i] for i in range(n)]
    d = [(moments[i + 1] - moments[i]) / (6.0 * h[i]) for i in range(n)]
    return ys[:n], b, c, d


# -- pairings ------------------------------------------------------------------


def _profile_values(prof, r):
    """A test profile, a callable on floats, at every radius of the array r."""
    return np.array([prof(x) for x in r.tolist()])


def _interior_mode_pairing(n, beta, q, phi, params, tol):
    """integral over (r1, 1) of S^2 eps0^-1/2 [beta j + q h](k w r) phi(r) r dr."""
    kw = params.k * params.omega
    s2 = n * (n + 1)
    se = params.eps0 ** -0.5

    def integrand(r):
        tab = specfun.bessel_table(n, kw * r)
        val = specfun.combine(beta, tab.jn(n), q, tab.hn(n))
        return s2 * se * val * _profile_values(phi, r) * r

    return integrate_adaptive(integrand, params.r1, 1.0, tol=tol)


def pairing_interior(solution: ModalSolution, phi: RadialTestFunction,
                     tol: float = 1e-9) -> complex:
    """Pairing of the interior normal field component against phi.

    Sums over the modes shared by the solution and the test function, in
    ascending (n, m) order for reproducibility.
    """
    total = 0j
    params = solution.params
    for (n, m), co in solution.mode_items():
        entry = phi.profiles.get((n, m))
        if entry is None:
            continue
        _, q = solution.source.entries.get((n, m), (0j, 0j))
        total += _interior_mode_pairing(
            n, co.beta, ScaledComplex.from_complex(q), entry[0], params, tol)
    return total


def pairing_exterior_normal(solution: ModalSolution, phi: RadialTestFunction,
                            tol: float = 1e-9) -> complex:
    """Pairing of the layer's normal field component against phi.

    Written in virtual radial coordinates the integrand is
    S^2 [d h_n(w r) + eta j_n(w r)] phi(a + b r) (a + b r)^2 / r on (rho, 2);
    the r**-(n+1) concentration at r = rho is resolved by the exponential
    substitution of the boundary-layer quadrature.
    """
    params = solution.params
    om, a, b = params.omega, params.a, params.b
    total = 0j
    for (n, m), co in solution.mode_items():
        entry = phi.profiles.get((n, m))
        if entry is None:
            continue
        prof = entry[0]
        s2 = n * (n + 1)

        def integrand(r, n=n, d=co.d, eta=co.eta, prof=prof, s2=s2):
            tab = specfun.bessel_table(n, om * r)
            val = specfun.combine(d, tab.hn(n), eta, tab.jn(n))
            g = a + b * r
            return s2 * val * _profile_values(prof, g) * g * g / r

        total += integrate_boundary_layer(integrand, params.rho, 2.0, tol=tol)
    return total


def predicted_limit_parts(source: SourceCoeffs, phi: RadialTestFunction,
                          params: CloakParams, tol: float = 1e-9):
    """(measurable, surface) parts of the limiting normal-component pairing.

    The measurable part is the interior pairing evaluated at the limiting
    beta; the surface part is sum of sigma * phi(1) over modes.
    """
    measurable = 0j
    surface = 0j
    for (n, m), (p, q) in sorted(source.entries.items()):
        entry = phi.profiles.get((n, m))
        if entry is None:
            continue
        beta0, _, sigma = limit_coeffs(n, q, params)
        measurable += _interior_mode_pairing(
            n, ScaledComplex.from_complex(beta0),
            ScaledComplex.from_complex(q), entry[0], params, tol)
        surface += sigma * entry[0](1.0)
    return measurable, surface


def predicted_limit(source: SourceCoeffs, phi: RadialTestFunction,
                    params: CloakParams, tol: float = 1e-9) -> complex:
    """Limiting value of the full normal-component pairing."""
    measurable, surface = predicted_limit_parts(source, phi, params, tol)
    return measurable + surface


# -- one-sided traces ----------------------------------------------------------


def interior_trace_normal(source: SourceCoeffs, params: CloakParams,
                          r: float) -> dict:
    """Per-mode normal trace of the limiting interior field at radius r.

    Values are S_n^2 r^-1 [beta0 j_n(k w r) + q h_n(k w r)]; at r = 1 the
    combination cancels identically.
    """
    if not source.r1 < r <= 1.0:
        raise DomainError(f"trace radius must satisfy r1 < r <= 1, got {r}")
    kw = params.k * params.omega
    out = {}
    for (n, m), (p, q) in sorted(source.entries.items()):
        beta0, _, _ = limit_coeffs(n, q, params)
        lad = specfun.bessel_ladder(n, kw * r)
        j = lad.jn(n).to_complex()
        h = lad.hn(n).to_complex()
        out[(n, m)] = n * (n + 1) / r * (beta0 * j + q * h)
    return out


def interior_trace_normal_at(solution: ModalSolution, r: float) -> dict:
    """Finite-regularisation counterpart of ``interior_trace_normal``."""
    params = solution.params
    kw = params.k * params.omega
    out = {}
    for (n, m), co in solution.mode_items():
        _, q = solution.source.entries.get((n, m), (0j, 0j))
        lad = specfun.bessel_ladder(n, kw * r)
        val = (co.beta * lad.jn(n) + q * lad.hn(n)).to_complex()
        out[(n, m)] = n * (n + 1) / r * val
    return out


def tangential_trace_limit(source: SourceCoeffs, params: CloakParams) -> dict:
    """Per-mode limits (T1, T2) of the interface tangential traces.

    T1 = beta0 J_n(k w) + q H_n(k w) collapses to i q / (k w j_n(k w)) and is
    generically nonzero; T2 is the dual combination alpha0 j_n + p h_n,
    which cancels identically for vanishing boundary data.
    """
    kw = params.k * params.omega
    out = {}
    for (n, m), (p, q) in sorted(source.entries.items()):
        beta0, _, _ = limit_coeffs(n, q, params)
        lad = specfun.bessel_ladder(n, kw)
        j = lad.jn(n).to_complex()
        h = lad.hn(n).to_complex()
        jj = lad.riccati_j(n).to_complex()
        hh = lad.riccati_h(n).to_complex()
        t1 = beta0 * jj + q * hh
        alpha0 = -h / j * p
        t2 = alpha0 * j + p * h
        out[(n, m)] = (t1, t2)
    return out


def tangential_trace_at(solution: ModalSolution) -> dict:
    """Finite-regularisation interface traces (T1, T2) per mode."""
    params = solution.params
    kw = params.k * params.omega
    out = {}
    for (n, m), co in solution.mode_items():
        p, q = solution.source.entries.get((n, m), (0j, 0j))
        lad = specfun.bessel_ladder(n, kw)
        t1 = (co.beta * lad.riccati_j(n) + q * lad.riccati_h(n)).to_complex()
        t2 = (co.alpha * lad.jn(n) + p * lad.hn(n)).to_complex()
        out[(n, m)] = (t1, t2)
    return out


# -- energy diagnostic ----------------------------------------------------------


def energy_integral(solution: ModalSolution, delta: float = 0.0,
                    tol: float = 1e-6) -> float:
    """Weighted field energy outside an exclusion collar of half-width delta.

    Integrates eps E . conj(E) + mu H . conj(H) with the layer material over
    the physical regions beyond radius 1 + delta and between r1 and
    1 - delta.  The layer part is computed exactly in virtual coordinates,
    where the material weight cancels the Jacobian; angular integrals reduce
    to mode sums by orthonormality of the tangent/radial families.
    """
    if delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    params = solution.params
    om, kw = params.omega, params.k * params.omega
    total = 0.0

    # layer: plain |E|^2 + |H|^2 of the pre-image field on (r_lo, 2)
    r_lo = max(params.rho, (1.0 + delta - params.a) / params.b)
    if r_lo < 2.0:
        for (n, m), co in solution.mode_items():
            s2 = n * (n + 1)

            def dens(r, n=n, co=co, s2=s2):
                tab = specfun.bessel_table(n, om * r)
                jn, hn = tab.jn(n), tab.hn(n)
                jj, hh = tab.riccati_j(n), tab.riccati_h(n)
                ev = np.abs(specfun.combine(co.gamma, jn, co.c, hn))
                eu = np.abs(specfun.combine(co.eta, jj, co.d, hh))
                er = np.abs(specfun.combine(co.eta, jn, co.d, hn))
                hu = np.abs(specfun.combine(co.gamma, jj, co.c, hh))
                return (s2 * ev * ev * r * r + s2 * eu * eu + s2 ** 2 * er * er
                        + om ** 2 * s2 * er * er * r * r
                        + s2 * hu * hu / om ** 2 + s2 ** 2 * ev * ev / om ** 2)

            total += integrate_boundary_layer(dens, r_lo, 2.0, tol=tol).real

    # hidden region: uniform material, physical coordinates
    r_hi = 1.0 - delta
    if r_hi > params.r1:
        for (n, m), co in solution.mode_items():
            p, q = map(ScaledComplex.from_complex,
                       solution.source.entries.get((n, m), (0j, 0j)))
            s2 = n * (n + 1)

            def dens(r, n=n, co=co, p=p, q=q, s2=s2):
                tab = specfun.bessel_table(n, kw * r)
                jn, hn = tab.jn(n), tab.hn(n)
                jj, hh = tab.riccati_j(n), tab.riccati_h(n)
                a_ = np.abs(specfun.combine(co.alpha, jn, p, hn))
                b_ = np.abs(specfun.combine(co.beta, jj, q, hh))
                c_ = np.abs(specfun.combine(co.beta, jn, q, hn))
                d_ = np.abs(specfun.combine(co.alpha, jj, p, hh))
                return (s2 * a_ * a_ * r * r + s2 * b_ * b_ + s2 ** 2 * c_ * c_
                        + kw ** 2 * s2 * c_ * c_ * r * r
                        + s2 * d_ * d_ / kw ** 2 + s2 ** 2 * a_ * a_ / kw ** 2)

            total += integrate_adaptive(dens, params.r1, r_hi, tol=tol).real
    return total


# -- sweep driver ----------------------------------------------------------------


def convergence_study(source: SourceCoeffs, phi: RadialTestFunction,
                      rho_list, omega: float, eps0: float = 1.0,
                      mu0: float = 1.0, tol: float = 1e-9):
    """Normal-pairing sweep over regularisation radii.

    Returns (rows, fitted_rate): one row per rho with the total pairing, the
    predicted limit, the absolute error and the truncation degree n_max of
    the solve; the rate is the fitted slope of error against rho.
    """
    rows = []
    errs, rhos = [], []
    predicted = None
    for rho in rho_list:
        params = CloakParams(rho=rho, omega=omega, eps0=eps0, mu0=mu0,
                             r1=source.r1)
        if predicted is None:
            predicted = predicted_limit(source, phi, params, tol)
        solution = solve_source(source, None, params)
        pairing = (pairing_interior(solution, phi, tol)
                   + pairing_exterior_normal(solution, phi, tol))
        err = abs(pairing - predicted)
        rows.append({"rho": rho, "pairing": pairing, "predicted": predicted,
                     "abs_err": err, "n_max": solution.n_max})
        errs.append(err)
        rhos.append(rho)
    rate = fit_power_law(rhos, errs) if len([e for e in errs if e > 0]) >= 2 else math.nan
    return rows, rate
