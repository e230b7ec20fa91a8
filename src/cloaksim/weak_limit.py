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
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import AccuracyError, DomainError
from .geometry import CloakOuterMap, CloakParams
# limit_coeffs is re-exported: the benchmark's tracer patches it here too
from .modal import (ModalSolution, SourceCoeffs, check_mode, limit_chains,
                    limit_coeffs, region_chains, solve_source)
from .quadrature import (fit_power_law, integrate_adaptive,
                         integrate_boundary_layer)
from .scaled import ScaledComplex

_LOG_FLOOR = 20 * math.log(2)  # a moment's floor: 2^-20 of its row's peak


@dataclass(frozen=True)
class RadialTestFunction:
    """Radial profiles of a test function vanishing on the outer boundary.

    profiles maps (n, m) -> (phi, dphi), callables on (0, 2) taking a float
    (giving a float) or a numpy array of radii (giving an array).  Profiles
    must vanish at r = 2 (checked) and be square-integrable with weight r
    against their derivative (automatic for the shipped families).  A mode
    outside n >= 1, |m| <= n is rejected with DomainError.
    """

    profiles: dict

    def __post_init__(self):
        for (n, m), (phi, _) in self.profiles.items():
            check_mode(n, m, "test function")
            if not abs(phi(2.0)) <= 1e-12:  # a NaN fails too
                raise DomainError(
                    f"profile ({n},{m}) must vanish at r=2, got {phi(2.0)!r}")

    @staticmethod
    def polynomial_bump(modes, r_lo: float, r_hi: float, amplitude=1.0):
        """C^1 bump amplitude*(r-r_lo)^2*(r_hi-r)^2 on [r_lo, r_hi]."""
        if not 0.0 < r_lo < r_hi <= 2.0:
            raise DomainError("bump support must satisfy 0 < r_lo < r_hi <= 2")
        if not np.isfinite(amplitude):
            raise DomainError(f"bump amplitude must be finite, got {amplitude}")

        # squares by multiplying: correctly rounded, for floats and arrays
        def phi(r, _lo=r_lo, _hi=r_hi, _a=amplitude):
            u, v = r - _lo, _hi - r
            return np.where((r > _lo) & (r < _hi), _a * (u * u) * (v * v), 0.0)

        def dphi(r, _lo=r_lo, _hi=r_hi, _a=amplitude):
            return np.where((r > _lo) & (r < _hi), _a * 2 * (r - _lo)
                            * (_hi - r) * ((_hi - r) - (r - _lo)), 0.0)

        return _array_profiles(modes, phi, dphi)

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
        lo, inner, xs = xs[0], np.array(xs[1:-1]), np.array(xs)

        # phi(2) is 0 exactly, not the rounding of the last interval's cubic
        def phi(r):
            i = np.searchsorted(inner, r, side="right")
            t = r - xs[i]
            return np.where((lo <= r) & (r < 2.0),
                            ys[i] + t * (b[i] + t * (c[i] + t * d[i])), 0.0)

        def dphi(r):
            i = np.searchsorted(inner, r, side="right")
            t = r - xs[i]
            return np.where((lo <= r) & (r <= 2.0),
                            b[i] + t * (2.0 * c[i] + t * 3.0 * d[i]), 0.0)

        return _array_profiles(modes, phi, dphi)


def _array_profiles(modes, *pair):
    """Array profiles (phi, dphi) on every mode; a float gives a float."""
    def on_radii(f):
        def profile(r):
            out = f(np.asarray(r, dtype=float))
            return out if out.ndim else float(out)
        return profile
    pair = tuple(map(on_radii, pair))
    return RadialTestFunction({mode: pair for mode in modes})


def _natural_spline_coeffs(xs, ys):
    """Horner coefficients of the natural cubic spline through (xs, ys).

    On [xs[i], xs[i+1]] the spline is ys[i] + t (b[i] + t (c[i] + t d[i]))
    with t = r - xs[i]; returns the arrays (ys, b, c, d).  The interior knot
    moments M (second derivatives, zero at both ends) solve the tridiagonal
    system h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1]
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
    return tuple(np.array(v) for v in (ys[:n], b, c, d))


# -- pairings ------------------------------------------------------------------


def _moments(chains, n, prof, tol, lo, hi):
    """(M_j, M_h) of degree n and the profile callable prof, ScaledComplex:
    M_j the integral over (lo, hi) of j_n(w r) prof(r) r dr, M_y that of
    y_n, and M_h = M_j + i M_y.  Both rows are taken in one driver call and
    kept in ``chains.moments`` under (n, prof, tol, lo, hi).

    Each row f_n prof r is integrated in units of its floor, 2^-20 times
    its own peak |f_n prof r| over the first call's nodes, so the driver's
    rule tol * max(1, |I|) holds each moment to tol relative to itself, or
    to tol times the floor where the moment is smaller (a row whose values
    cancel); the rows are formed in logs and the floor's natural log is
    kept beside the mantissa, so no degree overflows.  A profile that is 0
    at every node of the first call gives exact zeros (both levels of that
    call agree)."""
    key = (n, prof, tol, lo, hi)
    if key in chains.moments:
        return chains.moments[key]
    floor = []  # per row, log 2^-20 max|f_n prof r| over the first nodes

    def rows(r):
        tab = chains.quadrature_table(n, r)
        weight = prof(r) * r
        out = np.full(r.shape, -np.inf)
        np.log(np.abs(weight), out=out, where=weight != 0)
        out = np.array((tab.j_log[n + 1], tab.y_log[n + 1])) + out
        if not floor:  # a row of zeros keeps the unit 1 and stays 0
            peak = out.max(axis=1, keepdims=True)
            floor.append(np.where(peak > -np.inf, peak - _LOG_FLOOR, 0.0))
        out -= floor[0]
        np.exp(out, out=out)
        out *= np.array((tab.j_sign[n + 1], tab.y_sign[n + 1]))
        out *= np.sign(weight)
        return out

    values = integrate_adaptive(rows, lo, hi, tol=tol)
    m_j, m_y = (ScaledComplex.from_complex(value)
                * ScaledComplex(log_unit, 1 + 0j)
                for value, log_unit in zip(values, floor[0][:, 0].tolist()))
    chains.moments[key] = m_j, m_j + m_y * 1j
    return chains.moments[key]


def _hidden_pairing(chains, phi, tol, lo, hi):
    """Sum over the modes i of the chains that phi has a profile for, in
    ascending (n, m) order, of S^2 e_weight (b0_i M_j + q_i M_h), with
    (b0_i, q_i) the mode's B coefficients and (M_j, M_h) the ``_moments``
    of its degree and profile: the integral over (lo, hi) of
    S^2 e_weight B_i(w r) phi(r) r dr.  Each moment meets tol relative to
    itself (above its floor), so the error of a term is about
    tol (|b0_i| |M_j| + |q_i| |M_h|), more than tol times the term where
    the two products cancel."""
    total, (b0, b1) = 0j, chains.b_lists
    for i, key in enumerate(chains.keys):
        if key not in phi.profiles:
            continue
        n = key[0]
        m_j, m_h = _moments(chains, n, phi.profiles[key][0], tol, lo, hi)
        term = b0[i] * m_j + b1[i] * m_h
        total += n * (n + 1) * chains.e_weight * term.to_complex()
    return total


def _pairing(chains, phi, tol, lo, hi, radius):
    """Sum over the modes i of the chains that phi has a profile for, in
    ascending (n, m) order, of the boundary-layer integral over (lo, hi) of
    S^2 e_weight B_i(w r) phi(g) g^2 / r dr, where the physical radius g is
    radius(r).  Every pass combines its mode's row afresh from the degree's
    table of ``quadrature_table``."""
    total, (b0, b1) = 0j, chains.b_lists
    for i, key in enumerate(chains.keys):
        if key not in phi.profiles:
            continue
        n, prof = key[0], phi.profiles[key][0]

        def integrand(r, i=i, n=n, prof=prof,
                      s2w=n * (n + 1) * chains.e_weight):
            val = s2w * specfun.combine(b0[i], b1[i],
                                        chains.quadrature_table(n, r), n)
            g = radius(r)
            return val * prof(g) * g * g / r

        total += integrate_boundary_layer(integrand, lo, hi, tol=tol)
    return total


def pairing_interior(solution: ModalSolution, phi: RadialTestFunction,
                     tol: float = 1e-9) -> complex:
    """Pairing of the interior normal field component against phi.

    Sums over the modes shared by the solution and the test function, in
    ascending (n, m) order for reproducibility, the dot product of each
    mode's (beta, q) with the moments of its degree and profile, which the
    measurable part of ``predicted_limit_parts`` shares (``_hidden_pairing``).
    tol bounds each moment relative to itself, not the sum: where the
    modes' products cancel, the pairing's error can exceed tol times it.
    """
    return _hidden_pairing(region_chains(solution, "hidden"), phi, tol,
                           solution.params.r1, 1.0)


def pairing_exterior_normal(solution: ModalSolution, phi: RadialTestFunction,
                            tol: float = 1e-9) -> complex:
    """Pairing of the layer's normal field component against phi.

    Written in virtual radial coordinates the integrand is
    S^2 [d h_n(w r) + eta j_n(w r)] phi(a + b r) (a + b r)^2 / r on (rho, 2);
    the r**-(n+1) concentration at r = rho is resolved by the exponential
    substitution of the boundary-layer quadrature.
    """
    params = solution.params
    return _pairing(region_chains(solution, "layer"), phi, tol, params.rho,
                    2.0, CloakOuterMap(params).g)


def predicted_limit_parts(source: SourceCoeffs, phi: RadialTestFunction,
                          params: CloakParams, tol: float = 1e-9):
    """(measurable, surface) parts of the limiting normal-component pairing.

    The measurable part is the interior pairing on the limit chains, from
    the moments ``pairing_interior`` reads (tol as there); the surface part
    is sum of sigma * phi(1) over modes.
    """
    chains = limit_chains(source, params,
                          sorted(phi.profiles.keys() & source.entries))
    surface = sum((sigma * phi.profiles[key][0](1.0)
                   for key, sigma in zip(chains.keys, chains.surface)), 0j)
    return _hidden_pairing(chains, phi, tol, params.r1, 1.0), surface


def predicted_limit(source: SourceCoeffs, phi: RadialTestFunction,
                    params: CloakParams, tol: float = 1e-9) -> complex:
    """Limiting value of the full normal-component pairing."""
    return sum(predicted_limit_parts(source, phi, params, tol))


# -- one-sided traces ----------------------------------------------------------


def _normal_trace(chains, r1: float, r: float) -> dict:
    if not r1 < r <= 1.0:
        raise DomainError(f"trace radius must satisfy r1 < r <= 1, got {r}")
    return {(n, m): complex(n * (n + 1) / r * val) for (n, m), val in
            zip(chains.keys, chains.expand(chains.table(r))[2, :, 0])}


def _tangential_trace(chains) -> dict:
    a_j, _, _, b_jj = chains.expand(chains.table(1.0))
    return {key: (complex(t1), complex(t2)) for key, t1, t2 in
            zip(chains.keys, b_jj[:, 0], a_j[:, 0])}


def interior_trace_normal(source: SourceCoeffs, params: CloakParams,
                          r: float) -> dict:
    """Per-mode normal trace of the limiting interior field at radius r.

    Values are S_n^2 r^-1 [beta0 j_n(k w r) + q h_n(k w r)]; at r = 1 the
    combination cancels identically.
    """
    return _normal_trace(limit_chains(source, params), source.r1, r)


def tangential_trace_limit(source: SourceCoeffs, params: CloakParams) -> dict:
    """Per-mode limits (T1, T2) of the interface tangential traces.

    T1 = beta0 J_n(k w) + q H_n(k w) collapses to i q / (k w j_n(k w)) and is
    generically nonzero; T2 is the dual combination alpha0 j_n + p h_n,
    which cancels identically for vanishing boundary data.
    """
    return _tangential_trace(limit_chains(source, params))


# -- energy diagnostic ----------------------------------------------------------


def _energy_density(chains):
    """Sum over modes of |E|^2 + |H|^2 on the sphere of radius r (the hidden
    material cancels its E, H weights); one table, one row pass per degree
    from the Gram sums of ``squared_sums``."""
    w, n = chains.wavenumber, chains.runs[0]
    s2, n_max = (n * (n + 1.0))[:, None], int(n.max(initial=0))

    def dens(r):
        ev, hu, er, eu = chains.squared_sums(chains.quadrature_table(n_max, r))
        return (s2 * ev * r * r + s2 * eu + s2 ** 2 * er
                + w ** 2 * s2 * er * r * r + s2 * hu / w ** 2
                + s2 ** 2 * ev / w ** 2).sum(axis=0)

    return dens


def energy_integral(solution: ModalSolution, delta: float = 0.0,
                    tol: float = 1e-6) -> float:
    """Weighted field energy outside an exclusion collar of half-width delta.

    Integrates eps E . conj(E) + mu H . conj(H) with the layer material over
    the physical regions beyond radius 1 + delta and between r1 and
    1 - delta.  The layer part is computed exactly in virtual coordinates,
    where the material weight cancels the Jacobian; angular integrals reduce
    to mode sums by orthonormality of the tangent/radial families.  Each
    region is one integral of the density summed over its modes, so tol
    bounds that sum, and an AccuracyError names the region.
    """
    if not (math.isfinite(delta) and delta >= 0):
        raise DomainError(f"delta must be finite and >= 0, got {delta}")
    params = solution.params
    total = 0.0
    # layer: the pre-image field beyond 1 + delta, from rho itself at
    # delta = 0 (inverse_radius(1) rounds above it), so the layer integral
    # reads the pairings' tables; hidden: physical radii
    layer_lo = params.rho
    if delta > 0:
        layer_lo = max(layer_lo,
                       CloakOuterMap(params).inverse_radius(1.0 + delta))
    for region, integrate, lo, hi in (
            ("layer", integrate_boundary_layer, layer_lo, 2.0),
            ("hidden", integrate_adaptive, params.r1, 1.0 - delta)):
        if lo >= hi:
            continue
        dens = _energy_density(region_chains(solution, region))
        try:
            total += integrate(dens, lo, hi, tol=tol).real
        except AccuracyError as exc:
            raise AccuracyError(f"{region} energy: {exc}", exc.estimate,
                                exc.achieved) from exc
    return total


# -- sweep driver ----------------------------------------------------------------


def convergence_study(source: SourceCoeffs, phi: RadialTestFunction,
                      params_list, tol: float = 1e-9):
    """Normal-pairing sweep over params_list, CloakParams that differ in rho.

    Returns (rows, fitted_rate): one row per params with its rho, the total
    pairing, the predicted limit, the absolute error and the truncation
    degree n_max of the solve; the rate is the fitted slope of error
    against rho.
    """
    rows = []
    predicted = None
    for params in params_list:
        if predicted is None:
            predicted = predicted_limit(source, phi, params, tol)
        solution = solve_source(source, None, params)
        pairing = (pairing_interior(solution, phi, tol)
                   + pairing_exterior_normal(solution, phi, tol))
        rows.append({"rho": params.rho, "pairing": pairing,
                     "predicted": predicted, "abs_err": abs(pairing - predicted),
                     "n_max": solution.n_max})
    rhos, errs = zip(*[(row["rho"], row["abs_err"]) for row in rows])
    rate = fit_power_law(rhos, errs) if len([e for e in errs if e > 0]) >= 2 else math.nan
    return rows, rate
