"""Independent references that the tests check the library against.

Nothing in ``src/cloaksim`` calls these: vector wave fields from one Bessel
ladder and one angular row (not the degree sums of ``fields``), the
half-space jump and wave-equation residuals, the singular-map transport of
a smooth background, the one-sided traces of a finite solution, a mode's
coefficients as complex numbers or as packed doubles, and Gamma(n + 1/2)
from ``math.lgamma``.  Not collected; import by name.
"""

import math
from dataclasses import fields

import numpy as np

from cloaksim import geometry, specfun
from cloaksim.errors import DomainError, SingularityError
from cloaksim.fields import FieldSample, _pack_eh, _point
from cloaksim.halfspace import (HalfspaceParams, dispersion_kx, eval_H,
                                solve_amplitudes)
from cloaksim.harmonics import ModeIndex, angular_basis
from cloaksim.modal import ModalSolution, ModeCoeffs, _pack, region_chains
from cloaksim.scaled import ScaledComplex
from cloaksim.weak_limit import _normal_trace, _tangential_trace

_EPS_TANGENTIAL = 2.0  # eps_y = eps_z = mu_y = mu_z in the anisotropic side


def as_complex(coeffs: ModeCoeffs) -> dict:
    """The six coefficients of a mode as plain complex numbers, by name."""
    return {f.name: getattr(coeffs, f.name).to_complex()
            for f in fields(coeffs)}


def packed(coeffs: ModeCoeffs) -> tuple:
    """The six coefficients of a mode as ``modal._pack`` doubles, in field
    order: equal tuples are equal coefficients, bit for bit."""
    return tuple(_pack(getattr(coeffs, f.name) for f in fields(coeffs)))


def gamma_half_int(n: int) -> float:
    """Gamma(n + 1/2) = (2n-1)!!/2^n * sqrt(pi); inf above n ~ 150."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    try:
        return math.exp(math.lgamma(n + 0.5))
    except OverflowError:
        return math.inf


def gamma_half_int_scaled(n: int) -> ScaledComplex:
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    return ScaledComplex.from_log(math.lgamma(n + 0.5), 1.0)


def wave_MN(mode: ModeIndex, omega: float, x, kind: str = "regular"):
    """Divergence-free vector wave field and its curl at a point.

    Args:
        mode: multipole index.
        omega: wavenumber of the radial factor (> 0).
        x: evaluation point, |x| > 0.
        kind: "regular" uses j_n (entire), "radiating" uses h_n (outgoing).

    Returns:
        (value, curl): complex 3-vectors.  value = -S_n f_n(omega |x|) V;
        curl = S_n F_n(omega |x|)/|x| U + S_n^2 f_n(omega |x|)/|x| Y xhat,
        where F_n is the f_n + t f_n' combination.
    """
    if omega <= 0:
        raise DomainError(f"omega must be positive, got {omega}")
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise SingularityError("wave fields are undefined at the origin")
    xhat = x / r
    y_val, u, v = angular_basis(mode, xhat)
    lad = specfun.bessel_ladder(mode.n, omega * r)
    if kind == "regular":
        f = lad.jn(mode.n).to_complex()
        fc = lad.riccati_j(mode.n).to_complex()
    elif kind == "radiating":
        f = lad.hn(mode.n).to_complex()
        fc = lad.riccati_h(mode.n).to_complex()
    else:
        raise DomainError(f"kind must be 'regular' or 'radiating', got {kind!r}")
    s_n = math.sqrt(mode.n * (mode.n + 1))
    value = -s_n * f * v
    curl = s_n * fc / r * u + s_n ** 2 * f / r * y_val * xhat
    return value, curl


def transmission_residuals(params: HalfspaceParams):
    """(|[H_y]|, |[E_z]|) jumps of the one-sided limits at x = 0, relative.

    Tangential H matches as h_in + h_sc = h_plus; tangential E as
    kx- (h_in - h_sc) = kx+ h_plus / 2 (the eps_z = 2 of the anisotropic
    side divides its normal derivative).
    """
    kx_minus, kx_plus = dispersion_kx(params)
    h_plus, h_sc = solve_amplitudes(params)
    jump_h = params.hin + h_sc - h_plus
    scale_h = max(abs(params.hin), abs(h_plus), 1e-300)
    lhs_e = kx_minus * (params.hin - h_sc)
    rhs_e = 0.5 * kx_plus * h_plus
    scale_e = max(abs(lhs_e), abs(rhs_e), 1e-300)
    return abs(jump_h) / scale_h, abs(lhs_e - rhs_e) / scale_e


def pde_residual(params: HalfspaceParams, x: float, z: float,
                 step: float = 1e-4) -> float:
    """Central-difference residual of the anisotropic wave equation at (x, z)."""
    om = params.omega
    if x > 0:
        eps_x, eps_z, mu_y = 2.0 * params.rho ** 2, _EPS_TANGENTIAL, _EPS_TANGENTIAL
    else:
        eps_x = eps_z = mu_y = 1.0
    offsets = step * np.array([[0, 1, -1, 0, 0], [0, 0, 0, 1, -1]])
    h, h_xp, h_xm, h_zp, h_zm = eval_H(params, x + offsets[0], z + offsets[1])
    d2x = (h_xp - 2 * h + h_xm) / step ** 2
    d2z = (h_zp - 2 * h + h_zm) / step ** 2
    return float(abs((d2x / eps_z + d2z / eps_x) / mu_y + om * om * h))


def eval_ideal_exterior(e_background, h_background, x) -> FieldSample:
    """Transport of a smooth background solution through the singular map.

    Args:
        e_background, h_background: callables y -> complex 3-vector, smooth
            on the punctured ball of radius 2.
        x: physical point with 1 < |x| < 2.
    """
    x, r = _point(x)
    if not 1.0 < r < 2.0:
        raise DomainError(f"ideal layer is 1 < |x| < 2, got |x|={r:.6g}")
    fmap = geometry.BlowupMap()
    y = fmap.inverse(x)
    _, eh = geometry.pushforward_field(
        fmap, y, np.stack([e_background(y), h_background(y)], 1))
    return FieldSample(point=x, eh=_pack_eh(eh.T), space="physical")


def interior_trace_normal_at(solution: ModalSolution, r: float) -> dict:
    """Finite-regularisation counterpart of
    ``weak_limit.interior_trace_normal``."""
    return _normal_trace(region_chains(solution, "hidden"),
                         solution.params.r1, r)


def tangential_trace_at(solution: ModalSolution) -> dict:
    """Finite-regularisation interface traces (T1, T2) per mode."""
    return _tangential_trace(region_chains(solution, "hidden"))
