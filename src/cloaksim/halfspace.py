"""Plane-wave scattering from an anisotropic half-space.

A magnetic field polarised along y hits the interface x = 0 from vacuum
(x < 0); the half-space x > 0 carries diag(2 rho^2, 2, 2) permittivity and
permeability, mimicking the degenerate cloak material near its interface.
For small rho the transmitted wavenumber is imaginary and the transmitted
wave collapses onto a boundary layer of width ~rho at the interface, while
the reflection coefficient tends to -1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import fit_power_law, integrate_panels

_EPS_TANGENTIAL = 2.0  # eps_y = eps_z = mu_y = mu_z in the anisotropic side


@dataclass(frozen=True)
class HalfspaceParams:
    """Incidence scenario: frequency, tangential wavenumber, regularisation.

    The incident plane wave comes from vacuum with 0 < kz < omega; the
    anisotropic side has eps = mu = diag(2 rho^2, 2, 2).
    """

    omega: float
    kz: float
    rho: float
    hin: complex = 1.0 + 0j

    def __post_init__(self):
        if self.omega <= 0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        if not 0.0 < self.kz < self.omega:
            raise DomainError(
                f"propagating incidence needs 0 < kz < omega, got kz={self.kz}")
        if not 0.0 < self.rho < 1.0:
            raise DomainError(f"rho must be in (0,1), got {self.rho}")

    @property
    def eps_plus(self):
        return np.diag([2.0 * self.rho ** 2, _EPS_TANGENTIAL, _EPS_TANGENTIAL])

    @property
    def evanescent(self) -> bool:
        return 4.0 * self.omega ** 2 < (self.kz / self.rho) ** 2


def dispersion_kx(params: HalfspaceParams):
    """Normal wavenumbers on both sides of the interface.

    Returns (kx_minus, kx_plus): the vacuum value sqrt(omega^2 - kz^2) and
    the anisotropic value sqrt(4 omega^2 - kz^2/rho^2), taken on the
    positive-imaginary branch when the radicand is negative.
    """
    om, kz, rho = params.omega, params.kz, params.rho
    kx_minus = math.sqrt(om * om - kz * kz)
    radicand = 4.0 * om * om - (kz / rho) ** 2
    if radicand >= 0.0:
        kx_plus = complex(math.sqrt(radicand), 0.0)
    else:
        kx_plus = complex(0.0, math.sqrt(-radicand))
    return kx_minus, kx_plus


def decay_rate(params: HalfspaceParams) -> float:
    """Im kx_plus: the e-folding rate of the transmitted boundary layer."""
    return dispersion_kx(params)[1].imag


def solve_amplitudes(params: HalfspaceParams):
    """Transmitted and reflected amplitudes (h_plus, h_sc).

    h_plus = 4 kx- / (2 kx- + kx+) h_in and h_sc = h_plus - h_in, from
    continuity of the tangential magnetic and electric fields at x = 0.
    """
    kx_minus, kx_plus = dispersion_kx(params)
    den = 2.0 * kx_minus + kx_plus
    if den == 0:
        raise DomainError("degenerate impedance matching: 2 kx- + kx+ = 0")
    h_plus = 4.0 * kx_minus / den * params.hin
    h_sc = -(1.0 - 4.0 * kx_minus / den) * params.hin
    return h_plus, h_sc


def eval_H(params: HalfspaceParams, x: float, z: float) -> complex:
    """y-component of the magnetic field at (x, z)."""
    kx_minus, kx_plus = dispersion_kx(params)
    h_plus, h_sc = solve_amplitudes(params)
    if x > 0:
        return h_plus * cmath.exp(1j * (kx_plus * x + params.kz * z))
    return (params.hin * cmath.exp(1j * (kx_minus * x + params.kz * z))
            + h_sc * cmath.exp(1j * (-kx_minus * x + params.kz * z)))


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

    def h(xx, zz):
        return eval_H(params, xx, zz)

    d2x = (h(x + step, z) - 2 * h(x, z) + h(x - step, z)) / step ** 2
    d2z = (h(x, z + step) - 2 * h(x, z) + h(x, z - step)) / step ** 2
    res = (d2x / eps_z + d2z / eps_x) / mu_y + om * om * h(x, z)
    return abs(res)


# -- distributional limit study -------------------------------------------------


@dataclass(frozen=True)
class TestFunction1D:
    """Smooth compactly supported profile on the line for 1-D pairings."""

    x_lo: float
    x_hi: float
    amplitude: float = 1.0

    def __call__(self, x: float) -> float:
        if x <= self.x_lo or x >= self.x_hi:
            return 0.0
        return self.amplitude * (x - self.x_lo) ** 2 * (self.x_hi - x) ** 2


def reflected_pairing(params: HalfspaceParams, phi, x_lo: float,
                      tol: float = 1e-10) -> complex:
    """integral of H(x, 0) phi(x) dx over the vacuum side (x_lo, 0)."""
    edges = np.linspace(x_lo, 0.0, 9)
    return integrate_panels(lambda x: eval_H(params, x, 0.0) * phi(x), edges,
                            tol=tol)


def transmitted_pairing(params: HalfspaceParams, phi, x_hi: float,
                        tol: float = 1e-10) -> complex:
    """integral of H(x, 0) phi(x) dx over the anisotropic side (0, x_hi).

    Panels are geometric toward x = 0 with ratio 2, down to a width of
    1e-3 / Im kx_plus, so the boundary layer is always resolved.
    """
    t = decay_rate(params)
    w_min = 1e-3 / t if t > 0 else x_hi
    edges = [x_hi]
    w = x_hi / 2
    while w > w_min:
        edges.append(w)
        w /= 2
    edges.append(0.0)
    edges = sorted(edges)
    return integrate_panels(lambda x: eval_H(params, x, 0.0) * phi(x), edges,
                            tol=tol)


def transmitted_mass(params: HalfspaceParams, x_hi: float,
                     tol: float = 1e-10) -> complex:
    """integral of H(x, 0) dx over (0, x_hi): the boundary-layer content."""
    return transmitted_pairing(params, lambda x: 1.0, x_hi, tol=tol)


def standing_wave_pairing(params: HalfspaceParams, phi, x_lo: float,
                          tol: float = 1e-10) -> complex:
    """Pairing of the rho -> 0 limit field on the vacuum side.

    The limit is (exp(i kx- x) - exp(-i kx- x)) h_in for x < 0: total
    reflection with coefficient -1.
    """
    kx_minus, _ = dispersion_kx(params)

    def limit_field(x):
        return (cmath.exp(1j * kx_minus * x)
                - cmath.exp(-1j * kx_minus * x)) * params.hin

    edges = np.linspace(x_lo, 0.0, 9)
    return integrate_panels(lambda x: limit_field(x) * phi(x), edges, tol=tol)


def limit_study(params_list, phi, halfwidth: float, tol: float = 1e-10):
    """Pairing table over a regularisation sweep.

    Returns (rows, mass_exponent): per-rho amplitudes, pairings on both
    sides, and the fitted power of |transmitted mass| against rho.
    """
    rows = []
    masses, rhos = [], []
    for params in params_list:
        h_plus, h_sc = solve_amplitudes(params)
        mass = transmitted_mass(params, halfwidth, tol=tol)
        rows.append({
            "rho": params.rho,
            "h_plus": h_plus,
            "h_sc": h_sc,
            "transmitted_mass": mass,
            "reflected_pairing": reflected_pairing(params, phi, -halfwidth, tol),
        })
        masses.append(abs(mass))
        rhos.append(params.rho)
    exponent = fit_power_law(rhos, masses) if len(rhos) >= 2 else math.nan
    return rows, exponent
