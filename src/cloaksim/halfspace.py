"""Plane-wave scattering from an anisotropic half-space.

A magnetic field polarised along y hits the interface x = 0 from vacuum
(x < 0); the half-space x > 0 carries diag(2 rho^2, 2, 2) permittivity and
permeability, mimicking the degenerate cloak material near its interface.
For small rho the transmitted wavenumber is imaginary and the transmitted
wave collapses onto a boundary layer of width ~rho at the interface, while
the reflection coefficient tends to -1.  The module gives the dispersion,
the closed-form amplitudes, the field and the pairing sweeps; the jump and
wave-equation residuals that check the amplitudes live in
``tests/oracle.py``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
# integrate_panels stays bound here: bench/tracer.py patches it by name
from .quadrature import fit_power_law, integrate_array, integrate_panels  # noqa: F401


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
        if not 0.0 < self.omega < math.inf:
            raise DomainError(
                f"omega must be positive and finite, got {self.omega}")
        if not cmath.isfinite(self.hin):
            raise DomainError(f"hin must be finite, got {self.hin}")
        if not 0.0 < self.kz < self.omega:
            raise DomainError(
                f"propagating incidence needs 0 < kz < omega, got kz={self.kz}")
        if not 0.0 < self.rho < 1.0:
            raise DomainError(f"rho must be in (0,1), got {self.rho}")


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


def eval_H(params: HalfspaceParams, x, z):
    """y-component of the magnetic field at (x, z), floats or arrays that
    broadcast together; x > 0 is the anisotropic side.  Floats give a complex.
    """
    kx_minus, kx_plus = dispersion_kx(params)
    h_plus, h_sc = solve_amplitudes(params)
    kz_z = params.kz * z
    # x < 0 is clipped out of the anisotropic branch: it would overflow there
    inside = h_plus * np.exp(1j * (kx_plus * np.maximum(x, 0.0) + kz_z))
    vacuum = (params.hin * np.exp(1j * (kx_minus * x + kz_z))
              + h_sc * np.exp(1j * (-kx_minus * x + kz_z)))
    value = np.where(x > 0, inside, vacuum)
    return complex(value) if value.ndim == 0 else value


# -- distributional limit study -------------------------------------------------
# A test function phi maps an array of points to an array of values, like
# the integrand of ``quadrature.integrate_array``.


@dataclass(frozen=True)
class TestFunction1D:
    """Smooth compactly supported profile on the line for 1-D pairings."""

    x_lo: float
    x_hi: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise DomainError("support must satisfy x_lo < x_hi, got "
                              f"({self.x_lo}, {self.x_hi})")
        if not math.isfinite(self.amplitude):
            raise DomainError(f"amplitude must be finite, got {self.amplitude}")

    def __call__(self, x):
        value = np.where((x > self.x_lo) & (x < self.x_hi), self.amplitude
                         * (x - self.x_lo) ** 2 * (self.x_hi - x) ** 2, 0.0)
        return float(value) if value.ndim == 0 else value


def _vacuum_edges(phi, x_lo: float) -> list:
    """Eight equal panels over (x_lo, 0), and as further edges the kinks of
    a TestFunction1D phi, its support ends, that fall inside: phi is only
    C^1 there, and a kink inside a panel stalls the doubling rule."""
    edges = set(np.linspace(x_lo, 0.0, 9).tolist())
    if isinstance(phi, TestFunction1D):
        edges.update(x for x in (phi.x_lo, phi.x_hi) if x_lo < x < 0.0)
    return sorted(edges)


def reflected_pairing(params: HalfspaceParams, phi, x_lo: float,
                      tol: float = 1e-10) -> complex:
    """integral of H(x, 0) phi(x) dx over the vacuum side (x_lo, 0)."""
    return integrate_array(lambda x: eval_H(params, x, 0.0) * phi(x),
                           _vacuum_edges(phi, x_lo), tol=tol)


def transmitted_pairing(params: HalfspaceParams, phi, x_hi: float,
                        tol: float = 1e-10) -> complex:
    """integral of H(x, 0) phi(x) dx over the anisotropic side (0, x_hi).

    Panels are geometric toward x = 0 with ratio 2, down to a width of
    1e-3 / Im kx_plus, so the boundary layer is always resolved.
    """
    t = decay_rate(params)
    w_min = 1e-3 / t if t > 0 else x_hi
    edges, w = [0.0, x_hi], x_hi / 2
    while w > w_min:
        edges.append(w)
        w /= 2
    return integrate_array(lambda x: eval_H(params, x, 0.0) * phi(x),
                           sorted(edges), tol=tol)


def transmitted_mass(params: HalfspaceParams, x_hi: float,
                     tol: float = 1e-10) -> complex:
    """integral of H(x, 0) dx over (0, x_hi): the boundary-layer content."""
    return transmitted_pairing(params, lambda x: 1.0, x_hi, tol=tol)


def standing_wave_pairing(params: HalfspaceParams, phi, x_lo: float,
                          tol: float = 1e-10) -> complex:
    """Pairing of the rho -> 0 limit field on the vacuum side.

    The limit is (exp(i kx- x) - exp(-i kx- x)) h_in = 2i sin(kx- x) h_in
    for x < 0: total reflection with coefficient -1.
    """
    kx_minus, _ = dispersion_kx(params)
    return integrate_array(lambda x: 2j * np.sin(kx_minus * x) * params.hin
                           * phi(x), _vacuum_edges(phi, x_lo), tol=tol)


def limit_study(params_list, phi, halfwidth: float, tol: float = 1e-10):
    """Pairing table over a regularisation sweep.

    Returns (rows, mass_exponent): per-rho amplitudes, pairings on both
    sides, and the fitted power of |transmitted mass| against rho (NaN
    when fewer than two masses are nonzero).
    """
    rows = []
    for params in params_list:
        h_plus, h_sc = solve_amplitudes(params)
        mass = transmitted_mass(params, halfwidth, tol=tol)
        rows.append({"rho": params.rho, "h_plus": h_plus, "h_sc": h_sc,
                     "transmitted_mass": mass, "reflected_pairing":
                     reflected_pairing(params, phi, -halfwidth, tol)})
    masses = [abs(row["transmitted_mass"]) for row in rows]
    if sum(mass > 0 for mass in masses) < 2:
        return rows, math.nan
    return rows, fit_power_law([row["rho"] for row in rows], masses)
