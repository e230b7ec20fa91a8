"""Pointwise electromagnetic field evaluation in both coordinate systems.

The exterior solution lives naturally in the pre-image (virtual) annulus;
physical-layer values are its 1-form transport through the regularised map.
Interior values come from the hidden-region expansion directly.  A small
finite-difference toolbox backs the curl/residual diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, specfun
from .errors import DomainError, SingularityError
from .harmonics import ModeIndex, angular_basis
from .modal import ModalSolution

FD_CURL_STEP = 1e-4  # relative step used by the curl diagnostics


@dataclass(frozen=True)
class FieldSample:
    """E/H values at one point, tagged with the coordinate system."""

    point: np.ndarray
    E: np.ndarray
    H: np.ndarray
    space: str  # "virtual" | "physical"


def _mode_radial_factors(lad, n):
    return lad.jn(n), lad.hn(n), lad.riccati_j(n), lad.riccati_h(n)


def eval_virtual_exterior(solution: ModalSolution, y) -> FieldSample:
    """E/H of the exterior expansion at a virtual-space point.

    Valid on rho < |y| < 2.
    """
    y = np.asarray(y, dtype=float)
    r = float(np.linalg.norm(y))
    params = solution.params
    if not params.rho < r < 2.0:
        raise DomainError(
            f"virtual exterior is rho < |y| < 2, got |y|={r:.6g}")
    om = params.omega
    yhat = y / r
    e_total = np.zeros(3, dtype=complex)
    h_total = np.zeros(3, dtype=complex)
    lad = specfun.bessel_ladder(solution.n_max, om * r)  # serves every mode
    for (n, m), co in solution.mode_items():
        mode = ModeIndex(n, m)
        y_val, u, v = angular_basis(mode, yhat)
        jn, hn, jjn, hhn = _mode_radial_factors(lad, n)
        s_n = mode.s_n
        e_v = -s_n * (co.gamma * jn + co.c * hn).to_complex()
        e_u = s_n / r * (co.eta * jjn + co.d * hhn).to_complex()
        e_r = s_n ** 2 / r * (co.eta * jn + co.d * hn).to_complex()
        e_total += e_v * v + e_u * u + e_r * y_val * yhat
        h_v = 1j * om * s_n * (co.eta * jn + co.d * hn).to_complex()
        h_u = -1j / om * s_n / r * (co.gamma * jjn + co.c * hhn).to_complex()
        h_r = -1j / om * s_n ** 2 / r * (co.gamma * jn + co.c * hn).to_complex()
        h_total += h_v * v + h_u * u + h_r * y_val * yhat
    return FieldSample(point=y, E=e_total, H=h_total, space="virtual")


def _eval_interior(solution: ModalSolution, x) -> FieldSample:
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    params = solution.params
    kw = params.k * params.omega
    se = params.eps0 ** -0.5
    sm = params.mu0 ** -0.5
    xhat = x / r
    e_total = np.zeros(3, dtype=complex)
    h_total = np.zeros(3, dtype=complex)
    lad = specfun.bessel_ladder(solution.n_max, kw * r)  # serves every mode
    for (n, m), co in solution.mode_items():
        mode = ModeIndex(n, m)
        p, q = solution.source.entries.get((n, m), (0j, 0j))
        y_val, u, v = angular_basis(mode, xhat)
        jn, hn, jjn, hhn = _mode_radial_factors(lad, n)
        s_n = mode.s_n
        a_j = (co.alpha * jn + p * hn).to_complex()
        b_jj = (co.beta * jjn + q * hhn).to_complex()
        b_j = (co.beta * jn + q * hn).to_complex()
        a_jj = (co.alpha * jjn + p * hhn).to_complex()
        e_total += se * (-s_n * a_j * v + s_n / r * b_jj * u
                         + s_n ** 2 / r * b_j * y_val * xhat)
        h_total += sm * (1j * kw * s_n * b_j * v
                         - 1j / kw * s_n / r * a_jj * u
                         - 1j / kw * s_n ** 2 / r * a_j * y_val * xhat)
    return FieldSample(point=x, E=e_total, H=h_total, space="physical")


def eval_physical(solution: ModalSolution, x) -> FieldSample:
    """E/H at a physical-space point, on r1 < |x| < 2, |x| != 1.

    The layer value is the exterior solution transported through the
    regularised map; interface values are reserved for the one-sided trace
    operations.
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    params = solution.params
    if r == 1.0:
        raise SingularityError(
            "field evaluation exactly on the interface is ill-defined; "
            "use the one-sided trace operations")
    if not params.r1 < r < 2.0:
        raise DomainError(f"physical region is r1 < |x| < 2, got |x|={r:.6g}")
    if r < 1.0:
        return _eval_interior(solution, x)
    fmap = geometry.CloakOuterMap(params)
    y = fmap.inverse(x)
    virt = eval_virtual_exterior(solution, y)
    _, e_phys = geometry.pushforward_field(fmap, y, virt.E)
    _, h_phys = geometry.pushforward_field(fmap, y, virt.H)
    return FieldSample(point=x, E=e_phys, H=h_phys, space="physical")


def eval_ideal_exterior(e_background, h_background, x) -> FieldSample:
    """Transport of a smooth background solution through the singular map.

    Args:
        e_background, h_background: callables y -> complex 3-vector, smooth
            on the punctured ball of radius 2.
        x: physical point with 1 < |x| < 2.
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if not 1.0 < r < 2.0:
        raise DomainError(f"ideal layer is 1 < |x| < 2, got |x|={r:.6g}")
    fmap = geometry.BlowupMap()
    y = fmap.inverse(x)
    _, e_phys = geometry.pushforward_field(fmap, y, np.asarray(e_background(y), dtype=complex))
    _, h_phys = geometry.pushforward_field(fmap, y, np.asarray(h_background(y), dtype=complex))
    return FieldSample(point=x, E=e_phys, H=h_phys, space="physical")


# -- finite-difference diagnostics -------------------------------------------


def fd_curl(field, x, step=None):
    """Central-difference curl of a 3-vector field callable at x."""
    x = np.asarray(x, dtype=float)
    h = step if step is not None else FD_CURL_STEP * float(np.linalg.norm(x))
    out = np.zeros(3, dtype=complex)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eb, ec = np.zeros(3), np.zeros(3)
        eb[b] = h
        ec[c] = h
        d_c_b = (field(x + eb)[c] - field(x - eb)[c]) / (2 * h)
        d_b_c = (field(x + ec)[b] - field(x - ec)[b]) / (2 * h)
        out[a] = d_c_b - d_b_c
    return out


def maxwell_residuals(e_field, h_field, x, omega, eps_tensor=None,
                      mu_tensor=None, step=None):
    """Residuals of the curl equations at a source-free point.

    Returns (|curl E - i w mu H|, |curl H + i w eps E|) as max-norms, with
    identity material when tensors are omitted.
    """
    x = np.asarray(x, dtype=float)
    eps = np.eye(3) if eps_tensor is None else np.asarray(eps_tensor)
    mu = np.eye(3) if mu_tensor is None else np.asarray(mu_tensor)
    curl_e = fd_curl(e_field, x, step)
    curl_h = fd_curl(h_field, x, step)
    res_e = curl_e - 1j * omega * (mu @ h_field(x))
    res_h = curl_h + 1j * omega * (eps @ e_field(x))
    return float(np.max(np.abs(res_e))), float(np.max(np.abs(res_h)))


# -- CSV exchange --------------------------------------------------------------


def read_points_csv(path):
    """Points from a CSV file with one x,y,z triple per row.

    Raises:
        DomainError: naming file:line, for a row that is not three finite
            numbers.
    """
    pts = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DomainError(
                    f"{path}:{line_no}: expected 3 comma-separated values")
            try:
                point = np.array([float(v) for v in parts])
            except ValueError:
                raise DomainError(
                    f"{path}:{line_no}: non-numeric value in {line!r}") from None
            if not np.all(np.isfinite(point)):
                raise DomainError(
                    f"{path}:{line_no}: non-finite value in {line!r}")
            pts.append(point)
    return pts


def write_samples_csv(path, samples):
    """Field samples as CSV with re/im columns per component."""
    header = ["x", "y", "z", "space"]
    for f in ("E", "H"):
        for c in ("x", "y", "z"):
            header += [f"{f}{c}_re", f"{f}{c}_im"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for s in samples:
            row = [f"{v:.17g}" for v in s.point] + [s.space]
            for vec in (s.E, s.H):
                for comp in vec:
                    row += [f"{comp.real:.17g}", f"{comp.imag:.17g}"]
            fh.write(",".join(row) + "\n")
