"""Pointwise electromagnetic field evaluation in both coordinate systems.

The exterior solution lives naturally in the pre-image (virtual) annulus;
physical-layer values are its 1-form transport through the regularised map.
Both regions evaluate one mode expansion of their ``RegionChains``, summed
per degree against the angular scalars in the local spherical frame.  A small
finite-difference toolbox backs the curl/residual diagnostics.  Only the
regularised cloak is evaluated; the transport of a smooth background
through the singular map is a test reference, in ``tests/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DomainError, SingularityError
# angular_basis is not called here: bench/tracer.py counts its calls by
# patching this module's binding
from .harmonics import angular_basis, angular_scalars  # noqa: F401
from .manifest import write_csv
from .modal import ModalSolution, region_chains

FD_CURL_STEP = 1e-4  # relative step used by the curl diagnostics


@dataclass(frozen=True, slots=True)
class FieldSample:
    """E/H values at one point, tagged with the coordinate system.

    ``E`` and ``H`` are read-only complex 3-vectors over one bytes buffer
    ``eh`` (E, then H; see ``_pack_eh``): a kept sample holds about 190
    bytes instead of the 420 of two arrays.
    """

    point: np.ndarray
    eh: bytes
    space: str  # "virtual" | "physical"

    @property
    def E(self) -> np.ndarray:
        return np.frombuffer(self.eh, dtype=complex, count=3)

    @property
    def H(self) -> np.ndarray:
        return np.frombuffer(self.eh, dtype=complex, count=3, offset=48)


def _pack_eh(eh) -> bytes:
    """The ``FieldSample.eh`` buffer of a (2, 3) stack of E and H rows."""
    return np.asarray(eh, dtype=complex).reshape(2, 3).tobytes()


def _point(p):
    """p as a float 3-vector and its norm.

    Raises:
        DomainError: naming the shape, for anything but three numbers.
    """
    x = np.asarray(p, dtype=float)
    if x.shape != (3,):
        raise DomainError(f"a point is 3 numbers, got shape {x.shape}")
    return x, float(np.linalg.norm(x))


def _expand(chains, x, r, space) -> FieldSample:
    """E/H of a region's mode expansion at the point x of radius r, summed
    per degree: the rows depend on the degree alone, so each degree's
    coefficients meet its modes' angular scalars (Y, U_theta, U_phi) and
    s_n first, then the degree's rows of ``RegionChains.degree_rows``,
    giving six spherical components that the local frame turns Cartesian.
    """
    w, starts = chains.wavenumber, chains.runs[1]
    modes = chains.mode_factors
    ang, frame = angular_scalars(modes, x / r)
    ang *= modes.s_n[:, None]
    ang[:, 0] *= modes.s_n  # the radial parts carry s_n^2, the others s_n
    # sums[k, d]: coefficient column k (a0, a1, b0, b1), shifted by its
    # degree's peak, against the angular scalars, over the modes of degree d
    sums = np.add.reduceat(chains.degree_form[1][:, :, None] * ang, starts,
                           axis=1)
    rows = chains.degree_rows(chains.table(r))[..., 0]
    (a_j, a_jj), (b_j, b_jj) = (rows.reshape(2, 2, -1)
                                @ sums.reshape(2, -1, 3)).tolist()
    e_w, h_w, c = chains.e_weight, chains.h_weight, -1j / (w * r)
    spherical = np.array([
        [e_w * b_j[0] / r, e_w * (b_jj[1] / r + a_j[2]),
         e_w * (b_jj[2] / r - a_j[1])],
        [h_w * c * a_j[0], h_w * (c * a_jj[1] - 1j * w * b_j[2]),
         h_w * (c * a_jj[2] + 1j * w * b_j[1])]])
    return FieldSample(point=x, eh=_pack_eh(spherical @ frame), space=space)


def eval_virtual_exterior(solution: ModalSolution, y) -> FieldSample:
    """E/H of the exterior expansion at a virtual-space point.

    Valid on rho < |y| < 2.
    """
    y, r = _point(y)
    if not solution.params.rho < r < 2.0:
        raise DomainError(
            f"virtual exterior is rho < |y| < 2, got |y|={r:.6g}")
    return _expand(region_chains(solution, "layer"), y, r, "virtual")


def eval_physical(solution: ModalSolution, x) -> FieldSample:
    """E/H at a physical-space point, on r1 < |x| < 2, |x| != 1.

    The layer value is the exterior solution transported through the
    regularised map; interface values are reserved for the one-sided trace
    operations.
    """
    x, r = _point(x)
    params = solution.params
    if r == 1.0:
        raise SingularityError(
            "field evaluation exactly on the interface is ill-defined; "
            "use the one-sided trace operations")
    if not params.r1 < r < 2.0:
        raise DomainError(f"physical region is r1 < |x| < 2, got |x|={r:.6g}")
    if r < 1.0:
        return _expand(region_chains(solution, "hidden"), x, r, "physical")
    fmap = geometry.CloakOuterMap(params)
    y = fmap.inverse(x)
    virt = eval_virtual_exterior(solution, y)
    _, eh = geometry.pushforward_field(fmap, y, np.stack([virt.E, virt.H], 1))
    return FieldSample(point=x, eh=_pack_eh(eh.T), space="physical")


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


def maxwell_residuals(e_field, h_field, x, omega):
    """Residuals of the vacuum curl equations at a source-free point.

    Returns (|curl E - i w H|, |curl H + i w E|) as max-norms, the curls
    by ``fd_curl`` at its default step.
    """
    x = np.asarray(x, dtype=float)
    res_e = fd_curl(e_field, x) - 1j * omega * h_field(x)
    res_h = fd_curl(h_field, x) + 1j * omega * e_field(x)
    return float(np.max(np.abs(res_e))), float(np.max(np.abs(res_h)))


# -- CSV output ----------------------------------------------------------------


def write_samples_csv(path, samples):
    """Field samples as CSV with re/im columns per component."""
    header = ["x", "y", "z", "space"] + [
        f"{f}{c}_{part}" for f in "EH" for c in "xyz" for part in ("re", "im")]
    write_csv(path, header, [
        [*s.point, s.space] + [v for comp in (*s.E, *s.H)
                               for v in (comp.real, comp.imag)]
        for s in samples])
