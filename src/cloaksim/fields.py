"""Pointwise electromagnetic field evaluation in both coordinate systems.

The exterior solution lives naturally in the pre-image (virtual) annulus;
physical-layer values are its 1-form transport through the regularised map.
Both regions evaluate one mode expansion of their ``RegionChains``, summed
per degree against the angular scalars in the local spherical frame.  A small
finite-difference toolbox backs the curl/residual diagnostics.
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
    coefficients meet its modes' angular scalars (Y, U_theta, U_phi) first,
    then the degree's rows, giving six spherical components that the local
    frame turns Cartesian.  The rows come from j and y at orders n - 1 and
    n alone: h = j + i y, J = t j_{n-1} - n j_n and H = J + i (t y_{n-1} -
    n y_n), formed from the coefficient-row products, so the point's table
    builds none of its derived rows."""
    w, (n, starts) = chains.wavenumber, chains.runs
    modes = chains.mode_factors
    ang, frame = angular_scalars(modes, x / r)
    ang[:, 0] *= modes.s_n  # the radial parts carry s_n^2, the others s_n
    peaks, scaled = chains.degree_form
    # sums[k, d]: coefficient column k (a0, a1, b0, b1) against the angular
    # scalars, over the modes of degree d
    sums = np.add.reduceat(scaled[:, :, None] * ang, starts, axis=1)
    tab = chains.table(r)
    # base[order, d, (j log, y log, j sign, y sign)] at orders n - 1 and n,
    # rows n and n + 1 of the table
    base = np.concatenate((tab.j_log, tab.y_log, tab.j_sign, tab.y_sign),
                          axis=1)[np.array((n, n + 1))]
    s_n = modes.s_n[starts]
    # products[chain, order, f or g, d]: s_n exp(peak + row log) row sign,
    # the product ``combine`` exponentiates per mode, with the mode's share
    # of the peak left in ``scaled``; the f columns (a0, b0) read j, the g
    # columns (a1, b1) h = j + i y, and no other product is formed: a
    # column of zeros against an overflowing y row would not stay finite
    products = np.empty((2, 2, 2, n.size), dtype=complex)
    weights = np.empty_like(products)  # [chain, (j, h) or (J, H), f or g, d]
    with np.errstate(over="ignore"):
        products[:, :, 0] = (np.exp(peaks[0::2, None] + base[..., 0])
                             * (base[..., 2] * s_n))
        # j and y products side by side: the real and imaginary parts of h
        h = (np.exp(peaks[1::2, None, :, None] + base[..., :2])
             * (base[..., 2:] * s_n[:, None]))
        products[:, :, 1] = h.view(complex)[..., 0]
        weights[:, 0] = products[:, 1]
        weights[:, 1] = tab.t[0] * products[:, 0] - n * products[:, 1]
    (a_j, a_jj), (b_j, b_jj) = (weights.reshape(2, 2, -1)
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


# -- CSV output ----------------------------------------------------------------


def write_samples_csv(path, samples):
    """Field samples as CSV with re/im columns per component."""
    header = ["x", "y", "z", "space"] + [
        f"{f}{c}_{part}" for f in "EH" for c in "xyz" for part in ("re", "im")]
    write_csv(path, header, [
        [*s.point, s.space] + [v for comp in (*s.E, *s.H)
                               for v in (comp.real, comp.imag)]
        for s in samples])
