"""Orthonormal spherical harmonics and tangent vector harmonics.

Conventions: fully orthonormal complex harmonics on the unit sphere with
Condon-Shortley phase, so Y(n,-m) = (-1)^m conj(Y(n,m)).  The tangent pair is
U = Grad Y / sqrt(n(n+1)) and V = xhat x U.  ``angular_scalars`` gives Y
and the spherical components U_theta, U_phi of many modes at one direction,
with the local frame (xhat, theta_hat, phi_hat), from one table of
normalised associated Legendre values (sectoral seeds, then the upward
recurrence in degree for every order at once, stable past n = 150);
``angular_table`` builds the vectors U and V from them, and
``angular_basis`` is its one-row view (the benchmark's tracer counts its
calls through the binding in ``fields``).
``ModeFactors`` checks a list of modes once and keeps what the scalars
read of each mode besides the direction, so a caller that evaluates the
same modes at many directions passes it instead of the keys.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError

_POLE_SIN = 1e-10


@dataclass(frozen=True)
class ModeIndex:
    """Multipole index (n, m) with 1 <= n and |m| <= n."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"degree must be >= 1, got n={self.n}")
        if self.n > specfun.N_CAP:
            raise DomainError(f"degree n={self.n} exceeds cap {specfun.N_CAP}")
        if abs(self.m) > self.n:
            raise DomainError(f"|m| must be <= n, got (n,m)=({self.n},{self.m})")


@dataclass(frozen=True, eq=False)
class ModeFactors:
    """The modes (n, m) of a key list, checked, with what the angular
    scalars read of them: |m|, the Condon-Shortley sign (-1)^m for m < 0
    and 1 otherwise, s_n = sqrt(n(n+1)), and the top degree and order.

    The arrays are read-only; build one with ``of``.
    """

    n: np.ndarray
    m: np.ndarray
    m_abs: np.ndarray
    sign: np.ndarray
    s_n: np.ndarray
    n_top: int
    m_top: int

    @classmethod
    def of(cls, keys) -> "ModeFactors":
        """The factors of keys, a sequence of (n, m) pairs or a (K, 2)
        integer array.

        Raises:
            DomainError: naming the first mode with n < 1, n > N_CAP or
                |m| > n.
        """
        keys = np.array(keys, dtype=int).reshape(-1, 2)
        n, m = keys[:, 0], keys[:, 1]
        m_abs = np.abs(m)
        n_top = int(n.max(initial=1))
        if n.min(initial=1) < 1 or n_top > specfun.N_CAP or (m_abs > n).any():
            n_bad, m_bad = keys[(n < 1) | (n > specfun.N_CAP) | (m_abs > n)][0]
            raise DomainError(f"invalid mode (n,m)=({n_bad},{m_bad}): need "
                              f"1 <= n <= {specfun.N_CAP} and |m| <= n")
        factors = cls(n, m, m_abs, (-1.0) ** np.minimum(m, 0),
                      np.sqrt(n * (n + 1.0)), n_top,
                      int(m_abs.max(initial=0)))
        for arr in (n, m, m_abs, factors.sign, factors.s_n):
            arr.flags.writeable = False
        return factors


def _check_unit(direction):
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if abs(norm - 1.0) > 1e-12:
        raise DomainError(f"direction must be a unit vector, |d|={norm:.15g}")
    return d


@functools.lru_cache(maxsize=16)
def _legendre_coeffs(n_max: int, m_max: int):
    """Coefficients of the normalised Legendre table, read-only arrays.

    a, b are (n_max + 1, m_max + 2) arrays indexed [n, m], zero for
    m >= n: P(n) = a (x P(n-1) - b P(n-2)).  up, down are
    (n_max + 1, m_max + 1) arrays, zero for m > n:
    dP(n,m)/dtheta = up P(n,m+1) - down P(n,m-1).  The sectoral value is
    P(m, m) = seed[m] sin(theta)^m.
    """
    n = np.arange(n_max + 1, dtype=float)[:, None]
    m = np.arange(m_max + 2, dtype=float)[None, :]
    below = m < n
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
        b = np.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
    k = m[0, 1:]
    seed = np.cumprod(np.concatenate(([1.0 / math.sqrt(4.0 * math.pi)],
                                      -np.sqrt((2.0 * k + 1.0) / (2.0 * k)))))
    # b vanishes at n = m + 1, where P(n-2, m) is not defined
    a, b = np.where(below, a, 0.0), np.where(below & (m < n - 1), b, 0.0)
    m = m[:, :-1]
    up, down = (0.5 * np.sqrt(np.maximum(v, 0.0)) for v in
                ((n - m) * (n + m + 1.0), (n + m) * (n - m + 1.0)))
    coeffs = (a, b, up, down, seed)
    for arr in coeffs:
        arr.flags.writeable = False
    return coeffs


def _legendre_table(n_max: int, m_max: int, x: float, s: float):
    """Normalised P(n,m)(cos theta) and dP/dtheta for 0 <= m <= m_max and
    n <= n_max, as (n_max + 1, m_max + 1) arrays, zero for m > n, at
    x = cos theta and s = sin theta.

    Normalisation absorbs sqrt((2n+1)/(4 pi) (n-m)!/(n+m)!) so that
    Y = P * exp(i m phi).  Every order up to m_max + 1 climbs in degree at
    once from its sectoral seed (Holmes & Featherstone, J. Geodesy 76,
    2002).  dP/dtheta comes from the neighbouring orders,
    1/2 [sqrt((n-m)(n+m+1)) P(n,m+1) - sqrt((n+m)(n-m+1)) P(n,m-1)] with
    P(n,-1) = -P(n,1) (Condon-Shortley), which divides by nothing and so
    keeps its accuracy up to the poles.
    """
    a, b, up, down, seed = _legendre_coeffs(n_max, m_max)
    p = np.zeros((n_max + 1, m_max + 2))
    d = np.arange(min(n_max, m_max + 1) + 1)
    p[d, d] = seed[d] * s ** d
    prev = curr = np.zeros(m_max + 2)  # P(n-2) and P(n-1)
    for a_n, b_n, p_n in zip(a, b, p):
        p_n += a_n * (x * curr - b_n * prev)  # a_n is 0 from the diagonal on
        prev, curr = curr, p_n
    lower = np.concatenate((-p[:, 1:2], p[:, :-2]), axis=1)  # P(n,m-1)
    return p[:, :-1], up * p[:, 1:] - down * lower


def angular_scalars(modes, direction):
    """(ang, frame): the scalars Y, U_theta and U_phi of every mode (n, m)
    of modes at one unit direction, and the local spherical frame there.

    ``modes`` is a ``ModeFactors`` or K keys (a sequence of pairs or a
    (K, 2) integer array), checked as ``ModeFactors.of`` does.  ``ang`` is
    a (K, 3) complex array with columns Y, U_theta and U_phi, from one
    normalised Legendre table for all n <= max n and 0 <= m <= max |m|;
    ``frame`` is a (3, 3) array with rows xhat, theta_hat and phi_hat.  With
    signed m, Y = sign P(n,|m|) exp(i m phi), sign = (-1)^m for m < 0, and
    Grad Y = dY/dtheta theta_hat + i m Y / sin(theta) phi_hat, so
    U = U_theta theta_hat + U_phi phi_hat.  At a pole only m = +/-1 has a
    gradient, the Cartesian limit lambda_n (m, i, 0); in the frame at the
    direction's phi that is U_theta = cos(theta) lambda_n m exp(i m phi) and
    U_phi = i lambda_n exp(i m phi).
    """
    d = _check_unit(direction)
    if not isinstance(modes, ModeFactors):
        modes = ModeFactors.of(modes)
    n, m, m_abs, sign = modes.n, modes.m, modes.m_abs, modes.sign
    # cos and sin of theta straight from the direction: through the angle
    # itself, sin(theta) next to the south pole would carry pi's rounding
    xy = math.hypot(d[0], d[1])
    r = math.hypot(xy, d[2])
    x, s, phi = d[2] / r, xy / r, math.atan2(d[1], d[0])
    p_tab, dp_tab = _legendre_table(modes.n_top, modes.m_top, x, s)
    p = sign * p_tab[n, m_abs]
    eim = np.exp(1j * phi * m)
    ang = np.empty((n.size, 3), dtype=complex)
    ang[:, 0] = p * eim
    if abs(s) < _POLE_SIN:
        # lambda_n = -sqrt((2n+1)/pi)/4 at the north pole and
        # (-1)^(n+1) lambda_n at the south; cos(theta) is +/-1 exactly here
        lam = np.where(m_abs == 1, -0.25 * np.sqrt((2.0 * n + 1.0) / math.pi),
                       0.0)
        if d[2] < 0:
            lam = lam * (-1.0) ** (n + 1)
        ang[:, 1] = x * lam * m * eim
        ang[:, 2] = 1j * lam * eim
    else:
        w = eim / modes.s_n
        ang[:, 1] = w * sign * dp_tab[n, m_abs]
        ang[:, 2] = (1j / s) * m * w * p
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    frame = np.array([d, [x * cos_phi, x * sin_phi, -s],
                      [-sin_phi, cos_phi, 0.0]])
    return ang, frame


def angular_table(keys, direction):
    """(Y, U, V) of every mode (n, m) of keys (or of a ``ModeFactors``) at
    one unit direction.

    Returns arrays of shape (K,), (K, 3) and (K, 3) for K keys, built from
    the scalars and frame of ``angular_scalars``: U = U_theta theta_hat +
    U_phi phi_hat and V = xhat x U = U_theta phi_hat - U_phi theta_hat.
    """
    ang, (_, theta_hat, phi_hat) = angular_scalars(keys, direction)
    u_theta, u_phi = ang[:, 1:2], ang[:, 2:3]
    return (ang[:, 0], u_theta * theta_hat + u_phi * phi_hat,
            u_theta * phi_hat - u_phi * theta_hat)


def angular_basis(mode: ModeIndex, direction):
    """(Y, U, V) of one mode at one direction: a row of ``angular_table``."""
    y_val, u, v = angular_table([(mode.n, mode.m)], direction)
    return complex(y_val[0]), u[0], v[0]
