"""Radial coordinate maps, their Jacobians, and tensor and field transport.

Two maps matter: the singular blow-up of the origin onto the unit sphere
(g(r) = 1 + r/2) and its regularisation that blows a small ball of radius
rho onto the unit ball (outer branch g(r) = a + b r, inner branch x = y/rho).
Material tensors move by M.T-congruence divided by det(M), field 1-forms
by M^-T.  Only the forward direction is kept: a map's ``inverse`` finds the
virtual point of a physical one, and the library transports nothing back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMapError, DomainError, SingularityError

_EYE = np.eye(3)


@dataclass(frozen=True)
class CloakParams:
    """Physical scenario for the regularised cloak.

    Attributes:
        rho: regularisation radius in (0, 1).
        omega: angular frequency (> 0).
        eps0, mu0: uniform material constants of the hidden region.
        r1: support radius of the interior source, in (0, 1).
    """

    rho: float
    omega: float
    eps0: float = 1.0
    mu0: float = 1.0
    r1: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise DomainError(f"rho must be in (0,1), got {self.rho}")
        for name in ("omega", "eps0", "mu0"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(
                    f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.r1 < 1.0:
            raise DomainError(f"r1 must be in (0,1), got {self.r1}")

    @property
    def k(self) -> float:
        return math.sqrt(self.eps0 * self.mu0)

    @property
    def a(self) -> float:
        return 2.0 * (1.0 - self.rho) / (2.0 - self.rho)

    @property
    def b(self) -> float:
        return 1.0 / (2.0 - self.rho)


def _radius(y) -> float:
    return float(np.linalg.norm(y))


class RadialMap:
    """Map x = g(|y|) * y/|y| with the affine radial profile g(r) = a + b r,
    b > 0, on the virtual radii lo < r <= hi; a radius outside them, as
    the preimage of a point outside the image, raises DomainError."""

    name = "radial"

    def __init__(self, a: float, b: float, lo: float, hi: float):
        self.a, self.b, self.lo, self.hi = a, b, lo, hi

    def g(self, r: float) -> float:
        return self.a + self.b * r

    def dg(self, r: float) -> float:
        return self.b

    def _check_radius(self, r: float) -> None:
        if r == 0.0:
            raise SingularityError(f"{self.name}: undefined at the origin")
        if r <= self.lo or r > self.hi:
            raise DomainError(
                f"{self.name}: radius {r:.6g} outside ({self.lo:.6g}, {self.hi:.6g}]")

    def apply(self, y):
        y = np.asarray(y, dtype=float)
        r = _radius(y)
        self._check_radius(r)
        return self.g(r) / r * y

    def inverse_radius(self, radius_x: float) -> float:
        """The virtual radius g^-1(radius_x), unchecked."""
        return (radius_x - self.a) / self.b

    def inverse(self, x):
        x = np.asarray(x, dtype=float)
        big_r = _radius(x)
        r = self.inverse_radius(big_r)
        self._check_radius(r)
        return r / big_r * x

    def jacobian(self, y):
        y = np.asarray(y, dtype=float)
        r = _radius(y)
        self._check_radius(r)
        yhat = y / r
        proj = np.outer(yhat, yhat)
        return self.dg(r) * proj + self.g(r) / r * (_EYE - proj)

    def det_jacobian(self, y) -> float:
        r = _radius(np.asarray(y, dtype=float))
        self._check_radius(r)
        return self.dg(r) * (self.g(r) / r) ** 2


class BlowupMap(RadialMap):
    """Singular map of the punctured ball of radius 2 onto the shell 1 < |x| < 2."""

    name = "blowup"

    def __init__(self):
        super().__init__(1.0, 0.5, 0.0, 2.0)


class CloakOuterMap(RadialMap):
    """Outer branch of the regularised map: g(r) = a + b r on rho <= r <= 2."""

    name = "cloak-outer"

    def __init__(self, params: CloakParams):
        # closed at rho: both branches give |x| = 1 there
        super().__init__(params.a, params.b, params.rho * (1.0 - 1e-12), 2.0)
        self.params = params


class CloakInnerMap:
    """Inner branch x = y/rho, a uniform dilation of the small ball."""

    def __init__(self, params: CloakParams):
        self.params = params

    def apply(self, y):
        return np.asarray(y, dtype=float) / self.params.rho


def map_blowup(y):
    """Apply the singular blow-up map; errors at the origin."""
    return BlowupMap().apply(y)


def map_regularized(params: CloakParams, y):
    """Total regularised map on the ball of radius 2 (both branches)."""
    y = np.asarray(y, dtype=float)
    r = _radius(y)
    if r > 2.0:
        raise DomainError(f"point outside the design ball: |y|={r:.6g}")
    if r <= params.rho:
        return CloakInnerMap(params).apply(y)
    return CloakOuterMap(params).apply(y)


# -- transport of tensors and fields ------------------------------------------


def pushforward_tensor(fmap, y):
    """Transport vacuum along the map: (M @ M.T) / det(M).

    Args:
        fmap: a map object with ``jacobian``/``det_jacobian``/``apply``.
        y: point in the map's source coordinates.

    Returns:
        (x, T_pushed): image point and the transported tensor at it.
    """
    mat = fmap.jacobian(y)
    det = fmap.det_jacobian(y)
    if abs(det) < 1e-300:
        raise DegenerateMapError(f"{fmap.name}: singular Jacobian at |y|={_radius(y):.6g}")
    return fmap.apply(y), (mat @ mat.T) / det


def pushforward_field(fmap, y, field_value):
    """Transport a field 1-form value from y to x = F(y): M^{-T} E.

    ``field_value`` is a 3-vector or a (3, k) stack of them as columns,
    transported with one Jacobian and one solve.  Returns (x, transported
    value).
    """
    mat = fmap.jacobian(y)
    value = np.linalg.solve(mat.T, np.asarray(field_value, dtype=complex))
    return fmap.apply(y), value


# -- closed forms -------------------------------------------------------------


def ideal_cloak_tensor(x):
    """Vacuum pushed through the singular blow-up, at 1 < |x| < 2.

    Radial eigenvalue 2(|x|-1)^2/|x|^2 (degenerates at the interface),
    both tangential eigenvalues equal to 2.
    """
    x = np.asarray(x, dtype=float)
    big_r = _radius(x)
    if not 1.0 < big_r < 2.0:
        raise DomainError(f"cloak layer is 1 < |x| < 2, got |x|={big_r:.6g}")
    xhat = x / big_r
    proj = np.outer(xhat, xhat)
    radial = 2.0 * (big_r - 1.0) ** 2 / big_r ** 2
    return radial * proj + 2.0 * (_EYE - proj)


def cloak_layer_tensor(params: CloakParams, x):
    """Vacuum pushed through the regularised outer branch, at 1 <= |x| <= 2.

    Radial eigenvalue (|x|-a)^2/(b |x|^2), tangential eigenvalues 1/b.
    """
    x = np.asarray(x, dtype=float)
    big_r = _radius(x)
    if not 1.0 <= big_r <= 2.0:
        raise DomainError(f"cloak layer is 1 <= |x| <= 2, got |x|={big_r:.6g}")
    xhat = x / big_r
    proj = np.outer(xhat, xhat)
    radial = (big_r - params.a) ** 2 / (params.b * big_r ** 2)
    return radial * proj + (_EYE - proj) / params.b
