"""Log-magnitude complex arithmetic for products far outside float range.

High-degree radial functions produce factors like (2n-1)!! * t**-(n+1) that
overflow (or underflow) doubles long before the ratios of interest do.  A
``ScaledComplex`` keeps the natural log of the magnitude separately from a
unit-modulus phase, so multiplication and division reduce to float additions
on the log while the phase stays exactly representable.

``ScaledComplex`` is a plain slotted class: a value is immutable by
convention, not by a guard, and compares and hashes by value.  It is made
from a plain real or complex number (``from_complex``), or from a
log-magnitude and a phase or real sign (``from_log``).  ``ScaledArray`` is
its elementwise array form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NEG_INF = float("-inf")


class ScaledComplex:
    """Value exp(log_mag) * phase with |phase| == 1, or the exact zero.

    ``log_mag == -inf`` flags an exact zero (phase is then 0).  Addition of
    two values rescales to the larger magnitude first, so only the relative
    difference of exponents matters.

    A value is immutable by convention: nothing assigns to ``log_mag`` or
    ``phase`` after construction, and every operator returns a new value or
    one of its operands.  Values compare and hash by (log_mag, phase), and
    never equal a plain number.  The class is a plain slotted one, not a
    frozen dataclass, because the chains of a solution build thousands of
    values and a guarded construction more than doubles the cost of each.
    """

    __slots__ = ("log_mag", "phase")

    def __init__(self, log_mag: float, phase: complex):
        self.log_mag = log_mag
        self.phase = phase

    def __eq__(self, other):
        if other.__class__ is not ScaledComplex:
            return NotImplemented
        return (self.log_mag, self.phase) == (other.log_mag, other.phase)

    def __hash__(self):
        return hash((self.log_mag, self.phase))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ScaledComplex":
        return ScaledComplex(_NEG_INF, 0j)

    @staticmethod
    def from_complex(z) -> "ScaledComplex":
        z = complex(z)
        if z == 0:
            return ScaledComplex(_NEG_INF, 0j)
        m = abs(z)
        return ScaledComplex(math.log(m), z / m)

    @staticmethod
    def from_log(log_mag: float, phase: complex = 1 + 0j) -> "ScaledComplex":
        if log_mag == _NEG_INF or phase == 0:
            return ScaledComplex.zero()
        p = complex(phase)
        return ScaledComplex(log_mag, p / abs(p))

    # -- views -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.log_mag == _NEG_INF

    def to_complex(self) -> complex:
        """Collapse to a plain complex; over/underflows where unrepresentable."""
        if self.is_zero:
            return 0j
        if self.log_mag > 709.0:  # exp() overflow threshold
            return complex(math.inf * self.phase.real, math.inf * self.phase.imag)
        return math.exp(self.log_mag) * self.phase

    def magnitude(self) -> float:
        if self.is_zero:
            return 0.0
        if self.log_mag > 709.0:
            return math.inf
        return math.exp(self.log_mag)

    # -- arithmetic ---------------------------------------------------------
    # an operand that is not a ScaledComplex is read as a complex number

    def __mul__(self, other):
        if other.__class__ is not ScaledComplex:
            other = ScaledComplex.from_complex(other)
        if self.log_mag == _NEG_INF or other.log_mag == _NEG_INF:
            return ScaledComplex(_NEG_INF, 0j)
        return ScaledComplex(self.log_mag + other.log_mag,
                             self.phase * other.phase)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not ScaledComplex:
            other = ScaledComplex.from_complex(other)
        if other.log_mag == _NEG_INF:
            raise ZeroDivisionError("division by scaled zero")
        if self.log_mag == _NEG_INF:
            return ScaledComplex(_NEG_INF, 0j)
        return ScaledComplex(self.log_mag - other.log_mag,
                             self.phase / other.phase)

    def __rtruediv__(self, other):
        return ScaledComplex.from_complex(other) / self

    def __add__(self, other):
        if other.__class__ is not ScaledComplex:
            other = ScaledComplex.from_complex(other)
        if self.log_mag == _NEG_INF:
            return other
        if other.log_mag == _NEG_INF:
            return self
        if self.log_mag >= other.log_mag:
            hi, lo = self, other
        else:
            hi, lo = other, self
        s = hi.phase + lo.phase * math.exp(lo.log_mag - hi.log_mag)
        if s == 0:
            return ScaledComplex(_NEG_INF, 0j)
        m = abs(s)
        return ScaledComplex(hi.log_mag + math.log(m), s / m)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not ScaledComplex:
            other = ScaledComplex.from_complex(other)
        return self + (-other)

    def __rsub__(self, other):
        return ScaledComplex.from_complex(other) + (-self)

    def __neg__(self):
        if self.log_mag == _NEG_INF:
            return self
        return ScaledComplex(self.log_mag, -self.phase)

    def conjugate(self) -> "ScaledComplex":
        if self.log_mag == _NEG_INF:
            return self
        return ScaledComplex(self.log_mag, self.phase.conjugate())

    def __repr__(self):
        if self.is_zero:
            return "ScaledComplex(0)"
        return f"ScaledComplex(exp({self.log_mag:.6g}) * {self.phase:.6g})"


@dataclass(frozen=True)
class ScaledArray:
    """Elementwise exp(log_mag) * phase, zero as (-inf, 0): ScaledComplex's
    array form, which ``specfun.combine`` takes as a coefficient too."""

    log_mag: np.ndarray
    phase: np.ndarray
