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

import numpy as np

_NEG_INF = float("-inf")
# no nonzero value is this small: the shift of a sum of two zeros
_SHIFT_FLOOR = -1e300


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


class ScaledArray:
    """Elementwise exp(log_mag) * phase, zero as (-inf, 0): ScaledComplex's
    array form, which ``specfun.combine`` takes as a coefficient too.

    The operators take two ScaledArrays and apply ScaledComplex's rules
    element by element, with numpy broadcasting.  A sum renormalises its
    phase even where one operand is zero, so it can differ from
    ScaledComplex's (which returns the other operand) in the last bit.
    Indexing is numpy's, on both arrays, and gives a single element as a
    ScaledComplex.  A value is immutable by convention, as a ScaledComplex,
    and two compare equal when their arrays are equal.
    """

    __slots__ = ("log_mag", "phase")

    def __init__(self, log_mag, phase):
        self.log_mag = log_mag
        self.phase = phase

    @staticmethod
    def from_complex(values) -> "ScaledArray":
        """A number or a sequence of numbers, each element bit for bit
        ``ScaledComplex.from_complex`` of it: the log and the phase's
        division are Python's, not numpy's, which round differently."""
        values = np.asarray(values, dtype=complex)
        z = values.ravel().tolist()
        m = list(map(abs, z))
        log_mag = [math.log(x) if x else _NEG_INF for x in m]
        phase = [v / x if x else 0j for v, x in zip(z, m)]
        shape = values.shape
        return ScaledArray(np.array(log_mag).reshape(shape),
                           np.array(phase, dtype=complex).reshape(shape))

    def __eq__(self, other):
        if other.__class__ is not ScaledArray:
            return NotImplemented
        return (np.array_equal(self.log_mag, other.log_mag)
                and np.array_equal(self.phase, other.phase))

    def __getitem__(self, index):
        if index.__class__ is int and self.log_mag.ndim == 1:
            return ScaledComplex(self.log_mag.item(index),
                                 complex(self.phase.item(index)))
        log_mag, phase = self.log_mag[index], self.phase[index]
        if log_mag.ndim:
            return ScaledArray(log_mag, phase)
        return ScaledComplex(float(log_mag), complex(phase))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.log_mag)))

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        return ScaledArray(self.log_mag + other.log_mag,
                           self.phase * other.phase)

    def __truediv__(self, other):
        if other.log_mag.min(initial=0.0) == _NEG_INF:
            raise ZeroDivisionError("division by scaled zero")
        return ScaledArray(self.log_mag - other.log_mag,
                           self.phase / other.phase)

    def __add__(self, other):
        # each operand relative to the larger; a floor on the shift keeps a
        # pair of zeros from forming -inf - -inf
        shift = np.maximum(np.maximum(self.log_mag, other.log_mag),
                           _SHIFT_FLOOR)
        s = (self.phase * np.exp(self.log_mag - shift)
             + other.phase * np.exp(other.log_mag - shift))
        m = np.abs(s)
        if m.all():
            return ScaledArray(shift + np.log(m), s / m)
        # an exact zero, of both operands or by cancellation
        with np.errstate(divide="ignore", invalid="ignore"):
            return ScaledArray(shift + np.log(m), np.where(m == 0, 0j, s / m))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ScaledArray(self.log_mag, -self.phase)

    def __repr__(self):
        return f"ScaledArray({self.log_mag!r}, {self.phase!r})"
