import cmath
import math
import operator

import numpy as np
import pytest

from cloaksim.scaled import ScaledArray, ScaledComplex


def test_round_trip_representable():
    rng = np.random.default_rng(7)
    # ulp-scale at moderate magnitude
    for _ in range(200):
        z = complex(rng.normal(), rng.normal()) * 10.0 ** rng.integers(-2, 3)
        back = ScaledComplex.from_complex(z).to_complex()
        assert abs(back - z) <= 1e-15 * abs(z)
    # exp/log error grows with |log magnitude|: bound scales accordingly
    for _ in range(200):
        z = complex(rng.normal(), rng.normal()) * 10.0 ** rng.integers(-100, 100)
        sc = ScaledComplex.from_complex(z)
        back = sc.to_complex()
        assert abs(back - z) <= (abs(sc.log_mag) + 2.0) * 1.2e-16 * abs(z)


def test_phase_is_unit_modulus():
    rng = np.random.default_rng(3)
    vals = [ScaledComplex.from_complex(complex(rng.normal(), rng.normal()))
            for _ in range(50)]
    acc = ScaledComplex.from_complex(1)
    for v in vals:
        acc = acc * v
    for v in vals + [acc]:
        assert abs(abs(v.phase) - 1.0) < 1e-14


def test_product_adds_log_magnitudes_exactly():
    a = ScaledComplex.from_log(350.0, cmath.exp(0.3j))
    b = ScaledComplex.from_log(512.5, cmath.exp(-1.1j))
    assert (a * b).log_mag == 350.0 + 512.5
    assert (a / b).log_mag == 350.0 - 512.5


def test_no_overflow_for_factorial_scale_products():
    # (2n-1)!! * t^-(n+1) style growth at n = 200 stays finite in log space
    acc = ScaledComplex.from_complex(1)
    for k in range(1, 401, 2):
        acc = acc * k
    acc = acc * ScaledComplex.from_log(201 * math.log(1e6))
    assert math.isfinite(acc.log_mag)
    assert acc.to_complex().real == math.inf  # collapse overflows, by design


def test_addition_against_plain_complex():
    rng = np.random.default_rng(11)
    for _ in range(100):
        z1 = complex(rng.normal(), rng.normal())
        z2 = complex(rng.normal(), rng.normal())
        s = ScaledComplex.from_complex(z1) + ScaledComplex.from_complex(z2)
        assert abs(s.to_complex() - (z1 + z2)) < 1e-14 * max(1.0, abs(z1 + z2))


def test_addition_with_huge_scale_gap_keeps_large_term():
    big = ScaledComplex.from_log(1000.0)
    tiny = ScaledComplex.from_log(-1000.0)
    s = big + tiny
    assert s.log_mag == pytest.approx(1000.0)


def test_zero_flag():
    z = ScaledComplex.zero()
    assert z.is_zero
    assert (z * 5).is_zero
    assert (z + 2).to_complex() == 2 + 0j
    assert ScaledComplex.from_complex(0.0).is_zero
    assert ScaledComplex.from_log(1.0, 0.0).is_zero
    assert (ScaledComplex.from_complex(1) - 1).is_zero


def test_subtraction_and_negation():
    a = ScaledComplex.from_complex(3 + 4j)
    b = ScaledComplex.from_complex(1 - 2j)
    assert abs((a - b).to_complex() - (2 + 6j)) < 1e-14
    assert abs((-a).to_complex() + (3 + 4j)) < 1e-15
    assert abs(a.conjugate().to_complex() - (3 - 4j)) < 1e-15


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ScaledComplex.from_complex(1) / ScaledComplex.zero()


def test_reflected_operations_with_plain_numbers():
    a = ScaledComplex.from_complex(2 + 1j)
    assert abs((6 / a).to_complex() - 6 / (2 + 1j)) < 1e-14
    assert abs((6 - a).to_complex() - (4 - 1j)) < 1e-14
    assert abs((1j * a).to_complex() - (2j - 1)) < 1e-14
    assert abs((3 + a).to_complex() - (5 + 1j)) < 1e-14


# -- value semantics -------------------------------------------------------------

# the operators bench/tracer.py counts by patching them in vars(ScaledComplex)
COUNTED_OPERATORS = ("__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                     "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "conjugate")


def test_equality_and_hash_by_value():
    a = ScaledComplex(1.5, cmath.exp(0.25j))
    b = ScaledComplex(1.5, cmath.exp(0.25j))
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a != ScaledComplex(1.5, cmath.exp(-0.25j))
    assert a != ScaledComplex(1.25, cmath.exp(0.25j))
    assert (ScaledComplex.zero() == ScaledComplex.from_complex(0.0)
            == ScaledComplex.from_log(-math.inf))
    # a ScaledComplex is never equal to a plain number, even of its value
    one = ScaledComplex.from_complex(1)
    for plain in (1, 1.0, 1 + 0j, np.float64(1.0)):
        assert one != plain and plain != one
    assert ScaledComplex.zero() != 0j
    assert {one: "x"}.get(1.0) is None


def test_operators_are_patchable_class_attributes():
    names = vars(ScaledComplex)
    for name in COUNTED_OPERATORS:
        assert callable(names[name]), name


def _state(values):
    return [(v.log_mag, v.phase) for v in values]


def test_zero_propagates_through_every_counted_operator():
    zero = ScaledComplex.zero()
    x = ScaledComplex.from_complex(2.0 - 3.0j)
    operands = [zero, x]
    before = _state(operands)
    results = {
        "__mul__": (zero * x, x * zero, zero * 2.5),
        "__rmul__": (2.5 * zero, 0 * x),
        "__truediv__": (zero / x, zero / 4j),
        "__rtruediv__": (0 / x,),
        "__add__": (zero + zero,),
        "__radd__": (0 + zero, 0j + zero),
        "__sub__": (x - x, zero - zero, zero - 0),
        "__rsub__": (0 - zero,),
        "__neg__": (-zero,),
        "conjugate": (zero.conjugate(),),
    }
    assert set(results) == set(COUNTED_OPERATORS)
    for name, values in results.items():
        for value in values:
            assert value.is_zero and value == zero and value.phase == 0, name
    # a zero term leaves the other term's value
    assert zero + x == x and x + zero == x and 0 + x == x
    assert x - zero == x and zero - x == -x and 0 - x == -x
    for divide in (lambda: x / zero, lambda: 1 / zero, lambda: zero / zero):
        with pytest.raises(ZeroDivisionError):
            divide()
    assert _state(operands) == before


def test_operators_leave_operands_unchanged():
    a = ScaledComplex.from_complex(1e200 - 2e200j)
    b = ScaledComplex.from_log(-700.0, cmath.exp(2.0j))
    before = _state([a, b])
    for op in (lambda: a * b, lambda: 3 * a, lambda: a / b, lambda: 2j / b,
               lambda: a + b, lambda: 1 + b, lambda: a - b, lambda: 1 - a,
               lambda: -a, lambda: b.conjugate()):
        out = op()
        assert isinstance(out, ScaledComplex)
    assert _state([a, b]) == before


def test_scaled_array_follows_scaled_complex():
    """ScaledArray's elementwise rules are ScaledComplex's: from_complex bit
    for bit, products, quotients, sums, differences and negations to
    rounding, with a zero operand, a pair of zeros and an exact
    cancellation giving the zero (-inf, 0), and a division by a zero
    raising."""
    rng = np.random.default_rng(5)
    z = [complex(*rng.normal(size=2)) * 10.0 ** e
         for e in rng.integers(-200, 200, 8)] + [0j, 0j, 1.5, -2j]
    w = [complex(*rng.normal(size=2)) * 10.0 ** e
         for e in rng.integers(-200, 200, 8)] + [0j, 3.0, 0j, 2j]
    a, b = ScaledArray.from_complex(z), ScaledArray.from_complex(w)
    za, zb = ([ScaledComplex.from_complex(v) for v in values]
              for values in (z, w))
    for got, want in zip(a, za):
        assert (got.log_mag, got.phase) == (want.log_mag, want.phase)
    for op in (operator.mul, operator.add, operator.sub):
        for got, want in zip(op(a, b), map(op, za, zb)):
            assert got.is_zero == want.is_zero
            if not want.is_zero:
                assert abs(got.log_mag - want.log_mag) <= 1e-13
                assert abs(got.phase - want.phase) <= 1e-15
    assert [v.phase for v in a + b][-4:] == [0j, 1, 1, 0j]
    for got, want in zip(-a, za):
        assert (got.log_mag, got.phase) == (want.log_mag, -want.phase)
    divisor = w[:8] + [1.0] * 4
    quotient = a / ScaledArray.from_complex(divisor)
    for got, x, y in zip(quotient, za, divisor):
        want = x / ScaledComplex.from_complex(y)
        assert got.is_zero == want.is_zero
        if not want.is_zero:
            assert abs(got.log_mag - want.log_mag) <= 1e-13
            assert abs(got.phase - want.phase) <= 1e-15
    with pytest.raises(ZeroDivisionError):
        a / b
