"""The array radial kernel, the mode combination and the array quadrature.

Oracles: the scalar ladder (a one-column view of the kernel), scipy's
spherical Bessel functions, mpmath at 30 digits, pairing/energy values
frozen from the per-node scalar implementation that the kernel replaced,
and field/trace values frozen from the per-mode scalar expansions that the
region chains replaced.
"""

import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from cloaksim import fields, modal, quadrature, specfun, weak_limit
from cloaksim.errors import AccuracyError, CapabilityError, DomainError
from cloaksim.geometry import CloakParams
from cloaksim.quadrature import (gauss_legendre, integrate_array,
                                 integrate_panels)
from cloaksim.scaled import ScaledArray, ScaledComplex
from cloaksim.weak_limit import RadialTestFunction
from oracle import interior_trace_normal_at, tangential_trace_at

EXTREME_T = [1e-8, 1e-5, 1e-2, 0.3, 1.0, 7.0, 7.6, 20.0, 50.0]
EXTREME_N = [0, 1, 2, 5, 13, 40, 120, 200]


def table_value(log_mag, sign):
    return sign * mpmath.exp(mpmath.mpf(float(log_mag)))


def mp_jy(n, t):
    with mpmath.workdps(30):
        t = mpmath.mpf(t)
        scale = mpmath.sqrt(mpmath.pi / (2 * t))
        return (scale * mpmath.besselj(n + 0.5, t),
                scale * mpmath.bessely(n + 0.5, t))


class TestKernelAgainstScalarLadder:
    @pytest.mark.parametrize("n_max", [0, 1, 2, 7, 60, 200])
    def test_columns_equal_single_argument_ladders(self, n_max):
        rng = np.random.default_rng(n_max)
        t = np.concatenate([10 ** rng.uniform(-8, 1.7, 20), EXTREME_T])
        tab = specfun.bessel_table(n_max, t)
        assert tab.j_log.shape == (n_max + 2, t.size)
        for i, ti in enumerate(t):
            lad = specfun.bessel_ladder(n_max, float(ti))
            for n in range(-1, n_max + 1):
                j, y = lad.jn(n), lad.yn(n)
                assert (tab.j_log[n + 1, i], tab.j_sign[n + 1, i]) == (
                    j.log_mag, j.phase.real)
                assert (tab.y_log[n + 1, i], tab.y_sign[n + 1, i]) == (
                    y.log_mag, y.phase.real)

    def test_rows_match_scalar_combinations(self):
        t = np.array([1e-6, 0.4, 3.0, 11.0])
        tab = specfun.bessel_table(12, t)
        one, zero = ScaledComplex.from_complex(1), ScaledComplex.zero()
        for i, ti in enumerate(t):
            lad = specfun.bessel_ladder(12, float(ti))
            for n in (0, 1, 5, 12):
                for row, scalar in (
                        (specfun.combine(zero, one, tab, n), lad.hn(n)),
                        (specfun.combine_riccati(one, zero, tab, n),
                         lad.riccati_j(n)),
                        (specfun.combine_riccati(zero, one, tab, n),
                         lad.riccati_h(n))):
                    size = abs(row[i])
                    assert math.log(size) == pytest.approx(
                        scalar.log_mag, rel=1e-15, abs=1e-15)
                    assert abs(row[i] / size - scalar.phase) < 1e-15

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            specfun.bessel_table(3, [0.5, 0.0])
        with pytest.raises(DomainError):
            specfun.bessel_table(3, [0.5, math.nan])
        with pytest.raises(DomainError):
            specfun.bessel_table(3, np.ones((2, 2)))

    def test_rejects_arguments_above_the_cap_before_any_step(self,
                                                             monkeypatch):
        # an uncapped t = 1e12 would run about 2e12 recurrence steps, so the
        # start order must not even be asked for
        def no_recurrence(n, t):
            raise AssertionError("recurrence started")
        monkeypatch.setattr(specfun, "miller_start_order", no_recurrence)
        for t in ([1e12], [0.5, specfun.T_CAP * (1 + 1e-15)]):
            with pytest.raises(CapabilityError, match="exceeds supported cap"):
                specfun.bessel_table(2, t)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3])
    def test_small_tables_near_their_start_order(self, n_max):
        # a start at n + max(15, ceil(2 t)) left j_0 about 2e-9 of its 1/t
        # envelope off at n_max = 0, t = 7
        t = np.linspace(0.5, 20.0, 400)
        tab = specfun.bessel_table(n_max, t)
        for n in range(n_max + 1):
            got = tab.j_sign[n + 1] * np.exp(tab.j_log[n + 1])
            want = sp.spherical_jn(n, t)
            assert np.max(np.abs(got - want) * t) < 1e-14


class TestKernelAtExtremes:
    def test_matches_mpmath(self):
        tab = specfun.bessel_table(200, EXTREME_T)
        for i, t in enumerate(EXTREME_T):
            for n in EXTREME_N:
                j, y = mp_jy(n, t)
                h = mpmath.sqrt(j ** 2 + y ** 2)
                got_j = table_value(tab.j_log[n + 1, i], tab.j_sign[n + 1, i])
                got_y = table_value(tab.y_log[n + 1, i], tab.y_sign[n + 1, i])
                # relative to |h_n|: j_n and y_n have zeros where t > n
                assert abs(got_j - j) / h < 2e-12, (n, t)
                assert abs(got_y - y) / h < 2e-12, (n, t)

    def test_matches_scipy_where_doubles_hold(self):
        tab = specfun.bessel_table(200, EXTREME_T)
        checked = 0
        for i, t in enumerate(EXTREME_T):
            ref_j = sp.spherical_jn(np.arange(201), t)
            ref_y = sp.spherical_yn(np.arange(201), t)
            with np.errstate(over="ignore"):
                got_j = tab.j_sign[1:, i] * np.exp(tab.j_log[1:, i])
                got_y = tab.y_sign[1:, i] * np.exp(tab.y_log[1:, i])
            scale = np.hypot(ref_j, ref_y)
            ok = np.isfinite(scale) & (np.abs(ref_j) > 1e-290) & (scale < 1e290)
            checked += ok.sum()
            assert np.all(np.abs(got_j[ok] - ref_j[ok]) <= 2e-12 * scale[ok])
            assert np.all(np.abs(got_y[ok] - ref_y[ok]) <= 2e-12 * scale[ok])
        assert checked > 500

    def test_mixed_rescaling_columns(self):
        # at n_max = 200 the t = 1e-8 column passes the rescale threshold
        # many times in both recurrences, the t = 50 column never does
        t = np.array([50.0, 1e-8, 1.0, 1e-3])
        tab = specfun.bessel_table(200, t)
        assert np.max(np.abs(tab.y_log[:, 0])) < 500.0
        assert np.min(tab.j_log[:, 1]) < -3000.0
        assert np.max(tab.y_log[:, 1]) > 3000.0
        for i, ti in enumerate(t):
            alone = specfun.bessel_table(200, [ti])
            for name in ("j_log", "j_sign", "y_log", "y_sign"):
                assert np.array_equal(getattr(tab, name)[:, i],
                                      getattr(alone, name)[:, 0])
            for n in (0, 1, 100, 200):
                j, y = mp_jy(n, ti)
                assert float(abs(tab.j_log[n + 1, i] - mpmath.log(abs(j)))) < (
                    1e-12 * max(1.0, abs(tab.j_log[n + 1, i])))
                assert float(abs(tab.y_log[n + 1, i] - mpmath.log(abs(y)))) < (
                    1e-12 * max(1.0, abs(tab.y_log[n + 1, i])))


@settings(max_examples=60, deadline=None)
@given(n_max=st.integers(0, 80),
       t=st.lists(st.floats(1e-6, 60.0), min_size=1, max_size=6))
def test_property_columns_independent_and_wronskian(n_max, t):
    t = np.array(t)
    tab = specfun.bessel_table(n_max, t)
    # permuting the arguments permutes the columns, bit for bit
    perm = np.argsort(-t, kind="stable")
    swapped = specfun.bessel_table(n_max, t[perm])
    assert np.array_equal(swapped.j_log, tab.j_log[:, perm])
    assert np.array_equal(swapped.y_sign, tab.y_sign[:, perm])
    # t^2 (j_n y_{n-1} - j_{n-1} y_n) = 1, both products are O(1)
    log_t2 = 2.0 * np.log(t)
    for n in range(0, n_max + 1):
        a = tab.j_sign[n + 1] * tab.y_sign[n] * np.exp(
            tab.j_log[n + 1] + tab.y_log[n] + log_t2)
        b = tab.j_sign[n] * tab.y_sign[n + 1] * np.exp(
            tab.j_log[n] + tab.y_log[n + 1] + log_t2)
        assert np.all(np.abs(a - b - 1.0) <= 1e-11 * (1.0 + np.abs(a)
                                                        + np.abs(b)))


TABLE_PARTS = ("j_log", "j_sign", "y_log", "y_sign")
# arguments that widen a table past the float-loop cut-off
WIDENING_T = [1e-7, 3e-3, 0.9, 7.6, 40.0, 300.0, 1e3, 2e-5, 0.05]


def _column_bytes(tab, i):
    return tuple(getattr(tab, name)[:, i].tobytes() for name in TABLE_PARTS)


@pytest.mark.parametrize("count", [3, 8])
def test_per_column_orders_give_each_column_its_own_table(count):
    """A table of one top order per argument, on Python floats (3 columns)
    or as array steps (8), holds in each column the rows of a table of that
    order alone, bit for bit, and NaN j rows above its order."""
    t = np.array([1e-6, 0.7, 2.0, 1e-6, 9.0, 30.0, 0.5, 3.0])[:count]
    orders = np.array([1, 5, 60, 200, 12, 0, 7, 33])[:count]
    tab = specfun.bessel_table(orders, t)
    for i, (n, x) in enumerate(zip(orders.tolist(), t.tolist())):
        own = specfun.bessel_table(n, [x])
        for name in ("j_log", "j_sign", "y_log", "y_sign"):
            assert (getattr(tab, name)[:n + 2, i].tobytes()
                    == getattr(own, name)[:, 0].tobytes()), (n, x, name)
        assert np.isnan(tab.j_log[n + 2:, i]).all()


def _columns_match_a_wide_table(n_max, t):
    """Each column of the table of the few arguments t, byte for byte the
    same column of one table of more arguments than the cut-off."""
    small = specfun.bessel_table(n_max, t)
    wide_t = list(t) + WIDENING_T
    assert len(wide_t) > specfun._FLOAT_COLUMNS
    wide = specfun.bessel_table(n_max, wide_t)
    for i in range(len(t)):
        assert _column_bytes(small, i) == _column_bytes(wide, i), (n_max, t[i])


def _no_array_loop(*args):
    raise AssertionError("the array loop ran")


class TestFloatLoop:
    """A table of at most ``_FLOAT_COLUMNS`` arguments runs its recurrences
    on Python floats; it must hold the doubles of the array loop."""

    @settings(max_examples=60, deadline=None)
    @given(n_max=st.integers(0, 200),
           t=st.lists(st.floats(1e-8, 1e3), min_size=1, max_size=6))
    def test_property_columns_equal_the_array_loop(self, n_max, t):
        t = t[:specfun._FLOAT_COLUMNS]
        with mock.patch.object(specfun, "_array_recurrences", _no_array_loop):
            specfun.bessel_table(n_max, t)  # served by the float loop
        _columns_match_a_wide_table(n_max, t)

    @pytest.mark.parametrize("n_max", [60, 200])
    @pytest.mark.parametrize("t", [[1e-6], [1e-6, 1e-8, 2.0]])
    def test_rescaling_columns(self, n_max, t):
        # both recurrences pass the rescale threshold at t = 1e-6: the float
        # loop rescales at the array loop's steps, or its columns differ (and
        # without a rescale they overflow and leave the float loop)
        with mock.patch.object(specfun, "_array_recurrences", _no_array_loop):
            tab = specfun.bessel_table(n_max, t)
        assert np.min(tab.j_log[:, 0]) < -700.0
        assert np.max(tab.y_log[:, 0]) > 700.0
        _columns_match_a_wide_table(n_max, t)

    @pytest.mark.parametrize("n_max", [0, 1, 5, 60])
    @pytest.mark.parametrize("t", [[1e-150], [1e-300], [1e-300, 1.0]])
    def test_arguments_out_of_double_range_keep_their_values(self, n_max, t):
        # such a column leaves double range, so its table takes the array
        # loop, warnings and all
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _columns_match_a_wide_table(n_max, t)

    def test_rescale_logs_are_numpys(self, monkeypatch):
        # numpy's SIMD log and exp need not round as the C library's do, so
        # a shift the float loop adds is np.log's: a math.log that rounds
        # differently moves no value
        want = specfun.bessel_table(200, [1e-6, 3e-4])

        class OtherLibm:
            def __getattr__(self, name):
                return getattr(math, name)

            @staticmethod
            def log(x, *base):
                return math.nextafter(math.log(x, *base), math.inf)

        monkeypatch.setattr(specfun, "math", OtherLibm())
        got = specfun.bessel_table(200, [1e-6, 3e-4])
        for i in range(2):
            assert _column_bytes(got, i) == _column_bytes(want, i)


def _ladder_rows(tab, name, orders):
    """The ScaledComplex values of a BesselLadder method (jn, hn,
    riccati_j or riccati_h) at every order and column of tab, as
    (log-magnitude, phase) arrays of shape (len(orders), len(t)) and the
    values themselves."""
    values = [[getattr(tab.column(i), name)(k) for i in range(tab.t.size)]
              for k in orders]
    return (np.array([[v.log_mag for v in row] for row in values]),
            np.array([[v.phase for v in row] for row in values]), values)


class TestCombine:
    @pytest.mark.parametrize("n_max", [0, 1, 7, 60, 200])
    def test_agrees_with_scaled_arithmetic(self, n_max):
        """The coefficients give the largest product each of them forms
        with the rows a log magnitude in +-700 (a meets the j row, b the j
        and y rows, at order n, and for J and H at n - 1 too, before the
        factor t or n), or give b g = -(1 + 1e-9) a f (f, g = j_n, h_n or
        J_n, H_n): a sum that cancels, or give a f and b g, not the largest
        product, a log magnitude in +-700: next to a zero of J_n at large
        t, t j_{n-1} is far above J_n, so a product can leave double range
        while the value does not.  Every product the rule forms rounds
        its log sum, as ScaledComplex arithmetic does, so they may differ
        by about 2.2e-16 (1 + L) of the largest product, with its factor,
        for each product, L the largest log sum in size."""
        rng = np.random.default_rng(n_max)
        tab = specfun.bessel_table(n_max, np.geomspace(1e-6, 1e3, 37))
        n = np.arange(n_max + 1)
        shape = (n.size, tab.t.size)
        for combine, factors, f_name, g_name in (
                (specfun.combine, [(n, 1.0)], "jn", "hn"),
                (specfun.combine_riccati,
                 [(n - 1, tab.t), (n, np.maximum(n, 1)[:, None])],
                 "riccati_j", "riccati_h")):
            def products(a, b):
                """The log magnitudes of the products the rule forms, and
                of the factor each is multiplied by."""
                return [(c.log_mag + row[k + 1], np.log(factor))
                        for c, rows in ((a, (tab.j_log,)),
                                        (b, (tab.j_log, tab.y_log)))
                        for row in rows for k, factor in factors]

            unit = ScaledArray(np.zeros(shape), np.ones(shape))
            scales = [log_mag for log_mag, _ in products(unit, unit)]
            a_scale, b_scale = (np.max(scales[:len(factors)], axis=0),
                                np.max(scales[len(factors):], axis=0))
            f_log, f_phase, f = _ladder_rows(tab, f_name, n)
            g_log, g_phase, g = _ladder_rows(tab, g_name, n)
            for scaled in ("product", "cancel", "value"):
                log_a, log_b = rng.uniform(-700.0, 700.0, (2,) + shape)
                ang_a, ang_b = rng.uniform(-math.pi, math.pi, (2,) + shape)
                a = ScaledArray(log_a - a_scale, np.exp(1j * ang_a))
                b = ScaledArray(log_b - b_scale, np.exp(1j * ang_b))
                if scaled == "cancel":
                    b = ScaledArray(a.log_mag + f_log - g_log + 1e-9,
                                    -a.phase * f_phase / g_phase)
                elif scaled == "value":
                    a = ScaledArray(log_a - f_log, a.phase)
                    b = ScaledArray(log_b - g_log, b.phase)
                got = combine(a, b, tab, n)
                coefficients = (a.log_mag.tolist(), a.phase.tolist(),
                                b.log_mag.tolist(), b.phase.tolist())
                want = np.array([[
                    (ScaledComplex(la, pa) * fv + ScaledComplex(lb, pb) * gv
                     ).to_complex() for la, pa, lb, pb, fv, gv in zip(*row)]
                    for row in zip(*coefficients, f, g)])
                sums = products(a, b)
                size = np.max([np.abs(log_mag) for log_mag, _ in sums], axis=0)
                largest = np.max([log_mag + log_factor
                                  for log_mag, log_factor in sums], axis=0)
                with np.errstate(over="ignore"):  # beyond double range
                    bound = (2.2e-16 * len(sums) * (1.0 + size)
                             * np.exp(largest))
                assert np.all(np.isfinite(got))
                assert np.all(np.abs(got - want) <= bound)

    def test_matches_scaled_arithmetic(self):
        tab = specfun.bessel_table(6, [1e-7, 0.2, 4.0, 30.0])
        a = ScaledComplex.from_complex(0.3 - 2.0j) * ScaledComplex.from_log(
            -40.0)
        b = ScaledComplex.from_complex(-1.5 + 0.25j)
        for n in (1, 6):
            got = specfun.combine(b, a, tab, n)
            for i in range(4):
                lad = tab.column(i)
                want = (a * lad.hn(n) + b * lad.jn(n)).to_complex()
                assert abs(got[i] - want) <= 1e-14 * abs(want)

    def test_zero_coefficients(self):
        tab = specfun.bessel_table(3, [0.5, 2.0])
        zero = ScaledComplex.zero()
        for combine in (specfun.combine, specfun.combine_riccati):
            assert np.all(combine(zero, zero, tab, 2) == 0)
        one = ScaledComplex.from_complex(1)
        got = specfun.combine(one, zero, tab, 2)
        assert np.allclose(got, sp.spherical_jn(2, [0.5, 2.0]), rtol=1e-14)


class TestArrayQuadrature:
    @pytest.mark.parametrize("npts", [1, 2, 3, 16, 17, 64, 128])
    def test_rule_integrates_polynomials_exactly(self, npts):
        x, w = gauss_legendre(npts)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for k in range(0, 2 * npts, 2):
            assert abs(np.sum(w * x ** k) - 2.0 / (k + 1)) < 1e-14

    def test_rule_close_to_numpy(self):
        for npts in (16, 64, 256):
            x, w = gauss_legendre(npts)
            xr, wr = np.polynomial.legendre.leggauss(npts)
            assert np.max(np.abs(x - xr)) < 1e-15
            assert np.max(np.abs(w - wr) / wr) < 1e-10

    def test_array_driver_matches_scalar_adapter(self):
        calls = []

        def f_array(x):
            calls.append(x.size)
            return np.exp(1j * x) / (1.0 + x * x)

        edges = [0.0, 0.5, 1.5, 4.0]
        got = integrate_array(f_array, edges, tol=1e-12)
        want = integrate_panels(
            lambda x: complex(math.cos(x), math.sin(x)) / (1.0 + x * x),
            edges, tol=1e-12)
        assert abs(got - want) < 1e-14
        # the first call takes the 16- and 32-point levels of every panel,
        # each later call the nodes of the doubled level
        levels = [3 * 32] + calls[1:]
        assert calls[0] == 3 * (16 + 32) and all(
            b == 2 * a for a, b in zip(levels, levels[1:]))

    @staticmethod
    def _oscillating(x):
        return np.exp(40j * x) / (1.0 + x * x)

    def test_rows_converge_together(self):
        """A (2, N) integrand gives each row's integral, within rounding of
        the row alone; the oscillating row needs more passes than the
        smooth one, and every pass refines both rows."""
        edges = [0.0, 0.5, 1.5, 4.0]

        def smooth(x):
            return np.exp(1j * x) / (1.0 + x * x)

        def counted(f):
            calls = []

            def g(x):
                calls.append(x.size)
                return f(x)
            return g, calls

        alone = []
        for f in (smooth, self._oscillating):
            g, calls = counted(f)
            alone.append((integrate_array(g, edges, tol=1e-12), len(calls)))
        rows, calls = counted(
            lambda x: np.stack((smooth(x), self._oscillating(x))))
        got = integrate_array(rows, edges, tol=1e-12)
        assert got.shape == (2,)
        for value, (want, _) in zip(got, alone):
            assert abs(value - want) <= 1e-15 * abs(want)
        assert alone[0][1] < alone[1][1] == len(calls)

    def test_each_level_matches_the_level_alone(self, monkeypatch):
        """The fused first call and the later ones give, bit for bit, the
        composite sum each level gives when its nodes are evaluated alone."""
        edges = np.array([0.0, 0.5, 1.5, 4.0])
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])

        def level_alone(npts):
            x, w = gauss_legendre(npts)
            nodes = mid[:, None] + half[:, None] * x
            values = self._oscillating(nodes.ravel())
            return complex(values @ (half[:, None] * w).ravel())

        # each cap stops integrate_array after its last level; the error
        # carries that level's estimate and its difference from the one before
        for last in (32, 64):
            with monkeypatch.context() as patched:
                patched.setattr(quadrature, "MAX_POINTS", last)
                with pytest.raises(AccuracyError) as err:
                    integrate_array(self._oscillating, edges, tol=0.0)
            assert err.value.estimate == level_alone(last)
            assert err.value.achieved == abs(level_alone(last)
                                             - level_alone(last // 2))
        got = integrate_array(self._oscillating, edges, tol=1e-12)
        assert got in {level_alone(2 ** k) for k in range(5, 11)}

    def test_gauss_legendre_once_per_level(self, monkeypatch):
        requested = []

        def counted(npts):
            requested.append(npts)
            return gauss_legendre(npts)

        monkeypatch.setattr(quadrature, "gauss_legendre", counted)
        monkeypatch.setattr(quadrature, "BASE_POINTS", 8)
        monkeypatch.setattr(quadrature, "MAX_POINTS", 64)
        # an earlier integral over these edges would have left its plans
        quadrature._plan.cache_clear()
        with pytest.raises(AccuracyError):
            integrate_array(self._oscillating, [0.0, 1.0, 2.0], tol=0.0)
        assert requested == [8, 16, 32, 64]

    def test_a_planned_integral_builds_no_rule(self, monkeypatch):
        requested = []

        def counted(npts):
            requested.append(npts)
            return gauss_legendre(npts)

        monkeypatch.setattr(quadrature, "gauss_legendre", counted)
        monkeypatch.setattr(quadrature, "BASE_POINTS", 4)
        edges = [0.0, 0.25, 1.0]
        first = integrate_array(self._oscillating, edges)
        requested.clear()
        assert integrate_array(self._oscillating, edges) == first
        assert requested == []

    def test_writing_into_the_nodes_raises_and_spoils_no_plan(self):
        edges = [0.0, 0.75, 1.5]
        want = integrate_array(self._oscillating, edges)

        def writer(x):
            x *= 2.0
            return self._oscillating(x)

        with pytest.raises(ValueError, match="read-only"):
            integrate_array(writer, edges)
        assert integrate_array(self._oscillating, edges) == want

    def test_breakpoint_containers_integrate_alike(self):
        values = set()
        for edges in ([0.0, 0.5, 2.0], (0.0, 0.5, 2.0), [0, 0.5, 2],
                      np.array([0.0, 0.5, 2.0])):
            quadrature._plan.cache_clear()  # each container plans afresh
            values.add(integrate_array(self._oscillating, edges))
        assert len(values) == 1

    def test_memo_stays_within_its_maxsize(self):
        memo = quadrature._plan
        assert memo.cache_info().maxsize is not None
        for k in range(200):
            quadrature.integrate_adaptive(np.cos, 0.0, 1.0 + k / 200)
        info = memo.cache_info()
        assert 0 < info.currsize <= info.maxsize


# pairings and energies of the per-node scalar implementation, frozen
FROZEN = {
    (1e-2, "bump", "interior"): -1.209373476589687 - 0.738227459939039j,
    (1e-2, "bump", "exterior"): -1.8593068074523982 - 1.18107649120706j,
    (1e-2, "bump", "predicted"): -3.0753178957113665 - 1.923676007066819j,
    (1e-2, "spline", "interior"): -50.6840682482659 - 31.08347932111866j,
    (1e-2, "spline", "exterior"): -32.61854317072716 - 20.688716620859267j,
    (1e-2, "spline", "predicted"): -83.46664142615157 - 51.91123146407841j,
    (1e-2, "energy", 0.0): 155926.49469080902,
    (1e-2, "energy", 0.05): 154802.53059480374,
    (1e-6, "bump", "interior"): -1.1980199482871983 - 0.7312757544009738j,
    (1e-6, "bump", "exterior"): -1.8772972692505872 - 1.192399830055939j,
    (1e-6, "bump", "predicted"): -3.0753178957113665 - 1.923676007066819j,
    (1e-6, "spline", "interior"): -50.42620342971329 - 30.924990679412485j,
    (1e-6, "spline", "exterior"): -33.04042128165261 - 20.986227756209516j,
    (1e-6, "spline", "predicted"): -83.46664142615157 - 51.91123146407841j,
    (1e-6, "energy", 0.0): 155925.36087303385,
    (1e-6, "energy", 0.05): 154847.78104146375,
}


FROZEN_SOURCE = modal.SourceCoeffs(entries={
    (1, 0): (0.3 - 0.2j, 1.0 + 0.5j),
    (2, 1): (0.25j, -0.4 + 0.1j),
    (3, -2): (0.1 + 0j, 0.2 - 0.3j)}, r1=0.5)


@pytest.mark.parametrize("rho", [1e-2, 1e-6])
def test_pairings_and_energy_reproduce_frozen_values(rho):
    source = FROZEN_SOURCE
    modes = source.modes()
    profiles = {
        "bump": RadialTestFunction.polynomial_bump(modes, 0.5, 1.5),
        "spline": RadialTestFunction.cubic_spline(
            modes, [(0.4, 0.0), (0.7, 0.9), (1.0, 1.1), (1.4, -0.8)]),
    }
    params = CloakParams(rho=rho, omega=1.0, r1=0.5)
    solution = modal.solve_source(source, None, params)
    got = {}
    for name, phi in profiles.items():
        got[(rho, name, "interior")] = weak_limit.pairing_interior(
            solution, phi)
        got[(rho, name, "exterior")] = weak_limit.pairing_exterior_normal(
            solution, phi)
        got[(rho, name, "predicted")] = weak_limit.predicted_limit(
            source, phi, params)
    for delta in (0.0, 0.05):
        got[(rho, "energy", delta)] = weak_limit.energy_integral(
            solution, delta=delta, tol=1e-7)
    for key, value in got.items():
        assert abs(value - FROZEN[key]) <= 1e-12 * abs(FROZEN[key]), key


# fields and traces of the per-mode scalar expansions, frozen: E then H for
# a point, per-mode values in ascending (n, m) order for a trace (T1, T2
# pairs for the tangential ones); the energies are frozen in FROZEN above
FROZEN_FIELDS = {
    (0.01, "hidden"): [
        (77.27992969625312+40.62761144930246j),
        (4.1487662484000705+92.55009350573596j),
        (81.77043218461728-72.95359680342132j),
        (25.465684943486853+5.602811167125278j),
        (25.17706676079385+9.823258806018194j),
        (25.06276708686147-37.561646126521076j),
    ],
    (0.01, "layer"): [
        (-0.0012881187549509572+0.0025639918648297337j),
        (-0.001758705409016395+0.0033194161642230847j),
        (0.0012520781035769842-0.002392318671411364j),
        (0.0010010723522182253-0.0004143690114929987j),
        (0.0008635389794436183-0.0008055592385478401j),
        (-0.0007030258481849585+0.00048660813058589065j),
    ],
    (0.01, "virtual"): [
        (-1.0374443888194405e-06+8.22465533361664e-05j),
        (-0.00011463842586177611+0.0002033843848313427j),
        (8.596541116996955e-05-0.00016729933592311025j),
        (0.00023750644034988366+0.00010467580830418859j),
        (1.2826991945157702e-05-6.561579154424087e-05j),
        (1.2461346141439777e-05-8.594503549263213e-06j),
    ],
    (0.01, "normal_limit"): [
        (1.0479454909396002-2.095890981879201j),
        (3.1544026682939124+12.61761067317565j),
        (-136.83218193129258-91.22145462086173j),
    ],
    (0.01, "normal_at"): [
        (1.0817929697028155-2.1635859394056314j),
        (3.193553595830857+12.774214383323429j),
        (-137.69113820059533-91.79409213373023j),
    ],
    (0.01, "tangential_limit"): [
        (-1.6601992005284607+3.3203984010569214j), 0j,
        (-1.6119918781024904-6.447967512409963j), 0j,
        (33.308976635984436+22.205984423989626j), 0j,
    ],
    (0.01, "tangential_at"): [
        (-1.6309369106237142+3.2618738212474283j),
        (-0.006524395042034321-0.00978659256305151j),
        (-1.5893056349837305-6.357222539934922j),
        (0.019866651558792615+6.254634441385504e-18j),
        (32.882839921574565+21.921893281049712j),
        (4.5111801059823426e-18-0.03653673238159719j),
    ],
    (1e-06, "hidden"): [
        (77.30865170547433+40.949373174892415j),
        (4.388882551312216+92.53483539327598j),
        (81.6831546750921-72.82752731784637j),
        (25.52818536606676+5.621170962515778j),
        (25.233598891477694+9.787967499534528j),
        (25.010116728790734-37.525663998526824j),
    ],
    (1e-06, "layer"): [
        (-1.2485109930017733e-11+2.644854336304075e-11j),
        (-1.752681759728065e-11+3.3944693431858425e-11j),
        (1.2235333087479213e-11-2.4470559821334414e-11j),
        (9.633358853085867e-12-3.8013444917495105e-12j),
        (8.16430697339095e-12-7.408560806283159e-12j),
        (-6.6506461281578055e-12+4.433770798684931e-12j),
    ],
    (1e-06, "virtual"): [
        (8.848360760240183e-15+8.408608174851943e-13j),
        (-1.1185558348304348e-12+2.0463136347654468e-12j),
        (8.465102913636733e-13-1.6930163606763997e-12j),
        (2.4024726560457022e-12+1.0458080405216753e-12j),
        (9.524024305900863e-14-6.518155790605393e-13j),
        (1.260012134960552e-13-8.400106244655133e-14j),
    ],
    (1e-06, "normal_limit"): [
        (1.0479454909396002-2.095890981879201j),
        (3.1544026682939124+12.61761067317565j),
        (-136.83218193129258-91.22145462086173j),
    ],
    (1e-06, "normal_at"): [
        (1.0479489360603913-2.0958978721207866j),
        (3.154406639200068+12.617626556800271j),
        (-136.832268939369-91.22151262624598j),
    ],
    (1e-06, "tangential_limit"): [
        (-1.6601992005284607+3.3203984010569214j), 0j,
        (-1.6119918781024904-6.447967512409963j), 0j,
        (33.308976635984436+22.205984423989626j), 0j,
    ],
    (1e-06, "tangential_at"): [
        (-1.6601962221050441+3.3203924442100843j),
        (-6.640784884293595e-07-9.961177321911555e-07j),
        (-1.6119895771367634-6.447958308547052j),
        (2.014986973447869e-06+3.4400489427620233e-17j),
        (33.308933470415795+22.205955646943867j),
        (-7.217888169571742e-19-3.700992606474435e-06j),
    ],
}


def _flat(value):
    if isinstance(value, dict):
        return [c for key in sorted(value) for c in _flat(value[key])]
    if isinstance(value, (tuple, list, np.ndarray)):
        return [c for v in value for c in _flat(v)]
    return [complex(value)]


@pytest.mark.parametrize("rho", [1e-2, 1e-6])
def test_fields_and_traces_reproduce_frozen_values(rho):
    params = CloakParams(rho=rho, omega=1.0, r1=0.5)
    solution = modal.solve_source(FROZEN_SOURCE, None, params)
    got = {"virtual": fields.eval_virtual_exterior(solution,
                                                   [0.2, 0.9, -0.6]),
           "normal_limit": weak_limit.interior_trace_normal(
               FROZEN_SOURCE, params, 0.8),
           "normal_at": interior_trace_normal_at(solution, 0.8),
           "tangential_limit": weak_limit.tangential_trace_limit(
               FROZEN_SOURCE, params),
           "tangential_at": tangential_trace_at(solution)}
    for name, x in (("hidden", [0.3, -0.4, 0.5]), ("layer", [0.6, 0.8, -0.7])):
        got[name] = fields.eval_physical(solution, x)
    for name, value in got.items():
        if isinstance(value, fields.FieldSample):
            value = [value.E, value.H]
        want = np.array(FROZEN_FIELDS[(rho, name)])
        # relative to the largest entry: some entries are rounding noise of
        # an exact cancellation (T2 of the limit, the finite T2 at 1e-6)
        scale = np.max(np.abs(want))
        err = np.max(np.abs(np.array(_flat(value)) - want))
        assert err <= 1e-12 * scale, name
