"""Spherical Bessel/Hankel functions with overflow-safe scaled variants.

Everything is built on one radial kernel, ``bessel_table``: for a whole
array of arguments t it runs the ladder of orders -1..n_max, j_n by
downward Miller recurrence normalised per argument against the closed forms
at order 0/1, y_n by upward recurrence, both rescaled per argument so the
stored numbers are log-magnitude/sign pairs valid to n = 200 at arguments
where plain doubles are hopeless.  A table of a few arguments runs the
same recurrences on Python floats, column by column, to the same doubles.
A ``BesselLadder`` is a view of one column, read in ScaledComplex form.
Derivative combinations J_n = j_n + t j_n' and H_n = h_n + t h_n' come
from the exact recurrence f_n' = f_{n-1} - (n+1)/t f_n, i.e.
J_n = t j_{n-1} - n j_n.

A table holds the j and y rows alone, read-only.  ``combine`` and
``combine_riccati`` form a j_n + b h_n and a J_n + b H_n, for log-form
coefficients a, b, from products of the coefficients with those rows, h
being j + i y.  Besides the kernel there is only ``small_arg_leading``
(the leading forms for n >> t); a ladder reads the values at one argument,
``bessel_ladder(n, t).jn(n)``, and ``.to_complex()`` gives a plain double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError
from .scaled import ScaledArray, ScaledComplex

N_CAP = 200
T_CAP = 1e4  # the Miller start order grows as 2 t, so a table takes O(t) steps

_RESCALE_LOG = 500.0  # rescale working pair when log magnitude exceeds this
# below this |lead| its log cannot pass _RESCALE_LOG, so no rescale is due
_LEAD_CHECK = math.exp(_RESCALE_LOG - 1.0)
# a table of at most this many arguments runs its recurrences on Python
# floats, column by column: measured 0.45-0.84x the array loop's time at 6
# columns for every n_max up to N_CAP, and slower from 10-12 columns at
# small n_max and t, where a column takes few steps
_FLOAT_COLUMNS = 6
_SQRT_PI = math.sqrt(math.pi)
_LN2 = math.log(2.0)
# a sum of up to eight products below exp(_LOG_SUM_MAX) stays a double
_LOG_SUM_MAX = math.log(np.finfo(float).max / 8)


def _require_args(n: int, t) -> None:
    # a NaN fails both comparisons, since min and max propagate it
    if not (t.min(initial=1.0) > 0.0 and t.max(initial=1.0) < np.inf):
        bad = t[~((t > 0.0) & np.isfinite(t))]
        raise DomainError(
            f"argument must be positive and finite, got t={float(bad[0])}")
    if n < 0:
        raise DomainError(f"order must be >= 0, got n={n}")
    if n > N_CAP:
        raise CapabilityError(f"order n={n} exceeds supported cap {N_CAP}")
    t_max = float(t.max(initial=0.0))
    if t_max > T_CAP:
        raise CapabilityError(f"argument t={t_max} exceeds supported cap {T_CAP:g}")


def miller_start_order(n, t):
    """Start orders for the downward j-recurrence: n + max(15, ceil(2 t) + 10),
    one per argument of the array t, for a top order n or one per argument.

    Without the 10 extra orders a start at 2 t is too low for t of about 3
    to 12: at n = 0, t = 7 the j_0 row comes out about 6e-12 off.
    """
    return n + np.maximum(15, np.ceil(2.0 * t) + 10).astype(np.int64)


def combine(a, b, tab, n):
    """a j_n + b h_n at the arguments of the BesselTable tab, as a plain
    complex array, for ScaledComplex or ScaledArray coefficients a, b and
    an order n or an array of orders (rows of shape (len(n), len(t))).

    As h = j + i y, the value is a j + b j + i b y, each product
    exponentiated on its own from the sum of its logs: a product inside
    double range is finite however large its factors, and a zero
    coefficient adds an exact 0."""
    k = n + 1
    j_log, j_sign = tab.j_log[k], tab.j_sign[k]
    with np.errstate(over="ignore"):
        aj, bj = np.exp(a.log_mag + j_log), np.exp(b.log_mag + j_log)
        by = np.exp(b.log_mag + tab.y_log[k])
    aj *= j_sign  # signs on the real products, then each phase once
    bj *= j_sign
    by *= tab.y_sign[k]
    value = aj * a.phase
    value += bj * b.phase
    value += by * (1j * b.phase)
    return value


def combine_riccati(a, b, tab, n):
    """a J_n + b H_n, as ``combine``: J_n = t j_{n-1} - n j_n and H_n alike,
    so it is t times ``combine`` at order n - 1 less n times it at n.  An
    entry whose finite products (times t or n) would pass exp(_LOG_SUM_MAX),
    as t j_{n-1} can next to a zero of J_n, forms them 2^-s times their size
    and is scaled back by 2^s, exactly; elsewhere s = 0 and no bit changes."""
    n_col = np.expand_dims(n, -1)
    rows = ((a, tab.j_log), (b, np.maximum(tab.j_log, tab.y_log)))
    with np.errstate(invalid="ignore"):  # a zero (-inf) against an inf row
        peak = np.maximum.reduce([
            c.log_mag + row[k] + np.log(np.maximum(factor, 1.0))
            for k, factor in ((n, tab.t), (n + 1, n_col)) for c, row in rows])
    s = np.where((peak > _LOG_SUM_MAX) & (peak < np.inf),
                 np.ceil((peak - _LOG_SUM_MAX) / _LN2), 0.0)
    a, b = (ScaledArray(c.log_mag - s * _LN2, c.phase) for c in (a, b))
    value = tab.t * combine(a, b, tab, n - 1) - n_col * combine(a, b, tab, n)
    value.real, value.imag = (np.ldexp(part, s.astype(int))
                              for part in (value.real, value.imag))
    return value


@dataclass(frozen=True)
class BesselTable:
    """j_n, y_n for orders -1..n_max at an array of arguments t.

    Row n + 1 of the (n_max + 2, len(t)) arrays holds order n; row 0 holds
    order -1, cos(t)/t and sin(t)/t, used by the derivative combinations.
    ``*_log`` are natural logs of the magnitudes (-inf for an exact zero),
    ``*_sign`` are +1, -1 or 0.  ``combine`` and ``combine_riccati`` form
    h_n, J_n and H_n from the j and y rows.
    """

    n_max: int
    t: np.ndarray
    j_log: np.ndarray
    j_sign: np.ndarray
    y_log: np.ndarray
    y_sign: np.ndarray

    def column(self, i: int) -> "BesselLadder":
        """The ladder at argument t[i]: a view of column i of this table."""
        return BesselLadder(self, i)


class _Rescaler:
    """On-the-fly rescaling of a three-term recurrence, column by column.

    A column whose lead value passes log|lead| > _RESCALE_LOG has its
    working pair divided by |lead| and the log added to its shift; other
    columns are divided by 1 and shifted by 0, so they stay bit for bit what
    they were.  One step of f_lo = c/t f - f_hi grows the working pair by at
    most c/min(t) + 1, so the magnitudes are looked at only once that bound
    could have reached the threshold.
    """

    def __init__(self, t_min, size, bound):
        self.t_min = t_min
        self.shift = np.zeros(size)
        self.bound = bound

    @staticmethod
    def log_peak(pair):
        """An upper bound on log max |x| over the pair, at least 0."""
        return math.log(max(float(np.abs(x).max(initial=1.0)) for x in pair))

    def step(self, c, lead, follower):
        """Rescale (lead, follower) after a step with coefficient c."""
        self.bound += math.log(c / self.t_min + 1.0)
        if self.bound <= _RESCALE_LOG - 1.0:  # margin for rounding
            return lead, follower
        with np.errstate(divide="ignore"):
            log_mag = np.log(np.abs(lead))
        big = log_mag > _RESCALE_LOG
        if big.any():
            scale = np.where(big, np.abs(lead), 1.0)
            lead, follower = lead / scale, follower / scale
            self.shift = self.shift + np.where(big, log_mag, 0.0)
        self.bound = self.log_peak((lead, follower))
        return lead, follower


def _float_recurrences(n_max: int, rows: int, t: float, start: int,
                       y0: float, y1: float):
    """The raw j rows 0..rows - 1, their shifts, the raw y rows 2..n_max + 1
    and their shifts at one argument t, in one list; None if a value is not
    finite.

    The same steps as the array loop of ``bessel_table`` on Python floats:
    ``+ - * /`` round as numpy's do, and a pair is rescaled at the step its
    lead's np.log magnitude passes _RESCALE_LOG, which is the step the array
    loop rescales that column, so the doubles are the same.  A value that
    is not finite stays so to the last step (inf is rescaled to NaN).
    """
    raw, raw_shift = [0.0] * rows, [0.0] * rows
    f_hi, f, shift = 0.0, 1.0, 0.0
    for k in range(start, 0, -1):
        if k < rows:
            raw[k], raw_shift[k] = f, shift
        f, f_hi = (2 * k + 1) / t * f - f_hi, f
        if abs(f) > _LEAD_CHECK:
            f, f_hi, shift = _float_rescale(f, f_hi, shift)
    raw[0], raw_shift[0] = f, shift

    y_up, y_shift = [y1][:n_max], [0.0][:n_max]
    g_lo, g, shift = y0, y1, 0.0
    for k in range(1, n_max):
        g, g_lo = (2 * k + 1) / t * g - g_lo, g
        if abs(g) > _LEAD_CHECK:
            g, g_lo, shift = _float_rescale(g, g_lo, shift)
        y_up.append(g)
        y_shift.append(shift)
    if not math.isfinite(f + g):
        return None
    return raw + raw_shift + y_up + y_shift


def _float_rescale(lead, follower, shift):
    """``_Rescaler.step`` for one column once |lead| is near the threshold;
    the log is numpy's, as in the array loop."""
    log_mag = float(np.log(abs(lead)))
    if log_mag <= _RESCALE_LOG:
        return lead, follower, shift
    scale = abs(lead)
    return lead / scale, follower / scale, shift + log_mag


def _array_recurrences(n_max: int, rows: int, t, start, y0, y1):
    """The raw j rows 0..rows - 1 and y rows 2..n_max + 1 of every argument,
    each with its shifts, as (rows, len(t)) and (n_max, len(t)) arrays."""
    t_min = float(t.min(initial=np.inf))
    # downward Miller recurrence for j; a column whose start order lies
    # below k waits at its starting pair (f_k, f_{k+1}) = (1, 0)
    k_top = int(start.max(initial=n_max))
    k_all = int(start.min(initial=k_top))  # every column is live below
    raw = np.empty((rows, t.size))
    raw_shift = np.empty((rows, t.size))
    f_hi, f = np.zeros(t.size), np.ones(t.size)
    scaler = _Rescaler(t_min, t.size, 0.0)  # log max |x| of the pair (1, 0)
    for k in range(k_top, 0, -1):
        if k < rows:
            raw[k], raw_shift[k] = f, scaler.shift
        c = float(2 * k + 1)
        f_lo = c / t * f - f_hi
        if k > k_all:
            live = start >= k
            f_hi, f = np.where(live, f, f_hi), np.where(live, f_lo, f)
        else:
            f_hi, f = f, f_lo
        f, f_hi = scaler.step(c, f, f_hi)
    raw[0], raw_shift[0] = f, scaler.shift

    # upward recurrence for y, rescaled (grows with order for t < n)
    y_up = np.empty((n_max, t.size))
    y_shift = np.zeros((n_max, t.size))
    if n_max >= 1:
        y_up[0] = y1
    g_lo, g = y0, y1
    if n_max >= 2:  # the loop below runs
        scaler = _Rescaler(t_min, t.size, _Rescaler.log_peak((g, g_lo)))
    for k in range(1, n_max):
        c = float(2 * k + 1)
        g, g_lo = scaler.step(c, c / t * g - g_lo, g)
        y_up[k], y_shift[k] = g, scaler.shift
    return raw, raw_shift, y_up, y_shift


def bessel_table(n_max, t) -> BesselTable:
    """The scaled j/y ladder for orders 0..n_max at every argument t > 0.

    ``t`` is a 1-D array (or sequence) of arguments, and ``n_max`` one top
    order or one per argument.  Every column runs the recurrences of one
    argument, with the Miller start of its own top order and its own
    rescaling: its rows up to its order are those of a table of that order
    alone, bit for bit, and its j rows above it are NaN.  A table of at
    most _FLOAT_COLUMNS arguments runs the recurrences column by column on
    Python floats, a wider one (or one with a value out of double range)
    as array steps over all columns; both give the same doubles.  The
    table's arrays, its own copy of t among them, are read-only.
    """
    t = np.array(t, dtype=float)
    if t.ndim != 1:
        raise DomainError(f"arguments must form a 1-D array, got shape {t.shape}")
    orders = n_max
    per_column = not isinstance(n_max, (int, np.integer))
    if per_column:
        orders = np.array(n_max, dtype=int)
        if orders.shape != t.shape:
            raise DomainError(f"{orders.size} orders for {t.size} arguments")
        n_max = int(orders.max(initial=0))
    _require_args(n_max, t)
    sin_t, cos_t, t2 = np.sin(t), np.cos(t), t**2
    sin_over_t, cos_over_t = sin_t / t, cos_t / t
    j0, j1 = sin_over_t, sin_t / t2 - cos_over_t
    y0, y1 = -cos_over_t, -cos_t / t2 - sin_over_t

    start = miller_start_order(orders, t)
    rows = max(n_max, 1) + 1  # order 1 is kept for the normalisation
    columns = None
    if 0 < t.size <= _FLOAT_COLUMNS:
        columns = [_float_recurrences(n_max, rows, *args) for args in
                   zip(t.tolist(), start.tolist(), y0.tolist(), y1.tolist())]
    if columns is None or None in columns:
        raw, raw_shift, y_up, y_up_shift = _array_recurrences(
            n_max, rows, t, start, y0, y1)
    else:
        stacked = np.array(columns).T.copy()  # C order, as the array loop's
        y_at = 2 * rows
        raw, raw_shift = stacked[:rows], stacked[rows:y_at]
        y_up, y_up_shift = stacked[y_at:y_at + n_max], stacked[y_at + n_max:]

    # normalise at order 0 or 1, whichever closed form is larger (one of
    # sin t, cos t may vanish)
    use0 = np.abs(j0) >= np.abs(j1)
    ref_raw = np.where(use0, raw[0], raw[1])
    ref_val = np.where(use0, j0, j1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ref = np.log(np.abs(ref_raw)) + np.where(use0, raw_shift[0],
                                                     raw_shift[1])
        log_val = np.log(np.abs(ref_val))
        sgn_ref = np.copysign(1.0, ref_raw) * np.copysign(1.0, ref_val)
        j_raw = raw[:n_max + 1]
        j_log = np.empty((n_max + 2, t.size))
        j_log[0] = np.log(np.abs(cos_over_t))
        j_log[1:] = (np.log(np.abs(j_raw)) + raw_shift[:n_max + 1] - log_ref
                     + log_val)
        j_sign = np.empty_like(j_log)
        j_sign[0] = np.sign(cos_over_t)
        j_sign[1:] = np.sign(j_raw) * sgn_ref
    j_sign[j_log == -np.inf] = 0.0
    if per_column:
        above = np.arange(-1, n_max + 1)[:, None] > orders
        j_log[above] = j_sign[above] = np.nan

    y_raw = np.empty((n_max + 2, t.size))
    y_shift = np.zeros((n_max + 2, t.size))
    y_raw[0], y_raw[1], y_raw[2:] = sin_over_t, y0, y_up
    y_shift[2:] = y_up_shift
    with np.errstate(divide="ignore"):
        y_log = np.log(np.abs(y_raw)) + y_shift
    y_sign = np.sign(y_raw)

    for part in (t, j_log, j_sign, y_log, y_sign):
        part.setflags(write=False)
    return BesselTable(n_max=n_max, t=t, j_log=j_log, j_sign=j_sign,
                       y_log=y_log, y_sign=y_sign)


@dataclass(frozen=True, eq=False, slots=True)
class BesselLadder:
    """Column i of a BesselTable: j_n, y_n at one argument t for orders
    -1..n_max, each read as a ScaledComplex (phase +/-1) when asked for.
    Views compare by identity."""

    table: BesselTable
    i: int

    @property
    def t(self) -> float:
        return self.table.t.item(self.i)

    def jn(self, n: int) -> ScaledComplex:
        tab = self.table
        return ScaledComplex.from_log(tab.j_log.item(n + 1, self.i),
                                      tab.j_sign.item(n + 1, self.i))

    def yn(self, n: int) -> ScaledComplex:
        tab = self.table
        return ScaledComplex.from_log(tab.y_log.item(n + 1, self.i),
                                      tab.y_sign.item(n + 1, self.i))

    def hn(self, n: int) -> ScaledComplex:
        return self.jn(n) + self.yn(n) * 1j

    def riccati_j(self, n: int) -> ScaledComplex:
        # J_n = j_n + t j_n' = t j_{n-1} - n j_n
        return self.jn(n - 1) * self.t - self.jn(n) * n

    def riccati_h(self, n: int) -> ScaledComplex:
        return self.hn(n - 1) * self.t - self.hn(n) * n


def bessel_ladder(n_max: int, t: float) -> BesselLadder:
    """The scaled j/y ladder for orders 0..n_max at one argument t > 0."""
    return bessel_table(n_max, [t]).column(0)


def small_arg_leading(n: int, t: float):
    """Leading small-argument forms of j_n, h_n, J_n, H_n, all ScaledComplex.

    Valid in the regime n >> t (caller's responsibility):
        j_n ~ sqrt(pi)/(2 Gamma(n+3/2)) (t/2)^n
        h_n ~ -i Gamma(n+1/2)/(2 sqrt(pi)) (2/t)^(n+1)
        J_n ~ (n+1) * j_n leading form
        H_n ~ +i n Gamma(n+1/2)/(2 sqrt(pi)) (2/t)^(n+1)
    """
    if n < 1:
        raise DomainError(f"leading forms require n >= 1, got {n}")
    if t <= 0:
        raise DomainError(f"argument must be positive, got t={t}")
    log_half_t = math.log(t / 2.0)
    lj = 0.5 * math.log(math.pi) - math.log(2.0) - math.lgamma(n + 1.5) + n * log_half_t
    lh = math.lgamma(n + 0.5) - math.log(2.0 * _SQRT_PI) - (n + 1) * log_half_t
    j_lead = ScaledComplex.from_log(lj, 1.0)
    h_lead = ScaledComplex.from_log(lh, -1j)
    jj_lead = ScaledComplex.from_log(lj + math.log(n + 1.0), 1.0)
    hh_lead = ScaledComplex.from_log(lh + math.log(n), 1j)
    return j_lead, h_lead, jj_lead, hh_lead
