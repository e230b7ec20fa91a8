"""Composite Gauss-Legendre quadrature with doubling refinement.

One driver, ``integrate_array``, evaluates every node of every panel of a
pass with one call of a vectorised integrand, which may return several
rows that refine together; ``integrate_panels`` adapts a scalar integrand
to it.  The nodes and flat panel weights of a call are
planned once per breakpoints and levels and kept in a bounded memo, so the
node array an integrand receives is shared and read-only; the stopping
rule, and what ``tol`` means, do not depend on the memo.  A panel's rule
doubles from ``BASE_POINTS`` to ``MAX_POINTS``, read at each call.  An
integrand concentrated like r**-(n+1) near an inner radius is flattened
onto unit panels in u by the substitution r = r_lo * exp(u).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError

BASE_POINTS = 16  # Gauss-Legendre points per panel at the first level
MAX_POINTS = 1024  # refinement cap per panel; exceeded -> AccuracyError
ADAPTIVE_PANELS = 4  # equal panels of ``integrate_adaptive``


@lru_cache(maxsize=64)
def gauss_legendre(npts: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    The nodes come from Newton's method on P_npts, started at
    cos(pi (k - 1/4) / (npts + 1/2)) for the nodes in [0, 1) and mirrored,
    so the rule is exactly symmetric.  The weights are the Christoffel
    numbers 2 / sum_k (2k+1) P_k(x)^2, k < npts, which a rounding error in
    a node barely moves.  No eigenvalue solve, so no LAPACK.
    """
    x = np.cos(np.pi * (np.arange(1, (npts + 1) // 2 + 1) - 0.25)
               / (npts + 0.5))
    for _ in range(20):  # converges in about five steps
        p, p_lo = _legendre_pair(npts, x)
        step = p * (1.0 - x) * (1.0 + x) / (npts * (p_lo - x * p))
        x = x - step
        if not np.max(np.abs(step)) > 1e-16:
            break
    if npts % 2:
        x[-1] = 0.0
    w = 2.0 / _legendre(npts, x)[2]
    if npts % 2:  # the middle node is not mirrored
        return (np.concatenate([-x, x[-2::-1]]),
                np.concatenate([w, w[-2::-1]]))
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


def _legendre_pair(n, x):
    """P_n(x) and P_{n-1}(x), by recurrence: all that a Newton step reads."""
    p_lo, p = np.ones_like(x), x
    for k in range(1, n):
        p_lo, p = p, ((2 * k + 1) * x * p - k * p_lo) / (k + 1)
    return p, p_lo


def _legendre(n, x):
    """P_n(x), P_{n-1}(x) and sum_{k<n} (2k+1) P_k(x)^2, by recurrence."""
    p_lo, p = np.ones_like(x), x
    total = np.ones_like(x)
    for k in range(1, n):
        total = total + (2 * k + 1) * p * p
        p_lo, p = p, ((2 * k + 1) * x * p - k * p_lo) / (k + 1)
    return p, p_lo, total


@lru_cache(maxsize=64)
def _plan(edges: tuple, levels: tuple):
    """The nodes of the given Gauss-Legendre levels on every panel of
    edges, concatenated level after level and read-only, with one
    (slice, flat weights) pair per level: the estimate of a level is the
    dot product of its slice of the values with its weights."""
    e = np.array(edges, dtype=float)
    mid = (0.5 * (e[:-1] + e[1:]))[:, None]
    half = 0.5 * (e[1:] - e[:-1])
    nodes, weights, start = [], [], 0
    for npts in levels:
        t, w = gauss_legendre(npts)
        x = (mid + half[:, None] * t).ravel()
        weights.append((slice(start, start + x.size),
                        (half[:, None] * w).ravel()))
        nodes.append(x)
        start += x.size
    nodes = np.concatenate(nodes)
    nodes.flags.writeable = False
    return nodes, tuple(weights)


def integrate_array(f, breakpoints, tol=1e-9):
    """Integrate f over consecutive panels, doubling points until converged.

    Args:
        f: callable mapping a 1-D float array of nodes to an array of the
            same length of complex (or float) values, each from its node
            alone, or to a (k, N) array of k such rows.  The first call
            takes the nodes of the ``BASE_POINTS``
            and 2 * ``BASE_POINTS`` rules of every panel (every integral
            needs both levels), each later pass the nodes of the doubled
            rule.  The node array is read-only and shared by every integral
            over the same breakpoints: f must not write into it.
        breakpoints: increasing panel edges.
        tol: stop when successive estimates differ by < tol * max(1, |I|),
            in every row; a number >= 0, else DomainError before f is
            called.  Past ``MAX_POINTS`` points a panel raises
            AccuracyError.

    Returns:
        The converged integral value as a complex, or for a (k, N) f an
        array of the k rows' values.  Both shapes take one arithmetic
        path: a 1-D f is read as one row, and a level's estimates are
        ``values[:, slice] @ weights``.

    The nodes and panel weights of each call are built once per
    breakpoints and levels and kept in a memo of at most 64 plans; the
    stopping rule, and so what tol means, is the same with a warm memo as
    with a cold one.
    """
    if not tol >= 0:  # a NaN fails this too
        raise DomainError(f"tol must be a number >= 0, got {tol}")
    edges = tuple(map(float, breakpoints))
    if len(edges) < 2:
        return 0j

    def estimates(values, weights):
        """Per level, the list of the rows' estimates (one for a 1-D f)."""
        values = values.reshape(-1, values.shape[-1])
        return [(values[:, sl] @ hw).tolist() for sl, hw in weights]

    npts = BASE_POINTS * 2
    nodes, weights = _plan(edges, (BASE_POINTS, npts))
    first = np.asarray(f(nodes))
    value = np.array if first.ndim > 1 else (lambda rows: complex(rows[0]))
    prev, curr = estimates(first, weights)
    while any(abs(c - p) > tol * max(1.0, abs(c)) for c, p in zip(curr, prev)):
        npts *= 2
        if npts > MAX_POINTS:
            raise AccuracyError(
                f"quadrature did not converge to tol={tol:g} within "
                f"{MAX_POINTS} points/panel", estimate=value(curr),
                achieved=max(abs(c - p) for c, p in zip(curr, prev)))
        nodes, weights = _plan(edges, (npts,))
        prev, (curr,) = curr, estimates(np.asarray(f(nodes)), weights)
    return value(curr)


def integrate_panels(f, breakpoints, tol=1e-9):
    """``integrate_array`` for a callable f mapping a float to a complex
    (or float) value; f is called once per node."""
    return integrate_array(
        lambda x: np.array([f(v) for v in x.tolist()]), breakpoints, tol)


def log_panel_edges(r_lo: float, r_hi: float):
    """Panel edges in u for r = r_lo * exp(u), one panel per unit of u."""
    u_hi = math.log(r_hi / r_lo)
    n_panels = max(1, math.ceil(u_hi))
    return [u_hi * i / n_panels for i in range(n_panels + 1)]


def integrate_boundary_layer(f, r_lo, r_hi, tol=1e-9):
    """Integral of f(r) dr on [r_lo, r_hi] resolved near r_lo.

    f maps an array of radii to an array of values, as in
    ``integrate_array``.  Substitutes r = r_lo * exp(u) so an r**-(n+1)
    concentration becomes an O(1) smooth decay in u.
    """
    edges = log_panel_edges(r_lo, r_hi)

    def g(u):
        r = r_lo * np.exp(u)
        return f(r) * r

    return integrate_array(g, edges, tol=tol)


def integrate_adaptive(f, a, b, tol=1e-9):
    """Integral of a smooth f on [a, b] over ``ADAPTIVE_PANELS`` panels.

    f maps an array of points to an array of values, as in
    ``integrate_array``.
    """
    step = (b - a) / ADAPTIVE_PANELS
    edges = [a + i * step for i in range(ADAPTIVE_PANELS)] + [b]
    return integrate_array(f, edges, tol=tol)


def fit_power_law(xs, ys):
    """Fitted slope of log|y| against log(x); ignores zero entries."""
    lx = [math.log(x) for x, y in zip(xs, ys) if abs(y) > 0]
    ly = [math.log(abs(y)) for y in ys if abs(y) > 0]
    if len(lx) < 2:
        raise ValueError("need at least two nonzero samples for a slope fit")
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)
