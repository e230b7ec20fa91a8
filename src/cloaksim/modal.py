"""Per-mode transfer coefficients and the interface transmission solve.

For each multipole degree n the tangential matching across the coated-ball
interface couples the exterior coefficients (gamma, eta, c, d) to the
interior ones (alpha, beta) and the source data (p, q).  The solve splits
into two independent 2x2 chains per polarisation; every product is kept in
log-magnitude form so degrees up to 60 at inner radii down to 1e-6 stay
finite.  It is one pass over arrays for all the degrees of a solution
(``transfer_coeffs``) and one for all its modes (``SolvedModes.columns``);
a mode's coefficients do not depend on the others solved with it.

Closed-form limits of the solve as the inner radius shrinks (beta0, the
leading d coefficient, and the interface-layer strength sigma) live here
too, next to the finite-radius machinery they describe, and so do the
``RegionChains`` through which fields, pairings, traces and energy read the
layer, the hidden region and the limit.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np

from . import specfun
from .errors import CapabilityError, DomainError, ResonanceError
from .geometry import CloakParams
from .harmonics import ModeFactors
from .scaled import ScaledArray, ScaledComplex

# a denominator whose magnitude falls below this fraction of its largest
# term is treated as resonant (frequency inadmissible)
DENOM_FLOOR = 1e-12
# floor on the interior margin of the limit formulas (``_check_interior``)
INTERIOR_FLOOR = 1e-10
TRUNCATION_TOL = 1e-12  # bound on the series tail ``solve_source`` drops
# the factors of f1 and f2 in the exterior-boundary rows
_BOUNDARY = ScaledArray(np.log([[1.0], [2.0]]), np.ones((2, 1)))
# the margins ``transfer_coeffs`` checks, in the order a degree is checked
_MARGINS = ("dn", "dnp", "t1*h_n(2w) + j_n(2w)", "t3*H_n(2w) + J_n(2w)")


@dataclass(frozen=True)
class TransferSet:
    """Interface transfer ratios of degrees n (log-magnitude form).

    Each field is a (2, degrees) ScaledArray: the chain driven by (gamma,
    p), then the one driven by (eta, q).  t13 = (t1, t3), t24 = (t2, t4),
    t13p and t24p give (c, d) and (alpha, beta) from (gamma, eta) and
    (p, q); outer holds h_n, H_n at 2 omega, den the exterior-boundary
    denominators of gamma and eta, and det = (dn, dnp) the determinants the
    ratios share.  All but det are what every order m of a degree reads.
    """

    t13: ScaledArray
    t24: ScaledArray
    t13p: ScaledArray
    t24p: ScaledArray
    outer: ScaledArray
    den: ScaledArray
    det: ScaledArray


@dataclass(frozen=True, slots=True)
class ModeCoeffs:
    """Solved field coefficients of one mode, kept in log-magnitude form."""

    gamma: ScaledComplex
    eta: ScaledComplex
    c: ScaledComplex
    d: ScaledComplex
    alpha: ScaledComplex
    beta: ScaledComplex


def check_mode(n: int, m: int, where: str) -> None:
    """DomainError naming where for a mode outside n >= 1, |m| <= n."""
    if n < 1 or abs(m) > n:
        raise DomainError(f"invalid mode ({n},{m}) in {where}")


def _check_table(entries: dict, kind: str) -> None:
    """DomainError for a mode outside n >= 1, |m| <= n or non-finite data."""
    for (n, m), values in entries.items():
        check_mode(n, m, f"{kind} table")
        if not all(cmath.isfinite(v) for v in values):
            raise DomainError(f"non-finite data at ({n},{m}) in {kind} table")


@dataclass(frozen=True)
class SourceCoeffs:
    """Multipole table of the interior radiating source.

    entries maps (n, m) -> (p, q); r1 is the declared support radius of the
    generating current.
    """

    entries: dict
    r1: float

    def __post_init__(self):
        _check_table(self.entries, "source")
        if not 0.0 < self.r1 < 1.0:
            raise DomainError(f"r1 must be in (0,1), got {self.r1}")

    def modes(self):
        return sorted(self.entries)


@dataclass(frozen=True)
class BoundaryCoeffs:
    """Tangential boundary data table: (n, m) -> (f1, f2)."""

    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_table(self.entries, "boundary")

    def max_degree(self) -> int:
        return max((n for n, _ in self.entries), default=0)


class SolvedModes(Mapping):
    """The solved modes of a solution: (n, m) -> ModeCoeffs, read-only, in
    ascending key order.

    Every mode of a degree reads the same twelve values of its
    ``TransferSet``, so a solution keeps those, 36 doubles a degree in one
    array (``_packed``), and solves modes on access from them and their
    source and boundary data in one array pass (``columns``), which
    ``solve_mode`` runs over one mode: the coefficients are bit for bit
    ``solve_mode``'s.  The solved keys are fixed at construction and the
    source and boundary data are read at access, so the tables must not
    change after the solve.
    """

    __slots__ = ("_source", "_boundary", "_degrees", "_ratios", "_keys")

    def __init__(self, source: dict, boundary: dict, degrees: tuple,
                 ratios: np.ndarray):
        self._source, self._boundary = source, boundary
        self._degrees, self._ratios = degrees, ratios
        solved = set(degrees)
        # ascending, as a dict: ordered and a set at once
        self._keys = dict.fromkeys(sorted(
            key for key in source.keys() | boundary.keys()
            if key[0] in solved))

    def __contains__(self, key):
        return key in self._keys

    def __getitem__(self, key):
        if key not in self:
            raise KeyError(key)
        return ModeCoeffs(*(pair[i][0] for pair in self.columns([key])[:3]
                            for i in (0, 1)))

    def columns(self, keys) -> tuple:
        """(gamma, eta), (c, d), (alpha, beta) and the source data (p, q)
        of the given solved keys, four (2, keys) ScaledArrays: one pass over
        the modes, reading the ratios of their degrees."""
        at = {n: i for i, n in enumerate(self._degrees)}
        packed = self._ratios[:, :, [at[n] for n, _ in keys]]
        ratios = ScaledArray(packed[..., 0], np.ascontiguousarray(
            packed[..., 1:]).view(complex)[..., 0])
        data = [ScaledArray.from_complex(np.array(
            [table.get(key, (0j, 0j)) for key in keys],
            dtype=complex).reshape(-1, 2).T)
            for table in (self._source, self._boundary)]
        return (*_mode_coefficients(ratios, *data), data[0])

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)

    def __repr__(self):
        return f"SolvedModes({dict(self)!r})"


@dataclass(frozen=True, slots=True)
class ModalSolution:
    """The solved modes of one parameter set and their data: what
    ``solve_source`` returns."""

    params: CloakParams
    source: SourceCoeffs
    boundary: BoundaryCoeffs
    modes: SolvedModes  # (n, m) -> ModeCoeffs
    n_max: int


def _ladder_values(n: int, lad):
    """j_n, h_n, J_n, H_n of a BesselLadder."""
    return lad.jn(n), lad.hn(n), lad.riccati_j(n), lad.riccati_h(n)


def _interface_values(degrees: np.ndarray, params: CloakParams):
    """j_n, h_n, J_n and H_n of each degree at omega rho, k omega and
    2 omega, one ScaledArray [(j, h) or (J, H), j or h, argument, degree],
    from one table whose columns of a degree start its Miller recurrence as
    a table of that degree alone would: a degree's values do not depend on
    the others solved with it."""
    om = params.omega
    orders = np.concatenate([degrees] * 3)
    tab = specfun.bessel_table(orders, np.repeat(
        [om * params.rho, params.k * om, 2.0 * om], len(degrees)))
    rows, cols = np.stack([orders + 1, orders]), np.arange(orders.size)
    j = ScaledArray(tab.j_log[rows, cols], tab.j_sign[rows, cols])
    h = j + ScaledArray(tab.y_log[rows, cols], 1j * tab.y_sign[rows, cols])
    # J_n = t j_{n-1} - n j_n and H_n alike, from the rows of n and n - 1
    log_t, log_n = np.log(tab.t), np.log(orders)
    values = (j[0], h[0], *(ScaledArray(f.log_mag[1] + log_t, f.phase[1])
                             - ScaledArray(f.log_mag[0] + log_n, f.phase[0])
                             for f in (j, h)))
    return ScaledArray(*(np.reshape([getattr(v, part) for v in values],
                                    (2, 2, 3, -1))
                         for part in ("log_mag", "phase")))


def _cancelled(den, a, b) -> np.ndarray:
    """Where den = a + b is zero or below DENOM_FLOOR of its larger term."""
    return (den.log_mag == -np.inf) | (
        den.log_mag < np.maximum(a.log_mag, b.log_mag) + math.log(DENOM_FLOOR))


def _check_interior(n: int, lad) -> float:
    """j_n(t) as a double, from the ladder ``lad`` at t = k omega, once the
    scale-free margin |t j_n(t) h_n(t)| has passed INTERIOR_FLOOR (else
    ResonanceError): about 1/(2n + 1) for small t, |sin(t - n pi/2)| for
    large t, and next to a zero of j_n the distance to it relative to t."""
    jk = lad.jn(n)
    margin = jk * lad.hn(n) * lad.t
    if margin.log_mag < math.log(INTERIOR_FLOOR):
        raise ResonanceError(n, "t j_n(t) h_n(t) at t = k omega",
                             margin.magnitude())
    # j_n underflowed to 0 gives NaN limit values, which _require_finite
    # rejects as it rejects an overflow
    return jk.to_complex().real or math.nan


def _require_finite(n: int, *values) -> tuple:
    """values, limit values of degree n, after CapabilityError for one that
    is not a finite double."""
    if not all(map(cmath.isfinite, values)):
        raise CapabilityError(f"mode n={n}: limit value beyond double range")
    return values


def transfer_coeffs(degrees, params: CloakParams) -> TransferSet:
    """Transfer ratios of every degree of a sequence, in one pass over
    arrays, for the given scenario.

    Raises:
        ResonanceError: for the lowest degree whose 2x2 determinant or
            exterior-boundary denominator is annihilated by cancellation
            (inadmissible frequency), naming its first such margin in the
            order of ``_MARGINS``; before any division by a zero.
    """
    degrees = np.array(degrees, dtype=int)
    if degrees.min(initial=1) < 1:
        raise DomainError(f"degree must be >= 1, got {degrees.min()}")
    rho, k = params.rho, params.k
    se, sm = params.eps0 ** -0.5, params.mu0 ** -0.5
    f = _interface_values(degrees, params)
    (jr, hr), (jjr, hhr) = f[..., 0, :]  # at omega rho
    (jk, hk), (jjk, hhk) = f[..., 1, :]  # at k omega
    # the chain driven by (gamma, p) and the one driven by (eta, q) are the
    # two rows of each array below: the second is the first with eps0 and
    # mu0 exchanged, and dn, t1, t2, t1p, t2p become dnp, t3, t4, t3p, t4p
    c = np.log([[sm * rho, se * k, k * rho, k], [se * rho, sm * k, rho, 1.0]])
    u, v, w, k_1 = (ScaledArray(c[:, i:i + 1], np.ones((2, 1)))
                    for i in range(4))
    a, b = u * (hr * jjk), v * (hhr * jk)
    det = a - b  # (dn, dnp)
    failed = _cancelled(det, a, b)
    if failed.any():  # divided by 1, a failing degree raises below
        det = ScaledArray(np.where(failed, 0.0, det.log_mag),
                          np.where(failed, 1.0, det.phase))

    # cross-product identity: J_n h_n - H_n j_n = -i/t, reused by both
    # primed ratios; the 1/k on t1p balances the eps/mu weights of its chain
    cross_k = jjk * hk - hhk * jk
    t13 = (v * (jjr * jk) - u * (jr * jjk)) / det
    t24 = w * (jjr * hr - jr * hhr) / det
    t13p = cross_k / (k_1 * det)
    t24p = (v * (hk * hhr) - u * (hhk * hr)) / det
    outer_j, outer = f[:, 0, 2], f[:, 1, 2]  # (j_n, J_n), (h_n, H_n) at 2w
    th = t13 * outer
    den = th + outer_j
    failed = np.concatenate([failed, _cancelled(den, th, outer_j)])
    if failed.any():
        i = int(failed.any(axis=0).argmax())
        raise ResonanceError(int(degrees[i]),
                             _MARGINS[int(failed[:, i].argmax())])
    return TransferSet(t13, t24, t13p, t24p, outer, den, det)


def _packed(ts: TransferSet) -> np.ndarray:
    """Every field of ts but det as (log-magnitude, phase.real, phase.imag)
    doubles, one (6, 2, degrees, 3) array, from which
    ``SolvedModes.columns`` reads the same values back bit for bit."""
    values = (ts.t13, ts.t24, ts.t13p, ts.t24p, ts.outer, ts.den)
    phase = np.array([v.phase for v in values], dtype=complex)
    return np.stack([np.array([v.log_mag for v in values]), phase.real,
                     phase.imag], axis=-1)


def _mode_coefficients(ratios, x, f) -> tuple:
    """(gamma, eta), (c, d) and (alpha, beta) of modes with source data
    x = (p, q) and boundary data f = (f1, f2), (2, modes) ScaledArrays, from
    the ``TransferSet`` pairs of each mode's degree but det, (6, 2, modes):
    one pass over the modes."""
    t13, t24, t13p, t24p, outer, den = ratios
    g = (f * _BOUNDARY - x * t13p * outer) / den
    return g, t13 * g + t13p * x, t24 * g + t24p * x


def solve_mode(n: int, p, q, f1, f2, params: CloakParams) -> ModeCoeffs:
    """Solve one mode for source data (p, q) and boundary data (f1, f2).

    Returns the six field coefficients; m enters only through the data, so
    the same call serves every order of a given degree.  It is
    ``solve_source``'s pass over one mode.

    Raises:
        ResonanceError: interface determinant or exterior-boundary
            denominator below floor.
    """
    key = (n, 0)
    return SolvedModes({key: (p, q)}, {key: (f1, f2)}, (n,),
                       _packed(transfer_coeffs([n], params)))[key]


def system_residuals(n: int, p, q, f1, f2, params: CloakParams,
                     coeffs: ModeCoeffs) -> list:
    """Relative residuals of the six matching equations for one mode.

    Each residual is |lhs - rhs| over the largest single product of its
    equation (a coefficient times a radial value and its material factors),
    so a value near machine epsilon certifies the solve.  A side is not the
    scale: the right side of the last equation cancels by about 1/rho.
    """
    rho, k, om = params.rho, params.k, params.omega
    se = ScaledComplex.from_complex(params.eps0 ** -0.5)
    sm = ScaledComplex.from_complex(params.mu0 ** -0.5)
    tab = specfun.bessel_table(n, [om * rho, k * om, 2.0 * om])
    ((jr, hr, jjr, hhr), (jk, hk, jjk, hhk),
     (j2, h2, jj2, hh2)) = (_ladder_values(n, tab.column(i)) for i in range(3))
    g, e, c, d, al, be = (getattr(coeffs, f.name) for f in fields(coeffs))
    p_s, q_s = ScaledComplex.from_complex(p), ScaledComplex.from_complex(q)
    f1_s, f2_s = ScaledComplex.from_complex(f1), ScaledComplex.from_complex(f2)

    equations = [
        ([c * h2, g * j2], [f1_s]),
        ([d * hh2, e * jj2], [f2_s * 2.0]),
        ([c * hr * rho, g * jr * rho], [se * al * jk, se * p_s * hk]),
        ([d * hhr, e * jjr], [se * be * jjk, se * q_s * hhk]),
        ([c * hhr * k, g * jjr * k], [sm * al * jjk, sm * p_s * hhk]),
        ([d * hr * rho, e * jr * rho], [sm * k * be * jk, sm * k * q_s * hk]),
    ]
    out = []
    for lhs, rhs in equations:
        resid = lhs[0] + lhs[1] - sum(rhs[1:], rhs[0])
        scale = max(term.log_mag for term in lhs + rhs)
        if scale == float("-inf"):
            out.append(0.0 if resid.is_zero else math.inf)
        elif resid.is_zero:
            out.append(0.0)
        else:
            out.append(math.exp(min(resid.log_mag - scale, 700.0)))
    return out


# -- closed-form limits -------------------------------------------------------


@lru_cache(maxsize=specfun.N_CAP)
def _limit_ladder(n: int, kw: float):
    """The ladder of degree n at the interface argument kw = k omega, kept
    by value: every params object of that k omega, at any rho, reads it."""
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    return specfun.bessel_ladder(n, kw)


@lru_cache(maxsize=specfun.N_CAP)
def _unit_ratios(n: int, k: float, omega: float, mu0: float) -> tuple:
    """(r_n, sigma_n), ``limit_coeffs``'s beta0 and sigma at q = 1, from the
    ladder at k omega and kept by value; r_n = -h_n/j_n is a ScaledComplex,
    so beyond double range (from degree 86 at k omega = 1) it still gives
    finite chains.  A degree that raises keeps no ratios and raises again
    on every read: ResonanceError for k omega at a zero of j_n
    (``_check_interior``), CapabilityError for sigma_n beyond doubles."""
    lad = _limit_ladder(n, k * omega)
    sigma = -1j * math.sqrt(mu0) / (k ** 2 * omega * _check_interior(n, lad))
    return -lad.hn(n) / lad.jn(n), _require_finite(n, sigma)[0]


def limit_coeffs(n: int, q, params: CloakParams):
    """Vanishing-regularisation limits for the q-driven chain of degree n.

    Returns:
        (beta0, d_prefactor, sigma):
        beta0: limit of beta, equal to -h_n(k w)/j_n(k w) * q;
        d_prefactor: D with d ~ D * rho^(n+1) as rho -> 0;
        sigma: strength multiplying phi(1) in the interface-layer limit of
            the exterior normal pairing, -i mu0^(1/2) q / (k^2 w j_n(k w)).

    Raises:
        ResonanceError, CapabilityError: as ``_unit_ratios``, or beta0 or
            sigma outside double range.
    """
    q, k, om = complex(q), params.k, params.omega
    r_n, sigma_n = _unit_ratios(n, k, om, params.mu0)
    beta0, sigma = _require_finite(n, (r_n * q).to_complex(), sigma_n * q)
    jk, hk, jjk, hhk = _ladder_values(n, _limit_ladder(n, k * om))
    # 1/h_n(omega) in small-argument form, which underflows doubles for
    # large n: kept in log form, as the ratios downstream are O(1)
    pref = (1 / specfun.small_arg_leading(n, params.omega)[1]
            * (jjk * hk - hhk * jk) * math.sqrt(params.mu0) / (k * n)
            / jk.to_complex().real * q)
    return beta0, pref, sigma


def sigma_uncollapsed(n: int, q, params: CloakParams) -> complex:
    """Interface-layer strength evaluated without the cross-product shortcut.

    S_n^2 mu0^(1/2) [J_n h_n - H_n j_n](k w) / (k n(n+1) j_n(k w)) * q, kept
    as the raw combination; agrees with the collapsed sigma to rounding.
    """
    k, mu0 = params.k, params.mu0
    lad = _limit_ladder(n, k * params.omega)
    jk_c = _check_interior(n, lad)
    jk, hk, jjk, hhk = _ladder_values(n, lad)
    s2 = n * (n + 1)
    cross = (jjk * hk - hhk * jk).to_complex()
    sigma = s2 * math.sqrt(mu0) * cross / (k * n * (n + 1) * jk_c) * complex(q)
    return _require_finite(n, sigma)[0]


# -- region chains ------------------------------------------------------------


@dataclass(frozen=True)
class RegionChains:
    """The modes of one region as two transmission chains.

    Mode i (key ``keys[i]``) has chain A = a[0][i] f_n + a[1][i] g_n and
    chain B = b[0][i] f_n + b[1][i] g_n, (f, g) = (j, h) or (J, H) at
    wavenumber * r; E carries the factor e_weight, H h_weight.  Layer
    (virtual coordinates): A = (gamma, c), B = (eta, d), omega, 1, 1.
    Hidden: A = (alpha, p), B = (beta, q), k omega, eps0^-1/2, mu0^-1/2.
    Limit: as hidden with alpha0, beta0 and the interface-layer strength
    sigma per mode in ``surface``.  Coefficients are sequences over the
    modes whose items are ScaledComplex: ScaledArrays for a solution,
    lists for the limit's few modes a call.  ``expand`` reads them as
    ScaledArray columns, ``degree_form`` as each
    degree's peak and the modes' shifted values, which ``degree_rows`` and
    the Gram sums of ``squared_sums`` read, all kept on the chains with
    the modes' ``mode_factors``.
    """

    keys: list
    a: tuple
    b: tuple
    wavenumber: float
    e_weight: float = 1.0
    h_weight: float = 1.0
    surface: list | None = None

    @cached_property
    def key_array(self) -> np.ndarray:
        """The keys as a (K, 2) integer array."""
        return np.array(self.keys, dtype=int).reshape(-1, 2)

    @property
    def degrees(self) -> np.ndarray:
        return self.key_array[:, 0]

    @cached_property
    def _columns(self) -> list:
        """a[0], a[1], b[0] and b[1] as ScaledArrays."""
        return [c if c.__class__ is ScaledArray else ScaledArray(
            np.array([v.log_mag for v in c], dtype=float),
            np.array([v.phase for v in c], dtype=complex))
            for c in (*self.a, *self.b)]

    @cached_property
    def b_lists(self) -> list:
        """b[0] and b[1] as ScaledComplex lists, read a mode at a time."""
        return [c if c.__class__ is list else list(map(
            ScaledComplex, c.log_mag.tolist(), c.phase.tolist()))
            for c in self.b]

    @cached_property
    def mode_factors(self) -> ModeFactors:
        """The keys checked once, with the factors the angular scalars
        read at every direction."""
        return ModeFactors.of(self.key_array)

    def table(self, r: float):
        """One BesselTable at wavenumber * r serving every mode."""
        return specfun.bessel_table(int(self.degrees.max(initial=0)),
                                    [self.wavenumber * r])

    def quadrature_table(self, n_max: int, r: np.ndarray):
        """The BesselTable of orders up to n_max at wavenumber * r, for an
        array r of quadrature nodes, from ``_bessel_table``: every
        integrand asking for the same degree at the same arguments, of any
        mode, test function, region or solution, reads one table and
        combines its own row from it."""
        return _bessel_table(n_max, (self.wavenumber * r).tobytes())

    def expand(self, tab):
        """(A(j, h), A(J, H), B(j, h), B(J, H)) of every mode at the
        arguments of a BesselTable, each mode combined on its own, as one
        (4, modes, len(t)) array."""
        n = self.degrees
        a0, a1, b0, b1 = (ScaledArray(c.log_mag[:, None], c.phase[:, None])
                          for c in self._columns)
        return np.stack([combine(x, y, tab, n) for x, y in ((a0, a1), (b0, b1))
                         for combine in (specfun.combine,
                                         specfun.combine_riccati)])

    @cached_property
    def runs(self):
        """(degree, first mode index) of each run of equal degrees: one run
        per distinct degree, ascending, as the keys are ascending."""
        starts = np.flatnonzero(np.diff(self.degrees, prepend=-1))
        return self.degrees[starts], starts

    @cached_property
    def degree_form(self):
        """a0, a1, b0, b1 per run of ``runs``: each run's peak
        log-magnitude, a (4, runs) array, -inf for a run of zeros, and each
        mode's phase exp(log_mag - peak), a (4, modes) complex array in
        which a run of zeros reads 0."""
        peaks, scaled = zip(*(_run_scaled(c.log_mag, c.phase, self.runs[1])
                              for c in self._columns))
        return (np.reshape(peaks, (4, len(self.runs[0]))),
                np.array(scaled))

    def degree_rows(self, tab):
        """X j, Y h, X J and Y H of each chain and run of ``runs`` at the
        arguments of a BesselTable, X and Y the run's peaks of
        ``degree_form`` (of a0 and a1, or b0 and b1), as one complex array
        [chain, (j, h) or (J, H), X or Y, run, t].

        The rule of ``specfun.combine``: each product of a peak with a j or
        y row at order n - 1 or n is exponentiated on its own, and only the
        products a column uses are formed.  The X column reads no y row, so
        a run of zeros stays an exact 0 against a y row beyond double range.
        Where a J or H entry comes out inf or NaN, as where t j_{n-1} leaves
        double range next to a zero of J_n, its products are formed again
        2^-s times their size and scaled back by 2^s, the shift of
        ``specfun.combine_riccati``: a finite value stays finite, and every
        entry whose products stay below exp(_LOG_SUM_MAX) keeps its bits.
        """
        n = self.runs[0]
        k = np.add.outer((0, 1), n)  # the rows of orders n - 1 and n
        peaks = self.degree_form[0].reshape(2, 2, 1, -1, 1)
        rows = _run_rows(peaks, tab, k, n)
        if not cmath.isfinite(rows.sum()):  # an inf or NaN entry
            # each entry's largest product, with its factor t or n
            with np.errstate(invalid="ignore"):  # a zero run against inf
                logs = peaks + np.stack(  # [chain, X or Y, order, run, t]
                    [tab.j_log[k], np.maximum(tab.j_log[k], tab.y_log[k])])
                top = np.maximum(
                    logs[:, :, 0] + np.log(np.maximum(tab.t, 1.0)),
                    logs[:, :, 1] + np.log(n)[:, None])
            s = specfun.overflow_shift(top)
            rows[:, 1] = specfun.ldexp(_run_rows(
                peaks - s[:, :, None] * math.log(2.0), tab, k, n)[:, 1], s)
        return rows

    @cached_property
    def _run_grams(self):
        """sum |x|^2, sum |y|^2 and sum x conj(y) over the modes of each run
        of ``runs``, for the scaled values of ``degree_form`` of each chain
        (x, y the a0, a1 or b0, b1 of a mode), as (chain, 1, run, 1)
        arrays."""
        scaled = self.degree_form[1]
        x, y = scaled[0::2], scaled[1::2]
        return [np.add.reduceat(v, self.runs[1], axis=1)[:, None, :, None]
                for v in ((x * x.conj()).real, (y * y.conj()).real,
                          x * y.conj())]

    def squared_sums(self, tab):
        """sum |A(j, h)|^2, sum |A(J, H)|^2, sum |B(j, h)|^2 and
        sum |B(J, H)|^2 over the modes of each degree of ``runs``, at the
        arguments of a BesselTable, as one (4, runs, len(t)) array.

        Within a run, mode i has the coefficients x_i X and y_i Y of
        ``degree_form``, so sum_i |x_i X f + y_i Y g|^2 is
        S_xx |X f|^2 + S_yy |Y g|^2 + 2 Re(S_xy X f conj(Y g)), with the
        Gram sums of ``_run_grams`` and the real X f and complex Y g of
        ``degree_rows``; no mode is combined on its own.  Where the modes
        cancel to rounding (the layer's tangential rows at r = 2) the sum
        can round below 0, and is read as 0.
        """
        s_xx, s_yy, s_xy = self._run_grams
        rows = self.degree_rows(tab)
        f, g = rows[:, :, 0].real, rows[:, :, 1]
        with np.errstate(over="ignore"):
            total = (s_xx * f * f + s_yy * (g.real ** 2 + g.imag ** 2)
                     + 2 * f * (s_xy.real * g.real + s_xy.imag * g.imag))
        return np.maximum(total, 0.0).reshape(4, *total.shape[2:])


def _run_rows(peaks, tab, k, n):
    """``RegionChains.degree_rows`` for peaks (chain, X or Y, 1, run, 1 or
    t) and the rows k of orders n - 1 and n of tab."""
    rows = np.empty((2, 2, 2, n.size, tab.t.size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        # [chain, X j or Y j, order n - 1 or n, run, t], and Y y alone
        j = np.exp(peaks + tab.j_log[k]) * tab.j_sign[k]
        y = np.exp(peaks[:, 1] + tab.y_log[k]) * tab.y_sign[k]
        rows[:, 0] = j[:, :, 1]
        rows[:, 1] = tab.t * j[:, :, 0] - n[:, None] * j[:, :, 1]
        rows[:, 0, 1].imag = y[:, 1]
        rows[:, 1, 1].imag = tab.t * y[:, 0] - n[:, None] * y[:, 1]
    return rows


def _run_scaled(log_mag, phase, starts):
    """Per run of entries that begin at ``starts``: its peak of log_mag,
    -inf for a run of zeros; and per entry exp(log_mag - peak) phase, at
    most 1 in size, 0 in a run of zeros."""
    peak = np.maximum.reduceat(log_mag, starts)
    shift = np.where(peak == -np.inf, 0.0, peak)
    lengths = np.diff(starts, append=len(log_mag))
    return peak, phase * np.exp(log_mag - np.repeat(shift, lengths))


# 32 tables hold the working set of a pairing (the passes of one degree)
# and of a benchmark round (11); the bound caps the memory the tables hold
@lru_cache(maxsize=32)
def _bessel_table(n_max: int, t: bytes):
    """``specfun.bessel_table`` of orders up to n_max at the doubles t,
    kept by value: the tables read last, whoever reads them."""
    return specfun.bessel_table(n_max, np.frombuffer(t))


def _hidden_chains(keys, a, b, params: CloakParams, surface=None):
    """Hidden chains A = (alpha, p), B = (beta, q) of params."""
    return RegionChains(keys, a, b, params.k * params.omega,
                        params.eps0 ** -0.5, params.mu0 ** -0.5, surface)


def _solution_chains(solution: ModalSolution) -> dict:
    """The "layer" and "hidden" chains of every solved mode as the columns
    of one array pass (``SolvedModes.columns``), no ScaledComplex per mode."""
    keys = list(solution.modes)
    (gamma, eta), (c, d), (alpha, beta), (p, q) = solution.modes.columns(keys)
    return {"layer": RegionChains(keys, (gamma, c), (eta, d),
                                  solution.params.omega),
            "hidden": _hidden_chains(keys, (alpha, p), (beta, q),
                                     solution.params)}


# the last solution region_chains read and its chains, compared by identity:
# ``==`` on a solution would build every mode
_last_chains = [None, None]


def region_chains(solution: ModalSolution, region: str) -> RegionChains:
    """The chains of every solved mode of the "layer" (virtual coordinates)
    or "hidden" region, in ascending key order.

    Both regions' chains are built in one pass and kept with the solution
    until another solution is read."""
    if region not in ("layer", "hidden"):
        raise DomainError(f"region is 'layer' or 'hidden', got {region!r}")
    if _last_chains[0] is not solution:
        _last_chains[:] = solution, _solution_chains(solution)
    return _last_chains[1][region]


def limit_chains(source: SourceCoeffs, params: CloakParams,
                 keys=None) -> RegionChains:
    """The rho -> 0 limit of the hidden region, for the given ascending mode
    keys or every source mode: alpha0 = r_n p and beta0 = r_n q with
    r_n = -h_n(k w)/j_n(k w), and the surface strength sigma, from the kept
    ``_unit_ratios`` of each degree (ResonanceError as in ``limit_coeffs``);
    the chains hold ScaledComplex lists.  Only the given degrees are built,
    so an unpaired degree's resonance never raises.
    """
    _check_support(source, params)
    keys = source.modes() if keys is None else keys
    unit = {n: _unit_ratios(n, params.k, params.omega, params.mu0)
            for n in {n for n, _ in keys}}
    pq = [source.entries[key] for key in keys]
    p, q = ([ScaledComplex.from_complex(x[i]) for x in pq] for i in (0, 1))
    r_n = [unit[n][0] for n, _ in keys]
    return _hidden_chains(keys, ([r * x for r, x in zip(r_n, p)], p),
                          ([r * x for r, x in zip(r_n, q)], q), params,
                          [unit[n][1] * x[1] for (n, _), x in zip(keys, pq)])


def _check_support(source: SourceCoeffs, params: CloakParams) -> None:
    """DomainError when the source's support radius is not the cloak's."""
    if source.r1 != params.r1:
        raise DomainError(f"source support radius r1={source.r1} differs "
                          f"from the cloak's r1={params.r1}")


def _term_weights(source: SourceCoeffs, params: CloakParams) -> dict:
    """S_n^2 (|p| + |q|) |h_n(k w r1)| per mode, from one kept table of all
    degrees."""
    if not source.entries:
        return {}
    degrees = sorted({n for n, _ in source.entries})
    tab = _bessel_table(degrees[-1], np.array(
        [params.k * params.omega * source.r1]).tobytes())
    k = np.array(degrees) + 1
    with np.errstate(over="ignore"):  # |h_n| = (j_n^2 + y_n^2)^(1/2)
        h_mag = dict(zip(degrees, np.exp(0.5 * np.logaddexp(
            2 * tab.j_log[k, 0], 2 * tab.y_log[k, 0])).tolist()))
    return {(n, m): n * (n + 1) * (abs(p) + abs(q)) * h_mag[n]
            for (n, m), (p, q) in sorted(source.entries.items())}


def truncation_order(source: SourceCoeffs, params: CloakParams,
                     tol: float) -> int:
    """Smallest N whose tail S_n^2 (|p| + |q|) |h_n(k w r1)| sums below tol.

    The weight matches the term size of the field series on the support
    sphere, summed over the (gamma, p) and (eta, q) chains, so dropping
    degrees above N perturbs the fields by < tol and no mode driven by
    either chain alone is dropped while its term is above tol.  The
    weights are summed per degree, and the tails in one pass from the top
    degree down.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    by_degree = {}
    for (n, _), w in _term_weights(source, params).items():
        by_degree[n] = by_degree.get(n, 0.0) + w
    degrees = sorted(by_degree)
    tails = [0.0]  # the tail above each candidate, from the top one down
    for n in reversed(degrees):
        tails.append(tails[-1] + by_degree[n])
    # the top degree's tail is 0, so some candidate passes
    return next(cand for cand, tail in zip([0] + degrees, reversed(tails))
                if tail < tol)


def check_decay_certificate(source: SourceCoeffs, params: CloakParams) -> None:
    """Warn when the tail of S_n^2 (|p| + |q|) |h_n(k w r1)| grows."""
    by_degree = {}
    for (n, m), w in _term_weights(source, params).items():
        by_degree[n] = max(by_degree.get(n, 0.0), w)
    degrees = sorted(by_degree)
    if len(degrees) >= 2 and by_degree[degrees[-1]] > by_degree[degrees[-2]]:
        warnings.warn(
            "source table tail is growing: "
            f"degree {degrees[-1]} term exceeds degree {degrees[-2]} term; "
            "truncation error is not certified", stacklevel=2)


def solve_source(source: SourceCoeffs, boundary: BoundaryCoeffs | None,
                 params: CloakParams) -> ModalSolution:
    """Solve every mode carried by the source/boundary tables.

    Modes above the truncation degree of ``TRUNCATION_TOL`` are dropped;
    boundary-only modes are always kept.  Every degree is solved in one
    call of ``transfer_coeffs`` (every resonance check raises here); the
    modes come from the returned ``SolvedModes``.  A source whose support
    radius differs from params.r1 is rejected with DomainError.
    """
    _check_support(source, params)
    boundary = boundary or BoundaryCoeffs()
    n_max = truncation_order(source, params, TRUNCATION_TOL)
    n_max = max(n_max, boundary.max_degree())
    degrees = sorted({n for n, _ in source.entries.keys()
                      | boundary.entries.keys() if n <= n_max})
    modes = SolvedModes(source.entries, boundary.entries, tuple(degrees),
                        _packed(transfer_coeffs(degrees, params)))
    return ModalSolution(params=params, source=source, boundary=boundary,
                         modes=modes, n_max=n_max)
