"""Per-mode transfer coefficients and the interface transmission solve.

For each multipole degree n the tangential matching across the coated-ball
interface couples the exterior coefficients (gamma, eta, c, d) to the
interior ones (alpha, beta) and the source data (p, q).  The solve splits
into two independent 2x2 chains per polarisation; every product is kept in
log-magnitude form so degrees up to 60 at inner radii down to 1e-6 stay
finite.

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
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import specfun
from .errors import CapabilityError, DomainError, ResonanceError
from .geometry import CloakParams
from .harmonics import ModeFactors
from .scaled import ScaledArray, ScaledComplex, scaled_real

# a denominator whose magnitude falls below this fraction of its largest
# term is treated as resonant (frequency inadmissible)
DENOM_FLOOR = 1e-12
# floor on the interior margin of the limit formulas (``_check_interior``)
INTERIOR_FLOOR = 1e-10


@dataclass(frozen=True)
class TransferSet:
    """Interface transfer ratios for one degree n (log-magnitude form).

    t1, t2 (with t1p, t2p) form the chain driven by (gamma, p); t3, t4
    (with t3p, t4p) the chain driven by (eta, q).  dn and dnp are the two
    2x2 determinants the ratios share.  outer holds j_n, h_n, J_n, H_n at
    the outer boundary argument 2 omega, which every order m reuses.
    """

    n: int
    t1: ScaledComplex
    t2: ScaledComplex
    t3: ScaledComplex
    t4: ScaledComplex
    t1p: ScaledComplex
    t2p: ScaledComplex
    t3p: ScaledComplex
    t4p: ScaledComplex
    dn: ScaledComplex
    dnp: ScaledComplex
    outer: tuple


def _pack(values) -> list:
    """ScaledComplex values as (log-magnitude, phase.real, phase.imag)
    doubles, which ``_unpack`` turns back into the same values exactly."""
    return [x for v in values for x in (v.log_mag, v.phase.real, v.phase.imag)]


def _unpack(packed, i: int) -> ScaledComplex:
    """The i-th ScaledComplex of packed doubles."""
    log_mag, re, im = packed[3 * i:3 * i + 3]
    return ScaledComplex(log_mag, complex(re, im))


@dataclass(frozen=True, slots=True)
class ModeCoeffs:
    """Solved field coefficients of one mode, kept in log-magnitude form."""

    gamma: ScaledComplex
    eta: ScaledComplex
    c: ScaledComplex
    d: ScaledComplex
    alpha: ScaledComplex
    beta: ScaledComplex

    @property
    def _packed(self) -> tuple:
        """The six values as ``_pack`` doubles, in field order."""
        return tuple(_pack(getattr(self, f.name) for f in fields(self)))

    def as_complex(self) -> dict:
        return {f.name: getattr(self, f.name).to_complex()
                for f in fields(self)}


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

    Every mode of a degree reads the same twelve values (``_degree_ratios``),
    so a solution keeps those, packed, 36 doubles a degree in one array, and
    solves a mode on access from them and the mode's source and boundary
    data with ``solve_mode``'s arithmetic: the coefficients are bit for bit
    those of ``solve_mode``.  ``coefficient_rows`` reads many modes with
    one unpack per degree, as the region chains do.  The source and
    boundary tables are read at access, so they must not change after the
    solve.
    """

    __slots__ = ("_source", "_boundary", "_degrees", "_ratios")
    _WIDTH = 36  # doubles a degree: twelve packed values

    def __init__(self, source: dict, boundary: dict, degrees: tuple,
                 ratios: array):
        self._source, self._boundary = source, boundary
        self._degrees, self._ratios = degrees, ratios

    def __contains__(self, key):
        return ((key in self._source or key in self._boundary)
                and key[0] in self._degrees)

    def __getitem__(self, key):
        if key not in self:
            raise KeyError(key)
        return ModeCoeffs(*next(self.coefficient_rows([key])))

    def coefficient_rows(self, keys):
        """(gamma, eta, c, d, alpha, beta) of each of the given solved keys
        in turn, unpacking the ratios of each degree once."""
        unpacked = {}
        for key in keys:
            ratios = unpacked.get(key[0])
            if ratios is None:
                i = self._degrees.index(key[0])
                row = self._ratios[self._WIDTH * i:self._WIDTH * (i + 1)]
                ratios = unpacked[key[0]] = [
                    _unpack(row, k) for k in range(self._WIDTH // 3)]
            yield _mode_values(ratios, *self._source.get(key, (0j, 0j)),
                               *self._boundary.get(key, (0j, 0j)))

    def __iter__(self):
        return iter(sorted(key for key in self._source.keys()
                           | self._boundary.keys() if key in self))

    def __len__(self):
        return sum(1 for _ in self)

    def __repr__(self):
        return f"SolvedModes({dict(self)!r})"


@dataclass(frozen=True, slots=True)
class ModalSolution:
    """All solved modes for one parameter set plus the data that produced them."""

    params: CloakParams
    source: SourceCoeffs
    boundary: BoundaryCoeffs
    modes: Mapping  # (n, m) -> ModeCoeffs, SolvedModes from solve_source
    n_max: int


def _ladder_values(n: int, lad):
    """j_n, h_n, J_n, H_n of a BesselLadder."""
    return lad.jn(n), lad.hn(n), lad.riccati_j(n), lad.riccati_h(n)


def _interface_values(n: int, params: CloakParams):
    """``_ladder_values`` at the inner radius omega rho, the interface k
    omega and the outer boundary 2 omega, from one table of degree n (its
    columns do not depend on each other)."""
    om = params.omega
    tab = specfun.bessel_table(n, [om * params.rho, params.k * om, 2.0 * om])
    return [_ladder_values(n, tab.column(i)) for i in range(3)]


def _check_margin(n: int, name: str, den, *terms) -> None:
    """Raise ResonanceError(n, name) when the denominator den, the sum of
    terms, has cancelled below DENOM_FLOOR of its largest term."""
    scale = max(term.log_mag for term in terms)
    if den.is_zero or den.log_mag - scale < math.log(DENOM_FLOOR):
        raise ResonanceError(n, name)


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


def transfer_coeffs(n: int, params: CloakParams) -> TransferSet:
    """Transfer ratios of degree n for the given scenario.

    Raises:
        ResonanceError: a shared 2x2 determinant is annihilated by
            cancellation (inadmissible frequency).
    """
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    rho, k = params.rho, params.k
    se = scaled_real(params.eps0 ** -0.5)
    sm = scaled_real(params.mu0 ** -0.5)
    (jr, hr, jjr, hhr), (jk, hk, jjk, hhk), outer = _interface_values(
        n, params)

    dn_a = sm * rho * hr * jjk
    dn_b = se * k * hhr * jk
    dn = dn_a - dn_b
    dnp_a = se * rho * hr * jjk
    dnp_b = sm * k * hhr * jk
    dnp = dnp_a - dnp_b
    _check_margin(n, "dn", dn, dn_a, dn_b)
    _check_margin(n, "dnp", dnp, dnp_a, dnp_b)

    # cross-product identity: J_n h_n - H_n j_n = -i/t, reused by both
    # primed ratios; the 1/k on t1p balances the eps/mu weights of its chain
    cross_k = jjk * hk - hhk * jk
    t1 = (se * k * jjr * jk - sm * rho * jr * jjk) / dn
    t2 = (k * rho * jjr * hr - k * rho * jr * hhr) / dn
    t3 = (sm * k * jjr * jk - se * rho * jr * jjk) / dnp
    t4 = (rho * jjr * hr - rho * jr * hhr) / dnp
    t1p = cross_k / (k * dn)
    t2p = (se * k * hk * hhr - sm * rho * hhk * hr) / dn
    t3p = cross_k / dnp
    t4p = (sm * k * hk * hhr - se * rho * hhk * hr) / dnp
    return TransferSet(n=n, t1=t1, t2=t2, t3=t3, t4=t4,
                       t1p=t1p, t2p=t2p, t3p=t3p, t4p=t4p, dn=dn, dnp=dnp,
                       outer=outer)


def _degree_ratios(ts: TransferSet) -> tuple:
    """What every mode of the degree of ts reads: t1, t2, t3, t4, t1p, t2p,
    t3p, t4p, h_n(2w), H_n(2w) and the exterior-boundary denominators of
    gamma and eta.

    Raises:
        ResonanceError: an exterior-boundary denominator below floor.
    """
    j2, h2, jj2, hh2 = ts.outer
    t1h2, t3hh2 = ts.t1 * h2, ts.t3 * hh2
    den_g, den_e = t1h2 + j2, t3hh2 + jj2
    _check_margin(ts.n, "t1*h_n(2w) + j_n(2w)", den_g, t1h2, j2)
    _check_margin(ts.n, "t3*H_n(2w) + J_n(2w)", den_e, t3hh2, jj2)
    return (ts.t1, ts.t2, ts.t3, ts.t4, ts.t1p, ts.t2p, ts.t3p, ts.t4p,
            h2, hh2, den_g, den_e)


def _mode_values(ratios, p, q, f1, f2) -> tuple:
    """The six coefficients of a mode with data (p, q, f1, f2), in
    ModeCoeffs field order, from its degree's ``_degree_ratios``."""
    t1, t2, t3, t4, t1p, t2p, t3p, t4p, h2, hh2, den_g, den_e = ratios
    p_s = ScaledComplex.from_complex(p)
    q_s = ScaledComplex.from_complex(q)
    f1_s = ScaledComplex.from_complex(f1)
    f2_s = ScaledComplex.from_complex(f2)

    gamma = (f1_s - p_s * t1p * h2) / den_g
    eta = (f2_s * 2.0 - t3p * q_s * hh2) / den_e
    c = t1 * gamma + t1p * p_s
    alpha = t2 * gamma + t2p * p_s
    d = t3 * eta + t3p * q_s
    beta = t4 * eta + t4p * q_s
    return gamma, eta, c, d, alpha, beta


def solve_mode(n: int, p, q, f1, f2, params: CloakParams) -> ModeCoeffs:
    """Solve one mode for source data (p, q) and boundary data (f1, f2).

    Returns the six field coefficients; m enters only through the data, so
    the same call serves every order of a given degree.

    Raises:
        ResonanceError: interface determinant or exterior-boundary
            denominator below floor.
    """
    return ModeCoeffs(*_mode_values(_degree_ratios(transfer_coeffs(n, params)),
                                    p, q, f1, f2))


def system_residuals(n: int, p, q, f1, f2, params: CloakParams,
                     coeffs: ModeCoeffs) -> list:
    """Relative residuals of the six matching equations for one mode.

    Each residual is |lhs - rhs| over the largest participating term, so a
    value near machine epsilon certifies the solve.
    """
    rho, k = params.rho, params.k
    se = scaled_real(params.eps0 ** -0.5)
    sm = scaled_real(params.mu0 ** -0.5)
    ((jr, hr, jjr, hhr), (jk, hk, jjk, hhk),
     (j2, h2, jj2, hh2)) = _interface_values(n, params)
    g, e, c, d, al, be = (getattr(coeffs, f.name) for f in fields(coeffs))
    p_s, q_s = ScaledComplex.from_complex(p), ScaledComplex.from_complex(q)
    f1_s, f2_s = ScaledComplex.from_complex(f1), ScaledComplex.from_complex(f2)

    equations = [
        ([c * h2, g * j2], f1_s),
        ([d * hh2, e * jj2], f2_s * 2.0),
        ([c * hr * rho, g * jr * rho], se * (al * jk + p_s * hk)),
        ([d * hhr, e * jjr], se * (be * jjk + q_s * hhk)),
        ([c * hhr * k, g * jjr * k], sm * (al * jjk + p_s * hhk)),
        ([d * hr * rho, e * jr * rho], sm * k * (be * jk + q_s * hk)),
    ]
    out = []
    for terms, rhs in equations:
        lhs = terms[0] + terms[1]
        resid = lhs - rhs
        scale = max([t.log_mag for t in terms] + [rhs.log_mag])
        if scale == float("-inf"):
            out.append(0.0 if resid.is_zero else math.inf)
        elif resid.is_zero:
            out.append(0.0)
        else:
            out.append(math.exp(min(resid.log_mag - scale, 700.0)))
    return out


# -- closed-form limits -------------------------------------------------------


def _read_only(tab):
    """The BesselTable tab with its arrays made read-only, for a table kept
    and shared between calls."""
    for part in (tab.t, tab.j_log, tab.j_sign, tab.y_log, tab.y_sign):
        part.flags.writeable = False
    return tab


def _limit_ratios(n: int, q: complex, params: CloakParams, lad):
    """(beta0, sigma) of ``limit_coeffs`` from the ladder at k omega.

    Raises:
        ResonanceError: k omega at a zero of j_n (``_check_interior``).
        CapabilityError: a value outside double range.
    """
    jk_c = _check_interior(n, lad)
    beta0 = -lad.hn(n).to_complex() / jk_c * q
    sigma = (-1j * math.sqrt(params.mu0) * q
             / (params.k ** 2 * params.omega * jk_c))
    return _require_finite(n, beta0, sigma)


class _Store:
    """The work kept for one params object: the limit's ladders and unit-q
    ratios by degree, and the latest solution read with it, its chains and
    the quadrature tables read since."""

    __slots__ = ("params", "solution", "chains", "tables", "ladders", "unit")

    def __init__(self, params):
        self.params, self.solution, self.chains = params, None, None
        self.tables, self.ladders, self.unit = {}, {}, {}


_store = _Store(None)


def _kept(params: CloakParams, solution=None) -> _Store:
    """The store of params (and of solution, when given): a new one for a
    params object not its own or a solution other than the one it holds; a
    store a limit call made adopts the first solution read with its params.
    Identity only: ``==`` on a solution would build every mode."""
    global _store
    held = _store.solution
    if _store.params is not params or not (
            solution is None or held is None or held is solution):
        _store = _Store(params)
    if solution is not None and _store.solution is None:
        _store.solution = solution
    return _store


def _limit_ladder(n: int, params: CloakParams):
    """The ladder of degree n at the interface argument k omega, built on
    the first read and kept in the store of params."""
    ladders = _kept(params).ladders
    lad = ladders.get(n)
    if lad is None:
        if n < 1:
            raise DomainError(f"degree must be >= 1, got {n}")
        lad = specfun.bessel_ladder(n, params.k * params.omega)
        _read_only(lad.table)
        ladders[n] = lad
    return lad


def _unit_ratios(n: int, params: CloakParams) -> tuple:
    """``_limit_ratios`` of degree n at q = 1 from the kept ladder, kept
    beside it; a degree that raises keeps no ratios and raises again on
    every read."""
    lad = _limit_ladder(n, params)
    unit = _kept(params).unit
    if n not in unit:
        unit[n] = _limit_ratios(n, 1 + 0j, params, lad)
    return unit[n]


def limit_coeffs(n: int, q, params: CloakParams):
    """Vanishing-regularisation limits for the q-driven chain of degree n.

    Returns:
        (beta0, d_prefactor, sigma):
        beta0: limit of beta, equal to -h_n(k w)/j_n(k w) * q;
        d_prefactor: D with d ~ D * rho^(n+1) as rho -> 0;
        sigma: strength multiplying phi(1) in the interface-layer limit of
            the exterior normal pairing, -i mu0^(1/2) q / (k^2 w j_n(k w)).

    Raises:
        ResonanceError, CapabilityError: as ``_limit_ratios``.
    """
    lad = _limit_ladder(n, params)
    q = complex(q)
    beta0, sigma = _limit_ratios(n, q, params, lad)
    jk, hk, jjk, hhk = _ladder_values(n, lad)
    # 1/h_n(omega) in small-argument form, which underflows doubles for
    # large n: kept in log form, as the ratios downstream are O(1)
    pref = (1 / specfun.small_arg_leading(n, params.omega)[1]
            * (jjk * hk - hhk * jk) * math.sqrt(params.mu0) / (params.k * n)
            / jk.to_complex().real * q)
    return beta0, pref, sigma


def sigma_uncollapsed(n: int, q, params: CloakParams) -> complex:
    """Interface-layer strength evaluated without the cross-product shortcut.

    S_n^2 mu0^(1/2) [J_n h_n - H_n j_n](k w) / (k n(n+1) j_n(k w)) * q, kept
    as the raw combination; agrees with the collapsed sigma to rounding.
    """
    k, mu0 = params.k, params.mu0
    lad = _limit_ladder(n, params)
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
    sigma per mode in ``surface``.  Coefficients are ScaledComplex lists;
    ``expand`` reads them as stacked ScaledArray columns, ``degree_form``
    as each degree's peak and the modes' shifted values, and
    ``squared_sums`` as Gram sums per degree, all kept on the chains with
    the modes' ``mode_factors``.  ``tables`` is the store's dict that
    ``quadrature_table`` fills; the chains hold the dict, not the store, so
    the store that holds the chains forms no cycle.
    """

    keys: list
    a: tuple
    b: tuple
    wavenumber: float
    e_weight: float = 1.0
    h_weight: float = 1.0
    surface: list | None = None
    tables: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def key_array(self) -> np.ndarray:
        """The keys as a (K, 2) integer array."""
        return np.array(self.keys, dtype=int).reshape(-1, 2)

    @property
    def degrees(self) -> np.ndarray:
        return self.key_array[:, 0]

    @cached_property
    def mode_factors(self) -> ModeFactors:
        """The keys checked once, with the factors the angular scalars
        read at every direction."""
        return ModeFactors.of(self.key_array)

    @property
    def s_n(self) -> np.ndarray:
        """sqrt(n (n + 1)) of every mode."""
        return self.mode_factors.s_n

    @cached_property
    def _columns(self):
        """a[0], a[1], b[0], b[1] as (log-magnitude, phase) array pairs."""
        return [(np.array([c.log_mag for c in coeffs], dtype=float),
                 np.array([c.phase for c in coeffs], dtype=complex))
                for coeffs in (*self.a, *self.b)]

    @cached_property
    def _stacked_columns(self):
        """The coefficients of f and of g in the four combinations of
        ``expand``, (a0, a0, b0, b0) and (a1, a1, b1, b1), as
        (4, modes, 1) ScaledArrays."""
        a0, a1, b0, b1 = self._columns
        return [ScaledArray(*(np.stack([x[k], x[k], y[k], y[k]])[..., None]
                              for k in (0, 1)))
                for x, y in ((a0, b0), (a1, b1))]

    def table(self, r: float):
        """One BesselTable at wavenumber * r serving every mode."""
        return specfun.bessel_table(int(self.degrees.max(initial=0)),
                                    [self.wavenumber * r])

    def quadrature_table(self, n_max: int, r: np.ndarray):
        """The BesselTable of orders up to n_max at wavenumber * r, for an
        array r of quadrature nodes, made read-only and kept in ``tables``
        under (n_max, arguments): every integrand asking for the same
        degree at the same arguments, of any mode or test function, reads
        one table and combines its own row from it.
        """
        t = self.wavenumber * r
        key = (n_max, t.tobytes())
        tab = self.tables.get(key)
        if tab is None:
            tab = self.tables[key] = _read_only(specfun.bessel_table(n_max, t))
        return tab

    def normal(self, tab, i: int):
        """B(j, h) of mode i at the arguments of a BesselTable."""
        n = self.keys[i][0]
        return specfun.combine(self.b[0][i], tab.jn(n), self.b[1][i],
                               tab.hn(n))

    def expand(self, tab):
        """(A(j, h), A(J, H), B(j, h), B(J, H)) of every mode at the
        arguments of a BesselTable, as one (4, modes, len(t)) array."""
        n = self.degrees
        f, g = (tuple(np.stack([first[k], second[k]] * 2) for k in (0, 1))
                for first, second in ((tab.jn(n), tab.riccati_j(n)),
                                      (tab.hn(n), tab.riccati_h(n))))
        a, b = self._stacked_columns
        return specfun.combine(a, f, b, g)

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
        peaks, scaled = zip(*(_run_scaled(log_mag, phase, self.runs[1])[::2]
                              for log_mag, phase in self._columns))
        return (np.reshape(peaks, (4, len(self.runs[0]))),
                np.array(scaled))

    @cached_property
    def _gram_sums(self):
        """For chain A, then B, with coefficients (x, y): the Gram sums
        sum |x|^2, sum |y|^2 and sum x conj(y) over the modes of each run,
        each a (log-magnitude, phase) pair of (runs, 1) columns."""
        starts, ones = self.runs[1], np.ones(len(self.keys))
        a0, a1, b0, b1 = self._columns
        return [tuple(_run_sums(log_mag, phase, starts)
                      for log_mag, phase in ((2 * lx, ones), (2 * ly, ones),
                                             (lx + ly, px * py.conj())))
                for (lx, px), (ly, py) in ((a0, a1), (b0, b1))]

    def squared_sums(self, tab):
        """sum |A(j, h)|^2, sum |A(J, H)|^2, sum |B(j, h)|^2 and
        sum |B(J, H)|^2 over the modes of each degree of ``runs``, at the
        arguments of a BesselTable, as one (4, runs, len(t)) array.

        Within a degree every mode reads the same rows (f, g), so
        sum_i |x_i f + y_i g|^2 = S_xx |f|^2 + S_yy |g|^2 + 2 Re(S_xy f g*)
        with the Gram sums of ``_gram_sums``; only the rows of the distinct
        degrees are read, and no mode is combined on its own.
        """
        n = self.runs[0]
        rows = ((tab.jn(n), tab.hn(n)), (tab.riccati_j(n), tab.riccati_h(n)))
        return np.stack([_gram_row(sums, f, g) for sums in self._gram_sums
                         for f, g in rows])


def _run_scaled(log_mag, phase, starts):
    """Per run of entries that begin at ``starts``: its peak of log_mag,
    -inf for a run of zeros, and the shift, the peak or 0 for a run of
    zeros; and per entry exp(log_mag - shift) phase, at most 1 in size."""
    peak = np.maximum.reduceat(log_mag, starts)
    shift = np.where(peak == -np.inf, 0.0, peak)
    lengths = np.diff(starts, append=len(log_mag))
    return peak, shift, phase * np.exp(log_mag - np.repeat(shift, lengths))


def _run_sums(log_mag, phase, starts):
    """(log-magnitude, phase) of the sums of exp(log_mag) phase over the
    runs of entries that begin at ``starts``, as columns; the sum of a run
    of zeros, or one that cancels exactly, is the zero (-inf, 0)."""
    _, shift, scaled = _run_scaled(log_mag, phase, starts)
    total = np.add.reduceat(scaled, starts)
    size = np.abs(total)
    with np.errstate(divide="ignore", invalid="ignore"):
        return ((shift + np.log(size))[:, None],
                np.where(size > 0.0, total / size, 0j)[:, None])


def _gram_row(sums, f, g):
    """S_xx |f|^2 + S_yy |g|^2 + 2 Re(S_xy f g*) for the Gram sums of one
    chain and rows f, g; a zero sum adds an exact 0.  Where the modes
    cancel to rounding (the layer's tangential rows at r = 2) the sum can
    round below 0, and is read as 0."""
    (l_xx, _), (l_yy, _), (l_xy, p_xy) = sums
    with np.errstate(over="ignore"):
        return np.maximum(np.exp(l_xx + 2 * f[0]) + np.exp(l_yy + 2 * g[0])
                          + 2 * np.exp(l_xy + f[0] + g[0])
                          * (p_xy * f[1] * g[1].conj()).real, 0.0)


def _hidden_chains(keys, alpha, beta, pq, store, surface=None):
    """Hidden-region chains A = (alpha, p) and B = (beta, q), from the
    complex (p, q) pairs pq, one per key, reading the store's tables."""
    params = store.params
    p, q = ([ScaledComplex.from_complex(v[k]) for v in pq] for k in (0, 1))
    return RegionChains(keys, (alpha, p), (beta, q), params.k * params.omega,
                        params.eps0 ** -0.5, params.mu0 ** -0.5, surface,
                        store.tables)


def _solution_chains(solution: ModalSolution, store: _Store) -> dict:
    """The "layer" and "hidden" chains of every solved mode, from one pass
    over the modes: a ``SolvedModes`` solves them straight into the chain
    lists, one unpack per degree and no ModeCoeffs per mode."""
    modes = solution.modes
    keys = sorted(modes)
    if isinstance(modes, SolvedModes):
        rows = modes.coefficient_rows(keys)
    else:
        rows = ([getattr(modes[key], f.name) for f in fields(ModeCoeffs)]
                for key in keys)
    gamma, eta, c, d, alpha, beta = (
        [list(column) for column in zip(*rows)]
        or [[] for _ in range(6)])
    return {"layer": RegionChains(keys, (gamma, c), (eta, d),
                                  solution.params.omega, tables=store.tables),
            "hidden": _hidden_chains(
                keys, alpha, beta,
                [solution.source.entries.get(key, (0j, 0j)) for key in keys],
                store)}


def region_chains(solution: ModalSolution, region: str) -> RegionChains:
    """The chains of every solved mode of the "layer" (virtual coordinates)
    or "hidden" region, in ascending key order.

    Both regions' chains are built in one pass and kept in the store with
    the solution (``_kept``): reading any other solution, or a solution of
    another params object, starts a new store and drops these chains and
    their quadrature tables.  A solution whose modes are a plain dict,
    which may be changed in place, is rebuilt on every call.
    """
    if region not in ("layer", "hidden"):
        raise DomainError(f"region is 'layer' or 'hidden', got {region!r}")
    store = _kept(solution.params, solution)
    if store.chains is None or not isinstance(solution.modes, SolvedModes):
        store.chains = _solution_chains(solution, store)
    return store.chains[region]


def limit_chains(source: SourceCoeffs, params: CloakParams,
                 keys=None) -> RegionChains:
    """The rho -> 0 limit of the hidden region, for the given ascending mode
    keys or every source mode: alpha0 = r_n p and beta0 = r_n q with
    r_n = -h_n(k w)/j_n(k w), and the surface strength sigma, from the one
    ladder per degree kept in the store of params (ResonanceError as in
    ``limit_coeffs``); the chains share the store's tables.  Only the
    given degrees are built, so an unpaired degree's resonance never raises.
    """
    _check_support(source, params)
    keys = source.modes() if keys is None else keys
    unit = {n: _unit_ratios(n, params) for n in {n for n, _ in keys}}
    pq = [source.entries[key] for key in keys]
    alpha0, beta0 = ([ScaledComplex.from_complex(unit[n][0] * pair[k])
                      for (n, _), pair in zip(keys, pq)] for k in (0, 1))
    return _hidden_chains(keys, alpha0, beta0, pq, _kept(params),
                          [unit[n][1] * q for (n, _), (_, q) in zip(keys, pq)])


def _check_support(source: SourceCoeffs, params: CloakParams) -> None:
    """DomainError when the source's support radius is not the cloak's."""
    if source.r1 != params.r1:
        raise DomainError(f"source support radius r1={source.r1} differs "
                          f"from the cloak's r1={params.r1}")


def _term_weights(source: SourceCoeffs, params: CloakParams) -> dict:
    """S_n^2 (|p| + |q|) |h_n(k w r1)| per mode, from one table of all
    degrees."""
    if not source.entries:
        return {}
    degrees = sorted({n for n, _ in source.entries})
    tab = specfun.bessel_table(degrees[-1],
                               [params.k * params.omega * source.r1])
    with np.errstate(over="ignore"):
        h_mag = dict(zip(degrees, np.exp(
            tab.hn(np.array(degrees))[0][:, 0]).tolist()))
    return {(n, m): n * (n + 1) * (abs(p) + abs(q)) * h_mag[n]
            for (n, m), (p, q) in sorted(source.entries.items())}


def truncation_order(source: SourceCoeffs, params: CloakParams,
                     tol: float) -> int:
    """Smallest N whose tail S_n^2 (|p| + |q|) |h_n(k w r1)| sums below tol.

    The weight matches the term size of the field series on the support
    sphere, summed over the (gamma, p) and (eta, q) chains, so dropping
    degrees above N perturbs the fields by < tol and no mode driven by
    either chain alone is dropped while its term is above tol.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    weights = _term_weights(source, params)
    degrees = sorted({n for n, _ in weights})
    for cand in [0] + degrees:
        tail = sum(w for (n, _), w in weights.items() if n > cand)
        if tail < tol:
            return cand
    return max(degrees, default=0)


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
                 params: CloakParams, tol: float = 1e-12) -> ModalSolution:
    """Solve every mode carried by the source/boundary tables.

    Modes above the truncation degree are dropped; boundary-only modes are
    always kept.  The solve runs once per degree (every resonance check
    raises here); the modes come from the returned ``SolvedModes``.  A
    source whose support radius differs from params.r1 is rejected with
    DomainError.
    """
    _check_support(source, params)
    boundary = boundary or BoundaryCoeffs()
    n_max = truncation_order(source, params, tol)
    n_max = max(n_max, boundary.max_degree())
    degrees = sorted({n for n, _ in source.entries.keys()
                      | boundary.entries.keys() if n <= n_max})
    ratios = array("d")
    for n in degrees:
        ratios.extend(_pack(_degree_ratios(transfer_coeffs(n, params))))
    modes = SolvedModes(source.entries, boundary.entries, tuple(degrees),
                        ratios)
    return ModalSolution(params=params, source=source, boundary=boundary,
                         modes=modes, n_max=n_max)
