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

import json
import math
import warnings
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import specfun
from .errors import ConfigError, DomainError, ResonanceError
from .geometry import CloakParams
from .scaled import ScaledArray, ScaledComplex, scaled_real

# a denominator whose magnitude falls below this fraction of its largest
# term is treated as resonant (frequency inadmissible)
DENOM_FLOOR = 1e-12
# floor on |j_n(k omega)| guarding the interior-limit formulas
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
    params: CloakParams
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


class ModeCoeffs:
    """Solved field coefficients of one mode, kept in log-magnitude form.

    The attributes gamma, eta, c, d, alpha and beta are ScaledComplex.  They
    are stored packed, as (log-magnitude, phase.real, phase.imag) doubles in
    one array, a third of the memory of six ScaledComplex objects; a
    solution keeps six per mode for as long as it lives.  Values round-trip
    exactly.
    """

    __slots__ = ("_packed",)
    _NAMES = ("gamma", "eta", "c", "d", "alpha", "beta")

    def __init__(self, gamma, eta, c, d, alpha, beta):
        self._packed = array("d", [x for v in (gamma, eta, c, d, alpha, beta)
                                   for x in (v.log_mag, v.phase.real,
                                             v.phase.imag)])

    def _value(self, i: int) -> ScaledComplex:
        log_mag, re, im = self._packed[3 * i:3 * i + 3]
        return ScaledComplex(log_mag, complex(re, im))

    gamma = property(lambda self: self._value(0))
    eta = property(lambda self: self._value(1))
    c = property(lambda self: self._value(2))
    d = property(lambda self: self._value(3))
    alpha = property(lambda self: self._value(4))
    beta = property(lambda self: self._value(5))

    def __eq__(self, other):
        if not isinstance(other, ModeCoeffs):
            return NotImplemented
        return self._packed == other._packed

    def __hash__(self):
        return hash(tuple(self._packed))

    def __repr__(self):
        return "ModeCoeffs(" + ", ".join(
            f"{k}={getattr(self, k)!r}" for k in self._NAMES) + ")"

    def as_complex(self) -> dict:
        return {k: getattr(self, k).to_complex() for k in self._NAMES}


@dataclass(frozen=True)
class SourceCoeffs:
    """Multipole table of the interior radiating source.

    entries maps (n, m) -> (p, q); r1 is the declared support radius of the
    generating current.
    """

    entries: dict
    r1: float

    def __post_init__(self):
        for (n, m), (p, q) in self.entries.items():
            if n < 1 or abs(m) > n:
                raise DomainError(f"invalid mode ({n},{m}) in source table")
        if not 0.0 < self.r1 < 1.0:
            raise DomainError(f"r1 must be in (0,1), got {self.r1}")

    def modes(self):
        return sorted(self.entries)


@dataclass(frozen=True)
class BoundaryCoeffs:
    """Tangential boundary data table: (n, m) -> (f1, f2)."""

    entries: dict = field(default_factory=dict)

    def max_degree(self) -> int:
        return max((n for n, _ in self.entries), default=0)


@dataclass(frozen=True)
class ModalSolution:
    """All solved modes for one parameter set plus the data that produced them."""

    params: CloakParams
    source: SourceCoeffs
    boundary: BoundaryCoeffs
    modes: dict  # (n, m) -> ModeCoeffs
    n_max: int


def _ladder_values(n: int, t: float):
    lad = specfun.bessel_ladder(n, t)
    return lad.jn(n), lad.hn(n), lad.riccati_j(n), lad.riccati_h(n)


def transfer_coeffs(n: int, params: CloakParams) -> TransferSet:
    """Transfer ratios of degree n for the given scenario.

    Raises:
        ResonanceError: a shared 2x2 determinant is annihilated by
            cancellation (inadmissible frequency).
    """
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    om, rho, k = params.omega, params.rho, params.k
    se = scaled_real(params.eps0 ** -0.5)
    sm = scaled_real(params.mu0 ** -0.5)
    jr, hr, jjr, hhr = _ladder_values(n, om * rho)
    jk, hk, jjk, hhk = _ladder_values(n, k * om)

    dn_a = sm * rho * hr * jjk
    dn_b = se * k * hhr * jk
    dn = dn_a - dn_b
    dnp_a = se * rho * hr * jjk
    dnp_b = sm * k * hhr * jk
    dnp = dnp_a - dnp_b
    for name, den, t1_, t2_ in (("dn", dn, dn_a, dn_b),
                                ("dnp", dnp, dnp_a, dnp_b)):
        scale = max(t1_.log_mag, t2_.log_mag)
        if den.is_zero or den.log_mag - scale < math.log(DENOM_FLOOR):
            raise ResonanceError(n, name)

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
    return TransferSet(n=n, params=params, t1=t1, t2=t2, t3=t3, t4=t4,
                       t1p=t1p, t2p=t2p, t3p=t3p, t4p=t4p, dn=dn, dnp=dnp,
                       outer=_ladder_values(n, 2.0 * om))


def solve_mode(n: int, p, q, f1, f2, params: CloakParams,
               transfer: TransferSet | None = None) -> ModeCoeffs:
    """Solve one mode for source data (p, q) and boundary data (f1, f2).

    Returns the six field coefficients; m enters only through the data, so
    the same call serves every order of a given degree.

    Raises:
        ResonanceError: interface determinant or exterior-boundary
            denominator below floor.
    """
    ts = transfer if transfer is not None else transfer_coeffs(n, params)
    j2, h2, jj2, hh2 = ts.outer

    den_g = ts.t1 * h2 + j2
    den_e = ts.t3 * hh2 + jj2
    scale_g = max((ts.t1 * h2).log_mag, j2.log_mag)
    scale_e = max((ts.t3 * hh2).log_mag, jj2.log_mag)
    if den_g.is_zero or den_g.log_mag - scale_g < math.log(DENOM_FLOOR):
        raise ResonanceError(n, "t1*h_n(2w) + j_n(2w)")
    if den_e.is_zero or den_e.log_mag - scale_e < math.log(DENOM_FLOOR):
        raise ResonanceError(n, "t3*H_n(2w) + J_n(2w)")

    p_s = ScaledComplex.from_complex(p)
    q_s = ScaledComplex.from_complex(q)
    f1_s = ScaledComplex.from_complex(f1)
    f2_s = ScaledComplex.from_complex(f2)

    gamma = (f1_s - p_s * ts.t1p * h2) / den_g
    eta = (f2_s * 2.0 - ts.t3p * q_s * hh2) / den_e
    c = ts.t1 * gamma + ts.t1p * p_s
    alpha = ts.t2 * gamma + ts.t2p * p_s
    d = ts.t3 * eta + ts.t3p * q_s
    beta = ts.t4 * eta + ts.t4p * q_s
    return ModeCoeffs(gamma=gamma, eta=eta, c=c, d=d, alpha=alpha, beta=beta)


def system_residuals(n: int, p, q, f1, f2, params: CloakParams,
                     coeffs: ModeCoeffs) -> list:
    """Relative residuals of the six matching equations for one mode.

    Each residual is |lhs - rhs| over the largest participating term, so a
    value near machine epsilon certifies the solve.
    """
    om, rho, k = params.omega, params.rho, params.k
    se = scaled_real(params.eps0 ** -0.5)
    sm = scaled_real(params.mu0 ** -0.5)
    jr, hr, jjr, hhr = _ladder_values(n, om * rho)
    jk, hk, jjk, hhk = _ladder_values(n, k * om)
    j2, h2, jj2, hh2 = _ladder_values(n, 2.0 * om)
    g, e = coeffs.gamma, coeffs.eta
    c, d = coeffs.c, coeffs.d
    al, be = coeffs.alpha, coeffs.beta
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


def limit_coeffs(n: int, q, params: CloakParams):
    """Vanishing-regularisation limits for the q-driven chain of degree n.

    Returns:
        (beta0, d_prefactor, sigma):
        beta0: limit of beta, equal to -h_n(k w)/j_n(k w) * q;
        d_prefactor: D with d ~ D * rho^(n+1) as rho -> 0;
        sigma: strength multiplying phi(1) in the interface-layer limit of
            the exterior normal pairing, -i mu0^(1/2) q / (k^2 w j_n(k w)).

    Raises:
        ResonanceError: |j_n(k omega)| below the interior floor.
    """
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    k, om, mu0 = params.k, params.omega, params.mu0
    jk, hk, jjk, hhk = _ladder_values(n, k * om)
    jk_c = jk.to_complex().real
    if abs(jk_c) < INTERIOR_FLOOR:
        raise ResonanceError(n, "j_n(k omega)", abs(jk_c))
    q = complex(q)
    beta0 = -hk.to_complex() / jk_c * q
    sigma = -1j * math.sqrt(mu0) * q / (k ** 2 * om * jk_c)
    # leading coefficient kept in log form: the Gamma factor alone would
    # underflow doubles for large n even though downstream ratios are O(1)
    pref = (ScaledComplex.from_log(
        math.log(2.0 * math.sqrt(math.pi)) - math.lgamma(n + 0.5)
        + (n + 1) * math.log(om / 2.0), 1j)
        * (jjk * hk - hhk * jk)
        * math.sqrt(mu0) / (k * n) / jk_c * q)
    return beta0, pref, sigma


def sigma_uncollapsed(n: int, q, params: CloakParams) -> complex:
    """Interface-layer strength evaluated without the cross-product shortcut.

    S_n^2 mu0^(1/2) [J_n h_n - H_n j_n](k w) / (k n(n+1) j_n(k w)) * q, kept
    as the raw combination; agrees with the collapsed sigma to rounding.
    """
    k, om, mu0 = params.k, params.omega, params.mu0
    jk, hk, jjk, hhk = _ladder_values(n, k * om)
    jk_c = jk.to_complex().real
    if abs(jk_c) < INTERIOR_FLOOR:
        raise ResonanceError(n, "j_n(k omega)", abs(jk_c))
    s2 = n * (n + 1)
    cross = (jjk * hk - hhk * jk).to_complex()
    return s2 * math.sqrt(mu0) * cross / (k * n * (n + 1) * jk_c) * complex(q)


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
    mode index None takes every mode at once, through ScaledArray columns.
    """

    keys: list
    a: tuple
    b: tuple
    wavenumber: float
    e_weight: float = 1.0
    h_weight: float = 1.0
    surface: list | None = None

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.array([n for n, _ in self.keys], dtype=int)

    @cached_property
    def _columns(self):
        return [ScaledArray(
            np.array([c.log_mag for c in coeffs], dtype=float).reshape(-1, 1),
            np.array([c.phase for c in coeffs], dtype=complex).reshape(-1, 1))
            for coeffs in (*self.a, *self.b)]

    def _at(self, i):
        """Degree(s) and (a0, a1, b0, b1) of mode i, or of all for None."""
        if i is None:
            return self.degrees, self._columns
        return self.keys[i][0], [c[i] for c in (*self.a, *self.b)]

    def table(self, r: float):
        """One BesselTable at wavenumber * r serving every mode."""
        return specfun.bessel_table(int(self.degrees.max(initial=0)),
                                    [self.wavenumber * r])

    def normal(self, tab, i=None):
        """B(j, h) of mode i (or all) at the arguments of a BesselTable."""
        n, (_, _, b0, b1) = self._at(i)
        return specfun.combine(b0, tab.jn(n), b1, tab.hn(n))

    def expand(self, tab, i=None):
        """(A(j, h), A(J, H), B(j, h), B(J, H)) of mode i (or all)."""
        n, (a0, a1, b0, b1) = self._at(i)
        j, h, jj, hh = tab.jn(n), tab.hn(n), tab.riccati_j(n), tab.riccati_h(n)
        return (specfun.combine(a0, j, a1, h), specfun.combine(a0, jj, a1, hh),
                specfun.combine(b0, j, b1, h), specfun.combine(b0, jj, b1, hh))


def _hidden_chains(keys, alpha, beta, pq, params, surface=None):
    """Hidden-region chains A = (alpha, p) and B = (beta, q), from the
    complex (p, q) pairs pq, one per key."""
    p, q = ([ScaledComplex.from_complex(v[k]) for v in pq] for k in (0, 1))
    return RegionChains(keys, (alpha, p), (beta, q), params.k * params.omega,
                        params.eps0 ** -0.5, params.mu0 ** -0.5, surface)


def region_chains(solution: ModalSolution, region: str,
                  keys=None) -> RegionChains:
    """The chains of the "layer" (virtual coordinates) or "hidden" region,
    for the given ascending mode keys or every solved mode."""
    keys = sorted(solution.modes) if keys is None else keys
    modes = [solution.modes[key] for key in keys]
    if region == "layer":
        gamma, c, eta, d = ([getattr(co, name) for co in modes]
                            for name in ("gamma", "c", "eta", "d"))
        return RegionChains(keys, (gamma, c), (eta, d), solution.params.omega)
    if region != "hidden":
        raise DomainError(f"region is 'layer' or 'hidden', got {region!r}")
    return _hidden_chains(
        keys, [co.alpha for co in modes], [co.beta for co in modes],
        [solution.source.entries.get(key, (0j, 0j)) for key in keys],
        solution.params)


def limit_chains(source: SourceCoeffs, params: CloakParams,
                 keys=None) -> RegionChains:
    """The rho -> 0 limit of the hidden region, for the given ascending mode
    keys or every source mode: alpha0 = r_n p and beta0 = r_n q with
    r_n = -h_n(k w)/j_n(k w), and the surface strength sigma, from one
    ``limit_coeffs`` per degree (and its ResonanceError).
    """
    keys = source.modes() if keys is None else keys
    unit = {n: limit_coeffs(n, 1.0, params) for n in {n for n, _ in keys}}
    pq = [source.entries[key] for key in keys]
    alpha0, beta0 = ([ScaledComplex.from_complex(unit[n][0] * pair[k])
                      for (n, _), pair in zip(keys, pq)] for k in (0, 1))
    return _hidden_chains(keys, alpha0, beta0, pq, params,
                          [unit[n][2] * q for (n, _), (_, q) in zip(keys, pq)])


def _term_weights(source: SourceCoeffs, params: CloakParams) -> dict:
    """S_n^2 (|p| + |q|) |h_n(k w r1)| per mode, one ladder per degree."""
    t = params.k * params.omega * source.r1
    h_mag = {n: _ladder_values(n, t)[1].magnitude()
             for n in {n for n, _ in source.entries}}
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
    if tol <= 0:
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
    always kept.  A source whose support radius differs from params.r1 is
    rejected with DomainError.
    """
    if source.r1 != params.r1:
        raise DomainError(f"source support radius r1={source.r1} differs "
                          f"from the cloak's r1={params.r1}")
    boundary = boundary or BoundaryCoeffs()
    n_max = truncation_order(source, params, tol)
    n_max = max(n_max, boundary.max_degree())
    keys = sorted(set(source.entries) | set(boundary.entries))
    transfer_cache = {}
    modes = {}
    for (n, m) in keys:
        if n > n_max:
            continue
        p, q = source.entries.get((n, m), (0j, 0j))
        f1, f2 = boundary.entries.get((n, m), (0j, 0j))
        if n not in transfer_cache:
            transfer_cache[n] = transfer_coeffs(n, params)
        modes[(n, m)] = solve_mode(n, p, q, f1, f2, params,
                                   transfer=transfer_cache[n])
    return ModalSolution(params=params, source=source, boundary=boundary,
                         modes=modes, n_max=n_max)


# -- JSON tables --------------------------------------------------------------

def config_number(value, field: str, kind=float):
    """A configuration value converted by ``kind`` (float or int).

    Raises:
        ConfigError: naming ``field``, when the value is not a finite
            number (strings that spell one are accepted, as float() does).
    """
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{field} must be finite, got {value!r}")
    return number


def _complex_field(row, name, kind):
    return complex(config_number(row.get(f"{name}_re", 0.0),
                                 f"{kind} row field {name}_re"),
                   config_number(row.get(f"{name}_im", 0.0),
                                 f"{kind} row field {name}_im"))


def _parse_rows(rows, allowed, kind):
    if not isinstance(rows, list):
        raise ConfigError(f"{kind} table must be a list of row objects")
    entries = {}
    for row in rows:
        if not isinstance(row, dict):
            raise ConfigError(f"{kind} row must be an object, got {type(row).__name__}")
        unknown = set(row) - allowed
        if unknown:
            raise ConfigError(f"unknown fields in {kind} row: {sorted(unknown)}")
        missing = {"n", "m"} - set(row)
        if missing:
            raise ConfigError(f"{kind} row missing fields: {sorted(missing)}")
        n = config_number(row["n"], f"{kind} row field n", int)
        m = config_number(row["m"], f"{kind} row field m", int)
        if (n, m) in entries:
            raise ConfigError(f"duplicate mode ({n},{m}) in {kind} table")
        entries[(n, m)] = row
    return entries


def _parse_table(rows, names, kind):
    """{(n, m): complex values of names} from rows {n, m, <name>_re/_im}."""
    allowed = {"n", "m"} | {f"{x}_{ri}" for x in names for ri in ("re", "im")}
    return {key: tuple(_complex_field(row, x, kind) for x in names)
            for key, row in _parse_rows(rows, allowed, kind).items()}


def parse_source_table(rows, r1: float) -> SourceCoeffs:
    """Source table from JSON rows {n, m, p_re, p_im, q_re, q_im}."""
    return SourceCoeffs(_parse_table(rows, ("p", "q"), "source"), r1)


def parse_boundary_table(rows) -> BoundaryCoeffs:
    """Boundary table from JSON rows {n, m, f1_re, f1_im, f2_re, f2_im}."""
    return BoundaryCoeffs(entries=_parse_table(rows, ("f1", "f2"), "boundary"))


def load_source_table(path, r1: float) -> SourceCoeffs:
    with open(path, encoding="utf-8") as fh:
        return parse_source_table(json.load(fh), r1)
