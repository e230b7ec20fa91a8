"""Independent references that the tests check the library against.

Nothing in ``src/cloaksim`` calls these: vector wave fields from one Bessel
ladder and one angular row (not the degree sums of ``fields``), the
half-space jump and wave-equation residuals, the singular-map transport of
a smooth background, the one-sided traces of a finite solution, each
mode's radial rows from scalar ScaledComplex arithmetic, a mode's
coefficients as complex numbers or as packed doubles, the transmission
solve of a mode and the closed forms of the limit in mpmath, and
Gamma(n + 1/2) from ``math.lgamma``.  Not collected; import by name.
"""

import math
from dataclasses import fields

import mpmath
import numpy as np

from cloaksim import geometry, specfun
from cloaksim.errors import DomainError, SingularityError
from cloaksim.fields import FieldSample, _pack_eh, _point
from cloaksim.halfspace import (HalfspaceParams, dispersion_kx, eval_H,
                                solve_amplitudes)
from cloaksim.harmonics import ModeIndex, angular_basis
from cloaksim.modal import (ModalSolution, ModeCoeffs, _term_weights,
                            region_chains)
from cloaksim.scaled import ScaledComplex
from cloaksim.weak_limit import _normal_trace, _tangential_trace

_EPS_TANGENTIAL = 2.0  # eps_y = eps_z = mu_y = mu_z in the anisotropic side


def as_complex(coeffs: ModeCoeffs) -> dict:
    """The six coefficients of a mode as plain complex numbers, by name."""
    return {f.name: getattr(coeffs, f.name).to_complex()
            for f in fields(coeffs)}


def pack(values) -> tuple:
    """ScaledComplex values as (log-magnitude, phase.real, phase.imag)
    doubles."""
    return tuple(x for v in values for x in (v.log_mag, v.phase.real,
                                             v.phase.imag))


def packed(coeffs: ModeCoeffs) -> tuple:
    """The six coefficients of a mode as ``pack`` doubles, in field order:
    equal tuples are equal coefficients, bit for bit (up to the sign of a
    zero)."""
    return pack(getattr(coeffs, f.name) for f in fields(coeffs))


def mp_values(n, t):
    """j_n, h_n, J_n, H_n at t from mpmath's Bessel functions."""
    c = mpmath.sqrt(mpmath.pi / (2 * t))
    j, y = ([c * f(m + 0.5, t) for m in (n - 1, n)]
            for f in (mpmath.besselj, mpmath.bessely))
    h = [a + 1j * b for a, b in zip(j, y)]
    return j[1], h[1], t * j[0] - n * j[1], t * h[0] - n * h[1]


def _cramer(a, r):
    """The solution of the 2x2 system a x = r, and det a."""
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return ((r[0] * a[1][1] - a[0][1] * r[1]) / det,
            (a[0][0] * r[1] - r[0] * a[1][0]) / det), det


def mp_systems(n, omega, rho, eps0, mu0=1):
    """Degree n's two 2x2 interface systems, solved by Cramer's rule at the
    working precision, by name: the tangential rows at the inner radius
    give (c, alpha) = t1 gamma + t1p p, t2 gamma + t2p p and (d, beta) =
    t3 eta + t3p q, t4 eta + t4p q; dn and dnp are the determinants as
    ``modal.transfer_coeffs`` signs them, and with h_n, H_n, j_n and J_n at
    the outer boundary 2 omega come the denominators of gamma and eta."""
    k = mpmath.sqrt(eps0 * mu0)
    se, sm = 1 / mpmath.sqrt(eps0), 1 / mpmath.sqrt(mu0)
    jr, hr, jjr, hhr = mp_values(n, omega * rho)
    jk, hk, jjk, hhk = mp_values(n, k * omega)
    j2, h2, jj2, hh2 = mp_values(n, 2 * omega)
    # rho (c h + gamma j) = se (alpha j + p h) and
    # k (c H + gamma J) = sm (alpha J + p H) at omega rho and k omega
    a = [[rho * hr, -se * jk], [k * hhr, -sm * jjk]]
    (t1, t2), det_a = _cramer(a, [-rho * jr, -k * jjr])
    (t1p, t2p), _ = _cramer(a, [se * hk, sm * hhk])
    # d H + eta J = se (beta J + q H) and
    # rho (d h + eta j) = sm k (beta j + q h)
    b = [[hhr, -se * jjk], [rho * hr, -sm * k * jk]]
    (t3, t4), dnp = _cramer(b, [-jjr, -rho * jr])
    (t3p, t4p), _ = _cramer(b, [se * hhk, sm * k * hk])
    return {"t1": t1, "t2": t2, "t1p": t1p, "t2p": t2p, "t3": t3, "t4": t4,
            "t3p": t3p, "t4p": t4p, "dn": -det_a, "dnp": dnp,
            "h2": h2, "hh2": hh2, "j2": j2, "jj2": jj2,
            "t1*h_n(2w) + j_n(2w)": t1 * h2 + j2,
            "t3*H_n(2w) + J_n(2w)": t3 * hh2 + jj2}


def mp_denominators(n, omega, rho, eps0):
    """The four denominators ``modal.transfer_coeffs`` checks, of degree n
    at mu0 = 1, from ``mp_systems``."""
    s = mp_systems(n, omega, rho, eps0)
    return {name: s[name] for name in ("dn", "dnp", "t1*h_n(2w) + j_n(2w)",
                                       "t3*H_n(2w) + J_n(2w)")}


def mp_mode(n, p, q, f1, f2, params, dps=40) -> list:
    """gamma, eta, c, d, alpha and beta of one mode at dps digits, as mpmath
    complex numbers: the exterior boundary rows c h_n + gamma j_n = f1 and
    d H_n + eta J_n = 2 f2 at 2 omega with the interface systems of
    ``mp_systems``."""
    with mpmath.workdps(dps):
        s = mp_systems(n, *map(mpmath.mpf, (params.omega, params.rho,
                                            params.eps0, params.mu0)))
        p, q, f1, f2 = map(mpmath.mpc, (p, q, f1, f2))
        gamma = (f1 - s["t1p"] * p * s["h2"]) / s["t1*h_n(2w) + j_n(2w)"]
        eta = (2 * f2 - s["t3p"] * q * s["hh2"]) / s["t3*H_n(2w) + J_n(2w)"]
        return [gamma, eta, s["t1"] * gamma + s["t1p"] * p,
                s["t3"] * eta + s["t3p"] * q, s["t2"] * gamma + s["t2p"] * p,
                s["t4"] * eta + s["t4p"] * q]


def truncation_tails(source, params, tol):
    """The truncation degree of ``modal.truncation_order``'s rule, and the
    tail of each candidate N of [0] + degrees, in that order: each tail
    sums afresh the term weight of every mode above N, in ascending key
    order, and the degree is the first N whose tail falls below tol."""
    weights = _term_weights(source, params)
    candidates = [0] + sorted({n for n, _ in weights})
    tails = [sum(w for (n, _), w in weights.items() if n > cand)
             for cand in candidates]
    return next(c for c, tail in zip(candidates, tails) if tail < tol), tails


def packed_error(doubles, reference) -> float:
    """The largest relative error of ``pack`` doubles against reference
    values, as |exp(log_mag) phase - ref| / |ref| formed in mpmath."""
    worst = mpmath.mpf(0)
    with mpmath.workdps(40):
        for i, ref in enumerate(reference):
            log_mag, re, im = doubles[3 * i:3 * i + 3]
            value = mpmath.exp(mpmath.mpf(log_mag)) * mpmath.mpc(re, im)
            worst = max(worst, abs(value - ref) / abs(ref))
    return float(worst)


def gamma_half_int(n: int) -> float:
    """Gamma(n + 1/2) = (2n-1)!!/2^n * sqrt(pi); inf above n ~ 150."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    try:
        return math.exp(math.lgamma(n + 0.5))
    except OverflowError:
        return math.inf


def gamma_half_int_scaled(n: int) -> ScaledComplex:
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    return ScaledComplex.from_log(math.lgamma(n + 0.5), 1.0)


def wave_MN(mode: ModeIndex, omega: float, x, kind: str = "regular"):
    """Divergence-free vector wave field and its curl at a point.

    Args:
        mode: multipole index.
        omega: wavenumber of the radial factor (> 0).
        x: evaluation point, |x| > 0.
        kind: "regular" uses j_n (entire), "radiating" uses h_n (outgoing).

    Returns:
        (value, curl): complex 3-vectors.  value = -S_n f_n(omega |x|) V;
        curl = S_n F_n(omega |x|)/|x| U + S_n^2 f_n(omega |x|)/|x| Y xhat,
        where F_n is the f_n + t f_n' combination.
    """
    if omega <= 0:
        raise DomainError(f"omega must be positive, got {omega}")
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise SingularityError("wave fields are undefined at the origin")
    xhat = x / r
    y_val, u, v = angular_basis(mode, xhat)
    lad = specfun.bessel_ladder(mode.n, omega * r)
    if kind == "regular":
        f = lad.jn(mode.n).to_complex()
        fc = lad.riccati_j(mode.n).to_complex()
    elif kind == "radiating":
        f = lad.hn(mode.n).to_complex()
        fc = lad.riccati_h(mode.n).to_complex()
    else:
        raise DomainError(f"kind must be 'regular' or 'radiating', got {kind!r}")
    s_n = math.sqrt(mode.n * (mode.n + 1))
    value = -s_n * f * v
    curl = s_n * fc / r * u + s_n ** 2 * f / r * y_val * xhat
    return value, curl


def transmission_residuals(params: HalfspaceParams):
    """(|[H_y]|, |[E_z]|) jumps of the one-sided limits at x = 0, relative.

    Tangential H matches as h_in + h_sc = h_plus; tangential E as
    kx- (h_in - h_sc) = kx+ h_plus / 2 (the eps_z = 2 of the anisotropic
    side divides its normal derivative).
    """
    kx_minus, kx_plus = dispersion_kx(params)
    h_plus, h_sc = solve_amplitudes(params)
    jump_h = params.hin + h_sc - h_plus
    scale_h = max(abs(params.hin), abs(h_plus), 1e-300)
    lhs_e = kx_minus * (params.hin - h_sc)
    rhs_e = 0.5 * kx_plus * h_plus
    scale_e = max(abs(lhs_e), abs(rhs_e), 1e-300)
    return abs(jump_h) / scale_h, abs(lhs_e - rhs_e) / scale_e


def mp_reflected_pairing(params: HalfspaceParams, phi, x_lo: float,
                         dps: int = 30, standing: bool = False) -> complex:
    """The integral over (x_lo, 0) of H(x, 0) phi(x) dx for a TestFunction1D
    phi, in mpmath at dps digits: the vacuum field
    H = hin e^(i kx- x) + h_sc e^(-i kx- x) from the dispersion and the
    amplitudes in closed form (with standing, the rho -> 0 limit
    h_sc = -hin), the bump a (x - x_lo)^2 (x_hi - x)^2, and the kinks of
    phi inside (x_lo, 0) as breakpoints."""
    with mpmath.workdps(dps):
        om, kz, rho = (mpmath.mpf(v) for v in (params.omega, params.kz,
                                               params.rho))
        hin = mpmath.mpc(params.hin)
        kx_minus = mpmath.sqrt(om ** 2 - kz ** 2)
        kx_plus = mpmath.sqrt(mpmath.mpc(4 * om ** 2 - (kz / rho) ** 2))
        if kx_plus.imag < 0:
            kx_plus = -kx_plus
        h_sc = -(1 - 4 * kx_minus / (2 * kx_minus + kx_plus)) * hin
        if standing:
            h_sc = -hin
        lo, hi = mpmath.mpf(phi.x_lo), mpmath.mpf(phi.x_hi)

        def integrand(x):
            if not lo < x < hi:
                return mpmath.mpc(0)
            field = (hin * mpmath.exp(1j * kx_minus * x)
                     + h_sc * mpmath.exp(-1j * kx_minus * x))
            return field * phi.amplitude * (x - lo) ** 2 * (hi - x) ** 2

        edges = sorted({mpmath.mpf(x_lo), mpmath.mpf(0),
                        *(x for x in (lo, hi) if x_lo < x < 0)})
        return complex(mpmath.quad(integrand, edges))


def pde_residual(params: HalfspaceParams, x: float, z: float,
                 step: float = 1e-4) -> float:
    """Central-difference residual of the anisotropic wave equation at (x, z)."""
    om = params.omega
    if x > 0:
        eps_x, eps_z, mu_y = 2.0 * params.rho ** 2, _EPS_TANGENTIAL, _EPS_TANGENTIAL
    else:
        eps_x = eps_z = mu_y = 1.0
    offsets = step * np.array([[0, 1, -1, 0, 0], [0, 0, 0, 1, -1]])
    h, h_xp, h_xm, h_zp, h_zm = eval_H(params, x + offsets[0], z + offsets[1])
    d2x = (h_xp - 2 * h + h_xm) / step ** 2
    d2z = (h_zp - 2 * h + h_zm) / step ** 2
    return float(abs((d2x / eps_z + d2z / eps_x) / mu_y + om * om * h))


def eval_ideal_exterior(e_background, h_background, x) -> FieldSample:
    """Transport of a smooth background solution through the singular map.

    Args:
        e_background, h_background: callables y -> complex 3-vector, smooth
            on the punctured ball of radius 2.
        x: physical point with 1 < |x| < 2.
    """
    x, r = _point(x)
    if not 1.0 < r < 2.0:
        raise DomainError(f"ideal layer is 1 < |x| < 2, got |x|={r:.6g}")
    fmap = geometry.BlowupMap()
    y = fmap.inverse(x)
    _, eh = geometry.pushforward_field(
        fmap, y, np.stack([e_background(y), h_background(y)], 1))
    return FieldSample(point=x, eh=_pack_eh(eh.T), space="physical")


def mode_rows(chains, lad) -> np.ndarray:
    """A(j, h), A(J, H), B(j, h) and B(J, H) of every mode of a
    ``RegionChains`` at the argument t of the BesselLadder lad (wavenumber
    times a radius), a (4, modes) array, mode by mode in ScaledComplex
    arithmetic: a chain's coefficients times ``jn`` and ``hn`` at orders
    n - 1 and n, summed to A_{n-1} and A_n, then A(j, h) = A_n and
    A(J, H) = t A_{n-1} - n A_n, made complex only at the end, so a value
    whose products leave double range is finite where it is.  A product
    with ``riccati_j`` or ``riccati_h`` would carry their rounded log
    magnitude, above 512 for degree 160 at t below 2: 5.7e-14 of the
    value.  Neither the product rule of ``specfun.combine`` nor the rows of
    ``RegionChains.degree_rows``."""
    values, rows = [], {}
    for i, (n, _) in enumerate(chains.keys):
        if n not in rows:
            rows[n] = [(lad.jn(k), lad.hn(k)) for k in (n - 1, n)]
        for x, y in (chains.a, chains.b):
            f = [x[i] * j + y[i] * h for j, h in rows[n]]
            values += [f[1].to_complex(),
                       (f[0] * lad.t - f[1] * n).to_complex()]
    return np.array(values, dtype=complex).reshape(-1, 4).T


def riccati_products(tab, n, log_x, log_y) -> tuple:
    """e^log_x J_n and e^log_y H_n at the arguments of the BesselTable tab,
    for an array of orders n and coefficient log magnitudes log_x, log_y
    over them, as two complex arrays (len(n), len(t)): J_n = t j_{n-1} -
    n j_n and H_n alike from the table's rows, each product formed in
    numpy's long double.  That is the x87 extended type (64-bit mantissa,
    magnitudes to e^11356), in which a product's log sum and the difference
    are exact to about 1e-19 and no product leaves range, so each value is
    a few 1e-19 from exact before it rounds to a double: a reference far
    inside the rounding of ``RegionChains.degree_rows``, which a
    ScaledComplex sum, rounding its log magnitude, is not."""
    if np.finfo(np.longdouble).nmant < 63:
        raise RuntimeError("riccati_products needs an extended long double")
    t, n = tab.t.astype(np.longdouble), np.asarray(n)

    def riccati(log_c, rows, signs):
        products = [np.exp(log_c[:, None].astype(np.longdouble)
                           + rows[k].astype(np.longdouble)) * signs[k]
                    for k in (n, n + 1)]  # the rows of orders n - 1 and n
        return t * products[0] - n[:, None] * products[1]

    jj = riccati(log_x, tab.j_log, tab.j_sign)
    hh_j = riccati(log_y, tab.j_log, tab.j_sign)
    hh_y = riccati(log_y, tab.y_log, tab.y_sign)
    return jj.astype(float) + 0j, hh_j.astype(float) + 1j * hh_y.astype(float)


def mp_limit(n, q, params, dps=40) -> tuple:
    """beta0 = -h_n/j_n q, D = sigma / (n h_lead) and
    sigma = -i mu0^(1/2) q / (k^2 omega j_n) of degree n at dps digits, as
    mpmath complex numbers: j_n and h_n at k omega from mpmath's Bessel
    functions, and h_lead = -i (2n - 1)!! / omega^(n + 1) the leading
    small-argument form of h_n at omega."""
    with mpmath.workdps(dps):
        om, mu0 = mpmath.mpf(params.omega), mpmath.mpf(params.mu0)
        k = mpmath.sqrt(mpmath.mpf(params.eps0) * mu0)
        j, h, _, _ = mp_values(n, k * om)
        q = mpmath.mpc(q)
        sigma = -1j * mpmath.sqrt(mu0) * q / (k ** 2 * om * j)
        h_lead = -1j * mpmath.fac2(2 * n - 1) / om ** (n + 1)
        return -h / j * q, sigma / (n * h_lead), sigma


def interior_trace_normal_at(solution: ModalSolution, r: float) -> dict:
    """Finite-regularisation counterpart of
    ``weak_limit.interior_trace_normal``."""
    return _normal_trace(region_chains(solution, "hidden"),
                         solution.params.r1, r)


def tangential_trace_at(solution: ModalSolution) -> dict:
    """Finite-regularisation interface traces (T1, T2) per mode."""
    return _tangential_trace(region_chains(solution, "hidden"))
