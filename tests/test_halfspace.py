import cmath
import math
import warnings

import numpy as np
import pytest

from cloaksim.errors import DomainError
from cloaksim import halfspace as hs
from cloaksim.quadrature import fit_power_law
from oracle import mp_reflected_pairing, pde_residual, transmission_residuals


def make(rho, omega=1.0, kz=0.5, hin=1.0 + 0j):
    return hs.HalfspaceParams(omega=omega, kz=kz, rho=rho, hin=hin)


class TestDispersion:
    def test_evanescent_value(self):
        # 4 w^2 - kz^2/rho^2 = 4 - 25 = -21 at w=1, kz=0.5, rho=0.1
        kxm, kxp = hs.dispersion_kx(make(0.1))
        assert kxm == pytest.approx(math.sqrt(0.75), rel=1e-15)
        assert kxp.real == 0.0
        assert kxp.imag == pytest.approx(math.sqrt(21.0), rel=1e-14)

    def test_propagating_regime(self):
        params = hs.HalfspaceParams(omega=1.0, kz=0.5, rho=0.9)
        _, kxp = hs.dispersion_kx(params)
        assert kxp.imag == 0.0
        assert kxp.real == pytest.approx(math.sqrt(4.0 - 0.25 / 0.81), rel=1e-14)
        assert hs.decay_rate(params) == 0.0  # not evanescent

    def test_decay_rate_scales_inverse_rho(self):
        rhos = np.logspace(-4, -2, 7)
        rates = [hs.decay_rate(make(r)) for r in rhos]
        slope = np.polyfit(np.log(rhos), np.log(rates), 1)[0]
        assert abs(slope + 1.0) < 0.01

    def test_grazing_incidence_rejected(self):
        with pytest.raises(DomainError):
            hs.HalfspaceParams(omega=1.0, kz=1.0, rho=0.1)

    @pytest.mark.parametrize("name, value", [
        ("omega", math.inf), ("omega", math.nan), ("kz", math.nan),
        ("rho", math.nan), ("hin", math.nan), ("hin", complex(1.0, math.inf))])
    def test_non_finite_values_are_rejected(self, name, value):
        base = dict(omega=1.0, kz=0.5, rho=0.1, hin=1.0 + 0j)
        base[name] = value
        with pytest.raises(DomainError, match=name):
            hs.HalfspaceParams(**base)


class TestAmplitudes:
    @pytest.mark.parametrize("rho", [0.2, 0.05, 1e-3, 1e-5])
    def test_unimodular_reflection_in_evanescent_regime(self, rho):
        params = make(rho)
        if hs.decay_rate(params) == 0.0:
            pytest.skip("propagating")
        _, h_sc = hs.solve_amplitudes(params)
        assert abs(abs(h_sc) - abs(params.hin)) < 1e-13

    def test_reflection_tends_to_minus_one_first_order(self):
        rhos = (1e-2, 1e-3, 1e-4)
        errs = [abs(hs.solve_amplitudes(make(r))[1] / make(r).hin + 1.0)
                for r in rhos]
        slope = fit_power_law(rhos, errs)
        assert abs(slope - 1.0) < 0.1

    def test_matched_case_no_reflection(self):
        # kx+ = 2 kx- happens (real branch) when 4w^2 - kz^2/rho^2 = 4(w^2 - kz^2)
        # i.e. rho = 1/(2 sqrt(1 - ... )) solve: kz^2/rho^2 = 4 kz^2 -> rho = 1/2
        params = hs.HalfspaceParams(omega=1.0, kz=0.5, rho=0.5)
        kxm, kxp = hs.dispersion_kx(params)
        assert kxp == pytest.approx(2 * kxm, rel=1e-14)
        _, h_sc = hs.solve_amplitudes(params)
        assert abs(h_sc) < 1e-15


class TestFields:
    def test_continuity_at_interface(self):
        params = make(0.07, hin=0.8 - 0.3j)
        left = hs.eval_H(params, -1e-15, 0.4)
        right = hs.eval_H(params, 1e-15, 0.4)
        assert abs(left - right) < 1e-12 * abs(left)

    def test_transmission_residuals(self):
        for rho in (0.3, 0.05, 1e-3):
            res_h, res_e = transmission_residuals(make(rho))
            assert res_h < 1e-11
            assert res_e < 1e-11

    def test_pure_exponential_decay(self):
        params = make(0.05)
        t = hs.decay_rate(params)
        h0 = hs.eval_H(params, 1e-15, 0.0)
        for x in (0.01, 0.1, 0.5):
            ratio = abs(hs.eval_H(params, x, 0.0) / h0)
            assert ratio == pytest.approx(math.exp(-t * x), rel=1e-10)

    @pytest.mark.parametrize("point", [(-0.7, 0.2), (0.03, -0.4)])
    def test_pde_residual_order2(self, point):
        # steps kept above the second-difference rounding floor
        params = make(0.2)
        x, z = point
        errs, steps = [], (4e-3, 2e-3, 1e-3)
        for s in steps:
            errs.append(pde_residual(params, x, z, step=s))
        order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert abs(order - 2.0) < 0.3


class TestLimitStudy:
    def test_reflected_side_approaches_standing_wave(self):
        phi = hs.TestFunction1D(-1.5, -0.2)
        params = make(1e-3)
        got = hs.reflected_pairing(params, phi, -2.0)
        ref = hs.standing_wave_pairing(params, phi, -2.0)
        assert abs(got - ref) <= 0.01 * abs(ref)

    def test_transmitted_mass_decays_quadratically(self):
        params_list = [make(r) for r in (1e-2, 3e-3, 1e-3)]
        rows, exponent = hs.limit_study(params_list, hs.TestFunction1D(-1.0, 1.0),
                                        halfwidth=2.0)
        assert abs(exponent - 2.0) < 0.1
        # analytic boundary-layer content: h_plus / t
        for row, params in zip(rows, params_list):
            t = hs.decay_rate(params)
            assert row["transmitted_mass"] == pytest.approx(
                row["h_plus"] / t, rel=1e-6)

    def test_straddling_support_with_interface_zero(self):
        # a profile vanishing at x = 0 kills any interface-concentrated term
        phi = hs.TestFunction1D(-0.5, 0.5)
        zero_at_0 = lambda x: x * x * phi(x)
        params = make(1e-4)
        kxm, _ = hs.dispersion_kx(params)

        def limit_field(x):
            if x >= 0:
                return 0.0
            return (cmath.exp(1j * kxm * x) - cmath.exp(-1j * kxm * x)) * params.hin

        got = (hs.reflected_pairing(params, zero_at_0, -0.5)
               + hs.transmitted_pairing(params, zero_at_0, 0.5))
        from cloaksim.quadrature import integrate_panels
        ref = integrate_panels(lambda x: limit_field(x) * zero_at_0(x),
                               np.linspace(-0.5, 0.0, 9), tol=1e-12)
        assert abs(got - ref) <= 0.01 * max(abs(ref), 1e-6)

    def test_no_incident_field_gives_nan_exponent(self):
        # every transmitted mass is 0: no power law to fit
        params_list = [make(r, hin=0j) for r in (1e-2, 3e-3, 1e-3)]
        rows, exponent = hs.limit_study(params_list, hs.TestFunction1D(-1.0, 1.0),
                                        halfwidth=2.0)
        assert [row["transmitted_mass"] for row in rows] == [0j] * 3
        assert math.isnan(exponent)

    @pytest.mark.parametrize("x_lo, x_hi, amplitude, named", [
        (-0.2, -1.5, 1.0, "x_lo < x_hi"),          # reversed support
        (0.5, 0.5, 1.0, "x_lo < x_hi"),            # empty support
        (math.nan, 0.5, 1.0, "x_lo < x_hi"),
        (-1.5, -0.2, math.inf, "amplitude must be finite"),
        (-1.5, -0.2, math.nan, "amplitude must be finite"),
    ])
    def test_test_function_rejects_bad_profile(self, x_lo, x_hi, amplitude,
                                               named):
        with pytest.raises(DomainError, match=named):
            hs.TestFunction1D(x_lo, x_hi, amplitude)

    def test_transmitted_pairing_vanishes(self):
        phi = hs.TestFunction1D(0.05, 1.0)
        vals = []
        for rho in (1e-2, 1e-3):
            vals.append(abs(hs.transmitted_pairing(make(rho), phi, 1.5)))
        assert vals[1] < vals[0]
        assert vals[1] < 1e-5


def scalar_H(params, x, z):
    """The field by the closed form, one point at a time."""
    kxm, kxp = hs.dispersion_kx(params)
    h_plus, h_sc = hs.solve_amplitudes(params)
    if x > 0:
        return h_plus * cmath.exp(1j * (kxp * x + params.kz * z))
    return (params.hin * cmath.exp(1j * (kxm * x + params.kz * z))
            + h_sc * cmath.exp(1j * (-kxm * x + params.kz * z)))


class TestArrays:
    @pytest.mark.parametrize("rho", [0.9, 0.07, 1e-3])
    def test_eval_H_matches_pointwise_values(self, rho):
        params = make(rho, hin=0.8 - 0.3j)
        x = np.concatenate([np.linspace(-2.0, 2.0, 41), [0.0, -1e-15, 1e-15]])
        z = np.linspace(-0.5, 0.7, x.size)
        got = hs.eval_H(params, x, z)
        assert got.shape == x.shape
        # the vacuum field is a sum of two unit waves that nearly cancel at
        # small rho; its rounding is relative to their size
        vacuum_scale = abs(params.hin) + abs(hs.solve_amplitudes(params)[1])
        for xi, zi, gi in zip(x.tolist(), z.tolist(), got.tolist()):
            ref = scalar_H(params, xi, zi)
            scale = abs(ref) if xi > 0 else vacuum_scale
            assert abs(gi - ref) <= 1e-15 * scale, (xi, zi)

    def test_eval_H_broadcasts_and_keeps_scalars(self):
        params = make(0.05)
        grid = hs.eval_H(params, np.array([[-0.3], [0.2]]),
                         np.array([0.0, 0.4]))
        assert grid.shape == (2, 2)
        value = hs.eval_H(params, 0.2, 0.4)
        assert isinstance(value, complex)
        assert abs(value - grid[1, 1]) <= 1e-15 * abs(value)

    def test_no_overflow_on_the_vacuum_side(self):
        # the anisotropic branch grows like exp(|x| / rho) for x < 0; it
        # must not be formed there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = hs.eval_H(make(1e-4), np.linspace(-2.0, 2.0, 101), 0.0)
        assert np.all(np.isfinite(values))

    def test_test_function_on_arrays(self):
        phi = hs.TestFunction1D(-1.5, -0.2, amplitude=3.0)
        x = np.array([-3.0, -1.5, -1.0, -0.5, -0.2, 0.0, 2.0])
        got = phi(x)
        assert got.tolist() == [phi(v) for v in x.tolist()]
        assert got[[0, 1, 4, 5, 6]].tolist() == [0.0] * 5
        assert got[2] == pytest.approx(3.0 * 0.25 * 0.64, rel=1e-15)


# limit_study on scenarios/halfspace_sweep.json: amplitudes and masses
# frozen from the scalar per-point implementation, reflected pairings the
# 30-digit oracle.mp_reflected_pairing rounded to doubles
FROZEN_SWEEP = [
    (0.01, 0.002400960384153661 - 0.06925428620338994j,
     -0.9975990396158463 - 0.06925428620338994j,
     4.8057669209209814e-05 - 0.0013861951241047436j,
     0.0058410304479569125 - 0.16848107825324035j),
    (0.003, 0.0002160077762799461 - 0.020783861364060307j,
     -0.99978399222372 - 0.020783861364060307j,
     1.2961399831182982e-06 - 0.00012471214778227933j,
     0.0017077101034363277 - 0.16431264953085317j),
    (0.001, 2.4000096000383997e-05 - 0.006928175517130031j,
     -0.9999759999039997 - 0.006928175517130031j,
     4.8000576006912085e-08 - 1.3856461886398563e-05j,
     0.0005649507482966425 - 0.16308592860088825j),
]


def test_limit_study_reproduces_frozen_sweep():
    params_list = [make(row[0]) for row in FROZEN_SWEEP]
    rows, exponent = hs.limit_study(params_list, hs.TestFunction1D(-1.5, -0.2),
                                    halfwidth=2.0, tol=1e-10)
    assert exponent == pytest.approx(2.0004354456436677, rel=1e-13)
    for row, (rho, *frozen) in zip(rows, FROZEN_SWEEP):
        assert row["rho"] == rho
        got = [row[k] for k in ("h_plus", "h_sc", "transmitted_mass",
                                "reflected_pairing")]
        for g, f in zip(got, frozen):
            assert abs(g - f) <= 1e-13 * abs(f), (rho, g, f)


def test_frozen_pairings_are_the_mpmath_reference():
    phi = hs.TestFunction1D(-1.5, -0.2)
    for rho, *_, pairing in FROZEN_SWEEP:
        assert mp_reflected_pairing(make(rho), phi, -2.0) == pairing


@pytest.mark.parametrize("support", [(-1.5, -0.2), (-1.9, -0.55), (-3.0, -1.2),
                                     (-0.9, 0.4)])
@pytest.mark.parametrize("rho", [1e-2, 1e-4])
def test_reflected_pairing_meets_the_mpmath_reference(support, rho):
    """A support end inside a panel is a panel edge, so the pairing and
    its rho -> 0 limit at tol = 1e-10 are each within a few roundings of
    the 30-digit integral."""
    phi, params = hs.TestFunction1D(*support), make(rho)
    for pairing, standing in ((hs.reflected_pairing, False),
                              (hs.standing_wave_pairing, True)):
        ref = mp_reflected_pairing(params, phi, -2.0, standing=standing)
        assert abs(pairing(params, phi, -2.0) - ref) <= 1e-14 * abs(ref)
