"""Acceptance gate: every shipped capability at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and then asserts, so the suite doubles as a readable report.
"""

import math
import time
from pathlib import Path

import numpy as np

from cloaksim import halfspace, modal, specfun, weak_limit
from cloaksim.cli import main as cli_main
from cloaksim.geometry import (BlowupMap, CloakParams, ideal_cloak_tensor,
                               pushforward_tensor)
from cloaksim.quadrature import fit_power_law
from cloaksim.weak_limit import RadialTestFunction
from oracle import (interior_trace_normal_at, tangential_trace_at,
                    transmission_residuals)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

OMEGA = 1.0
R1 = 0.5
SRC = modal.SourceCoeffs(entries={(1, 0): (0j, 1 + 0j)}, r1=R1)
PARAMS0 = CloakParams(rho=0.5, omega=OMEGA, r1=R1)
BUMP = RadialTestFunction.polynomial_bump([(1, 0)], 0.5, 1.5)


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def solve_single(rho):
    params = CloakParams(rho=rho, omega=OMEGA, r1=R1)
    return modal.solve_source(SRC, None, params)


def test_criterion_01_special_function_identities():
    t_values = np.linspace(0.1, 50.0, 25)
    n_values = range(2, 61, 3)  # 25 x 20 = 500 grid points
    start = time.perf_counter()
    worst_w = worst_c = 0.0
    for t in t_values:
        lad = specfun.bessel_ladder(60, float(t))
        for n in n_values:
            j = lad.jn(n).to_complex().real
            y = lad.yn(n).to_complex().real
            jp = lad.jn(n - 1).to_complex().real - (n + 1) / t * j
            yp = lad.yn(n - 1).to_complex().real - (n + 1) / t * y
            worst_w = max(worst_w, abs(t * t * (j * yp - jp * y) - 1.0))
            cross = (lad.riccati_j(n) * lad.hn(n)
                     - lad.riccati_h(n) * lad.jn(n)).to_complex()
            worst_c = max(worst_c, abs(cross + 1j / t))
    elapsed = time.perf_counter() - start
    ok = worst_w < 1e-11 and worst_c < 1e-11 and elapsed < 1.0
    report(1, ok,
           f"wronskian {worst_w:.2e}, cross-product {worst_c:.2e} "
           f"(tol 1e-11), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_transformation_oracle():
    rng = np.random.default_rng(2024)
    fmap = BlowupMap()
    worst = 0.0
    count = 0
    while count < 200:
        y = rng.uniform(-2, 2, 3)
        r = np.linalg.norm(y)
        if not 1e-3 < r < 1.999:
            continue
        count += 1
        x, tensor = pushforward_tensor(fmap, y)
        worst = max(worst, float(np.max(np.abs(tensor - ideal_cloak_tensor(x)))))
    deltas = np.logspace(-4, -2, 9)
    eigs = []
    for d in deltas:
        y = fmap.inverse([1.0 + d, 0.0, 0.0])
        _, tensor = pushforward_tensor(fmap, y)
        eigs.append(np.min(np.linalg.eigvalsh(tensor)))
    slope = fit_power_law(deltas, eigs)
    ok = worst < 1e-12 and abs(slope - 2.0) < 0.05
    report(2, ok,
           f"closed-form deviation {worst:.2e} (tol 1e-12) at 200 points, "
           f"degenerate-eigenvalue slope {slope:.3f} (2 +/- 0.05)")


def test_criterion_03_modal_system_residuals():
    worst = 0.0
    for rho in (0.2, 0.05, 1e-3):
        params = CloakParams(rho=rho, omega=OMEGA, r1=R1)
        co = modal.solve_mode(1, 0, 1.0, 0, 0, params)
        worst = max(worst, max(modal.system_residuals(
            1, 0, 1.0, 0, 0, params, co)))
    ok = worst < 1e-10
    report(3, ok, f"max matching residual {worst:.2e} (tol 1e-10) "
                  "at rho in {0.2, 0.05, 1e-3}")


def test_criterion_04_transfer_asymptotics():
    worst_small = 0.0
    for n in range(1, 6):
        rho = 1e-3
        params = CloakParams(rho=rho, omega=OMEGA, r1=R1)
        ts = modal.transfer_coeffs(n, params)
        g12 = math.exp(math.lgamma(n + 0.5))
        g32 = math.exp(math.lgamma(n + 1.5))
        lad = specfun.bessel_ladder(n, params.k * OMEGA)
        jk = lad.jn(n).to_complex().real
        hk = lad.hn(n).to_complex()
        cross = (lad.riccati_j(n) * lad.hn(n)
                 - lad.riccati_h(n) * lad.jn(n)).to_complex()
        t3_lead = (1j * math.pi * (n + 1) / (g12 * g32 * n)
                   * (OMEGA / 2) ** (2 * n + 1) * rho ** (2 * n + 1))
        t4_lead = ((2 * n + 1) * math.sqrt(math.pi)
                   / (g32 * params.k * OMEGA * n * jk)
                   * (OMEGA / 2) ** (n + 1) * rho ** (n + 1))
        t3p_lead = (2j * math.sqrt(math.pi) * cross / (g12 * params.k * n * jk)
                    * (OMEGA / 2) ** (n + 1) * rho ** (n + 1))
        worst_small = max(
            worst_small,
            abs(ts.t3.to_complex() / t3_lead - 1),
            abs(ts.t4.to_complex() / t4_lead - 1),
            abs(ts.t3p.to_complex() / t3p_lead - 1))
    worst_t4p = 0.0
    for n in range(1, 6):
        params4 = CloakParams(rho=1e-4, omega=OMEGA, r1=R1)
        ts4 = modal.transfer_coeffs(n, params4)
        lad = specfun.bessel_ladder(n, OMEGA)
        ratio = ts4.t4p.to_complex() / (-lad.hn(n).to_complex()
                                        / lad.jn(n).to_complex().real)
        worst_t4p = max(worst_t4p, abs(ratio - 1))
    ok = worst_small < 0.05 and worst_t4p < 1e-3
    report(4, ok,
           f"t3/t4/t3' leading-form ratio error {worst_small:.2e} "
           f"(tol 0.05) at rho=1e-3, t4' ratio error {worst_t4p:.2e} "
           "(tol 1e-3) at rho=1e-4")


def test_criterion_05_interface_delta_emergence():
    beta0, _, sigma = modal.limit_coeffs(1, 1.0, PARAMS0)
    raw = modal.sigma_uncollapsed(1, 1.0, PARAMS0)
    collapse_err = abs(sigma / raw - 1)
    target = sigma * BUMP.profiles[(1, 0)][0](1.0)
    rhos = (1e-2, 3e-3, 1e-3)
    errs = []
    for rho in rhos:
        sol = solve_single(rho)
        val = weak_limit.pairing_exterior_normal(sol, BUMP, tol=1e-10)
        errs.append(abs(val - target))
    order = fit_power_law(rhos, errs)
    final_rel = errs[-1] / abs(target)
    ok = collapse_err < 1e-12 and order >= 0.8 and final_rel < 0.02
    report(5, ok,
           f"pairing -> sigma*phi(1): fitted order {order:.2f} (>= 0.8), "
           f"final relative error {final_rel:.2e} (< 2e-2), collapsed-vs-raw "
           f"sigma deviation {collapse_err:.2e} (tol 1e-12)")


def test_criterion_06_interior_boundary_condition():
    tr = weak_limit.interior_trace_normal(SRC, PARAMS0, 1.0)
    cancel = abs(tr[(1, 0)])
    rhos = (1e-2, 1e-3, 1e-4)
    errs = []
    for rho in rhos:
        sol = solve_single(rho)
        errs.append(abs(interior_trace_normal_at(sol, 1.0)[(1, 0)]))
    slope = fit_power_law(rhos, errs)
    ok = cancel < 1e-13 and abs(slope - 1.0) < 0.15
    report(6, ok,
           f"limit normal trace at interface {cancel:.2e} (tol 1e-13), "
           f"finite-regularisation decay slope {slope:.3f} (1 +/- 0.15)")


def test_criterion_07_tangential_trace_limit():
    t1, _ = weak_limit.tangential_trace_limit(SRC, PARAMS0)[(1, 0)]
    lad = specfun.bessel_ladder(1, OMEGA)
    j1 = lad.jn(1).to_complex().real
    ident_err = abs(t1 * OMEGA * j1 / 1j - 1.0)
    rhos = (1e-2, 1e-3, 1e-4)
    errs = []
    for rho in rhos:
        sol = solve_single(rho)
        t1_rho = tangential_trace_at(sol)[(1, 0)][0]
        errs.append(abs(t1_rho - t1))
    slope = fit_power_law(rhos, errs)
    ok = ident_err < 1e-12 and abs(slope - 1.0) < 0.15
    report(7, ok,
           f"closed-form trace identity error {ident_err:.2e} (tol 1e-12), "
           f"convergence slope {slope:.3f} (1 +/- 0.15)")


def test_criterion_08_energy_growth_diagnostic():
    # stated expectation: the degenerate-weight energy at delta = 0 grows
    # monotonically as the regularisation vanishes
    energies = []
    for rho in (1e-1, 1e-2, 1e-3):
        sol = solve_single(rho)
        energies.append(weak_limit.energy_integral(sol, delta=0.0, tol=1e-7))
    ok = energies[0] < energies[1] < energies[2]
    report(8, ok,
           "energy at rho {1e-1, 1e-2, 1e-3} = "
           + ", ".join(f"{e:.6f}" for e in energies)
           + (" monotone increasing" if ok else " NOT monotone increasing"))


def test_criterion_09_halfspace():
    worst_uni = worst_res = 0.0
    for rho in (1e-2, 3e-3, 1e-3, 1e-4):
        params = halfspace.HalfspaceParams(omega=OMEGA, kz=0.5, rho=rho)
        _, h_sc = halfspace.solve_amplitudes(params)
        worst_uni = max(worst_uni, abs(abs(h_sc) - 1.0))
        worst_res = max(worst_res, max(transmission_residuals(params)))
    rhos = (1e-2, 1e-3, 1e-4)
    refl_errs = [abs(halfspace.solve_amplitudes(
        halfspace.HalfspaceParams(omega=OMEGA, kz=0.5, rho=r))[1] + 1.0)
        for r in rhos]
    refl_slope = fit_power_law(rhos, refl_errs)
    params_list = [halfspace.HalfspaceParams(omega=OMEGA, kz=0.5, rho=r)
                   for r in (1e-2, 3e-3, 1e-3)]
    _, mass_exponent = halfspace.limit_study(
        params_list, halfspace.TestFunction1D(-1.5, -0.2), halfwidth=2.0)
    ok = (worst_uni < 1e-13 and abs(refl_slope - 1.0) < 0.1
          and worst_res < 1e-11 and math.isfinite(mass_exponent))
    report(9, ok,
           f"|h_sc/h_in|-1 = {worst_uni:.2e} (tol 1e-13), reflection->-1 "
           f"slope {refl_slope:.3f} (1 +/- 0.1), matching residual "
           f"{worst_res:.2e} (tol 1e-11); measured transmitted-mass "
           f"exponent {mass_exponent:.3f} (reported, not asserted)")


def test_criterion_10_determinism(tmp_path):
    outputs = {}
    for tag in ("first", "second"):
        for name, cfg in (("converge", "converge_single_mode.json"),
                          ("halfspace", "halfspace_sweep.json"),
                          ("fields", "fields_single_mode.json")):
            out = tmp_path / f"{name}-{tag}"
            code = cli_main([name, "--config", str(SCENARIOS / cfg),
                             "--out", str(out)])
            assert code == 0
            for child in sorted(out.iterdir()):
                outputs.setdefault((name, child.name), []).append(
                    child.read_bytes())
    ok = all(a == b for a, b in outputs.values())
    report(10, ok, f"{len(outputs)} output files byte-identical across reruns")
