import math
import re

import numpy as np
import pytest
from scipy import special as sp

from cloaksim.errors import ConfigError, DomainError, SingularityError
from cloaksim.geometry import CloakParams, CloakOuterMap, cloak_layer_tensor, ideal_cloak_tensor
from cloaksim.harmonics import (_POLE_SIN, ModeIndex, angular_basis,
                                angular_scalars, angular_table)
from cloaksim import cli, fields, geometry, modal, specfun
from oracle import as_complex, eval_ideal_exterior, mode_rows, wave_MN


def single_mode_solution(rho=0.1, omega=1.0, eps0=1.0, mu0=1.0, q=1.0):
    src = modal.SourceCoeffs(entries={(1, 0): (0j, complex(q))}, r1=0.5)
    params = CloakParams(rho=rho, omega=omega, eps0=eps0, mu0=mu0, r1=0.5)
    return modal.solve_source(src, None, params)


SOL = single_mode_solution()


class TestVirtualExterior:
    def test_zero_solution_gives_zero_fields(self):
        src = modal.SourceCoeffs(entries={(1, 0): (0j, 0j)}, r1=0.5)
        sol = modal.solve_source(src, None, CloakParams(rho=0.1, omega=1.0))
        s = fields.eval_virtual_exterior(sol, [0.0, 0.9, 0.0])
        assert np.allclose(s.E, 0) and np.allclose(s.H, 0)

    def test_domain_error_outside_annulus(self):
        with pytest.raises(DomainError):
            fields.eval_virtual_exterior(SOL, [0.05, 0.0, 0.0])
        with pytest.raises(DomainError):
            fields.eval_virtual_exterior(SOL, [2.5, 0.0, 0.0])

    def test_no_foreign_angular_content(self):
        # project the radial component at fixed radius onto a (1, 1) harmonic
        r = 0.9
        x, w = np.polynomial.legendre.leggauss(16)
        phis = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        acc = 0j
        for ct, wt in zip(x, w):
            st = math.sqrt(1 - ct * ct)
            for ph in phis:
                d = np.array([st * math.cos(ph), st * math.sin(ph), ct])
                s = fields.eval_virtual_exterior(SOL, r * d)
                val = np.dot(d, s.E)
                acc += wt * (2 * np.pi / len(phis)) * val * np.conj(
                    angular_basis(ModeIndex(1, 1), d)[0])
        assert abs(acc) < 1e-10

    def test_faraday_equation_fd_convergence(self):
        y0 = np.array([0.5, 0.6, -0.3])

        def e_field(pt):
            return fields.eval_virtual_exterior(SOL, pt).E

        h_here = fields.eval_virtual_exterior(SOL, y0).H
        errs = []
        steps = (1e-3, 5e-4, 2.5e-4)
        for h in steps:
            curl = fields.fd_curl(e_field, y0, step=h)
            errs.append(np.max(np.abs(curl - 1j * SOL.params.omega * h_here)))
        order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert abs(order - 2.0) < 0.2

    def test_ampere_equation_pointwise(self):
        y0 = np.array([-0.2, 1.1, 0.4])

        def h_field(pt):
            return fields.eval_virtual_exterior(SOL, pt).H

        e_here = fields.eval_virtual_exterior(SOL, y0).E
        curl = fields.fd_curl(h_field, y0, step=5e-5)
        assert np.max(np.abs(curl + 1j * SOL.params.omega * e_here)) < 1e-7


class TestPhysical:
    def test_interface_evaluation_rejected(self):
        with pytest.raises(SingularityError):
            fields.eval_physical(SOL, [1.0, 0.0, 0.0])

    def test_region_bounds(self):
        with pytest.raises(DomainError):
            fields.eval_physical(SOL, [0.3, 0.0, 0.0])
        with pytest.raises(DomainError):
            fields.eval_physical(SOL, [0.0, 0.0, 2.4])

    def test_layer_value_is_pushforward_of_virtual(self):
        rng = np.random.default_rng(0)
        fmap = CloakOuterMap(SOL.params)
        for _ in range(10):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            x = d * rng.uniform(1.01, 1.99)
            sample = fields.eval_physical(SOL, x)
            y = fmap.inverse(x)
            virt = fields.eval_virtual_exterior(SOL, y)
            _, e_ref = geometry.pushforward_field(fmap, y, virt.E)
            _, h_ref = geometry.pushforward_field(fmap, y, virt.H)
            assert np.max(np.abs(sample.E - e_ref)) < 1e-12 * max(1, np.max(np.abs(e_ref)))
            assert np.max(np.abs(sample.H - h_ref)) < 1e-12 * max(1, np.max(np.abs(h_ref)))

    def test_tangential_continuity_across_interface(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            plus = fields.eval_physical(SOL, d * (1 + 1e-8))
            minus = fields.eval_physical(SOL, d * (1 - 1e-8))
            scale = max(np.max(np.abs(plus.E)), np.max(np.abs(minus.E)), 1.0)
            jump_e = np.cross(d, plus.E) - np.cross(d, minus.E)
            jump_h = np.cross(d, plus.H) - np.cross(d, minus.H)
            assert np.max(np.abs(jump_e)) < 1e-6 * scale
            assert np.max(np.abs(jump_h)) < 1e-6 * scale

    def test_interior_normal_component_formula(self):
        # xhat . E at radius r from the expansion coefficients directly
        rng = np.random.default_rng(2)
        params = SOL.params
        kw = params.k * params.omega
        co = as_complex(SOL.modes[(1, 0)])
        q = SOL.source.entries[(1, 0)][1]
        for _ in range(5):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            r = rng.uniform(0.55, 0.95)
            s = fields.eval_physical(SOL, d * r)
            j = sp.spherical_jn(1, kw * r)
            h = j + 1j * sp.spherical_yn(1, kw * r)
            expected = (params.eps0 ** -0.5 * 2.0 / r * (co["beta"] * j + q * h)
                        * angular_basis(ModeIndex(1, 0), d)[0])
            assert abs(np.dot(d, s.E) - expected) < 1e-12 * max(1, abs(expected))

    def test_layer_maxwell_with_pushforward_material(self):
        x0 = np.array([0.9, 0.7, 0.5])
        mu_t = cloak_layer_tensor(SOL.params, x0)

        def e_field(pt):
            return fields.eval_physical(SOL, pt).E

        def h_field(pt):
            return fields.eval_physical(SOL, pt).H

        errs = []
        steps = (1e-3, 5e-4, 2.5e-4)
        h_here = h_field(x0)
        for h in steps:
            curl = fields.fd_curl(e_field, x0, step=h)
            errs.append(np.max(np.abs(curl - 1j * SOL.params.omega * (mu_t @ h_here))))
        order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert abs(order - 2.0) < 0.2

    def test_energy_integrand_finite_off_interface(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            r = rng.choice([rng.uniform(0.55, 0.99), rng.uniform(1.001, 1.99)])
            x = d * r
            s = fields.eval_physical(SOL, x)
            eps_t = (np.eye(3) if r < 1.0
                     else cloak_layer_tensor(SOL.params, x))
            dens = np.real(np.conj(s.E) @ (eps_t @ s.E))
            assert math.isfinite(dens) and dens >= 0.0

    def test_energy_density_identity_layer(self):
        # weighted physical density equals |E|^2 + |H|^2 of the pre-image
        # divided by the Jacobian determinant
        fmap = CloakOuterMap(SOL.params)
        x0 = np.array([0.2, -1.2, 0.3])
        s = fields.eval_physical(SOL, x0)
        eps_t = cloak_layer_tensor(SOL.params, x0)
        dens_phys = np.real(np.conj(s.E) @ (eps_t @ s.E)
                            + np.conj(s.H) @ (eps_t @ s.H))
        y = fmap.inverse(x0)
        virt = fields.eval_virtual_exterior(SOL, y)
        det = fmap.det_jacobian(y)
        dens_virt = (np.linalg.norm(virt.E) ** 2 + np.linalg.norm(virt.H) ** 2) / det
        assert dens_phys == pytest.approx(dens_virt, rel=1e-12)


    @pytest.mark.parametrize("x", [[0.3, -0.4, 0.5], [1.2, 0.0, 0.3]])
    def test_samples_are_packed_and_read_only(self, x):
        # hidden and layer samples hold one 96-byte buffer, no arrays
        s = fields.eval_physical(SOL, x)
        assert not hasattr(s, "__dict__") and len(s.eh) == 96
        assert s.E.shape == s.H.shape == (3,)
        assert not s.E.flags.writeable and not s.H.flags.writeable
        assert np.array_equal(np.concatenate([s.E, s.H]),
                              np.frombuffer(s.eh, dtype=complex))


@pytest.mark.parametrize("evaluate", [fields.eval_physical,
                                      fields.eval_virtual_exterior])
@pytest.mark.parametrize("point", [[0.6, 0.1], [[0.6, 0.0, 0.0]],
                                   [0.6, 0.0, 0.0, 0.0], 0.7])
def test_point_of_wrong_shape_names_it(evaluate, point):
    with pytest.raises(DomainError,
                       match=re.escape(f"got shape {np.shape(point)}")):
        evaluate(SOL, point)


# -- the per-degree kernel against the per-mode sum ---------------------------


def per_mode_expand(chains, x, r, rows):
    """(2, 3) E/H rows of a region's expansion at x, |x| = r, mode by mode:
    every mode's chains from the scalar ``oracle.mode_rows``, then summed
    with its U, V and Y vectors.  rows keeps ``mode_rows`` by radius, for
    the points of one radius to share."""
    w, s_n = chains.wavenumber, chains.mode_factors.s_n
    if r not in rows:
        rows[r] = mode_rows(chains, chains.table(r).column(0))
    a_j, a_jj, b_j, b_jj = rows[r]
    y_val, u, v = angular_table(chains.key_array, x / r)
    e_w, h_w = chains.e_weight, chains.h_weight
    tangential = np.stack([
        e_w * np.concatenate([-s_n * a_j, s_n / r * b_jj]),
        h_w * np.concatenate([1j * w * s_n * b_j, -1j / w * s_n / r * a_jj])])
    radial = np.stack([e_w * s_n ** 2 / r * b_j,
                       h_w * -1j / w * s_n ** 2 / r * a_j]) @ y_val
    return tangential @ np.concatenate([v, u]) + np.outer(radial, x / r)


def per_mode_sample(solution, kind, x, rows):
    """The per-mode E/H rows of eval_physical (hidden, layer) or of
    eval_virtual_exterior (virtual) at x, rows as ``per_mode_expand``."""
    if kind == "hidden":
        return per_mode_expand(modal.region_chains(solution, "hidden"), x,
                               np.linalg.norm(x), rows)
    if kind == "virtual":
        return per_mode_expand(modal.region_chains(solution, "layer"), x,
                               np.linalg.norm(x), rows)
    fmap = CloakOuterMap(solution.params)
    y = fmap.inverse(x)
    virt = per_mode_sample(solution, "virtual", y, rows)
    return geometry.pushforward_field(fmap, y, virt.T)[1].T


REGION_RADII = {"hidden": 0.8, "layer": 1.4, "virtual": 0.5}


def assert_matches_per_mode(solution, directions):
    for kind, radius in REGION_RADII.items():
        evaluate = (fields.eval_virtual_exterior if kind == "virtual"
                    else fields.eval_physical)
        rows = {}
        for d in directions:
            x = radius * np.asarray(d, dtype=float) / np.linalg.norm(d)
            sample = evaluate(solution, x)
            got = np.stack([sample.E, sample.H])
            want = per_mode_sample(solution, kind, x, rows)
            scale = np.max(np.abs(want))
            assert scale > 0.0, (kind, d)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (kind, d)


def all_modes_source(n_max=12, seed=5):
    rng = np.random.default_rng(seed)

    def coeff(n):
        return 2.0 ** -n * np.exp(2j * np.pi * rng.uniform())

    return modal.SourceCoeffs(
        {(n, m): (coeff(n), coeff(n))
         for n in range(1, n_max + 1) for m in range(-n, n + 1)}, r1=0.5)


# on each pole, the pole with a negative zero x, and just outside and just
# inside the pole band sin(theta) < _POLE_SIN, where U takes its limit
POLE_DIRECTIONS = [
    (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (-0.0, 0.0, 1.0),
    (1.5 * _POLE_SIN, 0.0, 1.0), (0.0, -1.5 * _POLE_SIN, -1.0),
    (0.5 * _POLE_SIN, 0.0, -1.0), (0.0, 0.5 * _POLE_SIN, 1.0)]


# an overflow outside np.errstate, as a product of a column of zeros and the
# y rows of degree 160, fails these tests
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPerDegreeKernel:
    @pytest.mark.parametrize("rho", [1e-2, 1e-6])
    def test_every_mode_to_degree_12(self, rho):
        solution = modal.solve_source(
            all_modes_source(), None, CloakParams(rho=rho, omega=1.0, r1=0.5))
        assert len(solution.modes) == 168
        rng = np.random.default_rng(11)
        assert_matches_per_mode(
            solution, [*rng.normal(size=(50, 3)), *POLE_DIRECTIONS])

    @pytest.mark.parametrize("rho", [1e-2, 1e-6])
    def test_gapped_degrees_and_a_boundary_only_mode(self, rho):
        # degrees 5 and 160 are boundary data alone: their p, q runs are
        # all zeros, and at degree 160 the rows h, H overflow at r = 0.8
        source = modal.SourceCoeffs(
            {(1, 0): (0.3 + 0j, 1.0 + 0j), (1, -1): (0j, 0.5j),
             (3, 2): (0.2 - 0.1j, 0j), (3, -3): (0.1j, 0.4 + 0j),
             (7, 0): (0.01 + 0j, 0.02j), (7, 6): (0j, 0.03 + 0j)}, r1=0.5)
        boundary = modal.BoundaryCoeffs({(5, 1): (0.2 + 0j, 0.1j),
                                         (160, 1): (0.3j, 0.1 + 0j)})
        solution = modal.solve_source(
            source, boundary, CloakParams(rho=rho, omega=1.0, r1=0.5))
        assert [n for n, _ in sorted(solution.modes)] == [
            1, 1, 3, 3, 5, 7, 7, 160]
        rng = np.random.default_rng(12)
        assert_matches_per_mode(
            solution, [*rng.normal(size=(10, 3)), *POLE_DIRECTIONS])

    def test_one_mode(self):
        rng = np.random.default_rng(13)
        assert_matches_per_mode(
            SOL, [*rng.normal(size=(10, 3)), (0.0, 0.3, 0.8)])

    def test_empty_solution_is_zero(self):
        solution = modal.solve_source(modal.SourceCoeffs({}, r1=0.5), None,
                                      CloakParams(rho=0.1, omega=1.0))
        for x in ([0.7, 0.0, 0.0], [0.0, 1.5, 0.2]):
            sample = fields.eval_physical(solution, x)
            assert not np.any(sample.E) and not np.any(sample.H)


class TestPointWork:
    """What a field point reads of its solution and its table."""

    SOLUTION = modal.solve_source(all_modes_source(n_max=4), None,
                                  CloakParams(rho=1e-2, omega=1.0, r1=0.5))

    def test_a_point_builds_no_derived_rows(self, monkeypatch):
        tables = []
        table = modal.RegionChains.table

        def recorded(chains, r):
            tables.append(table(chains, r))
            return tables[-1]

        monkeypatch.setattr(modal.RegionChains, "table", recorded)
        fields.eval_physical(self.SOLUTION, [0.3, -0.4, 0.5])
        fields.eval_physical(self.SOLUTION, [1.2, 0.1, -0.3])
        fields.eval_virtual_exterior(self.SOLUTION, [0.2, 0.6, 0.1])
        assert len(tables) == 3
        for tab in tables:  # its j and y rows, and nothing formed from them
            assert set(vars(tab)) == {"n_max", "t", "j_log", "j_sign",
                                      "y_log", "y_sign"}

    def test_mode_factors_give_the_scalars_of_the_keys(self):
        chains = modal.region_chains(self.SOLUTION, "hidden")
        rng = np.random.default_rng(21)
        directions = [d / np.linalg.norm(d) for d in rng.normal(size=(20, 3))]
        for d in [*directions, (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]:
            got, got_frame = angular_scalars(chains.mode_factors, d)
            want, want_frame = angular_scalars(chains.keys, d)
            assert np.array_equal(got, want) and np.array_equal(got_frame,
                                                                want_frame)

    @pytest.mark.parametrize("key", [(0, 0), (2, 3), (2, -3),
                                     (specfun.N_CAP + 1, 0)])
    def test_invalid_key_still_rejected(self, key):
        with pytest.raises(DomainError, match=re.escape(f"({key[0]},{key[1]})")):
            angular_table([(1, 0), key], (0.0, 0.6, 0.8))


class TestIdealExterior:
    @staticmethod
    def background():
        # curl-type mode: tangential field has a nonzero limit at the origin,
        # the generic situation for a background driven by boundary data
        mode = ModeIndex(1, 0)
        omega = 1.0

        def e_bg(y):
            return wave_MN(mode, omega, y, "regular")[1]

        def h_bg(y):
            return -1j * omega * wave_MN(mode, omega, y, "regular")[0]

        return e_bg, h_bg

    def test_tangential_decay_at_interface(self):
        e_bg, h_bg = self.background()
        deltas = np.logspace(-4, -2, 7)
        d = np.array([0.6, 0.48, 0.64])
        d /= np.linalg.norm(d)
        vals = []
        for dl in deltas:
            s = eval_ideal_exterior(e_bg, h_bg, d * (1 + dl))
            vals.append(np.linalg.norm(np.cross(d, s.E)))
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert abs(slope - 1.0) < 0.1

    def test_boundary_tangential_trace_preserved(self):
        # the outer sphere is fixed pointwise, so tangential traces survive
        e_bg, h_bg = self.background()
        d = np.array([0.0, 0.8, 0.6])
        x = d * (2.0 - 1e-12)
        s = eval_ideal_exterior(e_bg, h_bg, x)
        ref = e_bg(x)
        assert np.max(np.abs(np.cross(d, s.E) - np.cross(d, ref))) < 1e-9

    def test_maxwell_residual_with_singular_tensor(self):
        e_bg, h_bg = self.background()
        x0 = np.array([0.9, 0.9, 0.6])

        def e_field(pt):
            return eval_ideal_exterior(e_bg, h_bg, pt).E

        def h_field(pt):
            return eval_ideal_exterior(e_bg, h_bg, pt).H

        # curl E = i mu H and curl H = -i eps E at omega = 1, with the
        # singular tensor as eps and mu
        mat = ideal_cloak_tensor(x0)
        errs = []
        steps = (1e-3, 5e-4, 2.5e-4)
        for h in steps:
            res_e = fields.fd_curl(e_field, x0, h) - 1j * (mat @ h_field(x0))
            res_h = fields.fd_curl(h_field, x0, h) + 1j * (mat @ e_field(x0))
            errs.append(max(np.max(np.abs(res_e)), np.max(np.abs(res_h))))
        order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert abs(order - 2.0) < 0.25

    def test_domain(self):
        e_bg, h_bg = self.background()
        with pytest.raises(DomainError):
            eval_ideal_exterior(e_bg, h_bg, [0.5, 0, 0])


class TestCsv:
    def test_point_and_sample_round_trip(self, tmp_path):
        pts_file = tmp_path / "pts.csv"
        pts_file.write_text("1.2,0.0,0.3\n0.0,0.9,0.0\n")
        pts = cli.read_points_csv(pts_file)
        assert len(pts) == 2
        samples = [fields.eval_physical(SOL, p) for p in pts]
        out = tmp_path / "fields.csv"
        fields.write_samples_csv(out, samples)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("x,y,z,space,Ex_re")
        assert len(lines) == 3
        # spot value: first row first E component round-trips to the library call
        row = lines[1].split(",")
        assert float(row[4]) == samples[0].E[0].real

    def test_malformed_points_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n")
        with pytest.raises(ConfigError, match=f"{bad}:1: expected 3 values"):
            cli.read_points_csv(bad)

    def test_non_numeric_cell_names_file_and_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# x,y,z\n1.0,0.0,0.0\n1.0,one,0.0\n")
        with pytest.raises(ConfigError, match=f"{bad}:3 must be a number"):
            cli.read_points_csv(bad)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_rejected_at_parse(self, tmp_path, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1.2,0.0,0.3\n0.0,{cell},0.0\n")
        with pytest.raises(ConfigError, match=f"{bad}:2 must be finite"):
            cli.read_points_csv(bad)
