"""Acceptance suite: one test per numbered criterion, printing PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import itertools
import json

import numpy as np
import pytest

from vsolitons import (
    Mixed,
    Polarization,
    Robin,
    SolitonData,
    beta_in,
    beta_out,
    blaschke_factor,
    boundary_residual,
    build_reduced_chain,
    convergence_order,
    eval_chain,
    extract_asymptotic_polarization,
    halfline_field,
    involution_residuals,
    mirror_constraint_residual,
    mirror_polarization_residual,
    one_soliton_field,
    pde_residual,
    permutation_residuals,
    projective_distance,
    reconstruct_field,
    reflection_equation_residuals,
    reversibility_residuals,
    sample_grid,
    solve_mirror_norming,
    transfer_commutators,
    yb_schedule,
    ybe_residuals,
)
from vsolitons.asymptotics import min_relative_velocity
from vsolitons.cli import _pde_order, collision_orders, main
from vsolitons.mirror import HalfLineData
from vsolitons.sampling import (
    boundary_spec,
    draw_boundary,
    draw_unit_vectors,
    random_map_parameters,
    random_soliton_data,
    unit_vectors,
)
from vsolitons.soldata import NormingVector


def report(num, name, value, bound, ok, unit="residual"):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({unit} {value:.3e}, bound {bound:g})")
    assert ok, f"criterion {num}: {name}: {unit} {value:.3e} violates bound {bound:g}"


def collision_safe_data(rng, N, n, v_min=0.5, w_gap=0.8):
    while True:
        data = random_soliton_data(rng, N, n)
        if (
            min(pt.v for pt, _ in data.points) >= v_min
            and min_relative_velocity(data) >= w_gap
        ):
            return data


class TestCriterion01:
    def test_one_soliton_oracle(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for i in range(20):
            n = (1, 2, 3)[i % 3]
            data = random_soliton_data(rng, 1, n)
            xs = rng.uniform(-6, 6, 50)
            ts = rng.uniform(-3, 3, 50)
            pt, nv = data.points[0]
            dev = np.max(
                np.abs(reconstruct_field(data, xs, ts) - one_soliton_field(pt, nv, xs, ts))
            )
            worst = max(worst, float(dev))
        report(1, "one-soliton oracle", worst, 1e-12, worst <= 1e-12)


class TestCriterion02:
    def test_factorization_into_all_orders(self):
        rng = np.random.default_rng(102)
        combos = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 3), (4, 2), (4, 3), (2, 2), (3, 2), (4, 3)]
        worst = 0.0
        for N, n in combos:
            data = random_soliton_data(rng, N, n)
            ks = [complex(rng.uniform(-2, 2), rng.uniform(0.0, 2.0)) for _ in range(20)]
            xts = [(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(20)]
            orders = list(itertools.permutations(range(N)))
            if N <= 3:
                for a, b in itertools.combinations(orders, 2):
                    worst = max(worst, permutation_residuals(data, a, [b], ks, xts)[0])
            else:
                # reference comparisons doubled bound every pair via the
                # triangle inequality
                ref_worst = max(permutation_residuals(data, orders[0], orders[1:], ks, xts))
                worst = max(worst, 2.0 * ref_worst)
        report(2, "N!-order independence, all order pairs", worst, 1e-10, worst <= 1e-10)


class TestCriterion03:
    def test_determinant_equals_blaschke_product(self):
        rng = np.random.default_rng(103)
        worst = 0.0
        for N, n in [(2, 2), (3, 2), (3, 3), (4, 3)]:
            data = random_soliton_data(rng, N, n)
            chain = build_reduced_chain(data)
            for i in range(20):
                k = complex(rng.uniform(-3, 3), rng.uniform(0, 2.5) if i % 2 else 0.0)
                det = np.linalg.det(eval_chain(chain, k))
                prod = np.prod([blaschke_factor(pt, k) for pt, _ in data.points])
                worst = max(worst, abs(det - prod) / abs(prod))
        report(3, "det a+ = product of Blaschke factors", worst, 1e-12, worst <= 1e-12)


class TestCriterion04:
    def test_parametric_ybe(self):
        rng = np.random.default_rng(104)
        worst = 0.0
        for n in (2, 3):
            for _ in range(100):
                K = np.array([random_map_parameters(rng, 3)])
                P = unit_vectors(draw_unit_vectors(rng, 3, n))[None]
                worst = max(worst, ybe_residuals(P, K)[0])
        report(4, "parametric Yang-Baxter equation", worst, 1e-10, worst <= 1e-10)

    def test_reversibility(self):
        rng = np.random.default_rng(1040)
        worst = 0.0
        for n in (2, 3):
            for _ in range(100):
                K = np.array([random_map_parameters(rng, 2)])
                P = unit_vectors(draw_unit_vectors(rng, 2, n))[None]
                worst = max(worst, reversibility_residuals(P, K)[0])
        report(4, "collision-map reversibility", worst, 1e-12, worst <= 1e-12)


class TestCriterion05:
    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_reflection_equation(self, kind):
        rng = np.random.default_rng(105)
        worst = 0.0
        for n in (2, 3):
            for _ in range(50):
                spec = boundary_spec(draw_boundary(rng, kind, n))
                K = np.array([random_map_parameters(rng, 2, mirrored=True)])
                P = unit_vectors(draw_unit_vectors(rng, 2, n))[None]
                worst = max(worst, reflection_equation_residuals(P, K, (spec,))[0])
        report(5, f"set-theoretical reflection equation [{kind}]", worst, 1e-10, worst <= 1e-10)

    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_involution(self, kind):
        rng = np.random.default_rng(1050)
        worst = 0.0
        for n in (2, 3):
            for _ in range(50):
                spec = boundary_spec(draw_boundary(rng, kind, n))
                K = np.array([random_map_parameters(rng, 1, mirrored=True)])
                P = unit_vectors(draw_unit_vectors(rng, 1, n))[None]
                worst = max(worst, involution_residuals(P, K, (spec,))[0])
        report(5, f"reflection involution [{kind}]", worst, 1e-12, worst <= 1e-12)


def _mirror_datasets(rng, kind):
    out = []
    for i in range(10):
        N = 1 + i % 3
        n = (2, 3)[i % 2]
        data = random_soliton_data(rng, N, n, positive=True)
        out.append(solve_mirror_norming(data, boundary_spec(draw_boundary(rng, kind, n))))
    return out


class TestCriterion06:
    @pytest.mark.parametrize("kind", ["robin", "mixed"])
    def test_mirror_constraint(self, kind):
        rng = np.random.default_rng(106)
        worst = max(mirror_constraint_residual(hl) for hl in _mirror_datasets(rng, kind))
        report(6, f"mirror-constraint solver [{kind}]", worst, 1e-8, worst <= 1e-8)

    def test_perturbation_detector(self):
        rng = np.random.default_rng(1060)
        hl = _mirror_datasets(rng, "mixed")[1]
        pts = list(hl.mirror_data.points)
        pt, nv = pts[0]
        bumped = nv.beta.copy()
        bumped[0] += 1e-3 * nv.norm
        pts[0] = (pt, NormingVector(bumped))
        corrupted = HalfLineData(hl.real_data, SolitonData(hl.n, tuple(pts)), hl.spec)
        res = mirror_constraint_residual(corrupted)
        report(6, "constraint detector flags 1e-3 corruption", res, 1e-4, res >= 1e-4)


class TestCriterion07:
    @pytest.mark.parametrize("kind", ["robin", "mixed"])
    def test_mirror_polarization_relations(self, kind):
        rng = np.random.default_rng(106)  # same datasets as criterion 6
        worst = max(mirror_polarization_residual(hl) for hl in _mirror_datasets(rng, kind))
        report(7, f"mirror polarization relations [{kind}]", worst, 1e-10, worst <= 1e-10)


LINE_DATA = SolitonData.from_arrays(
    [-0.5, 0.5], [1.0, 1.2], [[1.0, 0.5 + 0.5j], [0.3 - 0.2j, 1.0]]
)
HALF_DATA = SolitonData.from_arrays(
    [0.5, 1.0], [1.0, 1.1], [[0.8, 0.5 + 0.4j], [1.0, -0.3 + 0.2j]]
)
HS = [0.04, 0.02, 0.01]
#: The x ranges of the line and half-line pde boxes; t runs over [-1, 1].
BOXES = ((-4, 4), (0, 6))


def _box_grid(field_fn, x0, x1, h):
    """The field sampled on its own grid of spacing h over [x0, x1] x [-1, 1]."""
    nx, nt = int(round((x1 - x0) / h)) + 1, int(round(2 / h)) + 1
    return sample_grid(field_fn, x0, x1, -1, 1, nx, nt)


def _line_pde_residual(h):
    nx, nt = int(round(8 / h)) + 1, int(round(2 / h)) + 1
    grid = sample_grid(lambda X, T: reconstruct_field(LINE_DATA, X, T), -4, 4, -1, 1, nx, nt)
    return pde_residual(grid)


def _halfline_pde_residual(hl, h):
    return pde_residual(_box_grid(lambda X, T: halfline_field(hl, X, T), 0, 6, h))


class TestCriterion08:
    def test_pde_order_line(self):
        order = convergence_order(_line_pde_residual, HS)
        report(8, "VNLS residual order, 2-soliton line", order, 0.3, abs(order - 2.0) <= 0.3, unit="order")

    def test_pde_order_halfline(self):
        hl = solve_mirror_norming(HALF_DATA, Mixed((1, -1)))
        order = convergence_order(lambda h: _halfline_pde_residual(hl, h), HS)
        report(8, "VNLS residual order, N=2 half line", order, 0.3, abs(order - 2.0) <= 0.3, unit="order")

    def test_boundary_order_robin(self):
        hl = solve_mirror_norming(HALF_DATA, Robin(0.8))
        ts = np.linspace(-1.0, 1.0, 9)
        order = convergence_order(lambda h: boundary_residual(hl, ts, h=h), HS)
        report(8, "boundary residual order, Robin", order, 0.3, abs(order - 2.0) <= 0.3, unit="order")

    def test_boundary_order_mixed(self):
        # The stencil (-3R0 + 4R1 - R2)/(2h) equals
        # R_x(0) - (h^2/3) R_xxx(0) - (h^3/4) R_xxxx(0) + O(h^4).  Sign-pattern
        # half-line fields satisfy R(-x,t) = M R(x,t) exactly, M = diag(-s), so
        # the Neumann (-1) components are even in x: R_x(0) = R_xxx(0) = 0 and
        # the residual is the pure truncation term -(h^3/4) R_xxxx(0), order 3.
        # The Dirichlet (+1) components are read directly and sit at round-off.
        hl = solve_mirror_norming(HALF_DATA, Mixed((1, -1)))
        ts = np.linspace(-1.0, 1.0, 9)
        M = hl.spec.big_m(0.0, hl.n)
        xs = np.array([0.3, 0.7, 1.5])
        for t in (-1.0, 0.0, 0.75):
            mirrored = reconstruct_field(hl.combined, -xs, t)
            assert np.max(np.abs(mirrored - reconstruct_field(hl.combined, xs, t) @ M)) <= 1e-12
        order = convergence_order(lambda h: boundary_residual(hl, ts, h=h), HS)
        report(8, "boundary residual order, Mixed", order, 0.3, abs(order - 3.0) <= 0.3, unit="order")


class TestPdeGridNesting:
    """The pde suite reads its coarse spacings as strided views of the finest grid."""

    @pytest.mark.parametrize("x0, x1", BOXES)
    def test_coarse_nodes_are_fine_subgrid(self, x0, x1):
        nodes = lambda X, T: np.stack(np.broadcast_arrays(X, T), -1)
        fine = _box_grid(nodes, x0, x1, HS[-1])
        for s, h in ((4, 0.04), (2, 0.02)):
            coarse = _box_grid(nodes, x0, x1, h)
            assert np.array_equal(coarse.xs, fine.xs[::s])
            assert np.array_equal(coarse.ts, fine.ts[::s])
            assert np.array_equal(coarse.values, fine.values[::s, ::s])

    @pytest.mark.parametrize("seed", range(4))
    def test_coarse_fields_are_fine_subgrid(self, seed):
        rng = np.random.default_rng(seed)
        data = random_soliton_data(rng, 2, 2)
        hl = solve_mirror_norming(random_soliton_data(rng, 2, 2, positive=True), Mixed((1, -1)))
        fields = (lambda X, T: reconstruct_field(data, X, T), lambda X, T: halfline_field(hl, X, T))
        for field_fn, (x0, x1) in zip(fields, BOXES):
            fine = _box_grid(field_fn, x0, x1, HS[-1])
            for s, h in ((4, 0.04), (2, 0.02)):
                coarse = _box_grid(field_fn, x0, x1, h)
                assert np.array_equal(coarse.values, fine.values[::s, ::s])

    def test_pde_order_matches_three_grid_oracle(self):
        line = _pde_order(lambda X, T: reconstruct_field(LINE_DATA, X, T), -4, 4, HS)
        assert line == convergence_order(_line_pde_residual, HS)
        hl = solve_mirror_norming(HALF_DATA, Mixed((1, -1)))
        half = _pde_order(lambda X, T: halfline_field(hl, X, T), 0, 6, HS)
        assert half == convergence_order(lambda h: _halfline_pde_residual(hl, h), HS)


class TestCriterion09:
    def test_extraction_matches_in_out_and_pipeline(self):
        rng = np.random.default_rng(109)
        worst_pol = worst_pipe = 0.0
        for N, n in [(2, 2), (3, 2), (3, 3)]:
            data = collision_safe_data(rng, N, n)
            T = 18.0 / (min(pt.v for pt, _ in data.points) * min_relative_velocity(data))
            for j in range(N):
                for t, which in ((-T, beta_in), (T, beta_out)):
                    [(pol, _)] = extract_asymptotic_polarization(data, [j], [t])
                    worst_pol = max(
                        worst_pol, projective_distance(pol, Polarization(which(j, data).beta))
                    )
            ins = np.array([[Polarization(beta_in(j, data).beta).p for j in range(N)]])
            outs = [Polarization(beta_out(j, data).beta) for j in range(N)]
            for schedule in collision_orders(N):
                got = yb_schedule(ins, data.ks[None], schedule)[0]
                worst_pipe = max(
                    worst_pipe,
                    max(projective_distance(a, b) for a, b in zip(got, outs)),
                )
        report(9, "asymptotic polarization extraction", worst_pol, 1e-4, worst_pol <= 1e-4)
        report(9, "collision pipeline reproduces out-data", worst_pipe, 1e-10, worst_pipe <= 1e-10)


class TestCriterion10:
    def test_identity_boundary_commutators(self):
        rng = np.random.default_rng(110)
        worst = 0.0
        for N in (2, 3):
            K = np.array([random_map_parameters(rng, N, mirrored=True)])
            P = unit_vectors(draw_unit_vectors(rng, N, 2))[None]
            worst = max(worst, transfer_commutators(P, K, None, None).max())
        report(10, "transfer commutators, identity boundary", worst, 1e-12, worst <= 1e-12)

    def test_scalar_case_exact_zero(self):
        rng = np.random.default_rng(1100)
        K = np.array([random_map_parameters(rng, 2, mirrored=True)])
        B = Robin(0.4)
        res = transfer_commutators(np.ones((1, 2, 1), complex), K, (B,), (B,))[0, 0]
        report(10, "scalar transfer commutator", res, 0.0, res == 0.0)

    def test_vnls_reflection_experiment_recorded(self):
        # exploratory by construction: the residual is reported, not bounded
        rng = np.random.default_rng(1101)
        spec = Mixed((1, -1))
        K = np.array([random_map_parameters(rng, 3, mirrored=True)])
        P = unit_vectors(draw_unit_vectors(rng, 3, 2))[None]
        first = transfer_commutators(P, K, (spec,), (spec,))[1, 0]  # the pair (0, 2)
        second = transfer_commutators(P, K, (spec,), (spec,))[1, 0]
        print(
            f"ACCEPTANCE 10 vnls-reflection transfer experiment: RECORDED "
            f"(residual {first:.6e}, deterministic repeat {second:.6e})"
        )
        assert first == second and np.isfinite(first)


class TestCriterion11:
    def test_byte_identical_reports_and_grids(self, tmp_path):
        doc = {
            "data": {
                "n": 2,
                "solitons": [
                    {"u": -0.4, "v": 1.0, "beta": [[1, 0], [0.3, 0.3]]},
                    {"u": 0.7, "v": 1.3, "beta": [[0.2, -0.1], [1, 0]]},
                ],
            },
            "grid": {"x0": -3.0, "x1": 3.0, "t0": -0.5, "t1": 0.5, "nx": 21, "nt": 9},
        }
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(doc))
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        same = all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
            for f in ("report.json", "grid.csv", "manifest.json")
        )
        suite_doc = {"suite": {"name": "ybe", "samples": 40, "seed": 17, "n": 2}}
        cfg2 = tmp_path / "ybe.json"
        cfg2.write_text(json.dumps(suite_doc))
        outs2 = [tmp_path / "c", tmp_path / "d"]
        for out in outs2:
            assert main(["verify", "--config", str(cfg2), "--out", str(out)]) == 0
        same = same and (
            (outs2[0] / "report.json").read_bytes() == (outs2[1] / "report.json").read_bytes()
        )
        report(11, "deterministic artifacts", 0.0 if same else 1.0, 0.0, same)
