import json

import numpy as np
import pytest

from vsolitons import (
    ConfigError,
    DegeneracyError,
    DomainError,
    Mixed,
    NormingVector,
    Polarization,
    Robin,
    SolitonData,
    SpectralPoint,
    a_matrix,
    build_reduced_chain,
    eval_chain,
    halfline_field,
    mirror_constraint_residual,
    mirror_polarization_residual,
    projective_distance,
    reflection_maps,
    solve_mirror_norming,
)
from vsolitons import dressing as dressing_module
from vsolitons import mirror as mirror_module
from vsolitons.cli import _perturb_halfline, main, parse_run_config, run_property_suite
from vsolitons.config import _complex_pair, halfline_to_json, parse_halfline
from vsolitons.dressing import _blaschke, _chain_apply, _dressed_beta, _product
from vsolitons.mirror import HalfLineData
from vsolitons.sampling import boundary_spec, draw_boundary, random_soliton_data
from vsolitons.soldata import _scaled
from vsolitons.verification import extract_asymptotic_polarization

E1 = np.array([1.0, 0.0])


def halfline_data(rng, N, n, kind):
    data = random_soliton_data(rng, N, n, positive=True)
    spec = boundary_spec(draw_boundary(rng, kind, n))
    return solve_mirror_norming(data, spec)


class TestAMatrix:
    def test_two_point_structure(self):
        # A_2 = ((k2-k1)/(k2-k1*)) * P_2 * d_1^{-1}(k2) for a 2-point chain
        data = SolitonData.from_arrays(
            [0.5, 1.0], [1.0, 0.8], [[1.0, 0.2j], [0.4, 1.0]]
        )
        chain = build_reduced_chain(data)
        k1, k2 = data.points[0][0].k, data.points[1][0].k
        d, d1 = chain[1][1][0], chain[0][1][0]
        pref = (k2 - k1) / (k2 - k1.conjugate())
        d1_inv = np.eye(2) + (1.0 / pref - 1.0) * np.outer(d1, d1.conj())
        expected = pref * np.outer(d, d.conj()) @ d1_inv
        assert np.allclose(a_matrix(1, data, chain), expected, atol=1e-13)

    def test_rank_one(self):
        rng = np.random.default_rng(0)
        data = random_soliton_data(rng, 3, 3)
        for j in range(3):
            s = np.linalg.svd(a_matrix(j, data, build_reduced_chain(data)), compute_uv=False)
            assert s[1] < 1e-10 * s[0]

    def test_residue_limit_oracle(self):
        # independent route: A_j = det'(k_j) * lim (k - k_j) a(k)^{-1} with a
        # generic inverse and finite differences, Richardson-extrapolated
        rng = np.random.default_rng(1)
        data = random_soliton_data(rng, 3, 2)
        chain = build_reduced_chain(data)
        eps, delta = 1e-6, 1e-6
        for j in range(3):
            kj = data.points[j][0].k

            def g(e):
                return e * np.linalg.inv(eval_chain(chain, kj + e))

            lim = 2.0 * g(eps / 2) - g(eps)
            detp = (
                np.linalg.det(eval_chain(chain, kj + delta))
                - np.linalg.det(eval_chain(chain, kj - delta))
            ) / (2 * delta)
            assert np.max(np.abs(a_matrix(j, data, chain) - detp * lim)) < 1e-8

    @pytest.mark.parametrize("N,n", [(1, 2), (2, 3), (4, 2), (5, 4)])
    def test_matches_product_of_factor_inverses(self, N, n):
        # the defining product pref * d^-1_{M-1} ... d^-1_{j+1} P_j d^-1_{j-1} ... d^-1_0
        # at k_j, every factor inverted as a matrix
        data = random_soliton_data(np.random.default_rng(10 + N + n), N, n)
        chain = build_reduced_chain(data)
        for j in range(N):
            kj = data.points[j][0].k
            inv = [np.linalg.inv(eval_chain(chain[m : m + 1], kj)) for m in range(N)]
            z = chain[j][1].T
            expected = np.eye(n, dtype=complex)
            for m in range(N - 1, j, -1):
                expected = expected @ inv[m]
            expected = expected @ (z @ z.conj().T)
            for m in range(j - 1, -1, -1):
                expected = expected @ inv[m]
            pref = np.prod([(kj - k) / (kj - k.conjugate()) for k in np.delete(data.ks, j)])
            got = a_matrix(j, data, chain)
            assert np.max(np.abs(got - pref * expected)) <= 1e-12 * np.max(np.abs(got))


class TestBigM:
    def test_sign_pattern_involutive(self):
        m = Mixed((1, -1)).big_m(0.3 + 0.4j, 2)
        assert np.allclose(m @ m, np.eye(2))

    def test_neumann_limit_is_identity(self):
        assert np.allclose(Robin(0.0).big_m(0.5 + 0.5j, 2), np.eye(2))

    def test_robin_scalar(self):
        k = 0.5 + 0.5j
        m = Robin(1.0).big_m(k, 1)
        assert m[0, 0] == pytest.approx((k + 1j) / (k - 1j))


class TestMirrorSolve:
    def test_single_soliton_mixed(self):
        real = SolitonData(2, ((SpectralPoint(1.0, 1.0), NormingVector(E1)),))
        hl = solve_mirror_norming(real, Mixed((1, -1)))
        assert mirror_constraint_residual(hl) < 1e-10
        assert hl.mirror_data.points[0][0].k == -(0.5 + 0.5j).conjugate()

    def test_single_soliton_robin(self):
        real = SolitonData(2, ((SpectralPoint(1.0, 1.0), NormingVector([0.7, 0.4j])),))
        hl = solve_mirror_norming(real, Robin(1.0))
        assert mirror_constraint_residual(hl) < 1e-10

    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    @pytest.mark.parametrize("N,n", [(1, 2), (2, 2), (2, 3), (3, 3)])
    def test_constraint_residual_random(self, kind, N, n, subtests=None):
        rng = np.random.default_rng(hash((kind, N, n)) % 2**32)
        hl = halfline_data(rng, N, n, kind)
        assert mirror_constraint_residual(hl) <= 1e-8

    def test_perturbation_detector(self):
        rng = np.random.default_rng(2)
        hl = halfline_data(rng, 2, 2, "mixed")
        pts = list(hl.mirror_data.points)
        pt, nv = pts[0]
        bumped = nv.beta.copy()
        bumped[0] += 1e-3 * nv.norm
        pts[0] = (pt, NormingVector(bumped))
        corrupted = HalfLineData(hl.real_data, SolitonData(hl.n, tuple(pts)), hl.spec)
        assert mirror_constraint_residual(corrupted) >= 1e-4

    def test_solve_is_self_consistent(self):
        rng = np.random.default_rng(3)
        hl = halfline_data(rng, 2, 2, "mixed")
        again = solve_mirror_norming(hl.real_data, hl.spec)
        for j in range(hl.N):
            a = hl.mirror_data.points[j][1].beta
            b = again.mirror_data.points[j][1].beta
            assert np.max(np.abs(a - b)) < 1e-12 * np.linalg.norm(a)

    def test_amplitude_below_the_pole_tolerance_solves(self):
        # v = 5e-14 puts k_0 within POLE_EVAL_TOL of its own conjugate; the
        # solve, the residue matrices and both residuals evaluate no factor
        # at its own point
        real = SolitonData.from_arrays([0.3, 0.9], [5e-14, 0.8], [[1.0, 0.5j], [0.2, 1.0]])
        hl = solve_mirror_norming(real, Robin(0.8))
        assert hl.constraint_residual <= 1e-14
        assert mirror_polarization_residual(hl) <= 1e-12

    def test_imaginary_axis_rejected(self):
        real = SolitonData(2, ((SpectralPoint(0.0, 1.0), NormingVector(E1)),))
        with pytest.raises(DomainError, match="imaginary axis"):
            solve_mirror_norming(real, Robin(1.0))

    def test_negative_velocity_rejected(self):
        from vsolitons.errors import ValidationError

        real = SolitonData(2, ((SpectralPoint(-1.0, 1.0), NormingVector(E1)),))
        with pytest.raises(ValidationError):
            solve_mirror_norming(real, Robin(1.0))


class TestConstraintGate:
    """Each HalfLineData computes its constraint residual once; the solve's
    and the parser's gate compute it, and every check reads it back."""

    @staticmethod
    def _count_calls(monkeypatch) -> list:
        calls = []
        fresh = mirror_module.mirror_constraint_residual

        def counted(hl):
            # one dataset, or the solve's (datasets, stack of their combined data)
            calls.extend(hl[0] if isinstance(hl, tuple) else [hl])
            return fresh(hl)

        monkeypatch.setattr(mirror_module, "mirror_constraint_residual", counted)
        return calls

    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_solved_gate_is_the_fresh_residual(self, kind, N, monkeypatch):
        calls = self._count_calls(monkeypatch)
        rng = np.random.default_rng(60 + 7 * N + len(kind))
        hl = halfline_data(rng, N, 2 + N % 2, kind)
        assert calls == [hl]
        assert hl.constraint_residual == hl.constraint_residual
        assert calls == [hl]
        assert hl.constraint_residual.hex() == mirror_constraint_residual(hl).hex()

    def test_stored_halfline_gate(self, tmp_path, monkeypatch):
        hl = halfline_data(np.random.default_rng(70), 2, 3, "robin")
        doc = halfline_to_json(hl)
        calls = self._count_calls(monkeypatch)
        stored = parse_halfline(doc)
        assert calls == [stored]
        assert stored.constraint_residual.hex() == mirror_constraint_residual(stored).hex()

        calls.clear()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": doc}))
        out = tmp_path / "o"
        assert main(["mirror", "--config", str(config), "--out", str(out)]) == 0
        assert len(calls) == 1
        report = json.loads((out / "report.json").read_text())
        check = next(c for c in report["checks"] if c["name"] == "mirror-constraint")
        assert check["residual"] == mirror_constraint_residual(calls[0])

    def test_perturbed_copy_gets_its_own_value(self):
        hl = halfline_data(np.random.default_rng(2), 2, 2, "mixed")
        before = hl.constraint_residual
        bad = _perturb_halfline(hl, 1e-3)
        assert "constraint_residual" not in vars(bad)
        assert bad.constraint_residual.hex() == mirror_constraint_residual(bad).hex()
        assert bad.constraint_residual >= 1e-4 > before
        assert hl.constraint_residual == before

    def test_solver_gate_rejects_nan_residual(self, monkeypatch):
        # nan > tol is False: the gate must ask for residual <= tol instead
        monkeypatch.setattr(mirror_module, "mirror_constraint_residual",
                            lambda hl: np.full(len(hl[0]), np.nan))
        rng = np.random.default_rng(71)
        data = random_soliton_data(rng, 2, 2, positive=True)
        with pytest.raises(DegeneracyError, match=r"^mirror constraint residual nan exceeds 1e-08$"):
            solve_mirror_norming(data, boundary_spec(draw_boundary(rng, "mixed", 2)))

    def test_parser_gate_rejects_nan_residual(self, tmp_path, monkeypatch, capsys):
        doc = halfline_to_json(halfline_data(np.random.default_rng(72), 2, 2, "robin"))
        monkeypatch.setattr(mirror_module, "mirror_constraint_residual", lambda hl: float("nan"))
        with pytest.raises(ConfigError, match=r"violate the constraint \(residual nan > 1e-08\)"):
            parse_halfline(doc)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": doc}))
        capsys.readouterr()
        assert main(["mirror", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "violate the constraint (residual nan > 1e-08)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_detector_check_fires(self, seed):
        cfg = parse_run_config({"mode": "verify", "suite": {"name": "mirror-constraint", "seed": seed}})
        checks = {c.name: c for c in run_property_suite(cfg).checks}
        detector = checks["mirror-constraint-detector"]
        assert detector.comparison == ">=" and detector.passed
        assert detector.residual >= 1e-4


class TestCanonicalChains:
    """The solve builds the real data's canonical chain and the gate the combined
    data's mirror factors, from the solved betas; the residuals reuse what is
    built."""

    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_each_canonical_chain_built_once(self, kind, monkeypatch):
        builds = []
        build = dressing_module._reduced_factor

        def counted(stack, i, prefix):
            builds.append((id(stack), tuple(k for (k,), _, _ in prefix), i))
            return build(stack, i, prefix)

        monkeypatch.setattr(dressing_module, "_reduced_factor", counted)
        hl = halfline_data(np.random.default_rng(80), 3, 2, kind)
        assert hl.constraint_residual <= 1e-8
        assert mirror_polarization_residual(hl) <= 1e-10
        assert mirror_constraint_residual(hl) == hl.constraint_residual
        assert len(set(builds)) == len(builds)  # no factor of any order built twice
        real, combined, N = id(hl.real_data.stack), id(hl.combined.stack), hl.N
        ks = tuple(hl.combined.ks.tolist())
        assert {(real, ks[:i], i) for i in range(N)} <= set(builds)
        # the combined data inherits the real chain and builds, of the canonical
        # order, the mirror factors only; its other builds are the polarization
        # residual's orders of real indices
        assert {b[0] for b in builds} == {real, combined}
        assert [b for b in builds if b[0] == combined and b[1] == ks[:b[2]]] == [
            (combined, ks[:i], i) for i in range(N, 2 * N)]

    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_real_chain_is_combined_prefix(self, kind):
        rng = np.random.default_rng(81)
        for N, n in [(1, 2), (2, 3), (4, 2)]:
            hl = halfline_data(rng, N, n, kind)
            real = build_reduced_chain(hl.real_data)
            assert build_reduced_chain(hl.combined)[:N] == real  # inherited, not rebuilt
            # ... and what a combined build of its own would give, bit for bit
            fresh = build_reduced_chain(SolitonData(hl.n, hl.combined.points))
            for a, b in zip(real, fresh[:N], strict=True):
                assert a[0] == b[0]
                assert a[1].tobytes() == b[1].tobytes() and a[2].tobytes() == b[2].tobytes()

    def test_nan_residuals_propagate(self, monkeypatch):
        # Python's max(0.0, nan) is 0.0; each residual must keep the nan
        hl = halfline_data(np.random.default_rng(82), 2, 2, "mixed")
        fresh = mirror_module.a_matrix

        def first_row_nan(j, *a):  # the residue matrix at k_2, the first of the N rows
            out = fresh(j, *a).copy()
            out[0] = np.nan
            return out

        monkeypatch.setattr(mirror_module, "a_matrix", first_row_nan)
        assert np.isnan(mirror_constraint_residual(hl))
        # the 2N distances of the one stacked call, the first nan
        monkeypatch.setattr(mirror_module, "projective_distance",
                            lambda *a: np.array([np.nan, 0.0, 0.0, 0.0]))
        assert np.isnan(mirror_polarization_residual(hl))


def _log_pole_prefactor(ks, j):
    """prod_{i != j} (k_j - k_i)/(k_j - k_i*), accumulated in log space."""
    acc = 0.0 + 0.0j
    for i, ki in enumerate(ks):
        if i != j:
            acc += np.log((ks[j] - ki) / (ks[j] - ki.conjugate()))
    return complex(np.exp(acc))


def _per_index_mirror_betas(real_data, spec):
    """The mirror betas as the solve once recovered them (frozen reference):
    log-space pole prefactors, then one prefix product d_0 ... d_{mj-1}(k_mj)
    and one np.linalg.solve of its adjoint against xi_mj per index."""
    n, N = real_data.n, real_data.N
    ks = np.concatenate([real_data.ks, -real_data.ks.conj()])
    mirror, xis = [], []
    for j in range(N - 1, -1, -1):
        mj = N + j
        pref = _log_pole_prefactor(ks, mj)
        w = spec.big_m_inv(ks[j].conjugate(), n) @ real_data.points[j][1].beta / pref
        w = dressing_module._chain_apply(mirror, [ks[mj]], w[None])[0]
        nw = float(np.linalg.norm(w))
        z = (w / nw)[None]
        mirror.insert(0, (ks[mj:mj + 1], z, z.conj()))
        xis.insert(0, w / nw**2)
    chain = build_reduced_chain(real_data) + tuple(mirror)
    return [np.linalg.solve(eval_chain(chain[: N + j], ks[N + j]).conj().T, xi)
            for j, xi in enumerate(xis)]


class TestBetaRecovery:
    """solve_mirror_norming recovers each mirror beta by one chain application,
    through d(k)^-1 = d(k*)^dag, where it once solved a linear system."""

    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_matches_per_index_solve(self, kind):
        rng = np.random.default_rng(83)
        for N in (1, 2, 3, 4):
            for n in (1, 2, 3):
                data = random_soliton_data(rng, N, n, positive=True)
                spec = boundary_spec(draw_boundary(rng, kind, n))
                hl = solve_mirror_norming(data, spec)
                frozen = _per_index_mirror_betas(data, spec)
                for (_, nv), beta in zip(hl.mirror_data.points, frozen, strict=True):
                    assert np.max(np.abs(nv.beta - beta)) <= 1e-13 * np.linalg.norm(beta)

    def test_near_axis_dataset_fails_the_constraint_gate(self):
        # u = 1e-11 passes the axis check (AXIS_TOL 1e-12); the mirror pole
        # sits 1e-11 from the real one and the constraint cannot be met
        real = SolitonData.from_arrays([1e-11, 0.6], [1.0, 1.2], [[1.0, 0.3j], [0.2, 1.0]])
        with pytest.raises(DegeneracyError, match=r"^mirror constraint residual \S+ exceeds 1e-08$"):
            solve_mirror_norming(real, Mixed((1, -1)))


def _frozen_chain_apply(chain, ks, vecs, dagger=False):
    """One row of `_chain_apply` as a loop over the factors, each factor's
    coefficient from one broadcast `_blaschke` pass (frozen reference)."""
    steps = chain if dagger else chain[::-1]
    if not steps:
        return vecs
    coeffs = _blaschke(np.array([k0s for k0s, _, _ in steps]), np.asarray(ks)) - 1.0
    for (_, z, _), c in zip(steps, coeffs.conj() if dagger else coeffs):
        vecs = vecs + (c * np.vecdot(z, vecs))[:, None] * z
    return vecs


def _frozen_a_matrix(j, stack, chain):
    """a_matrix of one index, its two chain products one row each (frozen reference)."""
    kj = stack.ks[:, j]
    z = chain[j][1]
    left = _frozen_chain_apply(chain[j + 1:], kj.conj(), z, dagger=True)
    right = _frozen_chain_apply(chain[:j], kj.conj(), z)
    others = [i for i in range(stack.N) if i != j]
    pref = _product(_blaschke(stack.ks[:, others], kj[:, None]))
    return pref[:, None, None] * (left[:, :, None] * right.conj()[:, None, :])


def _frozen_mirror_constraint_residual(hl):
    """mirror_constraint_residual as a per-j loop of one residue matrix each
    (frozen reference)."""
    combined = hl.combined.stack
    N, n = hl.N, hl.n
    chain = build_reduced_chain(combined)
    res = [np.zeros(1)]
    for j in range(N):
        lhs = combined.betas[:, j, :, None] * combined.betas[:, N + j].conj()[:, None, :]
        big_m = np.array([hl.spec.big_m(k, n) for k in combined.ks[:, j].conj()])
        err = np.max(np.abs(lhs - big_m @ _frozen_a_matrix(N + j, combined, chain)), axis=(1, 2))
        with np.errstate(over="ignore", divide="ignore"):
            res.append(err / (combined.norms[:, j] * combined.norms[:, N + j]))
    return float(np.max(res, axis=0)[0])


def _frozen_mirror_betas(real, spec):
    """The mirror betas of the descending recursion, each recovered by its own
    chain application (frozen reference)."""
    stack, N, n = real.stack, real.N, real.n
    ks = np.concatenate([stack.ks, -stack.ks.conj()], axis=1)
    mirror, xis = [], []
    for j in range(N - 1, -1, -1):
        mj = N + j
        others = [i for i in range(2 * N) if i != mj]
        pref = _product(_blaschke(ks[:, others], ks[:, mj, None]))
        m_inv = spec.big_m_inv(ks[0, j].conjugate(), n)[None]
        w = (m_inv @ stack.betas[:, j, :, None])[..., 0] / pref[:, None]
        v, nrm, size = _scaled(_frozen_chain_apply(mirror, ks[:, mj], w))
        z = v / nrm[:, None]
        mirror.insert(0, (ks[:, mj], z, z.conj()))
        xis.insert(0, z / size[:, None])
    chain = build_reduced_chain(real) + tuple(mirror)
    return [_frozen_chain_apply(chain[:N + j], ks[:, N + j].conj(), xi)[0]
            for j, xi in enumerate(xis)]


def _assert_mirror_constraints_match_frozen(seed: int) -> None:
    """Every boundary kind on N = 1-4 and n = 1-4, solved one dataset at a
    time and as one stack of the three kinds: the constraint residual has the
    bits of the frozen per-j loop, and the stored mirror betas those of the
    per-index recovery."""
    rng = np.random.default_rng(seed)
    for N in range(1, 5):
        for n in range(1, 5):
            cases = []
            for kind in ("robin", "mixed", "rotated_mixed"):
                data = random_soliton_data(rng, N, n, positive=True)
                cases.append((data, boundary_spec(draw_boundary(rng, kind, n))))
            hls, _ = solve_mirror_norming(*zip(*cases))
            for (data, spec), stacked in zip(cases, hls, strict=True):
                hl = solve_mirror_norming(data, spec)
                frozen = _frozen_mirror_constraint_residual(hl)
                assert hl.constraint_residual.hex() == frozen.hex()
                assert stacked.constraint_residual.hex() == frozen.hex()
                betas = [[_complex_pair(z) for z in beta] for beta in _frozen_mirror_betas(data, spec)]
                for doc in (halfline_to_json(hl), halfline_to_json(stacked)):
                    assert [s["beta"] for s in doc["solitons"][N:]] == betas
                for (_, nv), beta in zip(hl.mirror_data.points, _frozen_mirror_betas(data, spec)):
                    assert nv.beta.tobytes() == beta.tobytes()


@pytest.mark.numpy_floor
class TestMirrorConstraintPin:
    """The residual's N residue matrices are one sweep each way, and the
    solve's N beta recoveries one descending sweep; both keep the bits of one
    chain application per row."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_frozen_per_index_loops(self, seed):
        _assert_mirror_constraints_match_frozen(seed)

    @pytest.mark.parametrize("N,n", [(1, 2), (3, 2), (4, 3)])
    def test_one_row_is_a_matrix_of_one_index(self, N, n):
        hl = halfline_data(np.random.default_rng(90 + N), N, n, "rotated_mixed")
        stack = hl.combined.stack
        chain = build_reduced_chain(stack)
        rows = a_matrix(range(0, 2 * N), stack, chain)
        for j in range(2 * N):
            one = a_matrix(j, stack, chain)
            assert one.tobytes() == rows[j].tobytes() == _frozen_a_matrix(j, stack, chain).tobytes()
            assert a_matrix(j, hl.combined, chain).tobytes() == one[0].tobytes()
        assert a_matrix(range(N, 2 * N), hl.combined, chain).tobytes() == rows[N:, 0].tobytes()

    def test_sweep_rows_join_in_turn(self):
        # row q of a sweep takes the steps from its q-th on, as one row alone does
        hl = halfline_data(np.random.default_rng(95), 3, 3, "mixed")
        stack = hl.combined.stack
        chain = build_reduced_chain(stack)
        rng = np.random.default_rng(96)
        vecs = rng.standard_normal((4, 1, 3)) + 1j * rng.standard_normal((4, 1, 3))
        ks = np.array([[0.3 + 0.2j], [-0.1 + 0.5j], [0.7 + 0.1j], [0.2 + 0.9j]])
        for dagger in (False, True):
            swept = _chain_apply(chain, ks, vecs, dagger)
            steps = chain if dagger else chain[::-1]
            for q in range(4):
                rest = steps[q:] if dagger else steps[q:][::-1]
                one = _frozen_chain_apply(rest, ks[q], vecs[q], dagger)
                assert swept[q].tobytes() == one.tobytes()

    @pytest.mark.slow
    def test_matches_the_frozen_per_index_loops_on_every_seed(self):
        for seed in range(100):
            _assert_mirror_constraints_match_frozen(seed)


class TestMirrorPolarizations:
    def test_single_soliton_relation(self):
        rng = np.random.default_rng(4)
        hl = halfline_data(rng, 1, 2, "mixed")
        assert mirror_polarization_residual(hl) < 1e-10

    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_random_datasets(self, kind):
        rng = np.random.default_rng(5)
        for N, n in [(1, 2), (2, 2), (2, 3), (3, 3)]:
            hl = halfline_data(rng, N, n, kind)
            assert mirror_polarization_residual(hl) <= 1e-10

    def test_robin_mirror_equals_real_projectively(self):
        rng = np.random.default_rng(6)
        hl = halfline_data(rng, 1, 3, "robin")
        mirror_dir = build_reduced_chain(hl.combined)[1][1][0]
        real_pol = Polarization(hl.real_data.points[0][1].beta)
        assert projective_distance(mirror_dir, real_pol.p) < 1e-10


def _frozen_mirror_polarization_residual(hl):
    """mirror_polarization_residual as a per-j loop with the boundary's m: a
    sign pattern's stored m, the identity for Robin (its phase h/|h| is
    projectively invisible)."""
    N, n = hl.N, hl.n
    chain = build_reduced_chain(hl.combined)
    res = [0.0]
    m = np.eye(n, dtype=np.complex128) if isinstance(hl.spec, Robin) else hl.spec.m
    for j in range(N):
        kj = hl.real_data.points[j][0].k
        g = _dressed_beta(hl.real_data.stack, j, range(j + 1, N))[0]
        res.append(projective_distance(chain[N + j][1][0], m @ g))
        beta_m = hl.mirror_data.points[j][1].beta
        lhs_b = _chain_apply(chain[:N], [-kj.conjugate()], beta_m[None], dagger=True)[0]
        g_b = _dressed_beta(hl.real_data.stack, j, [i for i in range(N) if i != j])[0]
        res.append(projective_distance(lhs_b, m @ g_b))
    return float(np.max(res))


def _assert_mirror_polarizations_match_frozen(seed: int) -> None:
    """Robin (alpha of both signs), Mixed and RotatedMixed on N = 1-3 and
    n = 1-4: the residual has the bits of the frozen per-j loop."""
    rng = np.random.default_rng(seed)
    for N in range(1, 4):
        for n in range(1, 5):
            data = random_soliton_data(rng, N, n, positive=True)
            alpha = abs(draw_boundary(rng, "robin", n))
            specs = [Robin(alpha), Robin(-alpha)] + [
                boundary_spec(draw_boundary(rng, kind, n)) for kind in ("mixed", "rotated_mixed")]
            for spec in specs:
                hl = solve_mirror_norming(data, spec)
                assert mirror_polarization_residual(hl).hex() == (
                    _frozen_mirror_polarization_residual(hl).hex())


class TestMirrorPolarizationPin:
    @pytest.mark.parametrize("seed", range(3))
    def test_residual_matches_the_frozen_per_index_loop(self, seed):
        _assert_mirror_polarizations_match_frozen(seed)

    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_one_boundary_matrix_call_per_dataset(self, kind, monkeypatch):
        # one stack of one row, the boundary's m, serves every j
        calls = []
        stack = mirror_module.boundary_stack
        monkeypatch.setattr(mirror_module, "boundary_stack",
                            lambda rows, n: calls.append(len(rows)) or stack(rows, n))
        hl = halfline_data(np.random.default_rng(7), 3, 2, kind)
        calls.clear()
        mirror_polarization_residual(hl)
        assert calls == [1]


@pytest.mark.slow
def test_mirror_polarizations_match_the_frozen_loop_on_every_seed():
    for seed in range(100):
        _assert_mirror_polarizations_match_frozen(seed)


class TestHalfLineField:
    def test_negative_x_rejected(self):
        rng = np.random.default_rng(7)
        hl = halfline_data(rng, 1, 2, "mixed")
        with pytest.raises(DomainError):
            halfline_field(hl, -0.5, 0.0)

    def test_matches_combined_reconstruction(self):
        from vsolitons import reconstruct_field

        rng = np.random.default_rng(8)
        hl = halfline_data(rng, 2, 2, "robin")
        xs = np.linspace(0, 5, 11)
        assert np.allclose(
            halfline_field(hl, xs, 0.3), reconstruct_field(hl.combined, xs, 0.3)
        )

    def test_incoming_ray_approaches_one_soliton(self):
        from vsolitons import one_soliton_field
        from vsolitons.asymptotics import beta_in

        real = SolitonData.from_arrays(
            [0.5, 1.0], [1.0, 1.1], [[0.8, 0.5 + 0.4j], [1.0, -0.3 + 0.2j]]
        )
        hl = solve_mirror_norming(real, Mixed((1, -1)))
        order = sorted(range(4), key=lambda i: hl.combined.points[i][0].u)
        srt = hl.combined.subset(order)
        j = order.index(0)  # slower real soliton in the sorted 2N system
        t = -25.0
        center = srt.points[j][0].velocity * t
        xs = np.linspace(center - 6.0, center + 6.0, 200)  # stay off the neighbor ray
        ray = one_soliton_field(srt.points[j][0], beta_in(j, srt), xs, t)
        full = halfline_field(hl, xs, t)
        assert np.max(np.abs(full - ray)) < 1e-6

    def test_reflected_polarization_matches_reflection_map(self):
        # N=1: the outgoing mirror soliton carries B(k) applied to the
        # incoming polarization, read off the field at large |t|
        real = SolitonData(2, ((SpectralPoint(0.6, 1.0), NormingVector([0.8, 0.5 + 0.4j])),))
        spec = Mixed((1, -1))
        hl = solve_mirror_norming(real, spec)
        srt = hl.combined.subset([1, 0])  # ascending u
        T = 16.0
        (pol_in, _), (pol_out, _) = extract_asymptotic_polarization(srt, [1, 0], [-T, T])
        predicted, _ = reflection_maps(pol_in.p[None, None], real.ks[None], (spec,))
        assert projective_distance(pol_out, predicted[0, 0]) < 1e-6

    def test_two_soliton_scattering_matches_composite(self):
        from vsolitons.maps import _bounce, _collide
        from vsolitons.soldata import boundary_stack

        real = SolitonData.from_arrays(
            [0.5, 1.0], [1.0, 1.1], [[0.8, 0.5 + 0.4j], [1.0, -0.3 + 0.2j]]
        )
        spec = Mixed((1, -1))
        hl = solve_mirror_norming(real, spec)
        comb = hl.combined
        order = sorted(range(4), key=lambda i: comb.points[i][0].u)
        srt = comb.subset(order)
        pos = {ci: si for si, ci in enumerate(order)}
        T = 20.0
        found = extract_asymptotic_polarization(srt, [pos[j] for j in range(4)], [-T, -T, T, T])
        ins, outs = [pol for pol, _ in found[:2]], [pol for pol, _ in found[2:]]

        P = np.array([[ins[j].p for j in range(2)]])
        K = np.array([[comb.points[j][0].k for j in range(2)]])
        _collide(P, K, 0, 1)
        _bounce(P, K, 1, boundary_stack([spec], 2))
        _collide(P, K, 1, 0)
        _bounce(P, K, 0, boundary_stack([spec], 2))
        for j in range(2):
            assert projective_distance(outs[j], P[0, j]) < 1e-6
