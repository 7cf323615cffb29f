import numpy as np
import pytest

from vsolitons import (
    DomainError,
    Mixed,
    NormingVector,
    Robin,
    SolitonData,
    SpectralPoint,
    a_matrix,
    build_reduced_chain,
    eval_chain,
    halfline_field,
    mirror_constraint_residual,
    mirror_polarization_residual,
    polarization_of,
    projective_distance,
    reflection_map,
    solve_mirror_norming,
)
from vsolitons.mirror import HalfLineData
from vsolitons.sampling import random_boundary, random_soliton_data
from vsolitons.verification import extract_asymptotic_polarization

E1 = np.array([1.0, 0.0])


def halfline_data(rng, N, n, kind):
    data = random_soliton_data(rng, N, n, positive=True)
    spec = random_boundary(rng, kind, n)
    return solve_mirror_norming(data, spec)


class TestAMatrix:
    def test_two_point_structure(self):
        # A_2 = ((k2-k1)/(k2-k1*)) * P_2 * d_1^{-1}(k2) for a 2-point chain
        data = SolitonData.from_arrays(
            [0.5, 1.0], [1.0, 0.8], [[1.0, 0.2j], [0.4, 1.0]]
        )
        chain = build_reduced_chain(data)
        k2 = data.points[1][0].k
        d = chain.factors[1].direction
        pref = (k2 - data.points[0][0].k) / (k2 - data.points[0][0].k.conjugate())
        expected = pref * np.outer(d, d.conj()) @ chain.factors[0].matrix_inv(k2)
        assert np.allclose(a_matrix(1, data, chain), expected, atol=1e-13)

    def test_rank_one(self):
        rng = np.random.default_rng(0)
        data = random_soliton_data(rng, 3, 3)
        for j in range(3):
            s = np.linalg.svd(a_matrix(j, data), compute_uv=False)
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
        mirror = SolitonData(hl.n, tuple(pts))
        combined = SolitonData(hl.n, hl.real_data.points + mirror.points)
        corrupted = HalfLineData(hl.real_data, mirror, hl.spec, combined)
        assert mirror_constraint_residual(corrupted) >= 1e-4

    def test_solve_is_self_consistent(self):
        rng = np.random.default_rng(3)
        hl = halfline_data(rng, 2, 2, "mixed")
        again = solve_mirror_norming(hl.real_data, hl.spec)
        for j in range(hl.N):
            a = hl.mirror_data.points[j][1].beta
            b = again.mirror_data.points[j][1].beta
            assert np.max(np.abs(a - b)) < 1e-12 * np.linalg.norm(a)

    def test_imaginary_axis_rejected(self):
        real = SolitonData(2, ((SpectralPoint(0.0, 1.0), NormingVector(E1)),))
        with pytest.raises(DomainError, match="imaginary axis"):
            solve_mirror_norming(real, Robin(1.0))

    def test_negative_velocity_rejected(self):
        from vsolitons.errors import ValidationError

        real = SolitonData(2, ((SpectralPoint(-1.0, 1.0), NormingVector(E1)),))
        with pytest.raises(ValidationError):
            solve_mirror_norming(real, Robin(1.0))


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
        mirror_dir = build_reduced_chain(hl.combined).factors[1].direction
        real_pol = polarization_of(hl.real_data.points[0][1])
        assert projective_distance(mirror_dir, real_pol.p) < 1e-10


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
        pol_in, _ = extract_asymptotic_polarization(srt, 1, -T)
        pol_out, _ = extract_asymptotic_polarization(srt, 0, T)
        predicted = reflection_map(real.points[0][0].k, pol_in, spec)
        assert projective_distance(pol_out, predicted.p) < 1e-6

    def test_two_soliton_scattering_matches_composite(self):
        from vsolitons.maps import MapChain, PairStep, SiteStep

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
        ins = [extract_asymptotic_polarization(srt, pos[j], -T)[0] for j in range(2)]
        outs = [extract_asymptotic_polarization(srt, pos[2 + j], T)[0] for j in range(2)]

        from vsolitons import ExtendedPoint, YangBaxterRule, BoundaryReflection

        R, B = YangBaxterRule(), BoundaryReflection(spec)
        composite = MapChain(
            (PairStep(0, 1, R), SiteStep(1, B), PairStep(1, 0, R), SiteStep(0, B))
        )
        state = tuple(
            ExtendedPoint(ins[j], comb.points[j][0].k) for j in range(2)
        )
        predicted = composite(state)
        for j in range(2):
            assert projective_distance(outs[j], predicted[j].p) < 1e-6
