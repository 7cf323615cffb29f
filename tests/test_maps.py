import numpy as np
import pytest

from vsolitons import (
    DomainError,
    ExtendedPoint,
    Mixed,
    PoleError,
    Polarization,
    Robin,
    RotatedMixed,
    involution_residual,
    projective_distance,
    reflection_equation_residual,
    reflection_map,
    reversibility_residual,
    s_twist_residual,
    transfer_commutator_residual,
    transfer_map,
    yb_map,
    ybe_residual,
)
from vsolitons.sampling import (
    random_boundary,
    random_map_parameters,
    random_polarization,
    random_unitary,
)
from vsolitons.soldata import PAIR_POLE_TOL

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
K1 = (1 + 1j) / 2
K2 = (-1 + 1j) / 2


class TestYangBaxterMap:
    def test_equal_polarizations_fixed(self):
        p = Polarization([0.6, 0.8j])
        q1, q2 = yb_map(K1, K2, p, p)
        assert projective_distance(q1, p) < 1e-14
        assert projective_distance(q2, p) < 1e-14

    def test_orthogonal_polarizations_fixed(self):
        q1, q2 = yb_map(K1, K2, Polarization(E1), Polarization(E2))
        assert projective_distance(q1, E1) < 1e-14
        assert projective_distance(q2, E2) < 1e-14

    def test_frozen_direct_formula_values(self):
        # direct evaluation of the two rank-one updates for
        # k1=(1+i)/2, k2=(-1+i)/2, p1=e1, p2=(e1+e2)/sqrt2
        q1, q2 = yb_map(K1, K2, Polarization(E1), Polarization((E1 + E2) / np.sqrt(2)))
        expect1 = np.array(
            [0.9128709291752769, 0.18257418583505536 - 0.3651483716701107j]
        )
        expect2 = np.array(
            [0.816496580927726, 0.408248290463863 + 0.408248290463863j]
        )
        assert np.allclose(q1.p, expect1, atol=1e-12)
        assert np.allclose(q2.p, expect2, atol=1e-12)

    def test_pole_configuration_raises(self):
        p = Polarization(E1)
        with pytest.raises(PoleError):
            yb_map(K1, K1, p, p)

    def test_unitary_diagonal_invariance(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            for _ in range(10):
                ks = random_map_parameters(rng, 2)
                p1, p2 = (random_polarization(rng, n) for _ in range(2))
                V = random_unitary(rng, n)
                a1, a2 = yb_map(ks[0], ks[1], p1, p2)
                b1, b2 = yb_map(
                    ks[0], ks[1], Polarization(V @ p1.p), Polarization(V @ p2.p)
                )
                assert projective_distance(Polarization(V @ a1.p), b1) < 1e-12
                assert projective_distance(Polarization(V @ a2.p), b2) < 1e-12


class TestEquationResiduals:
    def test_ybe_equal_inputs(self):
        p = Polarization([1.0, 1.0j])
        ks = [0.5 + 0.5j, -0.4 + 0.3j, 0.2 + 0.8j]
        assert ybe_residual(*ks, p, p, p) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_ybe_random(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            ks = random_map_parameters(rng, 3)
            ps = [random_polarization(rng, n) for _ in range(3)]
            assert ybe_residual(*ks, *ps) < 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_reversibility_random(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(25):
            ks = random_map_parameters(rng, 2)
            ps = [random_polarization(rng, n) for _ in range(2)]
            assert reversibility_residual(ks[0], ks[1], ps[0], ps[1]) < 1e-12

    def test_s_twist_transpose(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            ks = random_map_parameters(rng, 2, mirrored=True)
            ps = [random_polarization(rng, 3) for _ in range(2)]
            assert s_twist_residual(ks[0], ks[1], ps[0], ps[1]) < 1e-12


class TestBoundaryMatrix:
    def test_mixed_diagonal(self):
        m = Mixed((1, -1)).small_m(0.3 + 0.2j, None)
        assert np.allclose(m, np.diag([1.0, -1.0]))

    def test_robin_frozen_scalar(self):
        m = Robin(1.0).small_m(K1, 2)
        expect = (-0.447213595499958 - 0.8944271909999159j) * np.eye(2)
        assert np.allclose(m, expect, atol=1e-12)

    def test_rotated_identity_reduces_to_mixed(self):
        spec = RotatedMixed(np.eye(2), (1, -1))
        assert np.allclose(spec.small_m(1j + 0.5, None), np.diag([1.0, -1.0]))

    def test_unitary_and_involutive(self):
        rng = np.random.default_rng(1)
        for spec in (Mixed((1, -1, 1)), RotatedMixed(random_unitary(rng, 3), (1, 1, -1))):
            m = spec.small_m(0.4 + 0.9j, None)
            assert np.max(np.abs(m.conj().T @ m - np.eye(3))) < 1e-12
            assert np.max(np.abs(m @ m - np.eye(3))) < 1e-12

    def test_robin_unitary(self):
        m = Robin(-0.8).small_m(0.7 + 0.4j, 3)
        assert np.max(np.abs(m.conj().T @ m - np.eye(3))) < 1e-12

    def test_robin_needs_dimension(self):
        from vsolitons.errors import ValidationError

        with pytest.raises(ValidationError):
            Robin(1.0).small_m(K1, None)


class TestReflectionMap:
    def test_robin_is_projectively_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = random_polarization(rng, 3)
            out = reflection_map(0.8 + 0.3j, p, Robin(1.3))
            assert projective_distance(out.p, p) < 1e-14
            assert out.k == -(0.8 - 0.3j)

    def test_mixed_orthogonal_update(self):
        # p'm p = 0 kills the projector term: (e1+e2)/sqrt2 -> (e1-e2)/sqrt2
        p = Polarization((E1 + E2) / np.sqrt(2))
        out = reflection_map(K1, p, Mixed((1, -1)))
        assert projective_distance(out.p, (E1 - E2) / np.sqrt(2)) < 1e-14

    def test_mixed_eigenvector_fixed(self):
        out = reflection_map(0.6 + 0.45j, Polarization(E1), Mixed((1, -1)))
        assert projective_distance(out.p, E1) < 1e-14

    def test_mixed_generic_moves_polarization(self):
        p = Polarization([0.8, 0.6])
        out = reflection_map(0.5 + 0.5j, p, Mixed((1, -1)))
        assert projective_distance(out.p, p) > 0.1  # boundary genuinely transmits

    def test_imaginary_axis_rejected(self):
        with pytest.raises(DomainError, match="imaginary axis"):
            reflection_map(1j, Polarization(E1), Mixed((1, -1)))

    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_involution(self, kind):
        rng = np.random.default_rng(3)
        for n in (2, 3):
            for _ in range(10):
                spec = random_boundary(rng, kind, n)
                ks = random_map_parameters(rng, 1, mirrored=True)
                assert involution_residual(ks[0], random_polarization(rng, n), spec) < 1e-12


class TestReflectionEquation:
    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_random_instances(self, kind):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            for _ in range(25):
                spec = random_boundary(rng, kind, n)
                ks = random_map_parameters(rng, 2, mirrored=True)
                ps = [random_polarization(rng, n) for _ in range(2)]
                assert (
                    reflection_equation_residual(ks[0], ks[1], ps[0], ps[1], spec)
                    < 1e-10
                )

    def test_robin_out_of_the_box(self):
        spec = Robin(0.6)
        r = reflection_equation_residual(
            0.7 + 0.5j, -0.3 + 0.8j, Polarization([1.0, 2.0]), Polarization([1j, 1.0]), spec
        )
        assert r < 1e-12


class TestTransferMaps:
    def _state(self, rng, N, n):
        ks = random_map_parameters(rng, N, mirrored=True)
        return tuple(ExtendedPoint(random_polarization(rng, n), k) for k in ks)

    def test_identity_boundaries_give_identity_map(self):
        rng = np.random.default_rng(5)
        state = self._state(rng, 2, 2)
        out = transfer_map(0, state, None, None)
        for a, b in zip(out, state):
            assert projective_distance(a.p, b.p) < 1e-12
            assert a.k == b.k

    @pytest.mark.parametrize("N", [2, 3])
    def test_identity_boundary_commutators(self, N):
        rng = np.random.default_rng(6 + N)
        state = self._state(rng, N, 2)
        for j in range(N):
            for l in range(N):
                assert transfer_commutator_residual(j, l, state, None, None) < 1e-12

    def test_scalar_case_exactly_zero(self):
        rng = np.random.default_rng(9)
        ks = random_map_parameters(rng, 2, mirrored=True)
        state = tuple(ExtendedPoint(Polarization([1.0]), k) for k in ks)
        B = Mixed((1,))
        assert transfer_commutator_residual(0, 1, state, B, B) == 0.0

    def test_vnls_reflection_experiment_runs_and_is_deterministic(self):
        # exploratory: with the concrete reflection map in both boundary
        # slots the commutator need not vanish; the value is recorded
        rng = np.random.default_rng(10)
        spec = Mixed((1, -1))
        state = self._state(rng, 3, 2)
        r1 = transfer_commutator_residual(0, 2, state, spec, spec)
        r2 = transfer_commutator_residual(0, 2, state, spec, spec)
        assert r1 == r2
        assert np.isfinite(r1)

    def test_parameters_travel_with_reflections(self):
        rng = np.random.default_rng(11)
        spec = Robin(0.4)
        state = self._state(rng, 2, 2)
        out = transfer_map(1, state, spec, spec)
        # two bounces return each parameter to its original value
        assert all(a.k == b.k for a, b in zip(out, state))

    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_reflection_map_is_a_b_plus(self, kind):
        # the concrete reflection map in b_plus with the identity in b_minus
        # commutes; in the swapped slots it does not, except for Robin
        rng = np.random.default_rng(21)
        plus = swapped = 0.0
        for _ in range(5):
            spec = random_boundary(rng, kind, 3)
            for N in (2, 3, 4):
                state = self._state(rng, N, 3)
                for j in range(N):
                    for l in range(j + 1, N):
                        r = transfer_commutator_residual(j, l, state, spec, None)
                        s = transfer_commutator_residual(j, l, state, None, spec)
                        plus, swapped = max(plus, r), max(swapped, s)
        assert plus <= 1e-12
        if kind != "robin":
            assert swapped >= 0.5

    def test_collision_pole_names_the_pair(self):
        k1 = 0.5 + 0.5j
        k2 = k1 + 0.1 * PAIR_POLE_TOL
        p1, p2, p3 = Polarization(E1), Polarization(E2), Polarization([0.6, 0.8])
        with pytest.raises(PoleError, match=r"pair \("):
            ybe_residual(k1, k2, -0.3 + 0.8j, p1, p2, p3)
        state = (ExtendedPoint(p1, k1), ExtendedPoint(p2, k2))
        with pytest.raises(PoleError, match=r"pair \("):
            transfer_map(0, state, None, None)

    def test_extended_point_rejects_imaginary_axis(self):
        with pytest.raises(DomainError):
            ExtendedPoint(Polarization(E1), 1j)
