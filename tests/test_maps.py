import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsolitons import (
    DomainError,
    Mixed,
    NormingVector,
    PoleError,
    Polarization,
    Robin,
    RotatedMixed,
    SpectralPoint,
    boundary_residual,
    convergence_order,
    halfline_field,
    involution_residuals,
    projective_distance,
    reflection_equation_residuals,
    reconstruct_field,
    reflection_maps,
    reversibility_residuals,
    s_twist_residuals,
    solve_mirror_norming,
    transfer_commutators,
    yb_schedule,
    ybe_residuals,
)
from vsolitons import cli, maps, sampling
from vsolitons.cli import _SUITES
from vsolitons.errors import DegeneracyError, ValidationError
from vsolitons.sampling import (
    BOUNDARY_KINDS,
    V_RANGE,
    SampleLog,
    boundaries,
    boundary_spec,
    draw_boundary,
    draw_unit_vectors,
    draw_unitary,
    random_map_parameters,
    random_signs,
    random_soliton_data,
    unit_vectors,
    unitaries,
)
from vsolitons.soldata import (
    AXIS_TOL,
    PAIR_POLE_TOL,
    UNITARY_TOL,
    SolitonData,
    boundary_stack,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
K1 = (1 + 1j) / 2
K2 = (-1 + 1j) / 2
COLLIDE = ((0, 1),)


def _stack(ps, ks):
    """One sample (S = 1) of a stacked state: P (1, slots, n) and K (1, slots)."""
    P = np.array([[getattr(p, "p", p) for p in ps]], dtype=np.complex128)
    return P, np.array([ks], dtype=np.complex128)


def _stack_m(spec, n):
    """The m of one boundary: the S = 1 row of its stack."""
    return boundary_stack([spec], n)[0]


def _samples(rng, count, slots, n, mirrored=False, boundary=None):
    """count seeded samples, each drawn as (boundary,) parameters, then unit
    vectors: (P, K, specs)."""
    ps, ks, specs = [], [], []
    for _ in range(count):
        if boundary is not None:
            specs.append(boundary_spec(draw_boundary(rng, boundary, n)))
        ks.append(random_map_parameters(rng, slots, mirrored=mirrored))
        ps.append(unit_vectors(draw_unit_vectors(rng, slots, n)))
    return np.array(ps), np.array(ks), specs


class TestYangBaxterMap:
    def test_equal_polarizations_fixed(self):
        p = Polarization([0.6, 0.8j])
        out = yb_schedule(*_stack((p, p), (K1, K2)), COLLIDE)
        assert projective_distance(out[0, 0], p) < 1e-14
        assert projective_distance(out[0, 1], p) < 1e-14

    def test_orthogonal_polarizations_fixed(self):
        out = yb_schedule(*_stack((E1, E2), (K1, K2)), COLLIDE)
        assert projective_distance(out[0, 0], E1) < 1e-14
        assert projective_distance(out[0, 1], E2) < 1e-14

    def test_frozen_direct_formula_values(self):
        # direct evaluation of the two rank-one updates for
        # k1=(1+i)/2, k2=(-1+i)/2, p1=e1, p2=(e1+e2)/sqrt2
        out = yb_schedule(*_stack((E1, (E1 + E2) / np.sqrt(2)), (K1, K2)), COLLIDE)
        expect1 = np.array(
            [0.9128709291752769, 0.18257418583505536 - 0.3651483716701107j]
        )
        expect2 = np.array(
            [0.816496580927726, 0.408248290463863 + 0.408248290463863j]
        )
        assert np.allclose(Polarization(out[0, 0]).p, expect1, atol=1e-12)
        assert np.allclose(Polarization(out[0, 1]).p, expect2, atol=1e-12)

    def test_pole_configuration_raises(self):
        with pytest.raises(PoleError):
            yb_schedule(*_stack((E1, E1), (K1, K1)), COLLIDE)

    def test_unitary_diagonal_invariance(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            for _ in range(10):
                ks = random_map_parameters(rng, 2)
                P, K = _stack(unit_vectors(draw_unit_vectors(rng, 2, n)), ks)
                V = unitaries(draw_unitary(rng, n))
                a = yb_schedule(P, K, COLLIDE)[0]
                b = yb_schedule(P @ V.T, K, COLLIDE)[0]
                assert projective_distance(V @ a[0], b[0]) < 1e-12
                assert projective_distance(V @ a[1], b[1]) < 1e-12


class TestEquationResiduals:
    def test_ybe_equal_inputs(self):
        p = Polarization([1.0, 1.0j])
        ks = [0.5 + 0.5j, -0.4 + 0.3j, 0.2 + 0.8j]
        assert ybe_residuals(*_stack((p, p, p), ks))[0] < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_ybe_random(self, n):
        P, K, _ = _samples(np.random.default_rng(n), 25, 3, n)
        assert ybe_residuals(P, K).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_reversibility_random(self, n):
        P, K, _ = _samples(np.random.default_rng(10 + n), 25, 2, n)
        assert reversibility_residuals(P, K).max() < 1e-12

    def test_s_twist_transpose(self):
        P, K, _ = _samples(np.random.default_rng(20), 10, 2, 3, mirrored=True)
        assert s_twist_residuals(P, K).max() < 1e-12


class TestBoundaryMatrix:
    def test_mixed_diagonal(self):
        m = _stack_m(Mixed((1, -1)), None)
        assert np.allclose(m, np.diag([1.0, -1.0]))

    def test_robin_frozen_scalar(self):
        # Robin's m(k) is the unit scalar h/|h| times I (-0.447 - 0.894i at
        # K1 for alpha = 1), a phase no projective quantity sees: its stack
        # row is the identity, bit for bit
        assert _stack_m(Robin(1.0), 2).tobytes() == np.eye(2, dtype=complex).tobytes()

    def test_rotated_identity_reduces_to_mixed(self):
        spec = RotatedMixed(np.eye(2), (1, -1))
        assert np.allclose(_stack_m(spec, None), np.diag([1.0, -1.0]))

    def test_unitary_and_involutive(self):
        rng = np.random.default_rng(1)
        for spec in (Mixed((1, -1, 1)), RotatedMixed(unitaries(draw_unitary(rng, 3)), (1, 1, -1))):
            m = _stack_m(spec, None)
            assert np.max(np.abs(m.conj().T @ m - np.eye(3))) < 1e-12
            assert np.max(np.abs(m @ m - np.eye(3))) < 1e-12

    def test_robin_unitary(self):
        m = _stack_m(Robin(-0.8), 3)
        assert m.tobytes() == np.eye(3, dtype=complex).tobytes()
        assert np.max(np.abs(m.conj().T @ m - np.eye(3))) == 0.0

    def test_robin_needs_dimension(self):
        from vsolitons.errors import ValidationError

        with pytest.raises(ValidationError):
            _stack_m(Robin(1.0), None)


def _reflect(ps, ks, spec):
    """reflection_maps of one sample (S = 1): the first slot's (p, k)."""
    Q, L = reflection_maps(*_stack(ps, ks), (spec,))
    return Q[0, 0], complex(L[0, 0])


class TestReflectionMap:
    def test_robin_is_projectively_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = unit_vectors(draw_unit_vectors(rng, 1, 3))
            q, k = _reflect(p, [0.8 + 0.3j], Robin(1.3))
            assert projective_distance(q, p[0]) < 1e-14
            assert k == -(0.8 - 0.3j)

    def test_mixed_orthogonal_update(self):
        # p'm p = 0 kills the projector term: (e1+e2)/sqrt2 -> (e1-e2)/sqrt2
        q, _ = _reflect([(E1 + E2) / np.sqrt(2)], [K1], Mixed((1, -1)))
        assert projective_distance(q, (E1 - E2) / np.sqrt(2)) < 1e-14

    def test_mixed_eigenvector_fixed(self):
        q, _ = _reflect([E1], [0.6 + 0.45j], Mixed((1, -1)))
        assert projective_distance(q, E1) < 1e-14

    def test_mixed_generic_moves_polarization(self):
        p = Polarization([0.8, 0.6])
        q, _ = _reflect([p], [0.5 + 0.5j], Mixed((1, -1)))
        assert projective_distance(q, p) > 0.1  # boundary genuinely transmits

    def test_imaginary_axis_rejected(self):
        with pytest.raises(DomainError, match="imaginary axis"):
            _reflect([E1], [1j], Mixed((1, -1)))

    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_involution(self, kind):
        rng = np.random.default_rng(3)
        for n in (2, 3):
            P, K, specs = _samples(rng, 10, 1, n, mirrored=True, boundary=kind)
            assert involution_residuals(P, K, specs).max() < 1e-12


class TestReflectionEquation:
    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_random_instances(self, kind):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            P, K, specs = _samples(rng, 25, 2, n, mirrored=True, boundary=kind)
            assert reflection_equation_residuals(P, K, specs).max() < 1e-10

    def test_robin_out_of_the_box(self):
        P, K = _stack((Polarization([1.0, 2.0]), Polarization([1j, 1.0])),
                      (0.7 + 0.5j, -0.3 + 0.8j))
        assert reflection_equation_residuals(P, K, (Robin(0.6),))[0] < 1e-12

    def test_stacked_pair_check_matches_scalar_reference(self):
        # the parameter check and the four collisions' pole checks refuse
        # exactly the pairs the reference pair check calls unsafe: an axis
        # parameter as DomainError, a non-finite one as ValidationError and
        # any other unsafe pair as PoleError
        rng = np.random.default_rng(8)
        ks = [random_map_parameters(rng, 2) for _ in range(200)]
        k = 0.4 + 0.7j
        edges = [(k, k), (k, -k.conjugate()), (k, k + 0.5 * PAIR_POLE_TOL),
                 (k, -k.conjugate() + 2 * PAIR_POLE_TOL), (0.5 * AXIS_TOL + 1j, k),
                 (k, 1j), (k, complex(math.nan, 1.0)), (complex(1.0, math.nan), k),
                 (0.5 + 0j, complex(0.5, PAIR_POLE_TOL))]  # a gap of exactly PAIR_POLE_TOL
        P = np.ones((1, 2, 2), dtype=complex) / math.sqrt(2)
        got = []
        for k1, k2 in ks + edges:
            try:
                reflection_equation_residuals(P, np.array([[k1, k2]]), [Mixed((1, -1))])
                got.append(None)
            except (DomainError, PoleError, ValidationError) as exc:
                got.append(type(exc))
        assert [g is None for g in got] == [_reference_pair_safe(a, b) for a, b in ks + edges]
        assert got[-len(edges):] == [PoleError, PoleError, PoleError, None, DomainError,
                                     DomainError, ValidationError, ValidationError, None]

    def test_unsafe_pair_names_the_first_unsafe_sample(self):
        k = 0.5 + 0.5j
        K = np.array([[0.3 + 0.9j, -0.7 + 0.4j], [k, -k.conjugate()]])
        P = np.ones((2, 2, 2), dtype=complex) / math.sqrt(2)
        # the unsafe sample is named by the collision that meets its pole: the
        # bounce sends -k* back to k, which then meets k in collision (1, 0)
        message = (r"^pair \(1, 0\) with parameters \(\(0\.5\+0\.5j\), \(0\.5\+0\.5j\)\): "
                   r"collision factors are singular")
        with pytest.raises(PoleError, match=message):
            reflection_equation_residuals(P, K, [Mixed((1, -1))] * 2)

    def test_mirrored_draws_are_pair_safe(self):
        # the reflection-equation suite draws its parameters mirrored and
        # relies on every draw passing the kernel's pole checks
        for seed in range(200):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                assert _reference_pair_safe(*random_map_parameters(rng, 2, mirrored=True))


class TestBounceIsMirrorCollision:
    """The bounce is the collision of a soliton with its mirror image:
    B(p, k) is slot 0 of the collision of (m(k) p, -k*) with (p, k)."""

    @staticmethod
    def _sides(kind, n):
        """200 seeded one-slot samples: the bounce, the mirror collision and
        the bounce at -k* instead of k, each as (P, K)."""
        rng = np.random.default_rng(900 + 10 * BOUNDARY_KINDS.index(kind) + n)
        P, K, specs = _samples(rng, 200, 1, n, mirrored=True, boundary=kind)
        stack, bounce = boundary_stack(specs, n), (P.copy(), K.copy())
        maps._bounce(*bounce, 0, stack)
        mirror = np.einsum("sab,sb->sa", stack, P[:, 0])
        collision = np.stack([mirror, P[:, 0]], axis=1), np.concatenate([-K.conj(), K], axis=1)
        maps._collide(*collision, 0, 1)
        flipped = P.copy(), -K.conj()
        maps._bounce(*flipped, 0, stack)
        return bounce, collision, flipped

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_bounce_is_slot_zero_of_the_mirror_collision(self, kind, n):
        (Q, L), (R, M), _ = self._sides(kind, n)
        assert np.array_equal(L[:, 0], M[:, 0])
        assert projective_distance(Q[:, 0], R[:, 0]).max() <= AGREE

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["mixed", "rotated_mixed"])
    def test_bounce_at_the_mirror_parameter_misses(self, kind, n):
        # negative control: the same identity with B applied at -k* fails
        _, (R, _), (X, _) = self._sides(kind, n)
        assert projective_distance(X[:, 0], R[:, 0]).max() >= 0.5


class TestReflectionMapClassification:
    """The reflection map as the classification of reflection maps has it
    (Caudrelier, Crampe and Zhang, J. Phys. A 2013), with m handed in as a
    raw (S, n, n) stack.  Bounds from 90,000 seeded draws (n = 2-4, 1,000
    per seed and n, seeds other than these): the Robin map moved P by at most
    7.2e-16; a Hermitian unitary read at most 3.6e-14 in the reflection
    equation and 4.3e-14 in the involution; a Haar-random unitary read at
    least 5.1e-6 in the reflection equation, 6 draws below 1e-4 and 0.1%
    below 1.3e-3, and at least 6.6e-6 in the involution, 12 draws below
    1e-4."""

    S = 100

    def _draws(self, n):
        """(rng, P, K): S mirrored two-slot samples on n components."""
        rng = np.random.default_rng(3300 + n)
        K = np.array([random_map_parameters(rng, 2, mirrored=True) for _ in range(self.S)])
        P = unit_vectors(draw_unit_vectors(rng, 2 * self.S, n)).reshape(self.S, 2, n)
        return rng, P, K

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_robin_keeps_the_polarization_and_mirrors_k(self, n):
        rng, P, K = self._draws(n)
        Q, L = reflection_maps(P, K, boundary_stack(rng.uniform(-2.0, 2.0, self.S).tolist(), n))
        assert projective_distance(Q, P).max() <= 1e-15
        assert np.array_equal(L, -K.conj())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hermitian_unitary_passes(self, n):
        rng, P, K = self._draws(n)
        U = unitaries(rng.standard_normal((self.S, 2, n, n)))
        signs = np.array([random_signs(rng, n) for _ in range(self.S)], dtype=complex)
        m = (U.conj().swapaxes(-1, -2) * signs[:, None, :]) @ U
        assert reflection_equation_residuals(P, K, m).max() <= 1e-13
        assert involution_residuals(P[:, :1], K[:, :1], m).max() <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_non_hermitian_unitary_fails_the_reflection_equation(self, n):
        rng, P, K = self._draws(n)
        m = unitaries(rng.standard_normal((self.S, 2, n, n)))
        assert np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(1, 2)).min() > 0.1
        assert reflection_equation_residuals(P, K, m).min() >= 1e-4

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_non_hermitian_unitary_fails_the_involution(self, n):
        rng, P, K = self._draws(n)
        m = unitaries(rng.standard_normal((self.S, 2, n, n)))
        assert involution_residuals(P[:, :1], K[:, :1], m).min() >= 1e-4


def _site_ms(P, b_plus, b_minus):
    """The boundary stacks T_j bounces with, at k_j and at -k_j*; each
    boundary slot a spec sequence or None."""
    return [None if b is None else boundary_stack(b, P.shape[-1]) for b in (b_plus, b_minus)]


class TestTransferMaps:
    def _state(self, rng, N, n):
        K = np.array([random_map_parameters(rng, N, mirrored=True)])
        return unit_vectors(draw_unit_vectors(rng, N, n))[None], K

    def _transfer(self, j, P, K, b_plus, b_minus):
        """T_j on copies; each boundary slot a spec sequence or None."""
        Q, L = P.copy(), K.copy()
        maps._transfer(Q, L, j, *_site_ms(P, b_plus, b_minus))
        return Q, L

    def test_identity_boundaries_give_identity_map(self):
        P, K = self._state(np.random.default_rng(5), 2, 2)
        Q, L = self._transfer(0, P, K, None, None)
        for a, b in zip(Q[0], P[0]):
            assert projective_distance(a, b) < 1e-12
        assert np.array_equal(L, K)

    @pytest.mark.parametrize("N", [2, 3])
    def test_identity_boundary_commutators(self, N):
        P, K = self._state(np.random.default_rng(6 + N), N, 2)
        rows = transfer_commutators(P, K, None, None)
        assert rows.shape == (N * (N - 1) // 2, 1) and rows.max() < 1e-12

    def test_scalar_case_exactly_zero(self):
        rng = np.random.default_rng(9)
        K = np.array([random_map_parameters(rng, 2, mirrored=True)])
        B = Mixed((1,))
        assert transfer_commutators(np.ones((1, 2, 1), complex), K, (B,), (B,))[0, 0] == 0.0

    def test_vnls_reflection_experiment_runs_and_is_deterministic(self):
        # exploratory: with the concrete reflection map in both boundary
        # slots the commutator need not vanish; the value is recorded
        rng = np.random.default_rng(10)
        spec = Mixed((1, -1))
        P, K = self._state(rng, 3, 2)
        r1 = transfer_commutators(P, K, (spec,), (spec,))
        r2 = transfer_commutators(P, K, (spec,), (spec,))
        assert np.array_equal(r1, r2)
        assert np.isfinite(r1).all()

    def test_parameters_travel_with_reflections(self):
        rng = np.random.default_rng(11)
        spec = Robin(0.4)
        P, K = self._state(rng, 2, 2)
        _, L = self._transfer(1, P, K, (spec,), (spec,))
        # two bounces return each parameter to its original value
        assert np.array_equal(L, K)

    @pytest.mark.parametrize("kind", ["robin", "mixed", "rotated_mixed"])
    def test_reflection_map_is_a_b_plus(self, kind):
        # the concrete reflection map in b_plus with the identity in b_minus
        # commutes; in the swapped slots it does not, except for Robin
        rng = np.random.default_rng(21)
        plus = swapped = 0.0
        for _ in range(5):
            spec = boundary_spec(draw_boundary(rng, kind, 3))
            for N in (2, 3, 4):
                P, K = self._state(rng, N, 3)
                plus = max(plus, transfer_commutators(P, K, (spec,), None).max())
                swapped = max(swapped, transfer_commutators(P, K, None, (spec,)).max())
        assert plus <= 1e-12
        if kind != "robin":
            assert swapped >= 0.5

    @pytest.mark.parametrize("N", [2, 3])
    def test_stacked_kinds_equal_single_sample_calls(self, N):
        # one stack of mixed kinds, one spec per sample, must give every
        # sample exactly what its own S = 1 call gives
        rng = np.random.default_rng(30 + N)
        _, _, P, K = _draw(rng, 6, N, 2)
        specs = _specs(rng, 6, 2)
        for b_minus in (None, specs):
            stacked = transfer_commutators(P, K, specs, b_minus)
            for s in range(6):
                one = transfer_commutators(P[s:s + 1], K[s:s + 1], specs[s:s + 1],
                                           None if b_minus is None else b_minus[s:s + 1])
                assert np.array_equal(stacked[:, s:s + 1], one)
            Q, L = self._transfer(N - 1, P, K, specs, b_minus)
            for s in range(6):
                q, m = self._transfer(N - 1, P[s:s + 1], K[s:s + 1], specs[s:s + 1],
                                      None if b_minus is None else b_minus[s:s + 1])
                assert np.array_equal(Q[s:s + 1], q) and np.array_equal(L[s:s + 1], m)

    @pytest.mark.parametrize("S", [1, 3, 6])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_commutator_rows_equal_one_sample_one_pair_calls(self, S, N):
        # every T_l P is shared by all pairs and each T_j runs over a stack of
        # several states: no sample of any row may move from its own S = 1
        # call, nor from T_j T_l against T_l T_j composed for that one pair
        # (numpy can round a length-1 stack differently)
        rng = np.random.default_rng(40 + 10 * S + N)
        _, _, P, K = _draw(rng, S, N, 2)
        specs = _specs(rng, S, 2)
        pairs = [(j, l) for j in range(N) for l in range(j + 1, N)]
        for b_plus, b_minus in ((None, None), (specs, None), (specs, specs)):
            rows = transfer_commutators(P, K, b_plus, b_minus)
            assert rows.shape == (len(pairs), S)
            for s in range(S):
                state = P[s:s + 1], K[s:s + 1]
                slots = [None if b is None else b[s:s + 1] for b in (b_plus, b_minus)]
                one = transfer_commutators(*state, *slots)
                assert rows[:, s].tobytes() == one[:, 0].tobytes()
                for row, (j, l) in zip(rows, pairs):
                    a = self._transfer(j, *self._transfer(l, *state, *slots), *slots)
                    b = self._transfer(l, *self._transfer(j, *state, *slots), *slots)
                    assert row[s].tobytes() == maps._slot_residual(*a, *b)[0].tobytes()

    def test_collision_pole_names_the_pair(self):
        k1 = 0.5 + 0.5j
        k2 = k1 + 0.1 * PAIR_POLE_TOL
        p1, p2, p3 = E1, E2, np.array([0.6, 0.8])
        with pytest.raises(PoleError, match=r"pair \("):
            ybe_residuals(*_stack((p1, p2, p3), (k1, k2, -0.3 + 0.8j)))
        with pytest.raises(PoleError, match=r"pair \("):
            self._transfer(0, *_stack((p1, p2), (k1, k2)), None, None)


# --- reference: the one-sample-at-a-time draw path ---------------------------
#
# Unit vectors, unitaries and rotated boundaries drawn and derived one sample
# at a time; the raw draws derived per stack must give the same bits and
# leave the generator in the same state.


def _frozen_canonical_phase(vec):
    pivot = vec[np.abs(vec).argmax()]
    return vec * (abs(pivot) / pivot)


def _frozen_unit_vectors(rng, count, n):
    rows = []
    while True:
        draws = rng.standard_normal((count - len(rows), 2, n))
        for v in draws[:, 0] + 1j * draws[:, 1]:
            re, im = v.real, v.imag
            norm = math.sqrt(re.dot(re) + im.dot(im))
            if norm > 1e-6:
                rows.append(_frozen_canonical_phase(v / norm))
        if len(rows) == count:
            return np.array(rows).reshape(count, n)


def _frozen_random_u(rng, positive=False):
    """sampling.random_u as it was: |u| by rng.uniform, then its sign by rng.random()."""
    mag = rng.uniform(*sampling.U_RANGE)
    if positive:
        return mag
    return mag if rng.random() < 0.5 else -mag


def _frozen_random_norming_vector(rng, n, log):
    """sampling.random_norming_vector as it was: one (2, n) draw per try,
    redrawn and counted while its norm is <= 1e-6."""
    while True:
        re, im = rng.standard_normal((2, n))
        vec = re + 1j * im
        if np.linalg.norm(vec) > 1e-6:
            return NormingVector(vec)
        log.resamples += 1


def _frozen_random_soliton_data(rng, N, n, positive, log):
    """sampling.random_soliton_data as it drew one scalar or vector at a time."""
    while True:
        us = sorted(_frozen_random_u(rng, positive) for _ in range(N))
        if all(b - a >= sampling.MIN_U_GAP for a, b in zip(us, us[1:])):
            break
        log.resamples += 1
    return SolitonData(n, tuple((SpectralPoint(u, rng.uniform(*V_RANGE)),
                                 _frozen_random_norming_vector(rng, n, log)) for u in us))


def _frozen_unitary(rng, n):
    re, im = rng.standard_normal((2, n, n))
    Q, R = np.linalg.qr(re + 1j * im)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _frozen_rotated(U, signs):
    """(U, signs, m) as RotatedMixed checked and derived them."""
    n = len(signs)
    defect = np.max(np.abs(U.conj().T @ U - np.eye(n)))
    if defect > UNITARY_TOL:
        raise ValidationError(f"matrix is not unitary: max |U^dag U - I| = {defect:.3e}")
    return U, signs, (U.conj().T * np.asarray(signs, dtype=np.complex128)) @ U


def _frozen_boundary(rng, kind, n):
    if kind == "rotated_mixed":
        return _frozen_rotated(_frozen_unitary(rng, n), random_signs(rng, n))
    return Robin(rng.uniform(-2.0, 2.0)) if kind == "robin" else Mixed(random_signs(rng, n))


def _samples_both_ways(make_rng, samples, ns, kinds=BOUNDARY_KINDS):
    """Each sample drawn as the reflection-equation suite draws it (n
    interleaved as `cli._map_draw` does), plus a unitary, on two equal
    generators: raw draws derived per n-stack against the frozen
    one-at-a-time path.  Asserts equal bits, resamples and final rng states;
    returns the two generators."""
    new_rng, old_rng = make_rng(), make_rng()
    new_log, old_log = SampleLog(), SampleLog()
    new, old = [], []
    for i in range(samples):
        n, kind = ns[i % len(ns)], kinds[i % len(kinds)]
        new.append((n, draw_boundary(new_rng, kind, n),
                    random_map_parameters(new_rng, 2, mirrored=True, log=new_log),
                    draw_unit_vectors(new_rng, 2, n), draw_unitary(new_rng, n)))
        old.append((n, _frozen_boundary(old_rng, kind, n),
                    random_map_parameters(old_rng, 2, mirrored=True, log=old_log),
                    _frozen_unit_vectors(old_rng, 2, n), _frozen_unitary(old_rng, n)))
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    assert new_log.resamples == old_log.resamples
    for n in set(ns):
        idx = [i for i in range(samples) if new[i][0] == n]
        if not idx:
            continue
        K = np.array([new[i][2] for i in idx])
        P = unit_vectors(np.array([new[i][3] for i in idx]))
        V = unitaries(np.array([new[i][4] for i in idx]))
        stack = boundaries([new[i][1] for i in idx], n)
        assert K.tobytes() == np.array([old[i][2] for i in idx]).tobytes()
        for j, i in enumerate(idx):
            _, spec, _, units, unitary = old[i]
            assert P[j].tobytes() == units.tobytes()
            assert V[j].tobytes() == unitary.tobytes()
            # the stack row and the spec the mirror suites build from the same draw
            one, row = boundary_spec(new[i][1]), stack[j].tobytes()
            if isinstance(spec, tuple):
                assert type(one) is RotatedMixed and one.signs == spec[1]
                assert one.unitary.tobytes() == spec[0].tobytes()
                assert row == one.m.tobytes() == spec[2].tobytes()
            elif isinstance(spec, Robin):
                assert one == spec
                assert row == np.eye(n, dtype=complex).tobytes()
            else:
                assert one.to_json() == spec.to_json()
                assert row == spec.m.tobytes()
    return new_rng, new_log


class _Scripted:
    """A seeded generator whose draws are edited on chosen calls: ``edits``
    maps (method, size, occurrence) to a function of the drawn array, where
    occurrence counts the earlier calls with that method and size."""

    def __init__(self, seed, edits=()):
        self.rng, self.edits = np.random.default_rng(seed), dict(edits)
        self.bit_generator = self.rng.bit_generator
        self.seen, self.applied = {}, []

    def _draw(self, name, size, draw):
        key = (name, size, self.seen.get((name, size), 0))
        self.seen[name, size] = key[2] + 1
        out = draw()
        if key in self.edits:
            self.applied.append(key)
            out = self.edits[key](out)
        return out

    def calls(self, name):
        return sum(k for (method, _), k in self.seen.items() if method == name)

    def standard_normal(self, size):
        return self._draw("standard_normal", size, lambda: self.rng.standard_normal(size))

    def random(self, size=None):
        return self._draw("random", size, lambda: self.rng.random(size))

    def uniform(self, low, high):
        return self._draw("uniform", None, lambda: self.rng.uniform(low, high))


def _scaled_to_norm(vec, norm):
    return vec * (norm / np.linalg.norm(vec[0] + 1j * vec[1]))


def _edit(fn):
    def apply(out):
        out = out.copy()
        fn(out)
        return out
    return apply


def _at_the_floor(d):
    # both vectors reach the exact norm test: one just above 1e-6 is kept,
    # one just below is redrawn
    d[0] = _scaled_to_norm(d[0], 1e-6 * (1 + 2**-40))
    d[1] = _scaled_to_norm(d[1], 1e-6 * (1 - 2**-40))


#: Scripted edits of rotated_mixed samples with n = 1, 2, 3, 8, 1, ...
SCRIPTS = {
    # the first n = 8 sample's second unit vector is zero and is redrawn
    "near-zero-vector": (("standard_normal", (2, 2, 8), 0), _edit(lambda d: d[1].fill(0.0))),
    "norm-at-the-floor": (("standard_normal", (2, 2, 3), 0), _edit(_at_the_floor)),
    # the first n = 3 sign pattern is all +1 and is redrawn
    "improper-signs": (("random", 3, 0), _edit(lambda r: r.fill(0.0))),
    # the third sample's two parameters coincide: a counted resample
    "unsafe-pair": (("random", (2, 3), 2), _edit(lambda r: r.__setitem__(1, r[0]))),
}


class TestMapDraws:
    @pytest.mark.parametrize("seed", range(50))
    def test_stacked_derivation_matches_the_one_sample_path(self, seed):
        _samples_both_ways(lambda: np.random.default_rng(seed), 12, (1, 2, 3, 8))

    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    @pytest.mark.parametrize("seed", range(5))
    def test_scripted_redraws_match_the_one_sample_path(self, script, seed):
        key, edit = SCRIPTS[script]
        args = (8, (1, 2, 3, 8), ("rotated_mixed",))
        plain, plain_log = _samples_both_ways(lambda: _Scripted(seed), *args)
        rng, log = _samples_both_ways(lambda: _Scripted(seed, {key: edit}), *args)
        assert rng.applied == [key]
        assert plain_log.resamples == 0 and log.resamples == (script == "unsafe-pair")
        redrawn = script in ("near-zero-vector", "norm-at-the-floor")
        assert rng.calls("standard_normal") == plain.calls("standard_normal") + redrawn
        if script == "improper-signs":
            assert rng.seen["random", 3] > 1

    @pytest.mark.parametrize("draw,variant,size", [
        (cli._map_draw(3, False), ("n=2", 2), (3, 2, 2)),
        (cli._map_draw(1, True), ("robin", None), (1, 2, 2)),
        (cli._draw_yb_structure, ("", None), (2, 2, 2)),
        (cli._draw_transfer(2), ("", None), (3, 2, 2)),
    ], ids=["ybe", "involution", "yb-structure", "transfer"])
    def test_map_suite_draws_count_unit_vector_redraws(self, draw, variant, size):
        # a zero vector in a map suite's unit-vector draw is redrawn and
        # counted in the suite's log, as a soliton-data draw counts it
        cfg = cli.parse_run_config({"mode": "verify", "suite": {"name": "ybe", "seed": 4}})
        zero = {("standard_normal", size, 0): _edit(lambda d: d[0].fill(0.0))}
        (plain, plain_log), (rng, log) = [(_Scripted(4, edits), SampleLog()) for edits in ({}, zero)]
        draw(cfg, plain, plain_log, 0, variant)
        draw(cfg, rng, log, 0, variant)
        assert rng.applied and log.resamples == plain_log.resamples + 1

    def test_large_one_component_stack_matches_one_at_a_time(self):
        # above 256 KiB numpy may reuse a temporary in place, with other bits
        draws = np.random.default_rng(9).standard_normal((20000, 2, 1))
        vectors = draws[:, 0] + 1j * draws[:, 1]
        ref = [_frozen_canonical_phase(v / np.linalg.norm(v)) for v in vectors]
        assert unit_vectors(draws).tobytes() == np.array(ref).tobytes()

    def test_a_small_first_entry_takes_the_exact_norm_test(self):
        # both vectors are kept: their norms are far above 1e-6
        edit = _edit(lambda d: d[:, 0, 0].fill(0.0))
        edits = {("standard_normal", (2, 2, 3), 0): edit}
        rng, _ = _samples_both_ways(lambda: _Scripted(3, edits), 2, (3,), ("rotated_mixed",))
        assert rng.applied and rng.seen["standard_normal", (2, 2, 3)] == 2

    @staticmethod
    def _oracle_draws(rng, count, n, log=None):
        """Unit-vector draws one part at a time: n real parts, then n imaginary
        parts, each by its own call, redrawn (and counted in log) while the
        norm is <= 1e-6."""
        out = []
        while len(out) < count:
            re, im = rng.standard_normal(n), rng.standard_normal(n)
            if np.linalg.norm(re + 1j * im) > 1e-6:
                out.append((re, im))
            elif log is not None:
                log.resamples += 1
        return np.array(out)

    @staticmethod
    def _oracle_units(rng, count, n):
        """The per-object draw path: a NormingVector, then its Polarization."""
        out = []
        while len(out) < count:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if np.linalg.norm(v) > 1e-6:
                out.append(Polarization(NormingVector(v).beta).p)
        return np.array(out)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_unit_vectors_match_the_object_path_bit_for_bit(self, n):
        for seed in range(50):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for count in (1, 2, 3):
                got = unit_vectors(draw_unit_vectors(got_rng, count, n))
                ref = self._oracle_units(ref_rng, count, n)
                assert got.shape == (count, n)
                assert got.tobytes() == ref.tobytes()
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_unit_vectors_redraw_near_zero_vectors(self):
        class Scripted:
            # the first vector's 2n draws are 0, so it must be redrawn
            def __init__(self, n):
                self.rng, self.zeros = np.random.default_rng(1), 2 * n
                self.drawn, self.shapes = 0, []

            def standard_normal(self, shape):
                self.shapes.append(shape)
                out = self.rng.standard_normal(shape)
                flat = out.reshape(-1)
                flat[: max(0, self.zeros - self.drawn)] = 0.0
                self.drawn += flat.size
                return out

        got_rng, ref_rng = Scripted(3), Scripted(3)
        got = unit_vectors(draw_unit_vectors(got_rng, 2, 3))
        assert np.isfinite(got).all()
        assert got.tobytes() == self._oracle_units(ref_rng, 2, 3).tobytes()
        # one vector kept from the first pass, one redrawn in the second
        assert got_rng.shapes == [(2, 2, 3), (1, 2, 3)]
        assert got_rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_map_parameters_match_spectral_points(self, seed):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_map_parameters(got_rng, 3)
        ref = [SpectralPoint(_frozen_random_u(ref_rng), ref_rng.uniform(*V_RANGE)).k
               for _ in range(3)]
        assert got == ref
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @staticmethod
    def _oracle_signs(rng, n):
        """One rng.random() per entry."""
        while True:
            signs = tuple(1 if rng.random() < 0.5 else -1 for _ in range(n))
            if n == 1 or len(set(signs)) == 2:
                return signs

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_signs_match_scalar_draws(self, n):
        for seed in range(50):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert random_signs(got_rng, n) == self._oracle_signs(ref_rng, n)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_norming_vectors_and_unitaries_match_two_draws(self, n):
        # real parts, then imaginary parts, each once drawn by its own call
        for seed in range(50):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            re, im = draw_unit_vectors(got_rng, 1, n)[0]
            got = NormingVector(re + 1j * im).beta
            ref = ref_rng.standard_normal(n) + 1j * ref_rng.standard_normal(n)
            assert got.tobytes() == ref.tobytes()
            got = unitaries(draw_unitary(got_rng, n))
            Z = ref_rng.standard_normal((n, n)) + 1j * ref_rng.standard_normal((n, n))
            Q, R = np.linalg.qr(Z)
            ref = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
            assert got.tobytes() == ref.tobytes()
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_map_parameters_match_scalar_draws(self, count, mirrored):
        for seed in range(50):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got_log, ref_log = SampleLog(), SampleLog()
            for _ in range(4):
                got = random_map_parameters(got_rng, count, mirrored, got_log)
                assert got == oracle_map_parameters(ref_rng, count, mirrored, ref_log)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
            assert got_log.resamples == ref_log.resamples


def oracle_pairs_safe(ks, mirrored):
    """Every two entries of the probe list ks (+ their mirrors -k*) compared."""
    probes = ks + [-k.conjugate() for k in ks] if mirrored else ks
    return all(abs(a - b) >= sampling.POLE_MARGIN for a, b in itertools.combinations(probes, 2))


def _near_margin_parameters(rng, count):
    """count parameters, one of them placed within a few ulps-relative of a
    POLE_MARGIN distance from another parameter, its mirror or its own mirror
    (or exactly on it, or nan)."""
    M = sampling.POLE_MARGIN
    ks = [complex(_frozen_random_u(rng), rng.uniform(*V_RANGE)) / 2.0 for _ in range(count)]
    i, j = rng.integers(count), rng.integers(count)
    a = ks[j]
    step = M * (1.0 + rng.choice([-1e-12, -1e-15, 0.0, 1e-15, 1e-12])) * np.exp(
        2j * np.pi * rng.random())
    how = rng.integers(6)
    if how == 0:
        ks[i] = a + step
    elif how == 1:
        ks[i] = -a.conjugate() + step
    elif how == 2:
        ks[i] = complex(math.copysign(abs(step) / 2.0, a.real), a.imag)
    elif how == 3:
        ks[i] = a
    elif how == 4:
        ks[i] = -a.conjugate()
    else:
        ks[i] = complex(math.nan, a.imag)
    return ks


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("mirrored", [False, True])
def test_pairs_safe_matches_the_probe_list(count, mirrored):
    # the mirrored probe list repeats |a - b|, |a + b*| and |2 Re a| bit for
    # bit, so testing each once must make the probe list's decision
    rng = np.random.default_rng(60 + 2 * count + mirrored)
    decisions = set()
    for _ in range(3000):
        ks = _near_margin_parameters(rng, count)
        expect = oracle_pairs_safe(ks, mirrored)
        assert sampling._pairs_safe(ks, mirrored) == expect
        decisions.add(expect)
    # one parameter has no pair unless it is compared with its own mirror
    assert decisions == ({True, False} if count > 1 or mirrored else {True})


def oracle_map_parameters(rng, count, mirrored=False, log=None):
    """Per-scalar draws: |u|, its sign and v, one rng call each."""
    while True:
        ks = [complex(_frozen_random_u(rng), rng.uniform(*V_RANGE)) / 2.0 for _ in range(count)]
        if oracle_pairs_safe(ks, mirrored):
            return ks
        if log is not None:
            log.resamples += 1


def _assert_same_data(got, ref) -> None:
    assert (got.n, got.N) == (ref.n, ref.N)
    for (p, a), (q, b) in zip(got.points, ref.points):
        assert (p.u, p.v) == (q.u, q.v) and a.beta.tobytes() == b.beta.tobytes()


def _assert_soliton_draws_match_frozen(seed: int) -> int:
    """random_soliton_data against the frozen scalar draws for N = 1-6 and
    n = 1-4, positive and signed u, one generator pair per sign: equal data,
    resamples and final rng states.  Returns the resamples."""
    resamples = 0
    for positive in (False, True):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got_log, ref_log = SampleLog(), SampleLog()
        for N, n in itertools.product(range(1, 7), range(1, 5)):
            _assert_same_data(random_soliton_data(got_rng, N, n, positive, got_log),
                              _frozen_random_soliton_data(ref_rng, N, n, positive, ref_log))
        assert got_log.resamples == ref_log.resamples
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        resamples += got_log.resamples
    return resamples


class TestSolitonDraws:
    @pytest.mark.parametrize("seed", range(3))
    def test_soliton_data_match_the_frozen_scalar_draws(self, seed):
        assert _assert_soliton_draws_match_frozen(seed) > 0  # velocity redraws among them

    @pytest.mark.parametrize("positive", [False, True])
    def test_a_zero_first_normal_draw_is_redrawn_and_counted(self, positive):
        # the first norming vector is drawn as zeros: it is redrawn, and the
        # redraw counted, as the frozen draws do
        zero = _edit(lambda d: d.fill(0.0))
        got_rng = _Scripted(4, {("standard_normal", (1, 2, 3), 0): zero})
        ref_rng = _Scripted(4, {("standard_normal", (2, 3), 0): zero})
        got_log, ref_log, plain_log = SampleLog(), SampleLog(), SampleLog()
        got = random_soliton_data(got_rng, 3, 3, positive, got_log)
        _assert_same_data(got, _frozen_random_soliton_data(ref_rng, 3, 3, positive, ref_log))
        random_soliton_data(np.random.default_rng(4), 3, 3, positive, plain_log)
        assert got_rng.applied and ref_rng.applied
        assert got_rng.calls("standard_normal") == 4
        assert got_log.resamples == ref_log.resamples == plain_log.resamples + 1
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.slow
def test_soliton_data_match_the_frozen_scalar_draws_on_every_seed():
    for seed in range(100):
        _assert_soliton_draws_match_frozen(seed)


MAP_SUITES = ("ybe", "reversibility", "yb-structure", "reflection-equation", "involution",
              "transfer")


def _reports(root, suite, seeds):
    """report.json bytes of one verify run per seed, at default samples."""
    out = []
    for seed in seeds:
        cfg = root / f"{suite}-{seed}.json"
        cfg.write_text(json.dumps({"suite": {"name": suite, "seed": seed}}))
        assert cli.main(["verify", "--config", str(cfg), "--out", str(root / "run")]) == 0
        out.append((root / "run" / "report.json").read_bytes())
    return out


@pytest.mark.parametrize("suite", MAP_SUITES)
def test_map_suite_reports_match_scalar_draws(suite, tmp_path, monkeypatch):
    # the whole-array draws must leave every map-suite report as the
    # per-scalar draws leave it
    fast = _reports(tmp_path, suite, range(5))
    monkeypatch.setattr(cli, "draw_unit_vectors", TestMapDraws._oracle_draws)
    for module in (cli, sampling):
        monkeypatch.setattr(module, "random_map_parameters", oracle_map_parameters)
    monkeypatch.setattr(sampling, "random_signs", TestMapDraws._oracle_signs)
    assert _reports(tmp_path, suite, range(5)) == fast


def _reference_transfer_rows(seed, boundary):
    """The transfer suite's rows with each boundary kind evaluated on its own
    as one-sample states, drawing in the suite's order."""
    rng, log = np.random.default_rng(seed), SampleLog()

    def worst(b_plus, b_minus, n):
        w = 0.0
        for N in (2, 3):
            K = np.array([random_map_parameters(rng, N, mirrored=True, log=log)])
            P = unit_vectors(draw_unit_vectors(rng, N, n))[None]
            w = max(w, float(transfer_commutators(P, K, b_plus, b_minus).max()))
        return w

    rows = {"transfer-commutator[identity-boundary]": worst(None, None, 2)}
    random_map_parameters(rng, 2, mirrored=True, log=log)  # the scalar row's parameters
    kinds = [("given", boundary)] if boundary else [(kind, None) for kind in BOUNDARY_KINDS]
    for row, n, both in (("vnls-reflection", 2, True), ("b-plus-reflection", 3, False)):
        for label, given in kinds:
            spec = given or boundary_spec(draw_boundary(rng, label, n))
            rows[f"transfer-commutator[{row}:{label}]"] = worst(
                (spec,), (spec,) if both else None, spec.n or n)
    return rows, log.resamples


def _reference_pde_rows(seed):
    """The pde suite's rows as its checks were drawn and evaluated one after
    another: the line data and its order, the half-line data solved at Mixed
    and at Robin and the Mixed field's order, then the Robin and Mixed
    boundary orders."""
    rng, log, hs = np.random.default_rng(seed), SampleLog(), [0.04, 0.02, 0.01]
    data = random_soliton_data(rng, 2, 2, log=log)
    line = cli._pde_order(lambda X, T: reconstruct_field(data, X, T), -4, 4, hs)
    hdata = random_soliton_data(rng, 2, 2, positive=True, log=log)
    hl_mixed = solve_mirror_norming(hdata, Mixed((1, -1)))
    hl_robin = solve_mirror_norming(hdata, Robin(0.8))
    half = cli._pde_order(lambda X, T: halfline_field(hl_mixed, X, T), 0, 6, hs)
    rows = {"pde-order[line-2-soliton]": abs(line - 2.0),
            "pde-order[half-line-2-soliton]": abs(half - 2.0)}
    ts = np.linspace(-1.0, 1.0, 9)
    for label, hl in (("robin", hl_robin), ("mixed", hl_mixed)):
        rows[f"boundary-order[{label}]"] = convergence_order(
            lambda h: boundary_residual(hl, ts, h=h), hs)
    return rows, log.resamples


def _assert_suite_rows(suite, reference, seeds, boundary=None):
    """Every row and the resample count of the suite's report, on each seed,
    equal the reference's, bit for bit and in the reference's order."""
    for seed in seeds:
        doc = {"mode": "verify", "suite": {"name": suite, "seed": seed}}
        if boundary is not None:
            doc["boundary"] = boundary.to_json()
        report = cli.run_property_suite(cli.parse_run_config(doc))
        rows, resamples = reference(seed)
        assert [(c.name, c.residual) for c in report.checks] == list(rows.items())
        assert report.resamples == resamples


@pytest.mark.parametrize("boundary", [None, Mixed((1, -1, 1))])
def test_transfer_suite_stacks_kinds_exactly(boundary):
    _assert_suite_rows("transfer", lambda seed: _reference_transfer_rows(seed, boundary),
                       range(20), boundary)


def test_pde_suite_matches_its_reference():
    _assert_suite_rows("pde", _reference_pde_rows, range(5))


@pytest.mark.slow
@pytest.mark.parametrize("boundary", [None, Mixed((1, -1, 1)), Robin(0.8)])
def test_transfer_suite_matches_its_reference_on_every_seed(boundary):
    _assert_suite_rows("transfer", lambda seed: _reference_transfer_rows(seed, boundary),
                       range(100), boundary)


@pytest.mark.slow
@pytest.mark.parametrize("boundary", [None, Robin(0.8)])
def test_pde_suite_matches_its_reference_on_every_seed(boundary):
    # the pde suite takes no boundary: a given one leaves its rows as they are
    _assert_suite_rows("pde", _reference_pde_rows, range(100), boundary)


# --- reference: the per-object map path the stacked kernel replaced ----------
#
# Every step builds a Polarization (renormalised, canonical phase) and a
# _Point; the stacked kernel must agree with it to rounding.


@dataclass(frozen=True, eq=False)
class _Point:
    """Polarization together with its spectral parameter, off the imaginary axis."""

    p: Polarization
    k: complex

    def __post_init__(self):
        k = complex(self.k)
        if abs(k.real) <= AXIS_TOL:
            raise DomainError(f"imaginary axis: parameter {k} has |Re k| <= {AXIS_TOL}")
        object.__setattr__(self, "k", k)


def _reference_yb_map(k1, k2, p1, p2):
    k1, k2 = complex(k1), complex(k2)
    if abs(k1 - k2) < PAIR_POLE_TOL:
        raise PoleError(f"collision factors are singular for k1={k1} ~ k2={k2}")
    mu = (k1.conjugate() - k2) / (k1.conjugate() - k2.conjugate())
    nu = (k2 - k1.conjugate()) / (k2 - k1)
    a1, a2 = p1.p, p2.p
    b1 = a1 + (mu - 1.0) * np.vdot(a2, a1) * a2
    b2 = a2 + (nu - 1.0) * np.vdot(a1, a2) * a1
    return Polarization(b1), Polarization(b2)


def _reference_collide(state, i, j):
    a, b = state[i], state[j]
    try:
        q1, q2 = _reference_yb_map(a.k, b.k, a.p, b.p)
    except PoleError as exc:
        raise PoleError(f"pair ({i}, {j}) with parameters ({a.k}, {b.k}): {exc}") from exc
    state[i], state[j] = _Point(q1, a.k), _Point(q2, b.k)


def _reference_bounce(state, j, spec):
    if spec is not None:
        state[j] = _reference_reflection_map(state[j].k, state[j].p, spec)


def _reference_state(*pairs):
    return tuple(_Point(p, k) for p, k in pairs)


def _reference_slot_residual(a, b):
    for x, y in zip(a, b):
        if x.k != y.k:
            raise ValidationError(
                f"parameter mismatch between composite sides: {x.k} vs {y.k}"
            )
    return max(projective_distance(x.p, y.p) for x, y in zip(a, b))


def _reference_ybe_residual(k1, k2, k3, p1, p2, p3):
    state = _reference_state((p1, k1), (p2, k2), (p3, k3))
    lhs, rhs = list(state), list(state)
    for i, j in ((1, 2), (0, 2), (0, 1)):
        _reference_collide(lhs, i, j)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        _reference_collide(rhs, i, j)
    return _reference_slot_residual(lhs, rhs)


def _reference_reversibility_residual(k1, k2, p1, p2):
    state = _reference_state((p1, k1), (p2, k2))
    trip = list(state)
    _reference_collide(trip, 0, 1)
    _reference_collide(trip, 1, 0)
    return _reference_slot_residual(trip, state)


def _reference_reflection_map(k, p, spec):
    k = complex(k)
    if abs(k.real) <= AXIS_TOL:
        raise DomainError(f"imaginary axis: parameter {k} has |Re k| <= {AXIS_TOL}")
    m = _frozen_small_m(spec, p.n)
    q = m @ p.p
    coeff = (k - k.conjugate()) / (k + k.conjugate())
    out = q + coeff * np.vdot(p.p, q) * p.p
    return _Point(Polarization(out), -k.conjugate())


def _reference_pair_safe(k1, k2) -> bool:
    """The two-soliton reflection identity's pole check, one pair at a time."""
    k1, k2 = complex(k1), complex(k2)
    pairs = (
        (k1, k2),
        (-k2.conjugate(), k1),
        (-k1.conjugate(), k2),
        (-k2.conjugate(), -k1.conjugate()),
    )
    off_axis = min(abs(k1.real), abs(k2.real)) > AXIS_TOL
    return off_axis and all(abs(a - b) >= PAIR_POLE_TOL for a, b in pairs)


def _reference_reflection_equation_residual(k1, k2, p1, p2, spec):
    state = _reference_state((p1, k1), (p2, k2))
    lhs, rhs = list(state), list(state)
    _reference_collide(lhs, 0, 1)
    _reference_bounce(lhs, 1, spec)
    _reference_collide(lhs, 1, 0)
    _reference_bounce(lhs, 0, spec)
    _reference_bounce(rhs, 0, spec)
    _reference_collide(rhs, 0, 1)
    _reference_bounce(rhs, 1, spec)
    _reference_collide(rhs, 1, 0)
    return _reference_slot_residual(lhs, rhs)


def _reference_involution_residual(k, p, spec):
    first = _reference_reflection_map(k, p, spec)
    second = _reference_reflection_map(first.k, first.p, spec)
    if second.k != complex(k):
        raise ValidationError(f"double reflection moved the parameter: {second.k} != {k}")
    return projective_distance(second.p, p)


def _reference_transfer_map(j, state, b_plus, b_minus):
    state = list(state)
    N = len(state)
    if N < 2:
        raise ValidationError("transfer maps need at least two sites")
    j = int(j)
    if not 0 <= j < N:
        raise ValidationError(f"transfer index {j} outside 0..{N-1}")
    for m in range(j - 1, -1, -1):
        _reference_collide(state, m, j)
    _reference_bounce(state, j, b_plus)
    for m in range(N):
        if m != j:
            _reference_collide(state, j, m)
    _reference_bounce(state, j, b_minus)
    for m in range(N - 1, j, -1):
        _reference_collide(state, m, j)
    return tuple(state)


def _reference_transfer_commutator_residual(j, l, state, b_plus, b_minus):
    a = _reference_transfer_map(
        j, _reference_transfer_map(l, state, b_plus, b_minus), b_plus, b_minus)
    b = _reference_transfer_map(
        l, _reference_transfer_map(j, state, b_plus, b_minus), b_plus, b_minus)
    return _reference_slot_residual(a, b)


def _reference_s_twist_residual(k1, k2, p1, p2):
    state = _reference_state((p1, k1), (p2, k2))
    lhs = [_Point(e.p, -e.k.conjugate()) for e in state]
    _reference_collide(lhs, 0, 1)
    lhs = [_Point(e.p, -e.k.conjugate()) for e in lhs]
    rhs = list(state)
    _reference_collide(rhs, 1, 0)
    return _reference_slot_residual(lhs, rhs)


# --- the stacked kernel against the reference ----------------------------------

AGREE = 1e-14


def _draw(rng, S, slots, n, mirrored=True):
    """S seeded samples: (parameter lists, Polarization lists, P, K)."""
    ks = [random_map_parameters(rng, slots, mirrored=mirrored) for _ in range(S)]
    P = np.array([unit_vectors(draw_unit_vectors(rng, slots, n)) for _ in range(S)])
    ps = [[Polarization(p) for p in row] for row in P]
    return ks, ps, P, np.array(ks)


def _specs(rng, S, n):
    """One boundary per sample, cycling through Robin, Mixed and RotatedMixed."""
    return [boundary_spec(draw_boundary(rng, BOUNDARY_KINDS[s % 3], n)) for s in range(S)]


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("S", [1, 2, 100])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
class TestStackedKernelMatchesReference:
    def test_collision_outputs(self, S, n):
        rng = np.random.default_rng(100 + 10 * S + n)
        ks, ps, P, K = _draw(rng, S, 3, n)
        schedule = ((0, 1), (2, 0), (1, 2))
        out = maps.yb_schedule(P, K, schedule)
        for s in range(S):
            state = list(_reference_state(*zip(ps[s], ks[s])))
            for i, j in schedule:
                _reference_collide(state, i, j)
            for slot, e in enumerate(state):
                assert projective_distance(out[s, slot], e.p) <= AGREE
        assert np.max(np.abs(np.linalg.norm(out, axis=-1) - 1.0)) <= AGREE

    def test_yang_baxter_residuals(self, S, n):
        rng = np.random.default_rng(200 + 10 * S + n)
        ks, ps, P, K = _draw(rng, S, 3, n)
        stacked = maps.ybe_residuals(P, K)
        twist = maps.s_twist_residuals(P[:, :2], K[:, :2])
        trip = maps.reversibility_residuals(P[:, :2], K[:, :2])
        for s in range(S):
            (k1, k2, k3), (p1, p2, p3) = ks[s], ps[s]
            assert abs(stacked[s] - _reference_ybe_residual(k1, k2, k3, p1, p2, p3)) <= AGREE
            assert abs(twist[s] - _reference_s_twist_residual(k1, k2, p1, p2)) <= AGREE
            assert abs(trip[s] - _reference_reversibility_residual(k1, k2, p1, p2)) <= AGREE

    def test_bounce_outputs(self, S, n):
        rng = np.random.default_rng(300 + 10 * S + n)
        ks, ps, P, K = _draw(rng, S, 1, n)
        specs = _specs(rng, S, n)
        R, M = reflection_maps(P, K, specs)  # on copies: P and K stay as drawn
        Q, L = P.copy(), K.copy()
        maps._bounce(Q, L, 0, boundary_stack(specs, n))
        for s in range(S):
            ref = _reference_reflection_map(ks[s][0], ps[s][0], specs[s])
            assert complex(L[s, 0]) == ref.k
            assert projective_distance(Q[s, 0], ref.p) <= AGREE
        assert np.max(np.abs(np.linalg.norm(Q, axis=-1) - 1.0)) <= AGREE
        assert np.array_equal(R, Q) and np.array_equal(M, L)

    def test_reflection_residuals(self, S, n):
        rng = np.random.default_rng(400 + 10 * S + n)
        ks, ps, P, K = _draw(rng, S, 2, n)
        specs = _specs(rng, S, n)
        equation = maps.reflection_equation_residuals(P, K, specs)
        involution = maps.involution_residuals(P[:, :1], K[:, :1], specs)
        for s in range(S):
            (k1, k2), (p1, p2) = ks[s], ps[s]
            ref = _reference_reflection_equation_residual(k1, k2, p1, p2, specs[s])
            assert abs(equation[s] - ref) <= AGREE
            ref = _reference_involution_residual(k1, p1, specs[s])
            assert abs(involution[s] - ref) <= AGREE

    @pytest.mark.parametrize("N", [2, 3])
    def test_transfer(self, S, n, N):
        rng = np.random.default_rng(500 + 10 * S + n + N)
        ks, ps, P, K = _draw(rng, S, N, n)
        b_plus = boundary_spec(draw_boundary(rng, "rotated_mixed", n))
        b_minus = boundary_spec(draw_boundary(rng, "robin", n))
        pairs = [(j, l) for j in range(N) for l in range(j + 1, N)]
        for slots in ((b_plus, b_minus), (b_plus, None), (None, b_plus)):
            rows = transfer_commutators(P, K, *((b,) * S if b is not None else None for b in slots))
            for s in range(S):
                state = _reference_state(*zip(ps[s], ks[s]))
                for row, (j, l) in zip(rows, pairs):
                    ref = _reference_transfer_commutator_residual(j, l, state, *slots)
                    assert abs(row[s] - ref) <= AGREE
        Q, L = P.copy(), K.copy()
        maps._transfer(Q, L, 1, *_site_ms(P, (b_plus,) * S, (b_minus,) * S))
        for s in range(S):
            state = _reference_state(*zip(ps[s], ks[s]))
            for slot, e in enumerate(_reference_transfer_map(1, state, b_plus, b_minus)):
                assert complex(L[s, slot]) == e.k
                assert projective_distance(Q[s, slot], e.p) <= AGREE


@pytest.mark.parametrize("suite", ["reflection-equation", "involution", "yb-structure"])
def test_mixed_n_batch_matches_reference_in_sample_order(suite):
    # the suite runner evaluates one stacked call per component count and
    # must hand each sample its own residuals back in sample order
    # instances are raw draws; each reference derives its own sample alone
    rng = np.random.default_rng(600)
    runner, instances, expect = _SUITES[suite], [], []
    for i in range(30):
        n = (2, 3, 8)[i % 3]
        ks = random_map_parameters(rng, 2, mirrored=True)
        draws = draw_unit_vectors(rng, 2, n)
        p1, p2 = (Polarization(re + 1j * im) for re, im in draws)
        if suite == "yb-structure":
            V_draws = draw_unitary(rng, n)
            V = unitaries(V_draws)
            a = _reference_yb_map(ks[0], ks[1], p1, p2)
            b = _reference_yb_map(ks[0], ks[1], Polarization(V @ p1.p), Polarization(V @ p2.p))
            unitary = max(projective_distance(Polarization(V @ x.p), y) for x, y in zip(a, b))
            instances.append((ks, draws, V_draws))
            expect.append((unitary, _reference_s_twist_residual(ks[0], ks[1], p1, p2)))
            continue
        drawn = draw_boundary(rng, BOUNDARY_KINDS[i % 3], n)
        spec = boundary_spec(drawn)
        if suite == "involution":
            instances.append((ks[:1], draws[:1], drawn))
            expect.append((_reference_involution_residual(ks[0], p1, spec),))
        else:
            instances.append((ks, draws, drawn))
            expect.append((_reference_reflection_equation_residual(*ks, p1, p2, spec),))
    got = runner._evaluate(instances)
    assert len(got) == len(expect)
    for row, ref in zip(got, expect):
        assert len(row) == len(ref)
        assert all(abs(a - b) <= AGREE for a, b in zip(row, ref))


class TestStackedErrorsMatchReference:
    def test_collision_pole(self):
        p1, p2, p3 = Polarization(E1), Polarization(E2), Polarization([0.6, 0.8])
        k1 = 0.5 + 0.5j
        k2 = k1 + 0.1 * PAIR_POLE_TOL
        P, K = _stack((p1, p2, p3), (k1, k2, -0.3 + 0.8j))
        assert _raised(ybe_residuals, P, K) == _raised(
            _reference_ybe_residual, k1, k2, -0.3 + 0.8j, p1, p2, p3)
        P, K = P[:, :2], K[:, :2]
        state = (_Point(p1, k1), _Point(p2, k2))
        assert _raised(yb_schedule, P, K, COLLIDE) == _raised(
            _reference_collide, list(state), 0, 1)
        assert _raised(reversibility_residuals, P, K) == _raised(
            _reference_reversibility_residual, k1, k2, p1, p2)
        assert _raised(transfer_commutators, P, K, None, None) == _raised(
            _reference_transfer_commutator_residual, 0, 1, state, None, None)
        spec = Mixed((1, -1))
        assert _raised(reflection_equation_residuals, P, K, (spec,)) == _raised(
            _reference_reflection_equation_residual, k1, k2, p1, p2, spec)

    def test_first_bad_sample_is_named(self):
        rng = np.random.default_rng(700)
        ks, ps, P, K = _draw(rng, 4, 3, 2, mirrored=False)
        K[1, 2] = K[1, 1] + 0.1 * PAIR_POLE_TOL
        K[3, 2] = K[3, 1] + 0.2 * PAIR_POLE_TOL
        expect = _raised(_reference_ybe_residual, *K[1], *ps[1])
        assert _raised(maps.ybe_residuals, P, K) == expect
        assert expect[0] is PoleError and "pair (1, 2)" in expect[1]

    def test_imaginary_axis(self):
        p, q = Polarization(E1), Polarization([0.6, 0.8j])
        for k in (1j, 0.5 * AXIS_TOL + 0.7j):
            P, K = _stack((p, q), (k, 0.5 + 0.5j))
            args = (k, 0.5 + 0.5j, p, q)
            assert _raised(reversibility_residuals, P, K) == _raised(
                _reference_reversibility_residual, *args)
            assert _raised(s_twist_residuals, P, K) == _raised(
                _reference_s_twist_residual, *args)
            triple = (0.4 + 0.2j, 0.5 + 0.5j, k)
            assert _raised(ybe_residuals, *_stack((p, q, p), triple)) == _raised(
                _reference_ybe_residual, *triple, p, q, p)
            for spec in (Mixed((1, -1)), Robin(0.3)):
                one = _stack((q,), (k,))
                assert _raised(reflection_maps, *one, (spec,)) == _raised(
                    _reference_reflection_map, k, q, spec)
                assert _raised(involution_residuals, *one, (spec,)) == _raised(
                    _reference_involution_residual, k, q, spec)
                assert _raised(reflection_equation_residuals, P, K, (spec,)) == _raised(
                    _reference_reflection_equation_residual, *args, spec)

    def test_parameter_mismatch(self):
        p, q = Polarization(E1), Polarization(E2)
        a = (_Point(p, 0.5 + 0.5j), _Point(q, -0.2 + 0.4j))
        b = (_Point(p, 0.5 + 0.5j), _Point(q, 0.2 + 0.4j))
        P, K = _stack((p, q), (0.5 + 0.5j, -0.2 + 0.4j))
        Q, L = _stack((p, q), (0.5 + 0.5j, 0.2 + 0.4j))
        assert _raised(maps._slot_residual, P, K, Q, L) == _raised(
            _reference_slot_residual, a, b)

    @pytest.mark.parametrize("count", [1, 3])
    def test_spec_count_must_match_samples(self, count):
        # one spec per sample: a shorter or longer list is refused, not
        # broadcast or cut short
        rng = np.random.default_rng(800)
        _, _, P, K = _draw(rng, 2, 2, 2)
        specs = _specs(rng, count, 2)
        match = f"{count} boundary specs for 2 samples"
        with pytest.raises(ValidationError, match=match):
            reflection_maps(P, K, specs)
        with pytest.raises(ValidationError, match=match):
            involution_residuals(P[:, :1], K[:, :1], specs)
        with pytest.raises(ValidationError, match=match):
            reflection_equation_residuals(P, K, specs)
        with pytest.raises(ValidationError, match=match):
            transfer_commutators(P, K, specs, None)
        with pytest.raises(ValidationError, match=match):
            transfer_commutators(P, K, None, specs)

    def test_stack_takes_stored_ms_and_the_composites_name_the_first_failing_sample(self):
        specs = [Robin(0.3), Mixed((1, -1)), _specs(np.random.default_rng(1), 3, 2)[2],
                 Robin(1.0), Mixed((-1, 1))]
        # sample 3 sits at Robin(1.0)'s zero (|h| = 5.5e-13), sample 4 on the axis
        k = np.array([0.5 + 0.5j, -0.4 + 0.2j, 0.3 + 0.1j, 1.1e-12 + 1j, 1e-13 + 0.2j])
        stack = boundary_stack(specs, 2)
        eye = np.eye(2, dtype=complex)
        assert stack.tobytes() == np.array([eye, specs[1].m, specs[2].m, eye,
                                            specs[4].m]).tobytes()
        assert stack.tobytes() == np.array([_stack_m(spec, 2) for spec in specs]).tobytes()
        P = np.array([[[0.6, 0.8j]]] * 5)
        # Robin's zero is no pole of m = I: sample 3 keeps its polarization
        Q, L = reflection_maps(P[3:4], k[3:4, None], stack[3:4])
        assert projective_distance(Q[0, 0], P[3, 0]) < 1e-15 and L[0, 0] == -k[3].conjugate()
        with pytest.raises(DomainError, match=r"parameter \(1e-13\+0\.2j\) has"):
            reflection_maps(P, k[:, None], stack)
        k[1] = 0.2j
        with pytest.raises(DomainError, match=r"parameter 0\.2j has"):
            reflection_maps(P, k[:, None], stack)
        # the axis check comes before the finite check of an earlier sample
        k[0], k[1] = complex(math.nan, 1.0), -0.4 + 0.2j
        with pytest.raises(DomainError, match=r"parameter \(1e-13\+0\.2j\) has"):
            reflection_maps(P, k[:, None], stack)
        # a spec on another component count cannot join the stack
        with pytest.raises(ValidationError, match="acts on 3 components, expected 2"):
            boundary_stack([*specs, Mixed((1, -1, 1))], 2)

    def test_boundary_component_mismatch(self):
        q, spec = Polarization([0.6, 0.8, 0.0]), Mixed((1, -1))
        P, K = _stack((q,), (0.5 + 0.5j,))
        assert _raised(reflection_maps, P, K, (spec,)) == _raised(
            _reference_reflection_map, 0.5 + 0.5j, q, spec)
        assert _raised(involution_residuals, P, K, (spec,)) == _raised(
            _reference_involution_residual, 0.5 + 0.5j, q, spec)


NON_FINITE = (complex(math.nan, 1.0), complex(0.3, math.nan), complex(math.inf, 1.0),
              complex(-math.inf, 1.0), complex(0.3, math.inf), complex(0.3, -math.inf))


class TestBoundaryCompositeParameters:
    """reflection_maps, involution_residuals and transfer_commutators refuse a
    non-finite parameter as the other composites do, before any arithmetic
    (a numpy RuntimeWarning fails these tests); the axis error comes first."""

    @staticmethod
    def _calls(kind, bad):
        """(the boundary composites, as calls) on three samples of two slots
        whose sample 1 has the parameter bad in slot 1 (in slot 0 for the
        one-slot involution)."""
        rng = np.random.default_rng(70)
        _, _, P, K = _draw(rng, 3, 2, 2)
        K[1, 1] = bad
        specs = None if kind is None else [
            boundary_spec(draw_boundary(rng, kind, 2)) for _ in range(3)]
        calls = [lambda: transfer_commutators(P, K, specs, specs)]
        if kind is not None:
            calls += [lambda: reflection_maps(P, K, specs),
                      lambda: involution_residuals(P[:, 1:], K[:, 1:], specs)]
        return calls

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("kind", [*BOUNDARY_KINDS, None])
    def test_non_finite_parameters_raise_validation_error(self, kind, bad):
        for call in self._calls(kind, bad):
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == f"spectral parameter {bad} is not finite"

    @pytest.mark.parametrize("imag", [math.nan, math.inf, 1.0])
    @pytest.mark.parametrize("kind", [*BOUNDARY_KINDS, None])
    def test_the_axis_error_comes_first_with_the_shared_message(self, kind, imag):
        # one parameter check and one axis message for every composite
        bad = complex(0.5 * AXIS_TOL, imag)
        for call in self._calls(kind, bad):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == f"imaginary axis: parameter {bad} has |Re k| <= {AXIS_TOL}"

    def test_one_boundary_slot_checks_the_other_sites(self):
        # with one identity slot, or two, every parameter of K is checked
        # once, and a non-finite one is named as it stands in K
        rng = np.random.default_rng(71)
        _, _, P, K = _draw(rng, 2, 3, 2)
        K[0, 2] = complex(0.3, math.inf)
        specs = _specs(rng, 2, 2)
        for b_plus, b_minus in ((specs, None), (None, specs), (None, None)):
            with pytest.raises(ValidationError) as info:
                transfer_commutators(P, K, b_plus, b_minus)
            assert str(info.value) == f"spectral parameter {complex(K[0, 2])} is not finite"


def test_every_composite_returns_empty_arrays_at_s_zero():
    n = 3
    P, K = np.empty((0, 3, n), np.complex128), np.empty((0, 3), np.complex128)
    assert boundary_stack([], n).shape == (0, n, n)
    for b in ([], boundary_stack([], n)):
        Q, L = reflection_maps(P, K, b)
        assert Q.shape == P.shape and L.shape == K.shape
        assert involution_residuals(P[:, :1], K[:, :1], b).shape == (0,)
        assert reflection_equation_residuals(P[:, :2], K[:, :2], b).shape == (0,)
        for b_plus, b_minus in ((b, b), (b, None), (None, b)):
            assert transfer_commutators(P, K, b_plus, b_minus).shape == (3, 0)
    assert transfer_commutators(P, K, None, None).shape == (3, 0)
    assert ybe_residuals(P, K).shape == (0,)
    assert reversibility_residuals(P[:, :2], K[:, :2]).shape == (0,)
    assert s_twist_residuals(P[:, :2], K[:, :2]).shape == (0,)
    assert yb_schedule(P, K, ((0, 1), (1, 2))).shape == P.shape
    assert projective_distance(P, P).shape == (0, 3)


# --- boundary stacks: the m of every row, bit for bit --------------------------


def _frozen_small_m(spec, n: int) -> np.ndarray:
    """The m of one spec: a sign pattern's stored m, and the identity for
    Robin, whose m(k) is the unit scalar h/|h| times I: a phase that no
    projective quantity sees."""
    if isinstance(spec, Robin):
        return np.eye(n, dtype=complex)
    if spec.n != n:
        raise ValidationError(f"boundary spec acts on {spec.n} components, expected {n}")
    return spec.m


def _pinned_stack(seed: int, n: int):
    """(drawn, specs, k): 60 boundaries drawn as the suites draw them, the
    kinds interleaved, with a given spec of each kind among them, and one
    parameter per row off the imaginary axis."""
    rng = np.random.default_rng(seed)
    drawn = [draw_boundary(rng, BOUNDARY_KINDS[i % 3], n) for i in range(57)]
    given = (Robin(-0.7), Mixed(random_signs(rng, n)),
             boundary_spec(draw_boundary(rng, "rotated_mixed", n)))
    for i, spec in zip((5, 30, 56), given):
        drawn.insert(i, spec)
    u = rng.uniform(*sampling.U_RANGE, len(drawn)) * rng.choice((-1.0, 1.0), len(drawn))
    k = (u + 1j * rng.uniform(*V_RANGE, len(drawn))) / 2.0
    return drawn, [boundary_spec(d) for d in drawn], k


def _axis_message(k) -> tuple:
    return DomainError, f"imaginary axis: parameter {complex(k)} has |Re k| <= {AXIS_TOL}"


def _assert_stack_matches_frozen_loop(seed: int, n: int) -> None:
    drawn, specs, k = _pinned_stack(seed, n)
    alphas = [spec.alpha for spec in specs if isinstance(spec, Robin)]
    assert min(alphas) < 0.0 < max(alphas)
    stack = boundaries(drawn, n)
    assert stack.shape == (len(specs), n, n)
    assert stack.tobytes() == np.array([_frozen_small_m(spec, n) for spec in specs]).tobytes()
    assert stack.tobytes() == np.array([_stack_m(spec, n) for spec in specs]).tobytes()
    # errors: a Robin row's zero h = 0 is none; the first axis parameter is
    # named, before any non-finite one
    P = np.full((len(k), 1, n), n ** -0.5, dtype=complex)
    robin = [i for i, spec in enumerate(specs) if isinstance(spec, Robin) and abs(spec.alpha) > 0.6]
    rng = np.random.default_rng(seed)
    for _ in range(6):
        bad = k.copy()
        r, a = rng.choice(robin), rng.integers(len(k))
        # |h| = 1.1e-12 / |k + i alpha| < PAIR_POLE_TOL at Robin row r: its zero
        bad[r] = complex(1.1e-12, specs[r].alpha)
        Q, L = reflection_maps(P, bad[:, None], stack)
        assert projective_distance(Q[r, 0], P[r, 0]) < 1e-15 and L[r, 0] == -bad[r].conjugate()
        bad[rng.integers(len(k))] = complex(math.nan, 1.0)
        bad[a] = complex(0.5 * AXIS_TOL, bad[a].imag)
        assert _raised(reflection_maps, P, bad[:, None], stack) == _axis_message(bad[a])


class TestBoundaryStackPin:
    """Each row of a boundary stack has the bits of its own spec's one-row
    stack and of the frozen per-spec m: a sign pattern's stored m, and the
    identity on the Robin rows."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_the_frozen_per_sample_loop(self, seed, n):
        _assert_stack_matches_frozen_loop(seed, n)

    def test_robin_zero_and_axis_on_one_sample(self):
        _, specs, k = _pinned_stack(0, 2)
        assert specs[5] == Robin(-0.7)
        k[5] = complex(0.5 * AXIS_TOL, -0.7)  # on the axis at the zero of row 5's h
        P = np.full((len(k), 1, 2), 0.5 ** 0.5, dtype=complex)
        assert _raised(reflection_maps, P, k[:, None], boundaries(specs, 2)) == (
            _axis_message(k[5]))


class TestBoundaryStackShape:
    """A boundary row that is not n x n is refused with a ValidationError
    naming the first such row, by the stack and by the bounce, whatever the
    row's kind."""

    @pytest.mark.parametrize("rows, message", [
        ([(1, -1), (1, -1, 1), (1, 1, 1)], "boundary row 1 of shape (3, 3)"),
        ([0.4, Robin(1.0), np.eye(3, dtype=complex)], "boundary row 2 of shape (3, 3)"),
        ([np.eye(2), np.eye(2)[0]], "boundary row 1 of shape (2,)"),
        (np.tile(np.eye(3, dtype=complex), (3, 1, 1)), "boundary row 0 of shape (3, 3)"),
        (np.ones((3, 2), dtype=complex), "boundary row 0 of shape (2,)"),
        ([(1, -1), Mixed((1, -1, 1)), (1,)], "boundary spec acts on 3 components, expected 2"),
    ], ids=["sign-pattern", "checked-m", "vector-row", "raw-stack", "raw-vectors",
            "spec"])
    def test_first_bad_row_is_named(self, rows, message):
        expect = (ValidationError, message if "spec" in message else
                  f"{message}: m must be 2x2 on 2 components")
        assert _raised(boundary_stack, rows, 2) == expect
        S = len(rows)
        P = np.full((S, 1, 2), 0.5 ** 0.5, dtype=complex)
        K = np.full((S, 1), 0.5 + 0.5j)
        for composite in (reflection_maps, involution_residuals):
            assert _raised(composite, P, K, rows) == expect

    def test_the_bounce_of_a_three_component_pattern_on_two(self):
        P, K = _stack((Polarization([0.6, 0.8]),), (0.5 + 0.5j,))
        assert _raised(reflection_maps, P, K, [(1, -1, 1)]) == (
            ValidationError, "boundary row 0 of shape (3, 3): m must be 2x2 on 2 components")


@pytest.mark.slow
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_boundary_stacks_match_the_frozen_loop_on_every_seed(n):
    for seed in range(100):
        _assert_stack_matches_frozen_loop(seed, n)


# --- stacked suites: one call per shape group, rows in sample order ------------

STACKED_SUITES = ("ybe", "reversibility", "yb-structure", "reflection-equation", "involution",
                  "collision", "mirror-constraint", "mirror-polarization")
MIRROR_SUITES = ("mirror-constraint", "mirror-polarization")


def _suite_draws(suite, seed, boundary=None, **params):
    """(runner, instances, samples): a verify run's draws, every variant in order."""
    doc = {"mode": "verify", "suite": {"name": suite, "seed": seed, **params}}
    if boundary is not None:
        doc["boundary"] = boundary.to_json()
    cfg = cli.parse_run_config(doc)
    runner, rng, log = _SUITES[suite], np.random.default_rng(seed), SampleLog()
    if isinstance(runner, cli._Parts):
        runner = runner[0]  # mirror-constraint: the sampled part, before its detector
    samples = cfg.suite_params.get("samples", runner.default)
    instances = [runner.draw(cfg, rng, log, i, variant)
                 for variant in runner.variants(cfg) for i in range(samples)]
    return runner, instances, samples


def _n(instance) -> int:
    """The component count of a drawn instance: the last axis of its first array."""
    return next(a for a in instance if isinstance(a, np.ndarray)).shape[-1]


def _group(instance) -> tuple:
    """The shapes of a drawn instance's arrays, which key its stacking group."""
    return tuple(a.shape for a in instance if isinstance(a, np.ndarray))


def _assert_samples_keep_their_bits(suite, seed, boundary=None, **params) -> set:
    """Every sample of the job's stacked evaluation has the bits of its own
    S = 1 evaluation, in sample order; returns the component counts drawn."""
    runner, instances, _ = _suite_draws(suite, seed, boundary, **params)
    got = np.array(runner._evaluate(instances))
    one_at_a_time = [runner._evaluate([instance])[0] for instance in instances]
    assert got.tobytes() == np.array(one_at_a_time).tobytes()
    return {_n(instance) for instance in instances}


@dataclass(frozen=True)
class _ScaledRobin(Robin):
    """A Robin boundary whose M(k) is scaled by `scale` and whose M(k)^-1 by
    `inverse`: its solved mirror data miss the constraint by a residual that
    the scale sets (nan for a nan scale), and a zero inverse collapses the
    mirror directions."""

    scale: float = 1.0
    inverse: float = 1.0

    def big_m(self, k, n):
        return self.scale * super().big_m(k, n)

    def big_m_inv(self, k, n):
        return self.inverse * super().big_m_inv(k, n)


def _spoiled(suite, instance, i):
    """instance as its evaluation rejects it, distinct per sample so that the
    error message names the sample: a map draw's parameters on the imaginary
    axis, a collision draw's velocities in reverse order (the message lists
    them), a mirror draw's boundary with M(k) scaled by 2 + i (the message
    gives the constraint residual), a permutation draw's sample k 3 on the
    pole conj(k_j) of a factor j (the message gives k)."""
    if suite == "permutation":
        data, betas, ks, xts = instance
        ks = ks.copy()
        ks[3] = data.points[i % data.N][0].k.conjugate()
        return data, betas, ks, xts
    if suite == "collision":
        data, betas = instance
        return SolitonData(data.n, data.points[::-1]), betas
    if suite in MIRROR_SUITES:
        data, betas, _ = instance
        return data, betas, _ScaledRobin(0.5, scale=2.0 + i)
    ks, draws, extra = instance
    return [complex(0.0, 1.0 + i + j / 8) for j in range(len(ks))], draws, extra


@pytest.mark.numpy_floor
class TestStackedSuites:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("suite", STACKED_SUITES)
    def test_samples_keep_their_one_sample_bits(self, suite, seed):
        # n = 2 and n = 3 samples, interleaved or one variant each, every boundary kind
        assert _assert_samples_keep_their_bits(suite, seed) == {2, 3}

    @pytest.mark.parametrize("boundary", [
        Robin(-0.7), Mixed((1, -1, -1, 1)),
        boundary_spec(draw_boundary(np.random.default_rng(9), "rotated_mixed", 4))],
        ids=BOUNDARY_KINDS)
    @pytest.mark.parametrize("suite", ["reflection-equation", "involution"])
    def test_four_component_boundary(self, suite, boundary):
        assert _assert_samples_keep_their_bits(suite, 5, boundary, n=4, samples=30) == {4}

    @pytest.mark.parametrize("suite", ["ybe", "reversibility", "reflection-equation", "involution"])
    def test_one_component(self, suite):
        # projective distances of one-component vectors are identically 0
        assert _assert_samples_keep_their_bits(suite, 6, n=1, samples=20) == {1}
        runner, instances, _ = _suite_draws(suite, 6, n=1, samples=20)
        assert np.array(runner._evaluate(instances)).tobytes() == bytes(8 * len(instances))

    @pytest.mark.parametrize("suite", STACKED_SUITES + ("permutation",))
    def test_error_names_first_group_first_failure(self, suite):
        runner, instances, samples = _suite_draws(suite, 4, samples=12)
        last = len(instances) - 1
        # one spoiled sample anywhere; two in different variants; two of one n;
        # two of different n, the later one in the earlier group
        cases = ([0], [5], [last], [3, last], [samples - 1, samples], [4, 6], [3, 4])
        groups = list(dict.fromkeys(_group(instance) for instance in instances))
        for spoiled in cases:
            if spoiled[-1] > last:  # yb-structure and collision have one variant
                continue
            bad = list(instances)
            for i in spoiled:
                bad[i] = _spoiled(suite, bad[i], i)
            # the rule: the first group, in order of first samples, holding a
            # spoiled sample names its first one, as that sample's S = 1 call does
            named = min(spoiled, key=lambda i: (groups.index(_group(instances[i])), i))
            expect = _raised(runner._evaluate, [bad[named]])
            if suite == "collision":
                us = [pt.u for pt, _ in bad[named][0].points]
                assert expect == (ValidationError, f"u values must be strictly increasing, got {us}")
            elif suite == "permutation":
                k = bad[named][2][3]
                assert expect == (PoleError,
                                  f"evaluation point {k} hits the pole at conj({k.conjugate()})")
            elif suite in MIRROR_SUITES:
                assert expect[0] is DegeneracyError
                assert expect[1].startswith("mirror constraint residual ")
                # each spoiled sample's residual, so its message, is its own
                assert len({_raised(runner._evaluate, [bad[i]]) for i in spoiled}) == len(spoiled)
            else:
                assert expect[0] is DomainError and str(complex(0.0, 1.0 + named)) in expect[1]
            assert _raised(runner._evaluate, bad) == expect

    @pytest.mark.parametrize("spoil, message", [
        (dict(inverse=0.0), r"^mirror direction for index \d collapsed$"),
        (dict(scale=math.nan), r"^mirror constraint residual nan exceeds 1e-08$")])
    @pytest.mark.parametrize("suite", MIRROR_SUITES)
    def test_mirror_failures_name_the_first_failing_sample(self, suite, spoil, message):
        # a collapsed mirror direction and a nan constraint residual, in one
        # sample or two of one group: the group names the first, as its own
        # S = 1 call does, and each sample alone keeps its rows
        runner, instances, _ = _suite_draws(suite, 11, samples=12)
        group = [i for i, instance in enumerate(instances) if _group(instance) == _group(instances[4])]
        for spoiled in ([group[1]], group[1:3]):
            bad = list(instances)
            for i in spoiled:
                data, betas, _ = bad[i]
                bad[i] = data, betas, _ScaledRobin(0.5, **spoil)
            expect = _raised(runner._evaluate, [bad[spoiled[0]]])
            assert expect[0] is DegeneracyError and re.match(message, expect[1])
            assert _raised(runner._evaluate, [bad[i] for i in group]) == expect
            assert _raised(runner._evaluate, bad) == expect
            rows = runner._evaluate([instances[i] for i in group if i not in spoiled])
            assert rows == [runner._evaluate([instances[i]])[0] for i in group if i not in spoiled]

    @pytest.mark.parametrize("samples", [0, 1, 5, 12])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_permutation_samples_keep_their_one_sample_bits(self, N, n, samples):
        got = _assert_samples_keep_their_bits("permutation", 20 + N + n, N=N, n=n, samples=samples)
        assert got == ({n} if samples else set())

    def test_permutation_error_of_another_kind_names_the_first_failing_sample(self):
        # a degenerate reference chain is found before any pole sample in a
        # stack, but a sample with a pole before it is named first, as its own
        # S = 1 call raises; and the other way round
        runner, instances, _ = _suite_draws("permutation", 8, samples=6)
        for pole, degenerate in ((1, 4), (4, 1)):
            bad = list(instances)
            bad[pole] = _spoiled("permutation", bad[pole], pole)
            bad[degenerate] = _degenerate_permutation_draw(bad[degenerate])
            first = min(pole, degenerate)
            expect = _raised(runner._evaluate, [bad[first]])
            assert expect[0] is (PoleError if first == pole else DegeneracyError)
            assert _raised(runner._evaluate, bad) == expect


def _degenerate_permutation_draw(instance):
    """A permutation draw whose first two eigenvalues lie 1.5e-12 apart (past
    the pole-merge tolerance) at v = 20, with parallel norming vectors: the
    direction of the reference chain's second factor falls below the
    degeneracy tolerance."""
    data, betas, ks, xts = instance
    beta = data.points[0][1].beta
    twins = ((SpectralPoint(0.3, 20.0), NormingVector(beta)),
             (SpectralPoint(0.3 + 3e-12, 20.0), NormingVector(2.0 * beta)))
    return SolitonData(data.n, twins + data.points[2:]), betas, ks, xts


@pytest.mark.slow
@pytest.mark.parametrize("suite", STACKED_SUITES)
def test_stacked_suites_keep_their_bits_on_every_seed(suite):
    for seed in range(100):
        assert _assert_samples_keep_their_bits(suite, seed) == {2, 3}


@pytest.mark.numpy_floor
@pytest.mark.slow
def test_permutation_suite_keeps_its_bits_on_every_seed():
    for seed in range(100):
        assert _assert_samples_keep_their_bits("permutation", seed) == {2}
