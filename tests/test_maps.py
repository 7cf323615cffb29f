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
from vsolitons import maps
from vsolitons.cli import _SUITES
from vsolitons.errors import ValidationError
from vsolitons.sampling import (
    BOUNDARY_KINDS,
    random_boundary,
    random_map_parameters,
    random_polarization,
    random_unitary,
)
from vsolitons.soldata import AXIS_TOL, PAIR_POLE_TOL

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


# --- reference: the per-object map path the stacked kernel replaced ----------
#
# Every step builds a Polarization (renormalised, canonical phase) and an
# ExtendedPoint; the stacked kernel must agree with it to rounding.


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
    state[i], state[j] = ExtendedPoint(q1, a.k), ExtendedPoint(q2, b.k)


def _reference_bounce(state, j, spec):
    if spec is not None:
        state[j] = _reference_reflection_map(state[j].k, state[j].p, spec)


def _reference_state(*pairs):
    return tuple(ExtendedPoint(p, k) for p, k in pairs)


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
        raise DomainError(f"imaginary axis: reflection undefined at k={k}")
    m = spec.small_m(k, p.n)
    q = m @ p.p
    coeff = (k - k.conjugate()) / (k + k.conjugate())
    out = q + coeff * np.vdot(p.p, q) * p.p
    return ExtendedPoint(Polarization(out), -k.conjugate())


def _reference_reflection_equation_residual(k1, k2, p1, p2, spec):
    k1, k2 = complex(k1), complex(k2)
    if not maps.reflection_pair_safe(k1, k2):
        raise PoleError(f"unsafe reflection configuration for k1={k1}, k2={k2}")
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
    lhs = [ExtendedPoint(e.p, -e.k.conjugate()) for e in state]
    _reference_collide(lhs, 0, 1)
    lhs = [ExtendedPoint(e.p, -e.k.conjugate()) for e in lhs]
    rhs = list(state)
    _reference_collide(rhs, 1, 0)
    return _reference_slot_residual(lhs, rhs)


# --- the stacked kernel against the reference ----------------------------------

AGREE = 1e-14


def _draw(rng, S, slots, n, mirrored=True):
    """S seeded samples: (parameter lists, Polarization lists, P, K)."""
    ks = [random_map_parameters(rng, slots, mirrored=mirrored) for _ in range(S)]
    ps = [[random_polarization(rng, n) for _ in range(slots)] for _ in range(S)]
    P = np.array([[p.p for p in row] for row in ps])
    return ks, ps, P, np.array(ks)


def _specs(rng, S, n):
    """One boundary per sample, cycling through Robin, Mixed and RotatedMixed."""
    return [random_boundary(rng, BOUNDARY_KINDS[s % 3], n) for s in range(S)]


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
        q1, q2 = yb_map(ks[0][0], ks[0][1], ps[0][0], ps[0][1])
        r1, r2 = _reference_yb_map(ks[0][0], ks[0][1], ps[0][0], ps[0][1])
        assert projective_distance(q1, r1) <= AGREE and projective_distance(q2, r2) <= AGREE

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
        assert ybe_residual(*ks[0], *ps[0]) == stacked[0]

    def test_bounce_outputs(self, S, n):
        rng = np.random.default_rng(300 + 10 * S + n)
        ks, ps, P, K = _draw(rng, S, 1, n)
        specs = _specs(rng, S, n)
        Q, L = P.copy(), K.copy()
        maps._bounce(Q, L, 0, maps._small_ms(specs, L[:, 0], n))
        for s in range(S):
            ref = _reference_reflection_map(ks[s][0], ps[s][0], specs[s])
            assert complex(L[s, 0]) == ref.k
            assert projective_distance(Q[s, 0], ref.p) <= AGREE
        assert np.max(np.abs(np.linalg.norm(Q, axis=-1) - 1.0)) <= AGREE
        out = reflection_map(ks[0][0], ps[0][0], specs[0])
        ref = _reference_reflection_map(ks[0][0], ps[0][0], specs[0])
        assert out.k == ref.k and projective_distance(out.p, ref.p) <= AGREE

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
        b_plus = random_boundary(rng, "rotated_mixed", n)
        b_minus = random_boundary(rng, "robin", n)
        for slots in ((b_plus, b_minus), (b_plus, None), (None, b_plus)):
            stacked = maps.transfer_commutator_residuals(N - 1, 0, P, K, *slots)
            for s in range(S):
                state = _reference_state(*zip(ps[s], ks[s]))
                ref = _reference_transfer_commutator_residual(N - 1, 0, state, *slots)
                assert abs(stacked[s] - ref) <= AGREE
        state = _reference_state(*zip(ps[0], ks[0]))
        for got, ref in zip(transfer_map(1, state, b_plus, b_minus),
                            _reference_transfer_map(1, state, b_plus, b_minus)):
            assert got.k == ref.k and projective_distance(got.p, ref.p) <= AGREE


@pytest.mark.parametrize("suite", ["reflection-equation", "involution", "yb-structure"])
def test_mixed_n_batch_matches_reference_in_sample_order(suite):
    # the suite runner evaluates one stacked call per component count and
    # must hand each sample its own residuals back in sample order
    rng = np.random.default_rng(600)
    runner, instances, expect = _SUITES[suite], [], []
    for i in range(30):
        n = (2, 3, 8)[i % 3]
        ks = random_map_parameters(rng, 2, mirrored=True)
        p1, p2 = random_polarization(rng, n), random_polarization(rng, n)
        if suite == "yb-structure":
            V = random_unitary(rng, n)
            a = _reference_yb_map(ks[0], ks[1], p1, p2)
            b = _reference_yb_map(ks[0], ks[1], Polarization(V @ p1.p), Polarization(V @ p2.p))
            unitary = max(projective_distance(Polarization(V @ x.p), y) for x, y in zip(a, b))
            instances.append((ks, [p1.p, p2.p], V))
            expect.append((unitary, _reference_s_twist_residual(ks[0], ks[1], p1, p2)))
            continue
        spec = random_boundary(rng, BOUNDARY_KINDS[i % 3], n)
        if suite == "involution":
            instances.append((ks[:1], [p1.p], spec))
            expect.append((_reference_involution_residual(ks[0], p1, spec),))
        else:
            instances.append((ks, [p1.p, p2.p], spec))
            expect.append((_reference_reflection_equation_residual(*ks, p1, p2, spec),))
    if suite == "reflection-equation":
        instances[4], expect[4] = None, (0.0,)  # an unsafe draw contributes 0.0
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
        args = (k1, k2, -0.3 + 0.8j, p1, p2, p3)
        assert _raised(ybe_residual, *args) == _raised(_reference_ybe_residual, *args)
        args = (k1, k2, p1, p2)
        assert _raised(yb_map, *args) == _raised(_reference_yb_map, *args)
        assert _raised(reversibility_residual, *args) == _raised(
            _reference_reversibility_residual, *args)
        state = (ExtendedPoint(p1, k1), ExtendedPoint(p2, k2))
        assert _raised(transfer_map, 0, state, None, None) == _raised(
            _reference_transfer_map, 0, state, None, None)
        args = (k1, k2, p1, p2, Mixed((1, -1)))
        assert _raised(reflection_equation_residual, *args) == _raised(
            _reference_reflection_equation_residual, *args)

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
            args = (k, 0.5 + 0.5j, p, q)
            assert _raised(reversibility_residual, *args) == _raised(
                _reference_reversibility_residual, *args)
            assert _raised(s_twist_residual, *args) == _raised(
                _reference_s_twist_residual, *args)
            args = (0.4 + 0.2j, 0.5 + 0.5j, k, p, q, p)
            assert _raised(ybe_residual, *args) == _raised(_reference_ybe_residual, *args)
            for spec in (Mixed((1, -1)), Robin(0.3)):
                args = (k, q, spec)
                assert _raised(reflection_map, *args) == _raised(
                    _reference_reflection_map, *args)
                assert _raised(involution_residual, *args) == _raised(
                    _reference_involution_residual, *args)
                args = (k, 0.5 + 0.5j, p, q, spec)
                assert _raised(reflection_equation_residual, *args) == _raised(
                    _reference_reflection_equation_residual, *args)

    def test_parameter_mismatch(self):
        p, q = Polarization(E1), Polarization(E2)
        a = (ExtendedPoint(p, 0.5 + 0.5j), ExtendedPoint(q, -0.2 + 0.4j))
        b = (ExtendedPoint(p, 0.5 + 0.5j), ExtendedPoint(q, 0.2 + 0.4j))
        P, K = maps._state(a)
        Q, L = maps._state(b)
        assert _raised(maps._slot_residual, P, K, Q, L) == _raised(
            _reference_slot_residual, a, b)

    def test_boundary_component_mismatch(self):
        args = (0.5 + 0.5j, Polarization([0.6, 0.8, 0.0]), Mixed((1, -1)))
        assert _raised(reflection_map, *args) == _raised(_reference_reflection_map, *args)
        assert _raised(involution_residual, *args) == _raised(
            _reference_involution_residual, *args)
