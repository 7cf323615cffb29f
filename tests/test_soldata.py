import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsolitons import (
    Mixed,
    NormingVector,
    Polarization,
    Robin,
    RotatedMixed,
    SolitonData,
    SpectralPoint,
    ValidationError,
    canonical_phase,
    projective_distance,
)

from vsolitons.soldata import _SAFE_NORM, _norms, _unit

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestSpectralPoint:
    def test_k_and_kinematics(self):
        pt = SpectralPoint(1.0, 2.0)
        assert pt.k == 0.5 + 1.0j
        assert pt.velocity == -2.0

    def test_mirror_negates_u(self):
        pt = SpectralPoint(0.8, 1.2)
        assert pt.mirror().k == -pt.k.conjugate()
        assert pt.mirror().v == pt.v

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValidationError, match="lower half plane"):
            SpectralPoint(0.0, -1.0)


class TestPolarization:
    def test_polarization_of_unit_vector(self):
        p = Polarization(NormingVector(E1).beta)
        assert np.allclose(p.p, E1)

    def test_phase_quotient(self):
        p = Polarization(NormingVector([0.0, 2.0j]).beta)
        assert np.allclose(p.p, E2)

    def test_normalization_by_five(self):
        p = Polarization(NormingVector([3.0, 4.0j]).beta)
        assert projective_distance(p, np.array([0.6, 0.8j])) < 1e-14
        # canonical phase turns the largest component real: (0.6, 0.8i) ~ (-0.6i, 0.8)
        assert np.allclose(p.p, [-0.6j, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            NormingVector([0.0, 0.0])
        with pytest.raises(ValidationError):
            Polarization([0.0, 0.0])

    def test_canonical_phase_pivot_real_nonneg(self):
        vec = np.array([0.3 - 0.1j, -1.2 + 0.4j, 0.2j])
        out = canonical_phase(vec)
        pivot = out[np.argmax(np.abs(out))]
        assert pivot.imag == pytest.approx(0.0, abs=1e-15)
        assert pivot.real > 0

    def test_position_shift(self):
        pt = SpectralPoint(0.0, 2.0)
        nv = NormingVector([2.0, 0.0])
        assert nv.position_shift(pt) == pytest.approx(np.log(2.0) / 2.0)


def _gaussian(rng, n, scale):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _true_norm(vec) -> float:
    with mpmath.workprec(200):
        return float(mpmath.sqrt(sum(mpmath.mpf(float(x)) ** 2 for x in vec.view(np.float64))))


@pytest.mark.numpy_floor
class TestScaledNorm:
    def test_bit_equal_to_numpy_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20000):
            vec = _gaussian(rng, int(rng.integers(1, 9)), 10.0 ** rng.uniform(-100, 100))
            assert _norms(vec) == float(np.linalg.norm(vec))

    def test_power_of_two_scaling_is_exact(self):
        # far outside the range where squaring is safe, the scaled norm is
        # still np.linalg.norm's value at unit scale, moved by the exact power
        rng = np.random.default_rng(1)
        for _ in range(2000):
            vec = _gaussian(rng, int(rng.integers(1, 9)), 10.0 ** rng.uniform(-10, 10))
            ref = float(np.linalg.norm(vec))
            for e in (-900, -560, 560, 900):
                assert _norms(vec * 2.0**e) == math.ldexp(ref, e)

    @pytest.mark.parametrize("size", [1e-160, 1e-200, 1e-300])
    def test_tiny_norming_vectors(self, size):
        vec = size * np.array([1.0, 0.5j])
        exact = _true_norm(vec)
        assert abs(float(np.linalg.norm(vec)) - exact) > 1e-7 * exact  # squares underflow
        nv = NormingVector(vec)
        assert abs(nv.norm - exact) <= math.ulp(exact)
        pt = SpectralPoint(0.5, 2.0)
        assert nv.position_shift(pt) == math.log(nv.norm) / 2.0
        assert np.max(np.abs(Polarization(vec).p - Polarization([1.0, 0.5j]).p)) < 1e-15

    @pytest.mark.parametrize("size", [1e150, 1.5e154, 1e200, 1e300, 1e308])
    def test_huge_vectors_take_the_scaled_path_without_warning(self, size):
        # a RuntimeWarning fails the test run: no square may overflow
        vec = size * np.array([1.0, -0.5j, 0.25 + 0.25j])
        exact = _true_norm(vec)
        assert abs(NormingVector(vec).norm - exact) <= math.ulp(exact)
        assert abs(_norms(vec) - exact) <= math.ulp(exact)
        assert np.max(np.abs(Polarization(vec).p - Polarization(vec / size).p)) < 1e-15

    def test_norm_past_the_float_range_is_refused(self):
        vec = np.full(4, 1e308, dtype=np.complex128)
        assert _norms(vec) == math.inf
        with pytest.raises(ValidationError, match="exceeds the float range"):
            NormingVector(vec)
        assert np.array_equal(Polarization(vec).p, Polarization(np.ones(4)).p)

    def test_smallest_subnormal(self):
        tiny = 5e-324
        assert NormingVector([tiny, 0.0]).norm == tiny
        assert NormingVector([0.0, 1j * tiny]).norm == tiny
        assert _norms(np.array([tiny, tiny * 1j])) == _true_norm(np.array([tiny, tiny * 1j]))
        assert np.array_equal(Polarization([0.0, tiny]).p, E2)

    def test_stack_rows_keep_their_one_vector_bits(self):
        # every row of a stack, in range or scaled, gets the norm and unit
        # vector it gets alone, whatever the other rows need
        rng = np.random.default_rng(2)
        for _ in range(200):
            S, n = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            rows = np.array([_gaussian(rng, n, 10.0 ** rng.choice([-300, -170, 0, 90, 170, 300]))
                             for _ in range(S)])
            norms, units = _norms(rows), _unit(rows)
            for row, norm, unit in zip(rows, norms, units):
                assert norm == _norms(row) == _norms(row[None])[0]
                assert unit.tobytes() == _unit(row).tobytes()
            assert _norms(rows.reshape(S, 1, n)).tobytes() == norms.tobytes()

    def test_zero_stays_degenerate(self):
        assert _norms(np.zeros(3, dtype=np.complex128)) == 0.0
        with pytest.raises(ValidationError, match="degenerate"):
            NormingVector([0.0, -0.0])


@pytest.mark.numpy_floor
class TestNormingVectorStack:
    """NormingVector.stack builds every row of a stack as construction builds
    it from that row alone; construction is the stack of one."""

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_keep_their_one_vector_bits(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            R, n = int(rng.integers(1, 13)), int(rng.integers(1, 9))
            rows = np.array([_gaussian(rng, n, rng.choice([1.1e-170, 1e-100, 1.0, 1e100, 1.1e170]))
                             for _ in range(R)])
            stacked = NormingVector.stack(rows)
            assert len(stacked) == R
            for row, nv in zip(rows, stacked):
                one = NormingVector(row)
                assert nv.beta.tobytes() == one.beta.tobytes() == row.tobytes()
                assert nv.norm.hex() == one.norm.hex()
                assert type(nv.norm) is float
                assert not nv.beta.flags.writeable and not one.beta.flags.writeable
                assert nv.n == n

    def test_rows_at_the_edges_of_the_safe_range(self):
        for size in (1.1e-170, 1.1e170):
            rows = size * np.array([[1.0, 0.5j], [-0.25, 2.0 + 1j], [3.0j, 0.0]])
            for row, nv in zip(rows, NormingVector.stack(rows)):
                exact = _true_norm(row)
                assert nv.norm.hex() == NormingVector(row).norm.hex()
                assert abs(nv.norm - exact) <= math.ulp(exact)

    def test_the_stack_is_a_copy(self):
        rows = np.array([[1.0, 2.0j], [3.0, 4.0]])
        stacked = NormingVector.stack(rows)
        rows[0, 0] = 7.0
        assert stacked[0].beta[0] == 1.0

    @pytest.mark.parametrize("bad,message", [
        ([0.0, -0.0], "degenerate norming constant: beta must be nonzero"),
        ([np.nan, 1.0], "norming vector has non-finite entries"),
        ([1.0, np.inf * 1j], "norming vector has non-finite entries"),
        ([1.5e308, 1.5e308j], r"norming constant \|beta\| exceeds the float range"),
    ])
    def test_a_bad_row_raises_its_one_vector_message(self, bad, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            NormingVector(bad)
        for where in (0, 1, 3):
            rows = np.ones((4, 2), dtype=np.complex128)
            rows[where] = bad
            with pytest.raises(ValidationError, match=f"^{message}$"):
                NormingVector.stack(rows)

    @pytest.mark.parametrize("first,second", [
        ([0.0, 0.0], [np.nan, 1.0]), ([np.nan, 1.0], [0.0, 0.0]),
        ([1.5e308, 1.5e308j], [0.0, 0.0]), ([0.0, 0.0], [1.5e308, 1.5e308j]),
        ([np.inf, 0.0], [1.5e308, 1.5e308j]), ([1.5e308, 1.5e308j], [np.inf, 0.0]),
    ])
    def test_the_first_bad_row_names_the_error(self, first, second):
        rows = np.array([[1.0, 2.0], first, [3.0, 1j], second], dtype=np.complex128)
        with pytest.raises(ValidationError) as expected:
            NormingVector(first)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(expected.value))}$"):
            NormingVector.stack(rows)

    def test_empty_stack(self):
        assert NormingVector.stack(np.empty((0, 3), dtype=np.complex128)) == []


_ENTRIES = st.floats(1e-160, 1e160) | st.floats(-1e160, -1e-160)


@pytest.mark.numpy_floor
class TestVectorNorm:
    @given(st.lists(st.tuples(_ENTRIES, _ENTRIES), min_size=1, max_size=8), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_numpy_norm(self, entries, is_complex):
        re, im = np.array(entries).T
        vec = re + 1j * im if is_complex else re.copy()  # contiguous; views: below
        with np.errstate(over="ignore"):  # squares past 1e308: numpy reads inf
            ref = float(np.linalg.norm(vec))
        if _SAFE_NORM[0] <= ref <= _SAFE_NORM[1]:
            assert _norms(vec) == ref
        else:  # squares may underflow or overflow, where numpy's value is off
            exact = _true_norm(vec)
            assert abs(_norms(vec) - exact) <= math.ulp(exact)

    def test_strided_views_take_numpy_ravel(self):
        # a strided real view's dot rounds differently from the contiguous
        # copy numpy's norm takes; reversed views sum in memory order
        rng = np.random.default_rng(3)
        for _ in range(2000):
            v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            for view in (v[::2], v[::-1], v.real, v.real[::3], v.imag[::-2]):
                assert _norms(view) == float(np.linalg.norm(view))


@pytest.mark.numpy_floor
class TestProjectiveDistance:
    def test_identity(self):
        assert projective_distance(E1, E1) == 0.0

    def test_orthogonality(self):
        assert projective_distance(E1, E2) == pytest.approx(1.0)

    def test_half_angle(self):
        q = (E1 + E2) / np.sqrt(2.0)
        assert projective_distance(E1, q) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_stack_rows_keep_their_pair_bits(self):
        # any leading axes: each pair of rows has the bits of its own call
        rng = np.random.default_rng(4)
        for n in (2, 3, 5):
            p = _gaussian(rng, (4, 3, n), 1.0)
            q = p + _gaussian(rng, (4, 3, n), 1e-9)  # near-equal pairs too
            for a, b in ((p, q), (p, _gaussian(rng, (4, 3, n), 1.0))):
                got = projective_distance(a, b)
                assert got.shape == (4, 3)
                for idx in np.ndindex(4, 3):
                    assert got[idx] == projective_distance(a[idx], b[idx])
                    assert got[idx] == projective_distance(a[idx][None], b[idx][None])[0]

    @given(st.integers(0, 2**32 - 1), st.floats(-np.pi, np.pi))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_phase_invariance(self, seed, theta):
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p /= np.linalg.norm(p)
        q /= np.linalg.norm(q)
        d = projective_distance(p, q)
        assert abs(d - projective_distance(q, p)) < 1e-12
        assert abs(d - projective_distance(p, np.exp(1j * theta) * q)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_polarization_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        beta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if np.linalg.norm(beta) < 1e-6:
            return
        scale = complex(rng.standard_normal(), rng.standard_normal())
        if abs(scale) < 1e-6:
            return
        a = Polarization(beta)
        b = Polarization(scale * beta)
        assert projective_distance(a, b) < 1e-12
        assert np.allclose(a.p, b.p, atol=1e-12)  # canonical phase pins the rep


class TestSolitonData:
    def test_valid_single_point(self):
        data = SolitonData(2, ((SpectralPoint(0.0, 1.0), NormingVector(E1)),))
        assert data.N == 1 and data.n == 2 and data.ks[0] == 0.5j

    def test_coincident_poles(self):
        pts = (
            (SpectralPoint(0.0, 1.0), NormingVector(E1)),
            (SpectralPoint(0.0, 1.0), NormingVector(E2)),
        )
        with pytest.raises(ValidationError, match="coincident poles"):
            SolitonData(2, pts)

    def test_component_count_mismatch(self):
        with pytest.raises(ValidationError):
            SolitonData(3, ((SpectralPoint(0.0, 1.0), NormingVector(E1)),))

    def test_subset_and_arrays(self):
        data = SolitonData.from_arrays([0.1, 0.6], [1.0, 1.5], [E1, E2])
        assert data.N == 2
        sub = data.subset([1])
        assert sub.N == 1
        assert sub.points[0][0].u == pytest.approx(0.6)


class TestBoundarySpec:
    def test_mixed_signs_validated(self):
        with pytest.raises(ValidationError):
            Mixed((1, 0))

    def test_rotated_mixed_requires_unitary(self):
        with pytest.raises(ValidationError, match="not unitary"):
            RotatedMixed(np.array([[1.0, 1.0], [0.0, 1.0]]), (1, -1))
        U = np.array([[0, 1], [1, 0]], dtype=complex)
        spec = RotatedMixed(U, (1, -1))
        assert spec.n == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_rotated_mixed_rejects_non_finite_unitary(self, bad):
        # a nan defect is not <= UNITARY_TOL, although it is not > it either
        U = np.eye(2, dtype=complex)
        U[1, 0] = bad
        with pytest.raises(ValidationError, match="not unitary"):
            RotatedMixed(U, (1, -1))
        with pytest.raises(ValidationError, match="not unitary"):
            RotatedMixed.stack(np.array([np.eye(2), U]), [(1, -1), (-1, 1)])

    def test_stack_matches_one_at_a_time(self):
        from vsolitons.sampling import draw_unitary, unitaries

        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 8):
            Us = np.array([unitaries(draw_unitary(rng, n)) for _ in range(7)])
            signs = [tuple(rng.choice((-1, 1), n).tolist()) for _ in range(7)]
            ms = RotatedMixed.stack(Us, signs)
            assert ms.shape == (7, n, n)
            for m, U, sg in zip(ms, Us, signs):
                one = RotatedMixed(U, sg)
                assert one.signs == sg and one.unitary.tobytes() == U.tobytes()
                assert m.tobytes() == one.m.tobytes()
                assert not one.unitary.flags.writeable and not one.m.flags.writeable

    def test_stack_names_the_first_non_unitary(self):
        U = np.array([np.eye(2), [[1.0, 1e-9], [0.0, 1.0]], [[1.0, 1e-6], [0.0, 1.0]]])
        with pytest.raises(ValidationError, match=r"= 1\.000e-09$"):
            RotatedMixed.stack(U, [(1, -1)] * 3)

    def test_robin_finite(self):
        with pytest.raises(ValidationError):
            Robin(float("nan"))
