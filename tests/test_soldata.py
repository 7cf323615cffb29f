import math

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
    polarization_of,
    projective_distance,
)

from vsolitons.soldata import _norm

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestSpectralPoint:
    def test_k_and_kinematics(self):
        pt = SpectralPoint(1.0, 2.0)
        assert pt.k == 0.5 + 1.0j
        assert pt.velocity == -2.0
        assert pt.amplitude == 2.0

    def test_mirror_negates_u(self):
        pt = SpectralPoint(0.8, 1.2)
        assert pt.mirror().k == -pt.k.conjugate()
        assert pt.mirror().v == pt.v

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValidationError, match="lower half plane"):
            SpectralPoint(0.0, -1.0)
        with pytest.raises(ValidationError, match="lower half plane"):
            SpectralPoint.from_k(-0.5j)

    def test_from_k_roundtrip(self):
        pt = SpectralPoint.from_k(0.3 + 0.7j)
        assert pt.u == pytest.approx(0.6)
        assert pt.v == pytest.approx(1.4)


class TestPolarization:
    def test_polarization_of_unit_vector(self):
        p = polarization_of(NormingVector(E1))
        assert np.allclose(p.p, E1)

    def test_phase_quotient(self):
        p = polarization_of(NormingVector([0.0, 2.0j]))
        assert np.allclose(p.p, E2)

    def test_normalization_by_five(self):
        p = polarization_of(NormingVector([3.0, 4.0j]))
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


class TestScaledNorm:
    def test_bit_equal_to_numpy_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20000):
            vec = _gaussian(rng, int(rng.integers(1, 9)), 10.0 ** rng.uniform(-100, 100))
            assert _norm(vec) == float(np.linalg.norm(vec))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_power_of_two_scaling_is_exact(self):
        # far outside the range where squaring is safe, the scaled norm is
        # still np.linalg.norm's value at unit scale, moved by the exact power
        rng = np.random.default_rng(1)
        for _ in range(2000):
            vec = _gaussian(rng, int(rng.integers(1, 9)), 10.0 ** rng.uniform(-10, 10))
            ref = float(np.linalg.norm(vec))
            for e in (-900, -560, 560, 900):
                assert _norm(vec * 2.0**e) == math.ldexp(ref, e)

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

    def test_smallest_subnormal(self):
        tiny = 5e-324
        assert NormingVector([tiny, 0.0]).norm == tiny
        assert NormingVector([0.0, 1j * tiny]).norm == tiny
        assert _norm(np.array([tiny, tiny * 1j])) == _true_norm(np.array([tiny, tiny * 1j]))
        assert np.array_equal(Polarization([0.0, tiny]).p, E2)

    def test_zero_stays_degenerate(self):
        assert _norm(np.zeros(3, dtype=np.complex128)) == 0.0
        with pytest.raises(ValidationError, match="degenerate"):
            NormingVector([0.0, -0.0])


class TestProjectiveDistance:
    def test_identity(self):
        assert projective_distance(E1, E1) == 0.0

    def test_orthogonality(self):
        assert projective_distance(E1, E2) == pytest.approx(1.0)

    def test_half_angle(self):
        q = (E1 + E2) / np.sqrt(2.0)
        assert projective_distance(E1, q) == pytest.approx(1.0 / np.sqrt(2.0))

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
        a = polarization_of(beta)
        b = polarization_of(scale * beta)
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
        assert Mixed.from_subset(3, [0, 2]).signs == (1, -1, 1)

    def test_rotated_mixed_requires_unitary(self):
        with pytest.raises(ValidationError, match="not unitary"):
            RotatedMixed(np.array([[1.0, 1.0], [0.0, 1.0]]), (1, -1))
        U = np.array([[0, 1], [1, 0]], dtype=complex)
        spec = RotatedMixed(U, (1, -1))
        assert spec.n == 2

    def test_robin_finite(self):
        with pytest.raises(ValidationError):
            Robin(float("nan"))
