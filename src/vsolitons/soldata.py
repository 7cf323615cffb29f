"""Domain types for vector-soliton spectral data, polarizations, and boundaries.

A soliton is specified by a discrete eigenvalue k = (u + iv)/2 in the upper
half plane (velocity -2u, amplitude v) together with a nonzero norming vector
beta in C^n.  Polarizations live projectively; a canonical phase (largest
modulus component real and non-negative, ties to the lowest index) makes them
directly comparable as plain vectors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import PoleError, ValidationError

#: Two eigenvalues closer than this are treated as coincident poles.
POLE_MERGE_TOL = 1e-12

#: Evaluation closer than this to a pole (of a chain factor or of M(k)) raises PoleError.
POLE_EVAL_TOL = 1e-13

#: Parameter pairs with a collision-factor denominator below this are poles;
#: also the pole and zero margin of the Robin m(k).
PAIR_POLE_TOL = 1e-12

#: Real parts at or below this put a parameter on the imaginary axis, where
#: reflection maps are undefined and a mirror pole collides with its image.
AXIS_TOL = 1e-12

#: Allowed deviation of U from unitarity in rotated boundary specs.
UNITARY_TOL = 1e-12

#: Norms inside this range are taken as np.linalg.norm computes them; outside
#: it the squares could underflow or overflow, so the vector is scaled first.
_SAFE_NORM = (1e-150, 1e150)


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.flags.writeable = False
    return out


def _as_complex_vector(vec, name: str = "vector") -> np.ndarray:
    arr = np.asarray(vec, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty one-dimensional complex vector")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError(f"{name} has non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _pow2_scaled(vec: np.ndarray) -> tuple:
    """(vec / 2^e, e) with e the binary exponent of the largest entry; exact."""
    e = math.frexp(float(np.max(np.abs(vec.view(np.float64)))))[1]
    return np.ldexp(vec.real, -e) + 1j * np.ldexp(vec.imag, -e), e


def _norm(vec: np.ndarray) -> float:
    """2-norm of a finite complex vector at any scale.

    Inside _SAFE_NORM this is np.linalg.norm, bit for bit.  Outside it the
    squares may have underflowed (or overflowed, with numpy's warning), so the
    norm is taken again of the vector scaled by an exact power of two: a
    |beta| of 1e-200 keeps all its digits.
    """
    nrm = float(np.linalg.norm(vec))
    if _SAFE_NORM[0] <= nrm <= _SAFE_NORM[1]:
        return nrm
    scaled, e = _pow2_scaled(vec)
    return float(np.ldexp(np.linalg.norm(scaled), e))


def canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a nonzero vector so its largest-modulus entry is real >= 0.

    Ties break to the lowest index (argmax convention), so the result is a
    unique representative of the phase orbit.
    """
    pivot = vec[int(np.argmax(np.abs(vec)))]
    if pivot == 0:
        raise ValidationError("cannot fix the phase of the zero vector")
    return vec * (abs(pivot) / pivot)


@dataclass(frozen=True)
class SpectralPoint:
    """Discrete eigenvalue k = (u + iv)/2 with v > 0.

    u is twice the real part (soliton velocity is w = -2u) and v twice the
    imaginary part (soliton amplitude).
    """

    u: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValidationError("spectral point requires finite (u, v)")
        if self.v <= 0.0:
            raise ValidationError(
                f"lower half plane: eigenvalue needs v > 0, got v={self.v!r}"
            )

    @property
    def k(self) -> complex:
        return complex(self.u, self.v) / 2.0

    @property
    def velocity(self) -> float:
        return -2.0 * self.u

    @property
    def amplitude(self) -> float:
        return self.v

    def mirror(self) -> "SpectralPoint":
        """The mirror eigenvalue -k*: same v, negated u."""
        return SpectralPoint(-self.u, self.v)

    @classmethod
    def from_k(cls, k: complex) -> "SpectralPoint":
        k = complex(k)
        return cls(2.0 * k.real, 2.0 * k.imag)


@dataclass(frozen=True, eq=False)
class NormingVector:
    """Nonzero vector beta in C^n attached to a spectral point.

    |beta| fixes the envelope position shift ln|beta|/v and beta/|beta| the
    polarization.
    """

    beta: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.beta, "norming vector")
        if _norm(arr) == 0.0:
            raise ValidationError("degenerate norming constant: beta must be nonzero")
        object.__setattr__(self, "beta", arr)

    @property
    def n(self) -> int:
        return self.beta.size

    @property
    def norm(self) -> float:
        return _norm(self.beta)

    def position_shift(self, point: SpectralPoint) -> float:
        """Envelope position shift ln|beta| / v for the given eigenvalue."""
        return math.log(self.norm) / point.v


@dataclass(frozen=True, eq=False)
class Polarization:
    """Unit vector in C^n stored in canonical phase.

    Any nonzero vector is accepted; construction normalizes and fixes the
    phase, so two projectively equal inputs produce identical arrays.
    """

    p: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.p, "polarization")
        nrm = float(np.linalg.norm(arr))
        if not _SAFE_NORM[0] <= nrm <= _SAFE_NORM[1]:
            arr, _ = _pow2_scaled(arr)  # same direction, norm near 1 (or 0)
            nrm = float(np.linalg.norm(arr))
        if nrm == 0.0:
            raise ValidationError("zero vector has no polarization")
        arr = canonical_phase(arr / nrm)
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    @property
    def n(self) -> int:
        return self.p.size


def polarization_of(beta: Union[NormingVector, Sequence[complex], np.ndarray]) -> Polarization:
    """Unit polarization beta/|beta| in canonical phase."""
    if isinstance(beta, NormingVector):
        return Polarization(beta.beta)
    return Polarization(np.asarray(beta, dtype=np.complex128))


def projective_distance(p, q) -> float:
    """Fubini-Study-type distance sqrt(1 - |p^dag q|^2) between unit vectors.

    Zero iff the two directions agree projectively; one iff orthogonal.
    Phase-invariant and symmetric.  Evaluated as the norm of q minus its
    projection on p, which resolves distances near zero to machine epsilon
    instead of the sqrt(eps) floor of the naive formula.
    """
    a = p.p if isinstance(p, Polarization) else np.asarray(p, dtype=np.complex128)
    b = q.p if isinstance(q, Polarization) else np.asarray(q, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValidationError("projective distance needs vectors of equal length")
    if a.size == 1:
        return 0.0  # one complex line only: the distance vanishes identically
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    rejection = b - a * np.vdot(a, b)
    return min(1.0, float(np.linalg.norm(rejection)))


@dataclass(frozen=True, eq=False)
class SolitonData:
    """Validated spectral data for a pure multi-soliton solution.

    n is the number of field components; points pairs each eigenvalue with
    its norming vector.  Eigenvalues must be simple (pairwise distinct).
    """

    n: int
    points: tuple

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ValidationError("component count n must be a positive integer")
        pts = tuple(self.points)
        for idx, pair in enumerate(pts):
            point, nv = pair
            if not isinstance(point, SpectralPoint) or not isinstance(nv, NormingVector):
                raise ValidationError(
                    f"points[{idx}] must be a (SpectralPoint, NormingVector) pair"
                )
            if nv.n != n:
                raise ValidationError(
                    f"points[{idx}]: norming vector has length {nv.n}, expected n={n}"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", pts)
        _check_distinct_poles(pts)

    @property
    def N(self) -> int:
        return len(self.points)

    @property
    def ks(self) -> np.ndarray:
        return np.array([pt.k for pt, _ in self.points], dtype=np.complex128)

    def spectral_point(self, j: int) -> SpectralPoint:
        return self.points[j][0]

    def norming_vector(self, j: int) -> NormingVector:
        return self.points[j][1]

    def subset(self, indices: Iterable[int]) -> "SolitonData":
        return SolitonData(self.n, tuple(self.points[i] for i in indices))

    @classmethod
    def from_arrays(cls, us, vs, betas) -> "SolitonData":
        betas = [np.asarray(b, dtype=np.complex128) for b in betas]
        if not betas:
            raise ValidationError("soliton data needs at least one point")
        n = betas[0].size
        pts = tuple(
            (SpectralPoint(u, v), NormingVector(b)) for u, v, b in zip(us, vs, betas)
        )
        if len(pts) != len(betas):
            raise ValidationError("u, v, beta lists must have equal length")
        return cls(n, pts)


def _check_distinct_poles(pts) -> None:
    ks = [pt.k for pt, _ in pts]
    for a in range(len(ks)):
        for b in range(a + 1, len(ks)):
            if abs(ks[a] - ks[b]) <= POLE_MERGE_TOL:
                raise ValidationError(
                    f"coincident poles: k[{a}]={ks[a]} and k[{b}]={ks[b]} "
                    f"are closer than {POLE_MERGE_TOL}"
                )


# --- boundary specifications -------------------------------------------------
#
# A boundary spec owns everything that depends on its kind: the unitary m(k)
# acting on polarizations, the mirror-constraint matrix M(k) and its inverse,
# the x = 0 residual of the boundary condition, and its JSON wire form.  `n`
# is the component count it acts on, None for Robin (any count).


def _robin_eye(n) -> np.ndarray:
    if n is None:
        raise ValidationError("Robin boundary matrices need the component count n")
    return np.eye(int(n), dtype=np.complex128)


@dataclass(frozen=True)
class Robin:
    """Robin boundary R_x(0,t) = 2*alpha*R(0,t); alpha real.

    m(k) = (h/|h|) I with h = (k - i alpha)/(k + i alpha), and
    M(k) = ((k + i alpha)/(k - i alpha)) I; alpha = 0 is all-Neumann, M = I.
    """

    alpha: float
    n = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not math.isfinite(self.alpha):
            raise ValidationError("Robin parameter alpha must be finite")

    def small_m(self, k: complex, n: int) -> np.ndarray:
        eye = _robin_eye(n)
        k = complex(k)
        den = k + 1j * self.alpha
        if abs(den) < PAIR_POLE_TOL:
            raise PoleError(f"boundary matrix has a pole at k = -i*alpha = {-1j * self.alpha}")
        h = (k - 1j * self.alpha) / den
        if abs(h) < PAIR_POLE_TOL:
            raise PoleError(f"boundary matrix vanishes at k = i*alpha = {1j * self.alpha}")
        return (h / abs(h)) * eye

    def big_m(self, k: complex, n: int) -> np.ndarray:
        eye = _robin_eye(n)
        k = complex(k)
        den = k - 1j * self.alpha
        if abs(den) < POLE_EVAL_TOL:
            raise PoleError(f"M(k) has a pole at k = i*alpha = {1j * self.alpha}")
        return ((k + 1j * self.alpha) / den) * eye

    def big_m_inv(self, k: complex, n: int) -> np.ndarray:
        # no complex(k): np.complex128 and Python complex division can round
        # differently, and stored mirror data were solved with the former
        eye = _robin_eye(n)
        num = k + 1j * self.alpha
        if abs(num) < POLE_EVAL_TOL:
            raise PoleError(f"M(k) is singular at k = -i*alpha = {-1j * self.alpha}")
        return ((k - 1j * self.alpha) / num) * eye

    def boundary_residual(self, R0: np.ndarray, Rx0: np.ndarray) -> float:
        """max |R_x(0,t) - 2 alpha R(0,t)|."""
        return float(np.max(np.abs(Rx0 - 2.0 * self.alpha * R0)))

    def to_json(self) -> dict:
        return {"kind": "robin", "alpha": self.alpha}


def _check_signs(signs) -> tuple:
    sg = tuple(int(s) for s in signs)
    if not sg or any(s not in (-1, 1) for s in sg):
        raise ValidationError("sign pattern must be a nonempty tuple of +1/-1")
    return sg


@dataclass(frozen=True, eq=False)
class RotatedMixed:
    """Sign pattern s applied in the component basis rotated by a unitary U.

    Dirichlet on the +1 and Neumann on the -1 components of U R(0,t).
    m = U^dag diag(s) U is constant and M = -m; both are involutions, so
    M^-1 = M.  M -> I is the all-Neumann case.
    """

    unitary: np.ndarray
    signs: tuple
    m: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sg = _check_signs(self.signs)
        U = np.asarray(self.unitary, dtype=np.complex128)
        n = len(sg)
        if U.shape != (n, n):
            raise ValidationError(f"unitary must be {n}x{n} to match the sign pattern")
        defect = np.max(np.abs(U.conj().T @ U - np.eye(n)))
        if defect > UNITARY_TOL:
            raise ValidationError(
                f"matrix is not unitary: max |U^dag U - I| = {defect:.3e}"
            )
        s = np.asarray(sg, dtype=np.complex128)
        object.__setattr__(self, "unitary", _frozen(U))
        object.__setattr__(self, "signs", sg)
        object.__setattr__(self, "m", _frozen((U.conj().T * s) @ U))

    @property
    def n(self) -> int:
        return len(self.signs)

    def _check_n(self, n) -> None:
        if n is not None and int(n) != self.n:
            raise ValidationError(f"boundary spec acts on {self.n} components, expected {n}")

    def small_m(self, k: complex, n: int) -> np.ndarray:
        self._check_n(n)
        return self.m

    def big_m(self, k: complex, n: int) -> np.ndarray:
        self._check_n(n)
        return -self.m

    big_m_inv = big_m

    def boundary_residual(self, R0: np.ndarray, Rx0: np.ndarray) -> float:
        """max of |(U R)_p(0,t)| on the +1 and |(U R)_q,x(0,t)| on the -1 components."""
        U = self.unitary
        sg = np.array(self.signs)
        res = 0.0
        for part, chosen in ((R0 @ U.T, sg == 1), (Rx0 @ U.T, sg == -1)):
            if chosen.any():
                res = max(res, float(np.max(np.abs(part[:, chosen]))))
        return res

    def to_json(self) -> dict:
        return {
            "kind": "rotated_mixed",
            "signs": list(self.signs),
            "unitary": [[[float(z.real), float(z.imag)] for z in row] for row in self.unitary],
        }


@functools.lru_cache(maxsize=256)
def _sign_matrices(signs: tuple) -> tuple:
    """(I, diag(s)) for a sign pattern, built once and shared read-only."""
    return _frozen(np.eye(len(signs))), _frozen(np.diag(np.asarray(signs, dtype=np.complex128)))


class Mixed(RotatedMixed):
    """Componentwise Dirichlet/Neumann split: a sign pattern with U = I."""

    def __init__(self, signs):
        sg = _check_signs(signs)
        unitary, m = _sign_matrices(sg)
        object.__setattr__(self, "unitary", unitary)
        object.__setattr__(self, "signs", sg)
        object.__setattr__(self, "m", m)

    @classmethod
    def from_subset(cls, n: int, subset: Iterable[int]) -> "Mixed":
        """+1 on the components in `subset` (0-based), -1 elsewhere."""
        chosen = set(int(i) for i in subset)
        if not chosen <= set(range(n)):
            raise ValidationError("subset indices must lie in 0..n-1")
        return cls(tuple(1 if i in chosen else -1 for i in range(n)))

    def to_json(self) -> dict:
        return {"kind": "mixed", "signs": list(self.signs)}


BoundarySpec = Union[Robin, RotatedMixed]
