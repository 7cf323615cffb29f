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
from typing import Iterable, Union

import numpy as np

from .errors import DegeneracyError, PoleError, ValidationError

#: Two eigenvalues closer than this are treated as coincident poles.
POLE_MERGE_TOL = 1e-12

#: Evaluation closer than this to a pole (of a chain factor or of M(k)) raises PoleError.
POLE_EVAL_TOL = 1e-13

#: Parameter pairs with a collision-factor denominator below this are poles.
PAIR_POLE_TOL = 1e-12

#: Real parts at or below this put a parameter on the imaginary axis, where
#: reflection maps are undefined and a mirror pole collides with its image.
AXIS_TOL = 1e-12

#: Allowed deviation of U from unitarity in rotated boundary specs.
UNITARY_TOL = 1e-12

#: Norms inside this range are taken as np.linalg.norm computes them; outside
#: it the squares could underflow or overflow, so the vector is scaled first.
_SAFE_NORM = (1e-150, 1e150)


def _first(mask) -> int:
    """The index of the first True of a 1-D mask, len(mask) if none: argmax
    and one index, which cost half of ndarray.any()."""
    if len(mask) and mask[i := int(mask.argmax())]:
        return i
    return len(mask)


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.flags.writeable = False
    return out


def _as_complex_vector(vec, name: str = "vector") -> np.ndarray:
    """A complex copy of vec, checked one-dimensional and nonempty (its stack
    checks it finite)."""
    arr = np.array(vec, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty one-dimensional complex vector")
    return arr


# --- the numeric layer: the one norm, unit vector and projective distance, each
# over the last axis of a stack with any leading axes (a vector is a stack of
# one); only the field kernel keeps its own (`dressing._squared_norms`, `_rescale`)


def _scaled(vecs) -> tuple:
    """(v, |v|, |vecs|) of a finite stack, row by row: v / |v| is the row's
    unit vector and |vecs| its norm, inf past the float range.

    Where a row's norm lies inside _SAFE_NORM, v is the row and |v| = |vecs|
    is np.linalg.norm's, bit for bit: numpy takes sqrt(re.re + im.im)
    (sqrt(x.x) if real) on a contiguous copy, and vecdot on a contiguous
    stack is that ddot row by row.  Elsewhere the squares may underflow or
    overflow, so v is the row scaled by 2^-e, e the binary exponent of its
    largest |re| or |im|: exact, |v| keeps all its digits and |vecs| is
    2^e |v| (a zero row stays as it is).  |v| and |vecs| are one array
    where no row is scaled.
    """
    vecs = np.asarray(vecs)
    if not vecs.flags.c_contiguous:
        vecs = np.ascontiguousarray(vecs)
    nrm = _unscaled_norms(vecs)
    lo, hi = _SAFE_NORM  # an empty stack reads as in range
    if lo <= nrm.min(initial=hi) and nrm.max(initial=lo) <= hi:
        return vecs, nrm, nrm
    top = np.abs(vecs.view(np.float64)).max(axis=-1)
    e = np.where((nrm >= lo) & (nrm <= hi), 0, np.frexp(top)[1])
    vecs = np.ldexp(vecs.view(np.float64), -e[..., None]).view(vecs.dtype)
    nrm = _unscaled_norms(vecs)
    with np.errstate(over="ignore"):  # past the float range, where IEEE rounding gives inf
        return vecs, nrm, np.ldexp(nrm, e)


@np.errstate(over="ignore")  # an overflowed square puts its row out of range
def _unscaled_norms(vecs: np.ndarray) -> np.ndarray:
    """sqrt(re.re + im.im) over the last axis of a contiguous stack (a real
    stack's im is 0, which leaves the sum as it is)."""
    return np.sqrt(np.vecdot(vecs.real, vecs.real) + np.vecdot(vecs.imag, vecs.imag))


def _norms(vecs) -> np.ndarray:
    """The 2-norm over the last axis of a finite stack at any scale (see
    `_scaled`): np.linalg.norm's bits inside _SAFE_NORM, an exact power of
    two times a norm near 1 outside it, inf past the float range."""
    return _scaled(vecs)[2]


def _unit(vecs) -> np.ndarray:
    """Each vector of a finite stack over its norm, scaled first where the
    norm leaves _SAFE_NORM (see `_scaled`); a zero vector raises DegeneracyError."""
    vecs, nrm, size = _scaled(vecs)
    if size is not nrm and not nrm.all():  # a zero row is out of range, so scaled
        raise DegeneracyError("zero vector has no direction")
    return vecs / nrm[..., None]


def canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate nonzero vectors (over the last axis) so each one's largest-modulus
    entry is real >= 0.

    Ties break to the lowest index (argmax convention), so the result is a
    unique representative of the phase orbit.
    """
    pivot = np.take_along_axis(vec, np.abs(vec).argmax(-1)[..., None], -1)
    if not pivot.all():
        raise ValidationError("cannot fix the phase of the zero vector")
    # hypot: scalar abs(pivot) bit for bit; named, so numpy cannot multiply into it in place
    phase = np.hypot(pivot.real, pivot.imag) / pivot
    return vec * phase


@dataclass(frozen=True)
class SpectralPoint:
    """Discrete eigenvalue k = (u + iv)/2 with v > 0.

    u is twice the real part (soliton velocity is w = -2u) and v twice the
    imaginary part (soliton amplitude).
    """

    u: float
    v: float
    k: complex = field(init=False, compare=False, repr=False)  # (u + iv)/2, taken once

    def __post_init__(self):
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValidationError("spectral point requires finite (u, v)")
        if self.v <= 0.0:
            raise ValidationError(
                f"lower half plane: eigenvalue needs v > 0, got v={self.v!r}"
            )
        object.__setattr__(self, "k", complex(self.u, self.v) / 2.0)

    @property
    def velocity(self) -> float:
        return -2.0 * self.u

    def mirror(self) -> "SpectralPoint":
        """The mirror eigenvalue -k*: same v, negated u."""
        return SpectralPoint(-self.u, self.v)


@dataclass(frozen=True, eq=False)
class NormingVector:
    """Nonzero vector beta in C^n attached to a spectral point.

    |beta| fixes the envelope position shift ln|beta|/v and beta/|beta| the
    polarization.
    """

    beta: np.ndarray
    norm: float = field(init=False, repr=False)  # |beta|, taken once: beta is read-only

    def __post_init__(self):
        arr = _as_complex_vector(self.beta, "norming vector")
        (norm,) = _checked_norms(arr[None])
        arr.flags.writeable = False
        self.__dict__.update(beta=arr, norm=norm)

    @classmethod
    def stack(cls, betas) -> list:
        """The NormingVector of each row of an (R, n) stack, as construction
        makes it from that row, bit for bit, with one finiteness test and one
        norm pass for all rows; construction is the stack of one."""
        arr = np.array(betas, dtype=np.complex128)
        norms = _checked_norms(arr)
        arr.flags.writeable = False
        out = [cls.__new__(cls) for _ in norms]
        for nv, beta, norm in zip(out, arr, norms):
            nv.__dict__.update(beta=beta, norm=norm)
        return out

    @property
    def n(self) -> int:
        return self.beta.size

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
        arr = _polarizations(_as_complex_vector(self.p, "polarization")[None])[0]
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    @property
    def n(self) -> int:
        return self.p.size


def _checked_norms(betas: np.ndarray) -> list:
    """The norms of the rows of a complex (R, n) stack of norming vectors, as
    floats.  ValidationError names what is wrong with the first row that is
    non-finite, zero or past the float range."""
    ok = len(betas) if np.isfinite(betas).all() else _first(~np.isfinite(betas).all(axis=-1))
    norms = _norms(betas[:ok]).tolist()
    if 0.0 in norms or math.inf in norms:
        if next(v for v in norms if v in (0.0, math.inf)) == 0.0:
            raise ValidationError("degenerate norming constant: beta must be nonzero")
        raise ValidationError("norming constant |beta| exceeds the float range")
    if ok < len(betas):
        raise ValidationError("norming vector has non-finite entries")
    return norms


def _polarizations(vecs: np.ndarray) -> np.ndarray:
    """Each row of an (S, n) stack as `Polarization` makes it, bit for bit:
    its `_unit`, in canonical phase."""
    if not np.isfinite(vecs).all():
        raise ValidationError("polarization has non-finite entries")
    try:
        return canonical_phase(_unit(vecs))
    except DegeneracyError:
        raise ValidationError("zero vector has no polarization") from None


def projective_distance(p, q):
    """Fubini-Study-type distance sqrt(1 - |p^dag q|^2) between the directions
    of p and q, over the last axis of two stacks of equal shape (any leading
    axes; a pair of vectors gives a scalar).

    Zero iff the two directions agree projectively; one iff orthogonal (and
    for a nan distance).  Phase-invariant and symmetric.  Evaluated as the
    norm of q minus its projection on p, which resolves distances near zero
    to machine epsilon instead of the sqrt(eps) floor of the naive formula.
    """
    a = p.p if isinstance(p, Polarization) else np.asarray(p, dtype=np.complex128)
    b = q.p if isinstance(q, Polarization) else np.asarray(q, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValidationError("projective distance needs vectors of equal length")
    if a.shape[-1] == 1:  # one complex line only: the distance vanishes identically
        return np.zeros(a.shape[:-1])[()]
    a, b = _unit(np.array((a, b)))
    return np.fmin(_norms(b - a * np.vecdot(a, b)[..., None]), 1.0)[()]


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

    #: this dataset as a stack of one, where its chains are built, once each
    stack = functools.cached_property(lambda self: SolitonStack((self.points,)))

    @property
    def N(self) -> int:
        return len(self.points)

    @property
    def ks(self) -> np.ndarray:
        return np.array([pt.k for pt, _ in self.points], dtype=np.complex128)

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


class SolitonStack:
    """The points of S validated datasets of one shape (N points, n components),
    whose reduced chains, intermediate gammas and full-chain update
    coefficients are built together, once each, and kept here.  One dataset
    is a stack of one: `SolitonData.stack`."""

    def __init__(self, points: tuple):
        self.points, self.chains, self.gammas, self.updates = points, {(): ()}, {}, {}

    stack = property(lambda self: self)
    N = property(lambda self: len(self.points[0]))

    # (S, N) eigenvalues, (S, N, n) norming vectors and (S, N) their norms
    ks = functools.cached_property(
        lambda self: np.array([[pt.k for pt, _ in p] for p in self.points]))
    betas = functools.cached_property(lambda self: np.array(
        [nv.beta for p in self.points for _, nv in p]).reshape(len(self.points), self.N, -1))
    norms = functools.cached_property(
        lambda self: np.array([[nv.norm for _, nv in p] for p in self.points]))


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
# A boundary spec owns everything that depends on its kind: the mirror-constraint
# matrix M(k) and its inverse, the x = 0 residual of the boundary condition,
# and its JSON wire form.  `n` is the component count it acts on, None for
# Robin (any count).  The unitary m acting on polarizations is constant per
# boundary and read only from a stack of S boundaries (`boundary_stack`, an
# (S, n, n) array); one boundary is a stack of one.


def _robin_eye(n) -> np.ndarray:
    if n is None:
        raise ValidationError("Robin boundary matrices need the component count n")
    return _sign_matrices((1,) * int(n))[0]


@dataclass(frozen=True)
class Robin:
    """Robin boundary R_x(0,t) = 2*alpha*R(0,t); alpha real.

    M(k) = ((k + i alpha)/(k - i alpha)) I; alpha = 0 is all-Neumann, M = I.
    On polarizations m(k) is the unit scalar h/|h| times I, h = (k - i alpha)/
    (k + i alpha): every use of m is projective, so the phase cannot be seen
    and a stack takes m = I.  M(k) is no unit phase: it scales norming
    vectors, so the mirror solver and the constraint keep it.
    """

    alpha: float
    n = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not math.isfinite(self.alpha):
            raise ValidationError("Robin parameter alpha must be finite")

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
        if U.shape != (len(sg), len(sg)):
            raise ValidationError(f"unitary must be {len(sg)}x{len(sg)} to match the sign pattern")
        m = _frozen(self.stack(U[None], (sg,))[0])
        self.__dict__.update(unitary=_frozen(U), signs=sg, m=m)  # frozen: past __setattr__

    @staticmethod
    def stack(unitaries, signs) -> np.ndarray:
        """The (S, n, n) m = U^dag diag(s) U of S unitaries and sign patterns,
        unitarity checked once; construction is the S = 1 case.  ValidationError
        names the first U without max |U^dag U - I| <= UNITARY_TOL (nan too)."""
        U = np.asarray(unitaries, dtype=np.complex128)
        Uh = U.conj().swapaxes(-1, -2)
        with np.errstate(invalid="ignore"):  # inf entries: a nan defect, rejected below
            defect = np.abs(Uh @ U - np.eye(U.shape[-1])).max(axis=(-2, -1))
        bad = _first(~(defect <= UNITARY_TOL))
        if bad < len(defect):
            raise ValidationError(f"matrix is not unitary: max |U^dag U - I| = {defect[bad]:.3e}")
        return (Uh * np.asarray(signs, dtype=np.complex128)[:, None, :]) @ U

    @property
    def n(self) -> int:
        return len(self.signs)

    def _check_n(self, n) -> None:
        if n is not None and int(n) != self.n:
            raise ValidationError(f"boundary spec acts on {self.n} components, expected {n}")

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
        self.__dict__.update(unitary=unitary, signs=sg, m=m)

    def to_json(self) -> dict:
        return {"kind": "mixed", "signs": list(self.signs)}


BoundarySpec = Union[Robin, RotatedMixed]


def boundary_stack(rows, n: int) -> np.ndarray:
    """The (S, n, n) m of S boundaries on n components, each a spec, a Robin
    alpha, a sign pattern or a checked m ((n, n) array): a sign-pattern row's
    stored m, the identity on a Robin row.  A nonempty array is returned as it
    is.  ValidationError names the first row that is not n x n."""
    ms = rows
    if not isinstance(rows, np.ndarray):
        ms = []
        for row in rows:
            if isinstance(row, (Robin, float)):
                row = _robin_eye(n)
            elif isinstance(row, tuple):
                row = _sign_matrices(row)[1]
            elif isinstance(row, RotatedMixed):
                row._check_n(n)
                row = row.m
            ms.append(row)
    try:
        stack = np.asarray(ms) if len(ms) else np.empty((0, n, n), np.complex128)
    except ValueError:  # rows of different shapes
        stack = np.empty(0)
    if n is not None and stack.shape[1:] != (n, n):
        bad = next(s for s, m in enumerate(ms) if np.shape(m) != (n, n))
        raise ValidationError(f"boundary row {bad} of shape {np.shape(ms[bad])}: "
                              f"m must be {n}x{n} on {n} components")
    return stack
