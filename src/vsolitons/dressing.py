"""Rank-one dressing chains and multi-soliton field reconstruction.

Chains of degree-1 factors I + (f(k) - 1) * P, with f the Blaschke factor of
an eigenvalue and P a rank-one orthogonal projector, build the reduced (n x n)
and full ((n+1) x (n+1)) dressing matrices.  The ordered product over any
permutation of the eigenvalues yields the same degree-N factor, which is what
`permutation_residual` certifies numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import DegeneracyError, PoleError
from .soldata import NormingVector, SolitonData, SpectralPoint, validate

#: Evaluation closer than this to a factor pole k_j* raises PoleError.
POLE_EVAL_TOL = 1e-13

#: An intermediate chain direction below this fraction of |beta| is degenerate.
DEGENERATE_DIRECTION_TOL = 1e-13


def _blaschke(k0: complex, k: complex) -> complex:
    den = k - k0.conjugate()
    if abs(den) < POLE_EVAL_TOL:
        raise PoleError(f"evaluation point {k} hits the pole at conj({k0})")
    return (k - k0) / den


def blaschke_factor(point: SpectralPoint, k: complex) -> complex:
    """Blaschke factor (k - k0)/(k - k0*); unit modulus for real k."""
    return _blaschke(point.k, complex(k))


def phase_exponent(x, t, k: complex):
    """Plane-wave exponent k*x + 2*k^2*t of the undressed problem."""
    return k * np.asarray(x) + (2.0 * k * k) * np.asarray(t)


@dataclass(frozen=True, eq=False)
class ChainFactor:
    """Degree-1 factor I + (f(k) - 1) * dir dir^dag with unit direction."""

    k: complex
    direction: np.ndarray

    def f(self, k: complex) -> complex:
        return _blaschke(self.k, k)

    def matrix(self, k: complex) -> np.ndarray:
        return self._rank_one(self.f(k))

    def matrix_dagger(self, k: complex) -> np.ndarray:
        return self._rank_one(self.f(k).conjugate())

    def matrix_inv(self, k: complex) -> np.ndarray:
        # analytic rank-one inverse; never a generic matrix inversion
        f = self.f(k)
        if abs(f) < POLE_EVAL_TOL:
            raise PoleError(f"factor at {self.k} is singular at k={k}")
        return self._rank_one(1.0 / f)

    def _rank_one(self, coeff: complex) -> np.ndarray:
        d = self.direction
        return np.eye(d.size, dtype=np.complex128) + (coeff - 1.0) * np.outer(d, d.conj())

    def apply(self, coeff: complex, vec: np.ndarray) -> np.ndarray:
        """(I + (coeff - 1) dir dir^dag) vec without forming the matrix."""
        d = self.direction
        return vec + (coeff - 1.0) * np.vdot(d, vec) * d


@dataclass(frozen=True, eq=False)
class ReducedChain:
    """Ordered product of reduced n x n dressing factors."""

    order: tuple
    factors: tuple
    n: int


@dataclass(frozen=True, eq=False)
class FullChain:
    """Ordered product of full (n+1) x (n+1) factors at a fixed (x, t)."""

    order: tuple
    factors: tuple
    n: int
    x: float
    t: float


def _normalized_order(data: SolitonData, order) -> tuple:
    if order is None:
        order = range(data.N)
    idx = tuple(int(i) for i in order)
    if len(set(idx)) != len(idx) or not set(idx) <= set(range(data.N)):
        raise ValueError(f"order {idx} is not a sequence of distinct indices into the data")
    return idx


def _dagger_apply(factors: Sequence[ChainFactor], k: complex, vec: np.ndarray) -> np.ndarray:
    """Apply (F_1 F_2 ... F_m)^dag to vec; F_1^dag acts first."""
    w = vec
    for fac in factors:
        w = fac.apply(fac.f(k).conjugate(), w)
    return w


def build_reduced_chain(data: SolitonData, order=None) -> ReducedChain:
    """Recursively build the reduced chain for the given index order.

    The direction of factor i_j is the unit vector along
    d^dag_{i_1..i_{j-1}}(k_{i_j}) beta_{i_j}.
    """
    validate(data)
    idx = _normalized_order(data, order)
    factors = []
    for i in idx:
        point, nv = data.points[i]
        w = _dagger_apply(factors, point.k, nv.beta)
        nrm = float(np.linalg.norm(w))
        if nrm < DEGENERATE_DIRECTION_TOL * nv.norm:
            raise DegeneracyError(
                f"degenerate chain: direction for index {i} collapsed ({nrm:.3e})"
            )
        factors.append(ChainFactor(point.k, _frozen(w / nrm)))
    return ReducedChain(idx, tuple(factors), data.n)


def eval_chain(chain: ReducedChain, k: complex) -> np.ndarray:
    """Ordered product d_{i_1}(k) ... d_{i_N}(k); the identity for N = 0."""
    out = np.eye(chain.n, dtype=np.complex128)
    for fac in chain.factors:
        out = out @ fac.matrix(k)
    return out


def _seed_batch(beta: np.ndarray, k: complex, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Stabilized seed exp(-i phi(x,t,k*) Sigma3) (beta; -1), scaled projectively.

    The overall scale exp(-|Im phi|) keeps both blocks representable for any
    exponent size; directions (all that enter projectors) are exact.
    """
    ph = phase_exponent(x, t, k.conjugate())
    a = np.real(ph)
    b = np.imag(ph)
    s = np.abs(b)
    top = np.exp(-1j * a + (b - s))
    bot = -np.exp(1j * a + (-b - s))
    out = np.empty(x.shape + (beta.size + 1,), dtype=np.complex128)
    out[..., : beta.size] = top[..., None] * beta
    out[..., beta.size] = bot
    return out


def _full_directions(data: SolitonData, idx, x_flat: np.ndarray, t_flat: np.ndarray):
    """Unit full-chain directions for every factor, batched over (x, t)."""
    dirs = []  # (k_i, unit directions of shape (M, n+1))
    for i in idx:
        point, nv = data.points[i]
        k = point.k
        w = _seed_batch(nv.beta, k, x_flat, t_flat)
        for k_prev, z_prev in dirs:
            c = _blaschke(k_prev, k).conjugate()
            inner = np.einsum("mc,mc->m", z_prev.conj(), w)
            w = w + (c - 1.0) * inner[:, None] * z_prev
        mag = np.max(np.abs(w), axis=1, keepdims=True)
        if np.any(mag == 0.0):
            raise DegeneracyError("full-chain direction collapsed to zero")
        w = w / mag
        w = w / np.linalg.norm(w, axis=1, keepdims=True)
        dirs.append((k, w))
    return dirs


def build_full_chain(data: SolitonData, order, x: float, t: float) -> FullChain:
    """Space-time dressing chain at a single point (x, t)."""
    validate(data)
    idx = _normalized_order(data, order)
    xf = np.asarray([float(x)])
    tf = np.asarray([float(t)])
    dirs = _full_directions(data, idx, xf, tf)
    factors = tuple(ChainFactor(k, _frozen(z[0])) for k, z in dirs)
    return FullChain(idx, factors, data.n, float(x), float(t))


def full_chain_matrix(chain: FullChain, k: complex) -> np.ndarray:
    """Ordered product of the full factors at spectral parameter k."""
    out = np.eye(chain.n + 1, dtype=np.complex128)
    for fac in chain.factors:
        out = out @ fac.matrix(k)
    return out


def reconstruct_field(data: SolitonData, x, t, order=None):
    """Multi-soliton field R(x,t) from the full dressing chain.

    The value is the top-right block of sum_j i(k_j - k_j*) [Sigma3, P_j];
    the theorem behind `permutation_residual` makes it independent of the
    internal factor order.  Accepts scalars or broadcastable arrays for x, t
    and returns shape broadcast(x, t).shape + (n,).
    """
    validate(data)
    idx = _normalized_order(data, order)
    xs, ts = np.broadcast_arrays(
        np.asarray(x, dtype=np.float64), np.asarray(t, dtype=np.float64)
    )
    shape = xs.shape
    xf = xs.reshape(-1)
    tf = ts.reshape(-1)
    field = np.zeros((xf.size, data.n), dtype=np.complex128)
    for i, (k, z) in zip(idx, _full_directions(data, idx, xf, tf)):
        v = data.points[i][0].v
        field += (-2.0 * v) * z[:, : data.n] * z[:, data.n].conj()[:, None]
    return field.reshape(shape + (data.n,))


def one_soliton_field(point: SpectralPoint, beta, x, t):
    """Closed-form one-soliton p * v * e^{-i(ux+(u^2-v^2)t)} sech(v(x+2ut-dx)).

    dx = ln|beta|/v positions the envelope; the raw phase of beta is kept
    (the field scales by the same unit scalar as beta).
    """
    b = beta.beta if isinstance(beta, NormingVector) else np.asarray(beta, np.complex128)
    nrm = float(np.linalg.norm(b))
    if nrm == 0.0:
        raise ValueError("beta must be nonzero")
    pol = b / nrm
    u, v = point.u, point.v
    dx = math.log(nrm) / v
    xs = np.asarray(x, dtype=np.float64)
    ts = np.asarray(t, dtype=np.float64)
    arg = v * (xs + 2.0 * u * ts - dx)
    sech = 2.0 * np.exp(-np.abs(arg)) / (1.0 + np.exp(-2.0 * np.abs(arg)))
    q = v * np.exp(-1j * (u * xs + (u * u - v * v) * ts)) * sech
    return np.asarray(q)[..., None] * pol


def permutation_residual(
    data: SolitonData,
    order_a,
    order_b,
    sample_ks: Iterable[complex],
    sample_xts: Iterable[Tuple[float, float]] = (),
) -> float:
    """Max entrywise disagreement between two factor orders.

    Compares the reduced chain at every sample k and, for each supplied
    (x, t), both the full-chain product matrices and the reconstructed field.
    """
    idx_a = _normalized_order(data, order_a)
    idx_b = _normalized_order(data, order_b)
    if set(idx_a) != set(idx_b):
        raise ValueError("orders must permute the same index set")
    ks = [complex(k) for k in sample_ks]
    res = 0.0
    ca = build_reduced_chain(data, idx_a)
    cb = build_reduced_chain(data, idx_b)
    for k in ks:
        res = max(res, _maxabs(eval_chain(ca, k) - eval_chain(cb, k)))
    for x, t in sample_xts:
        fa = build_full_chain(data, idx_a, x, t)
        fb = build_full_chain(data, idx_b, x, t)
        for k in ks[:3]:
            res = max(res, _maxabs(full_chain_matrix(fa, k) - full_chain_matrix(fb, k)))
        ra = reconstruct_field(data, x, t, order=idx_a)
        rb = reconstruct_field(data, x, t, order=idx_b)
        res = max(res, _maxabs(ra - rb))
    return res


def _maxabs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.flags.writeable = False
    return out
