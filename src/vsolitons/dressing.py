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
from .soldata import POLE_EVAL_TOL, NormingVector, SolitonData, SpectralPoint, _frozen

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


def eval_chain(chain: ReducedChain, k) -> np.ndarray:
    """Ordered product d_{i_1}(k) ... d_{i_N}(k) (identity for N = 0), one per entry of k."""
    return _chain_matrix(chain.factors, k, chain.n)


def _chain_matrix(factors, k, d: int) -> np.ndarray:
    ks = np.asarray(k, dtype=np.complex128)
    dirs = [(fac.k, fac.direction[:, None], fac.direction.conj()[:, None]) for fac in factors]
    return _chain_product(dirs, ks.reshape(-1), d)[0].reshape(ks.shape + (d, d))


def _chain_product(dirs, ks: np.ndarray, d: int) -> np.ndarray:
    """Ordered factor products at stacked points x spectral parameters.

    dirs holds (k_j, z_j, conj(z_j)) with unit directions z_j of shape (d, M);
    returns the (M, K, d, d) products F_1(k) ... F_m(k) for the K entries of ks.
    """
    m = dirs[0][1].shape[1] if dirs else 1
    out = np.broadcast_to(np.eye(d, dtype=np.complex128), (m, ks.size, d, d)).copy()
    for k0, z, zc in dirs:
        coeff = np.array([_blaschke(k0, k) for k in ks.tolist()]) - 1.0
        # out F(k) = out + (f(k) - 1) (out z) z^dag
        out += (out @ z.T[:, None, :, None]) * (coeff[:, None, None] * zc.T[:, None, None, :])
    return out


def _seed_batch(beta: np.ndarray, k: complex, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Stabilized seed exp(-i phi(x,t,k*) Sigma3) (beta; -1), scaled projectively.

    With phi = a + ib, the block with the larger exponent gets scale 1 and the
    other exp(-2|b|), so both stay representable for any exponent size;
    directions (all that enter projectors) are exact.  Component-major:
    shape (n+1, M).
    """
    ph = phase_exponent(x, t, k.conjugate())
    a, b = ph.real, ph.imag
    damp = np.exp(-2.0 * np.abs(b))
    cos, sin = np.cos(a), np.sin(a)
    neg = b < 0.0
    top_scale = np.where(neg, damp, 1.0)
    bot_scale = np.where(neg, 1.0, damp)
    out = np.empty((beta.size + 1, a.size), dtype=np.complex128)
    top = np.empty(a.size, dtype=np.complex128)
    top.real = cos * top_scale
    top.imag = -sin * top_scale
    np.multiply(beta[:, None], top, out=out[: beta.size])
    out[beta.size].real = -cos * bot_scale
    out[beta.size].imag = -sin * bot_scale
    return out


def _full_directions(data: SolitonData, idx, x: np.ndarray, t: np.ndarray):
    """Unit full-chain directions for every factor, batched over (x, t).

    Returns (k_i, z_i, conj(z_i)) with z_i component-major, shape (n+1, M).
    """
    dirs = []
    for i in idx:
        point, nv = data.points[i]
        k = point.k
        w = _seed_batch(nv.beta, k, x, t)
        for k_prev, z, zc in dirs:
            inner = (zc * w).sum(axis=0)
            inner *= _blaschke(k_prev, k).conjugate() - 1.0
            w += inner * z
        # scale guard: max |re|, |im| per point, then the 2-norm
        parts = w.view(np.float64)
        mag = np.abs(parts).max(axis=0)
        mag = np.maximum(mag[0::2], mag[1::2])
        if not mag.all():
            raise DegeneracyError("full-chain direction collapsed to zero")
        w /= mag
        sq = np.square(parts).sum(axis=0)
        w /= np.sqrt(sq[0::2] + sq[1::2])
        dirs.append((k, w, w.conj()))
    return dirs


def _field(data: SolitonData, idx, dirs, m: int) -> np.ndarray:
    """Component-major (n, M) field sum_j -2 v_j z_j[:n] conj(z_j[n])."""
    field = np.zeros((data.n, m), dtype=np.complex128)
    for i, (_, z, zc) in zip(idx, dirs):
        field += z[: data.n] * ((-2.0 * data.points[i][0].v) * zc[data.n])
    return field


def build_full_chain(data: SolitonData, order, x: float, t: float) -> FullChain:
    """Space-time dressing chain at a single point (x, t)."""
    idx = _normalized_order(data, order)
    xf = np.asarray([float(x)])
    tf = np.asarray([float(t)])
    dirs = _full_directions(data, idx, xf, tf)
    factors = tuple(ChainFactor(k, _frozen(z[:, 0])) for k, z, _ in dirs)
    return FullChain(idx, factors, data.n, float(x), float(t))


def full_chain_matrix(chain: FullChain, k) -> np.ndarray:
    """Ordered product of the full factors at k; one per entry of an array k."""
    return _chain_matrix(chain.factors, k, chain.n + 1)


#: reconstruct_field evaluates the chain over blocks of this many points.
FIELD_BLOCK = 2048


def reconstruct_field(data: SolitonData, x, t, order=None):
    """Multi-soliton field R(x,t) from the full dressing chain.

    The value is the top-right block of sum_j i(k_j - k_j*) [Sigma3, P_j];
    the theorem behind `permutation_residual` makes it independent of the
    internal factor order.  Accepts scalars or broadcastable arrays for x, t
    and returns shape broadcast(x, t).shape + (n,).
    """
    idx = _normalized_order(data, order)
    xs, ts = np.broadcast_arrays(
        np.asarray(x, dtype=np.float64), np.asarray(t, dtype=np.float64)
    )
    xf = xs.reshape(-1)
    tf = ts.reshape(-1)
    out = np.empty((xf.size, data.n), dtype=np.complex128)
    for lo in range(0, xf.size, FIELD_BLOCK):
        xb, tb = xf[lo : lo + FIELD_BLOCK], tf[lo : lo + FIELD_BLOCK]
        # unnamed, so one block's directions are freed before the next is built
        out[lo : lo + xb.size] = _field(data, idx, _full_directions(data, idx, xb, tb), xb.size).T
    return out.reshape(xs.shape + (data.n,))


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

    Compares the reduced chain at every sample k and, at the supplied (x, t),
    both the full-chain products at the first three k and the field.
    """
    idx_a = _normalized_order(data, order_a)
    idx_b = _normalized_order(data, order_b)
    if set(idx_a) != set(idx_b):
        raise ValueError("orders must permute the same index set")
    ks = np.array([complex(k) for k in sample_ks], dtype=np.complex128)
    x, t = np.array(list(sample_xts), dtype=np.float64).reshape(-1, 2).T
    ca = build_reduced_chain(data, idx_a)
    cb = build_reduced_chain(data, idx_b)
    res = _maxabs(eval_chain(ca, ks) - eval_chain(cb, ks))
    if x.size:
        da = _full_directions(data, idx_a, x, t)
        db = _full_directions(data, idx_b, x, t)
        d = data.n + 1
        res = max(res, _maxabs(_chain_product(da, ks[:3], d) - _chain_product(db, ks[:3], d)))
        res = max(res, _maxabs(_field(data, idx_a, da, x.size) - _field(data, idx_b, db, x.size)))
    return res


def _maxabs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0
