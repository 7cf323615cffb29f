"""Half-line multi-soliton data via the mirror-image construction.

A half-line N-soliton field with an integrable boundary is the restriction to
x >= 0 of a 2N-soliton field whose second half of spectral data mirrors the
first: k_{j+N} = -k_j* and beta_j beta_{j+N}^dag = M(k_j*) A_{j+N}, where
A_{j+N} packages the residue of the inverse chain at k_{j+N}.  The coupled
constraints are solved by a descending recursion that consumes only
previously built mirror factors; the real norming vectors then recover
beta_{j+N} through one linear solve per soliton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .dressing import (
    ChainFactor,
    ReducedChain,
    _blaschke,
    _dagger_apply,
    build_reduced_chain,
    reconstruct_field,
)
from .errors import DegeneracyError, DomainError, PoleError, ValidationError
from .soldata import (
    AXIS_TOL,
    POLE_EVAL_TOL,
    BoundarySpec,
    NormingVector,
    SolitonData,
    _frozen,
    projective_distance,
)

#: Relative constraint residual a solved or stored dataset must meet.
CONSTRAINT_TOL = 1e-8

#: Condition-number guard for the final norming-vector solves.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class HalfLineData:
    """Solved 2N-point dataset: N real solitons plus their mirror images."""

    real_data: SolitonData
    mirror_data: SolitonData
    spec: BoundarySpec
    combined: SolitonData

    @property
    def N(self) -> int:
        return self.real_data.N

    @property
    def n(self) -> int:
        return self.real_data.n


def check_halfline_real_data(data: SolitonData) -> None:
    """Real solitons must move toward the boundary: u_j > 0, strictly increasing."""
    us = [pt.u for pt, _ in data.points]
    for j, u in enumerate(us):
        if abs(u) <= AXIS_TOL:
            raise DomainError(
                f"imaginary axis: point {j} has u = {u}; its mirror pole collides"
            )
        if u < 0:
            raise ValidationError(f"point {j}: half-line data needs u > 0, got {u}")
    if any(b <= a for a, b in zip(us, us[1:])):
        raise ValidationError(f"u values must be strictly increasing, got {us}")


def _pole_prefactor(ks: np.ndarray, j: int) -> complex:
    """prod_{i != j} (k_j - k_i)/(k_j - k_i*), accumulated in log space."""
    kj = ks[j]
    acc = 0.0 + 0.0j
    for i, ki in enumerate(ks):
        if i == j:
            continue
        den = kj - ki.conjugate()
        if abs(den) < POLE_EVAL_TOL:
            raise PoleError(f"pole collision between k[{j}] and conj(k[{i}])")
        acc += np.log((kj - ki) / den)
    return complex(np.exp(acc))


def a_matrix(j: int, data: SolitonData, chain: Optional[ReducedChain] = None) -> np.ndarray:
    """Residue matrix of the inverse chain at k_j, in factored form.

    A_j = prod_{i != j} ((k_j-k_i)/(k_j-k_i*)) *
          d^-1_{M-1} ... d^-1_{j+1} * P_j * d^-1_{j-1} ... d^-1_0, all at k_j,
    with factors from the canonical-order chain.  Rank one by construction.
    """
    j = int(j)
    if chain is None:
        chain = build_reduced_chain(data, None)
    if chain.order != tuple(range(data.N)):
        raise ValidationError("a_matrix requires the canonical-order chain")
    kj = data.points[j][0].k
    pref = _pole_prefactor(data.ks, j)
    left = np.eye(data.n, dtype=np.complex128)
    for m in range(data.N - 1, j, -1):
        left = left @ chain.factors[m].matrix_inv(kj)
    right = np.eye(data.n, dtype=np.complex128)
    for m in range(j - 1, -1, -1):
        right = right @ chain.factors[m].matrix_inv(kj)
    d = chain.factors[j].direction
    return pref * (left @ np.outer(d, d.conj()) @ right)


def solve_mirror_norming(real_data: SolitonData, spec: BoundarySpec) -> HalfLineData:
    """Solve the coupled mirror constraints by the descending recursion.

    For j = N..1 the direction of mirror factor j+N comes from
    v = [M(k_j*) c_{j+N} G]^{-1} beta_j with G the already-built mirror
    inverse factors at k_{j+N}; afterwards each beta_{j+N} is recovered from
    d^dag_{1..j+N-1}(k_{j+N}) beta_{j+N} = xi_{j+N}.  Deterministic.
    """
    check_halfline_real_data(real_data)
    n, N = real_data.n, real_data.N
    ks = np.concatenate([real_data.ks, -real_data.ks.conj()])

    # directions are filled right to left; xi keeps the solve scale
    mirror_dirs: List[Optional[np.ndarray]] = [None] * N
    mirror_xis: List[Optional[np.ndarray]] = [None] * N
    for j in range(N - 1, -1, -1):
        mj = N + j
        kmj = ks[mj]
        pref = _pole_prefactor(ks, mj)
        minv = spec.big_m_inv(ks[j].conjugate(), n)
        w = minv @ real_data.points[j][1].beta / pref
        # apply G^{-1} = d_{mj+1} ... d_{2N-1} at k_mj, rightmost factor first
        for m in range(2 * N - 1, mj, -1):
            d = mirror_dirs[m - N]
            f = _blaschke(ks[m], kmj)
            w = w + (f - 1.0) * np.vdot(d, w) * d
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            raise DegeneracyError(f"mirror direction for index {mj} collapsed")
        mirror_dirs[j] = w / nw
        mirror_xis[j] = w / nw**2

    real_chain = build_reduced_chain(real_data, None)
    all_factors = list(real_chain.factors) + [
        ChainFactor(ks[N + j], _frozen(mirror_dirs[j])) for j in range(N)
    ]

    mirror_points = []
    for j in range(N):
        mj = N + j
        mat = np.eye(n, dtype=np.complex128)
        for m in range(mj):
            mat = mat @ all_factors[m].matrix(ks[mj])
        adag = mat.conj().T
        cond = float(np.linalg.cond(adag))
        if not math.isfinite(cond) or cond > CONDITION_LIMIT:
            raise DegeneracyError(
                f"norming-vector solve for index {mj} is ill conditioned ({cond:.3e})"
            )
        beta = np.linalg.solve(adag, mirror_xis[j])
        mirror_points.append(
            (real_data.points[j][0].mirror(), NormingVector(beta))
        )

    mirror_data = SolitonData(n, tuple(mirror_points))
    combined = SolitonData(n, real_data.points + mirror_data.points)
    hl = HalfLineData(real_data, mirror_data, spec, combined)
    residual = mirror_constraint_residual(hl)
    if residual > CONSTRAINT_TOL:
        raise DegeneracyError(
            f"mirror constraint residual {residual:.3e} exceeds {CONSTRAINT_TOL}"
        )
    return hl


def mirror_constraint_residual(hl: HalfLineData) -> float:
    """max_j || beta_j beta_{j+N}^dag - M(k_j*) A_{j+N} ||_inf / (|beta_j| |beta_{j+N}|).

    Relative to the size of beta_j beta_{j+N}^dag, so the residual does not
    shrink with the mirror |beta|, which falls with N.
    """
    N, n = hl.N, hl.n
    chain = build_reduced_chain(hl.combined, None)
    res = 0.0
    for j in range(N):
        nv_r = hl.real_data.points[j][1]
        nv_m = hl.mirror_data.points[j][1]
        lhs = np.outer(nv_r.beta, nv_m.beta.conj())
        kjc = hl.real_data.points[j][0].k.conjugate()
        rhs = hl.spec.big_m(kjc, n) @ a_matrix(N + j, hl.combined, chain)
        res = max(res, float(np.max(np.abs(lhs - rhs))) / (nv_r.norm * nv_m.norm))
    return res


def mirror_polarization_residual(hl: HalfLineData) -> float:
    """Mirror-symmetry of intermediate polarizations, in projective distance.

    Checks, for every j, that the mirror chain direction equals m(k_j) times
    the matching real-soliton polarization for both index patterns: the
    canonical prefix (mirror factor direction itself) and the all-real prefix.
    """
    N, n = hl.N, hl.n
    combined_chain = build_reduced_chain(hl.combined, None)
    real_chain = build_reduced_chain(hl.real_data, None)
    res = 0.0
    for j in range(N):
        kj = hl.real_data.points[j][0].k
        kmj = -kj.conjugate()
        m = hl.spec.small_m(kj, n)

        # canonical-prefix pattern: direction of the mirror factor itself
        lhs_a = combined_chain.factors[N + j].direction
        sub = build_reduced_chain(hl.real_data, range(j + 1, N))
        g = _dagger_apply(sub.factors, kj, hl.real_data.points[j][1].beta)
        res = max(res, projective_distance(lhs_a, _unit(m @ g)))

        # all-real-prefix pattern: real chain dagger applied to the mirror beta
        lhs_b = _dagger_apply(
            real_chain.factors, kmj, hl.mirror_data.points[j][1].beta
        )
        others = [i for i in range(N) if i != j]
        sub_b = build_reduced_chain(hl.real_data, others)
        g_b = _dagger_apply(sub_b.factors, kj, hl.real_data.points[j][1].beta)
        res = max(res, projective_distance(_unit(lhs_b), _unit(m @ g_b)))
    return res


def halfline_field(hl: HalfLineData, x, t):
    """Field of the combined 2N-soliton solution, restricted to x >= 0."""
    xs = np.asarray(x, dtype=np.float64)
    if np.any(xs < 0.0):
        raise DomainError("half-line field is defined for x >= 0 only")
    return reconstruct_field(hl.combined, xs, t)


def _unit(vec: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        raise DegeneracyError("zero vector has no direction")
    return vec / nrm
