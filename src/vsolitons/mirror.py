"""Half-line multi-soliton data via the mirror-image construction.

A half-line N-soliton field with an integrable boundary is the restriction to
x >= 0 of a 2N-soliton field whose second half of spectral data mirrors the
first: k_{j+N} = -k_j* and beta_j beta_{j+N}^dag = M(k_j*) A_{j+N}, where
A_{j+N} packages the residue of the inverse chain at k_{j+N}.  The coupled
constraints are solved by a descending recursion that consumes only
previously built mirror factors; every beta_{j+N} then follows from one
chain application, as each factor obeys d(k)^-1 = d(k*)^dag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .asymptotics import check_velocity_ordered
from .dressing import (_blaschke_product, _chain_apply, _dressed_beta, _unit, build_reduced_chain,
                       reconstruct_field)
from .errors import DegeneracyError, DomainError, ValidationError
from .soldata import (
    AXIS_TOL,
    BoundarySpec,
    NormingVector,
    SolitonData,
    _vector_norm,
    boundary_stack,
    projective_distance,
)

#: Relative constraint residual a solved or stored dataset must meet.
CONSTRAINT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class HalfLineData:
    """Solved 2N-point dataset: N real solitons plus their mirror images."""

    real_data: SolitonData
    mirror_data: SolitonData
    spec: BoundarySpec

    @property
    def N(self) -> int:
        return self.real_data.N

    @property
    def n(self) -> int:
        return self.real_data.n

    @cached_property
    def combined(self) -> SolitonData:
        """The 2N points, real first, derived from the two halves.  It starts
        with the reduced chains the real half has built: an order of real
        indices names the same points in both."""
        data = SolitonData(self.n, self.real_data.points + self.mirror_data.points)
        data._chains.update(self.real_data._chains)
        return data

    @cached_property
    def constraint_residual(self) -> float:
        """mirror_constraint_residual of this dataset, computed at most once.

        The gate of solve_mirror_norming and parse_halfline computes it; the
        checks that report it read it back.  A changed dataset is a new object
        with its own value.
        """
        return mirror_constraint_residual(self)


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
    check_velocity_ordered(data)


def a_matrix(j: int, data: SolitonData, chain) -> np.ndarray:
    """Residue matrix of the inverse chain at k_j, in factored form.

    A_j = prod_{i != j} ((k_j-k_i)/(k_j-k_i*)) *
          d^-1_{M-1} ... d^-1_{j+1} * P_j * d^-1_{j-1} ... d^-1_0, all at k_j,
    with factors from the canonical-order chain of the data.  As
    d^-1(k) = d(k*)^dag, that is pref * (L^dag z_j)(R z_j)^dag with
    L = d_{j+1} ... d_{M-1} and R = d_0 ... d_{j-1} at k_j*: rank one by
    construction.
    """
    j = int(j)
    kj = data.points[j][0].k
    kjc = kj.conjugate()
    z = chain[j][1][:, 0]
    left = _chain_apply(chain[j + 1 :], kjc, z, dagger=True)
    right = _chain_apply(chain[:j], kjc, z)
    ks = data.ks
    return _blaschke_product((*ks[:j], *ks[j + 1 :]), kj) * np.outer(left, right.conj())


def solve_mirror_norming(real_data: SolitonData, spec: BoundarySpec) -> HalfLineData:
    """Solve the coupled mirror constraints by the descending recursion.

    For j = N..1 the direction of mirror factor j+N comes from
    v = [M(k_j*) c_{j+N} G]^{-1} beta_j with G the already-built mirror
    inverse factors at k_{j+N}; afterwards each beta_{j+N} solves
    d^dag_{1..j+N-1}(k_{j+N}) beta_{j+N} = xi_{j+N}.  As d(k)^-1 = d(k*)^dag
    for every factor, beta_{j+N} = d_{1..j+N-1}(k_{j+N}*) xi_{j+N}: one chain
    application, no matrix formed or inverted.  A relative constraint residual
    above CONSTRAINT_TOL, or a nan one, raises DegeneracyError.  Deterministic.
    """
    check_halfline_real_data(real_data)
    n, N = real_data.n, real_data.N
    ks = np.concatenate([real_data.ks, -real_data.ks.conj()])

    # mirror factors are built right to left
    mirror, xis = [], []
    for j in range(N - 1, -1, -1):
        mj = N + j
        pref = _blaschke_product((*ks[:mj], *ks[mj + 1 :]), ks[mj])
        w = spec.big_m_inv(ks[j].conjugate(), n) @ real_data.points[j][1].beta / pref
        # G^{-1} = d_{mj+1} ... d_{2N-1} at k_mj
        w = _chain_apply(mirror, ks[mj], w)
        nw = _vector_norm(w)
        if nw == 0.0:
            raise DegeneracyError(f"mirror direction for index {mj} collapsed")
        z = (w / nw)[:, None]
        mirror.insert(0, (ks[mj], z, z.conj()))
        xis.insert(0, w / nw**2)

    chain = build_reduced_chain(real_data) + tuple(mirror)
    mirror_points = [
        (pt.mirror(), NormingVector(_chain_apply(chain[: N + j], ks[N + j].conjugate(), xi)))
        for j, ((pt, _), xi) in enumerate(zip(real_data.points, xis))
    ]

    hl = HalfLineData(real_data, SolitonData(n, tuple(mirror_points)), spec)
    residual = hl.constraint_residual
    if not residual <= CONSTRAINT_TOL:  # a nan residual fails too
        raise DegeneracyError(
            f"mirror constraint residual {residual:.3e} exceeds {CONSTRAINT_TOL}"
        )
    return hl


def mirror_constraint_residual(hl: HalfLineData) -> float:
    """max_j || beta_j beta_{j+N}^dag - M(k_j*) A_{j+N} ||_inf / (|beta_j| |beta_{j+N}|).

    Relative to the size of beta_j beta_{j+N}^dag, so the residual does not
    shrink with the mirror |beta|, which falls with N.  A nan residual
    propagates.
    """
    N, n = hl.N, hl.n
    chain = build_reduced_chain(hl.combined)
    res = [0.0]
    for j in range(N):
        nv_r = hl.real_data.points[j][1]
        nv_m = hl.mirror_data.points[j][1]
        lhs = np.outer(nv_r.beta, nv_m.beta.conj())
        kjc = hl.real_data.points[j][0].k.conjugate()
        rhs = hl.spec.big_m(kjc, n) @ a_matrix(N + j, hl.combined, chain)
        res.append(float(np.max(np.abs(lhs - rhs))) / (nv_r.norm * nv_m.norm))
    return float(np.max(res))


def mirror_polarization_residual(hl: HalfLineData) -> float:
    """Mirror-symmetry of intermediate polarizations, in projective distance.

    Checks, for every j, that the mirror chain direction equals m times the
    matching real-soliton polarization for both index patterns: the
    canonical prefix (mirror factor direction itself) and the all-real prefix.
    m is the boundary's constant m, the one row of its stack, for every j.  A
    nan distance propagates.
    """
    N, n = hl.N, hl.n
    chain = build_reduced_chain(hl.combined)
    m = boundary_stack([hl.spec], n)[0]
    res = [0.0]
    for j in range(N):
        kj = hl.real_data.points[j][0].k

        # canonical-prefix pattern: direction of the mirror factor itself
        g = _dressed_beta(hl.real_data, j, range(j + 1, N))
        res.append(projective_distance(chain[N + j][1][:, 0], _unit(m @ g)))

        # all-real-prefix pattern: real chain dagger applied to the mirror beta
        beta_m = hl.mirror_data.points[j][1].beta
        lhs_b = _chain_apply(chain[:N], -kj.conjugate(), beta_m, dagger=True)
        g_b = _dressed_beta(hl.real_data, j, [i for i in range(N) if i != j])
        res.append(projective_distance(_unit(lhs_b), _unit(m @ g_b)))
    return float(np.max(res))


def halfline_field(hl: HalfLineData, x, t):
    """Field of the combined 2N-soliton solution, restricted to x >= 0."""
    xs = np.asarray(x, dtype=np.float64)
    if np.any(xs < 0.0):
        raise DomainError("half-line field is defined for x >= 0 only")
    return reconstruct_field(hl.combined, xs, t)
