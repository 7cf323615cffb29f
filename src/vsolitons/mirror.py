"""Half-line multi-soliton data via the mirror-image construction.

A half-line N-soliton field with an integrable boundary is the restriction to
x >= 0 of a 2N-soliton field whose second half of spectral data mirrors the
first: k_{j+N} = -k_j* and beta_j beta_{j+N}^dag = M(k_j*) A_{j+N}, where
A_{j+N} packages the residue of the inverse chain at k_{j+N}.  The coupled
constraints are solved by a descending recursion that consumes only
previously built mirror factors; the betas_{j+N} then follow from one
chain sweep, as each factor obeys d(k)^-1 = d(k*)^dag.  S same-shape
datasets, one boundary each, are solved and checked as one stack; one
dataset is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .asymptotics import check_velocity_ordered
from .dressing import (_blaschke, _chain_apply, _dressed_beta, _product, build_reduced_chain,
                       reconstruct_field)
from .errors import DegeneracyError, DomainError, ValidationError
from .soldata import (
    AXIS_TOL,
    BoundarySpec,
    NormingVector,
    SolitonData,
    SolitonStack,
    _indices,
    _scaled,
    boundary_stack,
    projective_distance,
)

#: Relative constraint residual a solved or stored dataset must meet.
CONSTRAINT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class HalfLineData:
    """Solved 2N-point dataset as halfline.json stores it: N real solitons, then their mirrors."""

    combined: SolitonData
    spec: BoundarySpec

    N = property(lambda self: self.combined.N // 2)
    n = property(lambda self: self.combined.n)

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


def a_matrix(j, data, chain) -> np.ndarray:
    """Residue matrix of the inverse chain at k_j, in factored form; (S, n, n)
    for a `SolitonStack` and its chain, and of a range of consecutive indices
    j, one row each, (R, S, n, n) (one dataset: (R, n, n)).

    A_j = prod_{i != j} ((k_j-k_i)/(k_j-k_i*)) *
          d^-1_{M-1} ... d^-1_{j+1} * P_j * d^-1_{j-1} ... d^-1_0, all at k_j,
    with factors from the canonical-order chain of the data.  As
    d^-1(k) = d(k*)^dag, that is pref * (L^dag z_j)(R z_j)^dag with
    L = d_{j+1} ... d_{M-1} and R = d_0 ... d_{j-1} at k_j*: rank one by
    construction.  The rows' L^dag z_j are one ascending sweep over the chain
    (row j joins at factor j+1) and their R z_j one descending sweep (row j
    takes factors j-1 ... 0); no factor is evaluated at its own point.
    """
    stack = data.stack
    idx = _indices(stack.N, j if isinstance(j, range) else (j,))
    rows = j if isinstance(j, range) else range(idx[0], idx[0] + 1)
    kc = stack.ks[:, rows.start : rows.stop].T.conj()  # (R, S): each row's k_j*
    z = np.array([chain[r][1] for r in rows])
    left = _chain_apply(chain[rows.start + 1 :], kc, z, dagger=True)
    right = _chain_apply(chain[: rows.stop - 1], kc[::-1], z[::-1])[::-1]
    pref = _prefactors(stack.ks, rows)
    out = pref[..., None, None] * (left[..., :, None] * right.conj()[..., None, :])
    out = out if data is stack else out[:, 0]
    return out if rows is j else out[0]


def solve_mirror_norming(real_data, spec):
    """Solve the coupled mirror constraints by the descending recursion.

    For j = N..1 the direction of mirror factor j+N comes from
    v = [M(k_j*) c_{j+N} G]^{-1} beta_j with G the already-built mirror
    inverse factors at k_{j+N}; afterwards each beta_{j+N} solves
    d^dag_{1..j+N-1}(k_{j+N}) beta_{j+N} = xi_{j+N}.  As d(k)^-1 = d(k*)^dag
    for every factor, beta_{j+N} = d_{1..j+N-1}(k_{j+N}*) xi_{j+N}: all N in one
    chain sweep, no matrix formed or inverted.  A relative constraint residual
    above CONSTRAINT_TOL, or a nan one, raises DegeneracyError.  Deterministic.

    S same-shape datasets and S boundaries are solved as one stack into S
    HalfLineData and the stack of their combined data.
    """
    one = isinstance(real_data, SolitonData)
    reals, specs = ([real_data], [spec]) if one else (real_data, spec)
    for data in reals:
        check_halfline_real_data(data)
    real = real_data.stack if one else SolitonStack(tuple(data.points for data in reals))
    N, n = real.N, reals[0].n
    ks = np.concatenate([real.ks, -real.ks.conj()], axis=1)
    prefs = _prefactors(ks, range(N, 2 * N))

    # mirror factors are built right to left; xis in that order
    mirror, xis = [], []
    for j in range(N - 1, -1, -1):
        mj = N + j
        m_inv = np.array([sp.big_m_inv(k[j].conjugate(), n) for sp, k in zip(specs, ks)])
        w = (m_inv @ real.betas[:, j, :, None])[..., 0] / prefs[j][:, None]
        # G^{-1} = d_{mj+1} ... d_{2N-1} at k_mj
        w = _chain_apply(mirror, ks[:, mj], w)
        v, nrm, size = _scaled(w)  # one pass for the direction and |w|
        if not nrm.all():
            raise DegeneracyError(f"mirror direction for index {mj} collapsed")
        z = v / nrm[:, None]
        mirror.insert(0, (ks[:, mj], z, z.conj()))
        xis.append(z / size[:, None])  # w / |w|^2

    # beta_{j+N} = d_0 ... d_{j+N-1}(k_{j+N}*) xi_{j+N}: one descending sweep, row j+N
    # joining at factor j+N-1
    chain = build_reduced_chain(real) + tuple(mirror)
    betas = _chain_apply(chain[:-1], ks[:, :N - 1:-1].T.conj(), np.array(xis))[::-1]
    nvs = NormingVector.stack(betas.transpose(1, 0, 2).reshape(-1, n))
    hls = [HalfLineData(SolitonData(n, data.points + tuple(
        (pt.mirror(), nv) for (pt, _), nv in zip(data.points, nvs[s * N:]))), sp)
        for s, (data, sp) in enumerate(zip(reals, specs))]
    combined = hls[0].combined.stack if one else SolitonStack(
        tuple(hl.combined.points for hl in hls))
    combined.chains.update(real.chains)  # an order of real indices names the same points
    for hl, residual in zip(hls, mirror_constraint_residual((hls, combined)).tolist()):
        vars(hl)["constraint_residual"] = residual  # the cached property's slot
        if not residual <= CONSTRAINT_TOL:  # a nan residual fails too
            raise DegeneracyError(
                f"mirror constraint residual {residual:.3e} exceeds {CONSTRAINT_TOL}")
    return hls[0] if one else (hls, combined)


def _prefactors(ks, rows: range) -> np.ndarray:
    """(R, S): prod_{i != j} f_i(k_j) over the (S, M) points ks of each row j."""
    others = _others(ks.shape[1], rows.start, rows.stop)
    return _product(_blaschke(ks[:, others], ks[:, rows.start : rows.stop, None])).T


#: (R, M - 1): the indices i != j of 0..M-1, ascending, for each row j of start..stop-1
_others = lru_cache(maxsize=None)(lambda M, start, stop: np.array(
    [[i for i in range(M) if i != j] for j in range(start, stop)], np.intp
).reshape(stop - start, -1))


def mirror_constraint_residual(hl):
    """max_j || beta_j beta_{j+N}^dag - M(k_j*) A_{j+N} ||_inf / (|beta_j| |beta_{j+N}|).

    Relative to the size of beta_j beta_{j+N}^dag, so the residual does not
    shrink with the mirror |beta|, which falls with N.  A nan residual
    propagates.  Of S datasets and their combined stack, as the solve gives
    them, it is an (S,) array.  The N residue matrices are one `a_matrix` call.
    """
    hls, combined = ([hl], hl.combined.stack) if isinstance(hl, HalfLineData) else hl
    N, n = hls[0].N, hls[0].n
    chain = build_reduced_chain(combined)
    betas = combined.betas.transpose(1, 0, 2)  # (2N, S, n), a row per point
    lhs = betas[:N, :, :, None] * betas[N:].conj()[:, :, None, :]
    big_m = np.array([[h.spec.big_m(k, n) for h, k in zip(hls, ks)]
                      for ks in combined.ks[:, :N].T.conj()])
    err = np.abs(lhs - big_m @ a_matrix(range(N, 2 * N), combined, chain)).max(axis=(2, 3))
    with np.errstate(over="ignore", divide="ignore"):  # past the float range: inf
        res = err / (combined.norms[:, :N] * combined.norms[:, N:]).T
    out = res.max(axis=0, initial=0.0)
    return float(out[0]) if isinstance(hl, HalfLineData) else out


def mirror_polarization_residual(hl):
    """Mirror-symmetry of intermediate polarizations, in projective distance.

    Checks, for every j, that the mirror chain direction equals m times the
    matching real-soliton polarization for both index patterns: the
    canonical prefix (mirror factor direction itself) and the all-real prefix.
    m is the boundary's constant m, the one row of its stack, for every j.  A
    nan distance propagates.  Of S datasets and their combined stack, as the
    solve gives them, it is an (S,) array.
    """
    hls, combined = ([hl], hl.combined.stack) if isinstance(hl, HalfLineData) else hl
    N, n = hls[0].N, hls[0].n
    chain = build_reduced_chain(combined)
    m = boundary_stack([h.spec for h in hls], n)
    lhs, rhs = [], []  # each pattern's two sides, for every j; compared in one pass
    for j in range(N):
        # canonical-prefix pattern: direction of the mirror factor itself
        lhs.append(chain[N + j][1])
        rhs.append(_dressed_beta(combined, j, range(j + 1, N)))
        # all-real-prefix pattern: real chain dagger applied to the mirror beta
        kb = -combined.ks[:, j].conj()
        lhs.append(_chain_apply(chain[:N], kb, combined.betas[:, N + j], dagger=True))
        rhs.append(_dressed_beta(combined, j, [i for i in range(N) if i != j]))
    # the distance is projective: neither side needs its norm
    rhs = (np.concatenate([m] * 2 * N) @ np.concatenate(rhs)[..., None])[..., 0]
    dist = projective_distance(np.concatenate(lhs), rhs).reshape(2 * N, -1)
    out = np.max([np.zeros(len(hls)), *dist], axis=0)
    return float(out[0]) if isinstance(hl, HalfLineData) else out


def halfline_field(hl: HalfLineData, x, t):
    """Field of the combined 2N-soliton solution, restricted to x >= 0."""
    xs = np.asarray(x, dtype=np.float64)
    if np.any(xs < 0.0):
        raise DomainError("half-line field is defined for x >= 0 only")
    return reconstruct_field(hl.combined, xs, t)
