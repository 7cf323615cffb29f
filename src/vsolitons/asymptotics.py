"""Asymptotic norming constants and pairwise-collision consistency checks.

With velocities ordered (u strictly increasing), the multi-soliton field
splits as |t| grows into one-soliton profiles whose norming vectors are
dressed versions of the originals.  Intermediate spectator sets interpolate
between the in and out configurations and obey exact pairwise relations,
which `collision_pair_residuals` measures.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .dressing import _blaschke, _blaschke_product, _dressed_beta, _unit
from .errors import ValidationError
from .soldata import NormingVector, SolitonData


def check_velocity_ordered(data: SolitonData) -> None:
    """Require u_1 < u_2 < ... (distinct velocities, canonical ordering)."""
    us = [pt.u for pt, _ in data.points]
    if any(b <= a for a, b in zip(us, us[1:])):
        raise ValidationError(f"u values must be strictly increasing, got {us}")


def _spectator_tuple(j: int, spectators, N: int) -> tuple:
    sp = tuple(int(i) for i in spectators)
    if len(set(sp)) != len(sp) or not set(sp) <= set(range(N)):
        raise ValidationError(f"spectators {sp} must be distinct indices in 0..{N-1}")
    if j in sp:
        raise ValidationError(f"index {j} cannot be its own spectator")
    return sp


def intermediate_gamma(j: int, spectators, data: SolitonData) -> np.ndarray:
    """Intermediate-time norming vector for soliton j with the given spectators.

    gamma = prod_{p not in {j} u spectators} f_p(k_j*) * d^dag_spectators(k_j) beta_j.
    The product runs over the complement set; the chain is built on the
    spectator indices (any order gives the same degree factor).  Each
    (j, spectators) is built once per dataset (`data._gammas`); calls share
    the read-only array.
    """
    j = int(j)
    sp = _spectator_tuple(j, spectators, data.N)
    gamma = data._gammas.get((j, sp))
    if gamma is None:
        w = _dressed_beta(data, j, sp)
        excluded = set(sp) | {j}
        rest = [pt.k for p, (pt, _) in enumerate(data.points) if p not in excluded]
        gamma = _blaschke_product(rest, data.points[j][0].k.conjugate()) * w
        gamma.flags.writeable = False
        data._gammas[j, sp] = gamma
    return gamma


def beta_in(j: int, data: SolitonData) -> NormingVector:
    """Norming vector of soliton j in the t -> -infty profile."""
    check_velocity_ordered(data)
    return NormingVector(intermediate_gamma(j, range(j + 1, data.N), data))


def beta_out(j: int, data: SolitonData) -> NormingVector:
    """Norming vector of soliton j in the t -> +infty profile."""
    check_velocity_ordered(data)
    return NormingVector(intermediate_gamma(j, range(0, j), data))


def _xi(j: int, l: int, p_l_rho: np.ndarray, p_j_lrho: np.ndarray, data: SolitonData) -> float:
    """Positive norm ratio |gamma_{j,rho}| / |gamma_{j, l rho}| in closed form.

    Xi^2 = |f_l(k_j*)|^2 (1 + v_j v_l / |k_l - k_j|^2 * |p|^2) with
    p = p_{l,rho}^dag p_{j, l rho}, from those two unit vectors; symmetric
    under j <-> l.
    """
    kj = data.points[j][0].k
    kl = data.points[l][0].k
    flj = _blaschke(kl, kj.conjugate())
    coeff = (data.points[j][0].v * data.points[l][0].v) / abs(kl - kj) ** 2
    overlap = abs(np.vdot(p_l_rho, p_j_lrho)) ** 2
    return abs(flj) * math.sqrt(1.0 + coeff * overlap)


def collision_pair_residuals(
    j: int, l: int, spectators, data: SolitonData
) -> Tuple[float, float]:
    """(collision-relation residual, |Xi_jl - Xi_lj|) for j overtaking l.

    Requires u_j < u_l and j, l outside the spectator set.  The first entry
    is the max infinity-norm residual of the two vector relations, with the
    norm ratio taken as the positive root of its closed form; the second is
    the asymmetry of that closed form under j <-> l.  Both come from one
    build of the pair's four intermediate gammas.
    """
    j, l = int(j), int(l)
    sp = _spectator_tuple(j, spectators, data.N)
    if l in sp or l == j:
        raise ValidationError("l must be distinct from j and the spectators")
    if not data.points[j][0].u < data.points[l][0].u:
        raise ValidationError("relations assume u_j < u_l")
    kj = data.points[j][0].k
    kl = data.points[l][0].k

    p_l_rho = _unit(intermediate_gamma(l, sp, data))
    p_j_lrho = _unit(intermediate_gamma(j, sp + (l,), data))
    p_l_jrho = _unit(intermediate_gamma(l, sp + (j,), data))
    p_j_rho = _unit(intermediate_gamma(j, sp, data))

    fjl = _blaschke(kj, kl.conjugate())  # f_j(k_l*)
    flj = _blaschke(kl, kj.conjugate())  # f_l(k_j*)
    xi = _xi(j, l, p_l_rho, p_j_lrho, data)

    cj = fjl.conjugate()
    rhs_l = (cj / xi) * (p_l_rho + (cj - 1.0) * np.vdot(p_j_lrho, p_l_rho) * p_j_lrho)
    res_l = float(np.max(np.abs(p_l_jrho - rhs_l)))

    rhs_j = (flj / xi) * (p_j_lrho + (flj - 1.0) * np.vdot(p_l_rho, p_j_lrho) * p_l_rho)
    res_j = float(np.max(np.abs(p_j_rho - rhs_j)))
    return float(np.maximum(res_l, res_j)), abs(xi - _xi(l, j, p_j_rho, p_l_jrho, data))


def min_relative_velocity(data: SolitonData) -> float:
    """min_{l != j} |w_l - w_j|; scales the asymptotic error exponent."""
    ws = [pt.velocity for pt, _ in data.points]
    gaps = [abs(a - b) for i, a in enumerate(ws) for b in ws[i + 1 :]]
    return min(gaps) if gaps else math.inf
