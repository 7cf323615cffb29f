"""Asymptotic norming constants and pairwise-collision consistency checks.

With velocities ordered (u strictly increasing), the multi-soliton field
splits as |t| grows into one-soliton profiles whose norming vectors are
dressed versions of the originals.  Intermediate spectator sets interpolate
between the in and out configurations and obey exact pairwise relations,
which `collision_pair_residuals` measures.  It and `intermediate_gamma` take
S same-shape datasets as one `SolitonStack`; one dataset is a stack of one.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .dressing import _blaschke, _dressed_beta, _product
from .errors import ValidationError
from .soldata import NormingVector, SolitonData, _unit


def check_velocity_ordered(data) -> None:
    """Require u_1 < u_2 < ... (distinct velocities, canonical ordering) of a
    dataset, or of every sample of a `SolitonStack`, in sample order."""
    for points in data.stack.points:
        us = [pt.u for pt, _ in points]
        if any(b <= a for a, b in zip(us, us[1:])):
            raise ValidationError(f"u values must be strictly increasing, got {us}")


def _spectator_tuple(j: int, spectators, N: int) -> tuple:
    sp = tuple(int(i) for i in spectators)
    if len(set(sp)) != len(sp) or not set(sp) <= set(range(N)):
        raise ValidationError(f"spectators {sp} must be distinct indices in 0..{N-1}")
    if j in sp:
        raise ValidationError(f"index {j} cannot be its own spectator")
    return sp


def intermediate_gamma(j: int, spectators, data) -> np.ndarray:
    """Intermediate-time norming vector for soliton j with the given spectators;
    (S, n) for a `SolitonStack`.

    gamma = prod_{p not in {j} u spectators} f_p(k_j*) * d^dag_spectators(k_j) beta_j.
    The product runs over the complement set; the chain is built on the
    spectator indices (any order gives the same degree factor).  Each
    (j, spectators) is built once per stack (`SolitonStack.gammas`); calls
    share the read-only array.
    """
    j = int(j)
    stack = data.stack
    sp = _spectator_tuple(j, spectators, stack.N)
    gamma = stack.gammas.get((j, sp))
    if gamma is None:
        w = _dressed_beta(stack, j, sp)
        others = [p for p in range(stack.N) if p not in sp and p != j]
        gamma = _product(_blaschke(stack.ks[:, others], stack.ks[:, j, None].conj()))[:, None] * w
        gamma.flags.writeable = False
        stack.gammas[j, sp] = gamma
    return gamma if data is stack else gamma[0]


def beta_in(j: int, data: SolitonData) -> NormingVector:
    """Norming vector of soliton j in the t -> -infty profile."""
    check_velocity_ordered(data)
    return NormingVector(intermediate_gamma(j, range(j + 1, data.N), data))


def beta_out(j: int, data: SolitonData) -> NormingVector:
    """Norming vector of soliton j in the t -> +infty profile."""
    check_velocity_ordered(data)
    return NormingVector(intermediate_gamma(j, range(0, j), data))


def _xi(j: int, l: int, p_l_rho: np.ndarray, p_j_lrho: np.ndarray, stack) -> np.ndarray:
    """Positive norm ratio |gamma_{j,rho}| / |gamma_{j, l rho}| in closed form,
    one per sample of the stack.

    Xi^2 = |f_l(k_j*)|^2 (1 + v_j v_l / |k_l - k_j|^2 * |p|^2) with
    p = p_{l,rho}^dag p_{j, l rho}, from those two unit vectors; symmetric
    under j <-> l.
    """
    kj, kl = stack.ks[:, j], stack.ks[:, l]
    coeff = (4.0 * kj.imag * kl.imag) / abs(kl - kj) ** 2  # v = 2 Im k, exactly
    dot = abs(np.vecdot(p_l_rho, p_j_lrho))
    return abs(_blaschke(kl, kj.conj())) * np.sqrt(1.0 + coeff * dot**2)


def collision_pair_residuals(j: int, l: int, spectators, data) -> Tuple:
    """(collision-relation residual, |Xi_jl - Xi_lj| / max(Xi_jl, Xi_lj)) for j
    overtaking l; two (S,) arrays for a `SolitonStack`.

    Requires u_j < u_l and j, l outside the spectator set.  The first entry
    is the max infinity-norm residual of the two vector relations, with the
    norm ratio taken as the positive root of its closed form; the second is
    the asymmetry of that closed form under j <-> l, relative to the larger
    root, as Xi grows when the velocities close.  Both come from one build
    of the pair's four intermediate gammas.
    """
    j, l = int(j), int(l)
    stack = data.stack
    sp = _spectator_tuple(j, spectators, stack.N)
    if l in sp or l == j:
        raise ValidationError("l must be distinct from j and the spectators")
    if not all(points[j][0].u < points[l][0].u for points in stack.points):
        raise ValidationError("relations assume u_j < u_l")

    pairs = ((l, sp), (j, sp + (l,)), (l, sp + (j,)), (j, sp))
    p_l_rho, p_j_lrho, p_l_jrho, p_j_rho = _unit(np.array([
        intermediate_gamma(m, rho, stack) for m, rho in pairs]))
    xi = _xi(j, l, p_l_rho, p_j_lrho, stack)

    kj, kl = stack.ks[:, j], stack.ks[:, l]
    cj = _blaschke(kj, kl.conj()).conj()  # conj(f_j(k_l*))
    flj = _blaschke(kl, kj.conj())  # f_l(k_j*)
    res = []  # per relation: p' = (c / xi) (p + (c - 1) <q, p> q)
    for c, p, q, lhs in ((cj, p_l_rho, p_j_lrho, p_l_jrho), (flj, p_j_lrho, p_l_rho, p_j_rho)):
        rhs = (c / xi)[:, None] * (p + ((c - 1.0) * np.vecdot(q, p))[:, None] * q)
        res.append(np.max(np.abs(lhs - rhs), axis=1))
    rel = np.maximum(*res)
    xi_lj = _xi(l, j, p_j_rho, p_l_jrho, stack)
    sym = abs(xi - xi_lj) / np.maximum(xi, xi_lj)
    return (rel, sym) if data is stack else (float(rel[0]), float(sym[0]))


def min_relative_velocity(data: SolitonData) -> float:
    """min_{l != j} |w_l - w_j|; scales the asymptotic error exponent."""
    ws = [pt.velocity for pt, _ in data.points]
    gaps = [abs(a - b) for i, a in enumerate(ws) for b in ws[i + 1 :]]
    return min(gaps) if gaps else math.inf
