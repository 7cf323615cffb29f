"""Yang-Baxter and reflection maps on polarizations, and transfer maps.

The two-soliton collision acts on a pair of polarizations through rank-one
updates whose coefficients depend on the spectral parameters; a boundary
bounce acts on a single polarization and sends its parameter k to -k*.

Both act on a stacked state of S samples with the same number of slots: P,
an (S, slots, n) array of unit vectors, and K, the (S, slots) array of their
spectral parameters.  Two in-place steps, `_collide` and `_bounce`, make
one rank-one update (`_pull`) over all samples at once, so the parametric
bookkeeping of every composite is automatic: each step reads the parameters
currently sitting in its slots.  Each composite is written once over the
stacked state.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, PoleError, ValidationError
from .soldata import (
    AXIS_TOL,
    PAIR_POLE_TOL,
    BoundarySpec,
)


def _check_parameters(K) -> None:
    """Raise DomainError for the first parameter on the imaginary axis, then
    ValidationError for the first non-finite one."""
    bad = np.abs(np.ravel(K).real) <= AXIS_TOL
    if bad.any():
        k = complex(np.ravel(K)[np.argmax(bad)])
        raise DomainError(f"imaginary axis: parameter {k} has |Re k| <= {AXIS_TOL}")
    bad = ~np.isfinite(np.ravel(K))
    if bad.any():
        k = complex(np.ravel(K)[np.argmax(bad)])
        raise ValidationError(f"spectral parameter {k} is not finite")


# --- the stacked state ---------------------------------------------------------


def _dot(a, b):
    """a^dag b over the last axis."""
    return (a.conj() * b).sum(-1)


def _unit(v):
    return v / np.sqrt((v.conj() * v).real.sum(-1, keepdims=True))


def _pull(a, b, w):
    """The update step of both maps: a + w b per sample, renormalised."""
    return _unit(a + w[:, None] * b)


def _collide(P, K, i: int, j: int) -> None:
    """Collide slots i and j of every sample in place; the parameters ride along.

    p_i' = (I + (mu - 1) P_j) p_i with mu = (k_i* - k_j)/(k_i* - k_j*), and
    p_j' = (I + (nu - 1) P_i) p_j with nu = (k_j - k_i*)/(k_j - k_i), with P
    the orthogonal projector on a polarization; both are renormalised.
    """
    k1, k2 = K[:, i], K[:, j]
    bad = np.abs(k1 - k2) < PAIR_POLE_TOL
    if bad.any():
        a, b = complex(k1[np.argmax(bad)]), complex(k2[np.argmax(bad)])
        raise PoleError(f"pair ({i}, {j}) with parameters ({a}, {b}): "
                        f"collision factors are singular for k1={a} ~ k2={b}")
    k1c = k1.conj()
    mu = (k1c - k2) / (k1c - k2.conj())
    nu = (k2 - k1c) / (k2 - k1)
    a1, a2 = P[:, i], P[:, j]
    c = _dot(a2, a1)
    P[:, i], P[:, j] = _pull(a1, a2, (mu - 1.0) * c), _pull(a2, a1, (nu - 1.0) * c.conj())


def _small_ms(specs: Sequence[BoundarySpec], k, n: int) -> np.ndarray:
    """(S, n, n) stack of each sample's m at its parameter k.

    The parameters are checked sample by sample, in the order a bounce needs
    them: off the imaginary axis first, then whatever the spec's m checks.
    """
    if len(specs) != len(k):
        raise ValidationError(f"{len(specs)} boundary specs for {len(k)} samples")
    ms = []
    for spec, kk in zip(specs, k.tolist()):
        if abs(kk.real) <= AXIS_TOL:
            raise DomainError(f"imaginary axis: reflection undefined at k={kk}")
        ms.append(spec.small_m(kk, n))
    return np.array(ms)


def _bounce(P, K, j: int, ms) -> None:
    """Bounce slot j of every sample off the boundary in place; ms None is the identity.

    p' = (I + (k - k*)/(k + k*) p p^dag) m(k) p, renormalised, and k' = -k*,
    with ms the stack of m(k) at each sample's current k (see `_small_ms`).

    It is the first slot of the collision of the mirror image (m(k) p, -k*)
    with (p, k) (Caudrelier and Zhang, Nonlinearity 2014): (k - k*)/(k + k*) is
    that collision's mu - 1, formed directly, as mu - 1 would move last bits.
    """
    if ms is None:
        return
    k, p = K[:, j], P[:, j]
    q = np.einsum("sab,sb->sa", ms, p)
    P[:, j] = _pull(q, p, (k - k.conj()) / (k + k.conj()) * _dot(p, q))
    K[:, j] = -k.conj()


def projective_distances(a, b) -> np.ndarray:
    """`soldata.projective_distance` over the last axis of two stacks of vectors."""
    a, b = _unit(a), _unit(b)
    dist = np.fmin(1.0, np.linalg.norm(b - a * _dot(a, b)[..., None], axis=-1))
    # one complex line only: the distance vanishes identically
    return dist if a.shape[-1] > 1 else np.zeros_like(dist)


def _slot_residual(Pa, Ka, Pb, Kb) -> np.ndarray:
    """Per-sample max slotwise distance between two states with equal parameters."""
    bad = np.argwhere(Ka != Kb)
    if bad.size:
        a, b = complex(Ka[tuple(bad[0])]), complex(Kb[tuple(bad[0])])
        raise ValidationError(f"parameter mismatch between composite sides: {a} vs {b}")
    return projective_distances(Pa, Pb).max(axis=1)


# --- Yang-Baxter maps ----------------------------------------------------------


def yb_schedule(P, K, schedule) -> np.ndarray:
    """Collide the slot pairs (i, j) of schedule in order on a copy of P; returns it."""
    P = P.copy()
    for i, j in schedule:
        _collide(P, K, i, j)
    return P


def ybe_residuals(P, K) -> np.ndarray:
    """Per-sample max slotwise distance between the two triple-collision orders."""
    _check_parameters(K)
    lhs = yb_schedule(P, K, ((1, 2), (0, 2), (0, 1)))
    rhs = yb_schedule(P, K, ((0, 1), (0, 2), (1, 2)))
    return _slot_residual(lhs, K, rhs, K)


def reversibility_residuals(P, K) -> np.ndarray:
    """Per-sample distance of the collide-then-collide-back round trip from the identity."""
    _check_parameters(K)
    return _slot_residual(yb_schedule(P, K, ((0, 1), (1, 0))), K, P, K)


def s_twist_residuals(P, K) -> np.ndarray:
    """Per-sample residual of S1 S2 R12 S1 S2 = R21 with S(p, k) = (p, -k*)."""
    _check_parameters(K)
    twisted = -K.conj()
    lhs = yb_schedule(P, twisted, ((0, 1),))
    rhs = yb_schedule(P, K, ((1, 0),))
    return _slot_residual(lhs, -twisted.conj(), rhs, K)


# --- reflection maps -----------------------------------------------------------


def reflection_maps(P, K, specs: Sequence[BoundarySpec]) -> tuple:
    """Bounce every slot of every sample off its sample's boundary, on copies;
    returns the new (P, K).  (p, k) -> (p breve, -k*) as `_bounce` writes it;
    undefined for k on the imaginary axis."""
    P, K = P.copy(), K.copy()
    for j in range(K.shape[1]):
        _bounce(P, K, j, _small_ms(specs, K[:, j], P.shape[-1]))
    return P, K


def reflection_equation_residuals(P, K, specs: Sequence[BoundarySpec]) -> np.ndarray:
    """Per-sample residual of the two orderings of two bounces and two collisions.

    specs holds each sample's boundary.  The four collisions raise PoleError
    where their pairs (k1, k2), (-k2*, k1), (-k1*, k2), (-k2*, -k1*) are singular.
    """
    _check_parameters(K)
    n = P.shape[-1]
    m1, m2 = _small_ms(specs, K[:, 0], n), _small_ms(specs, K[:, 1], n)
    (Pl, Kl), (Pr, Kr) = (P.copy(), K.copy()), (P.copy(), K.copy())
    _collide(Pl, Kl, 0, 1)
    _bounce(Pl, Kl, 1, m2)
    _collide(Pl, Kl, 1, 0)
    _bounce(Pl, Kl, 0, m1)
    _bounce(Pr, Kr, 0, m1)
    _collide(Pr, Kr, 0, 1)
    _bounce(Pr, Kr, 1, m2)
    _collide(Pr, Kr, 1, 0)
    return _slot_residual(Pl, Kl, Pr, Kr)


def involution_residuals(P, K, specs: Sequence[BoundarySpec]) -> np.ndarray:
    """Per-sample distance of the double bounce of one-slot states from the identity.

    specs holds each sample's boundary; every parameter must return exactly.
    """
    Q, L = reflection_maps(*reflection_maps(P, K, specs), specs)
    moved = L[:, 0] != K[:, 0]
    if moved.any():
        s = np.argmax(moved)
        raise ValidationError(
            f"double reflection moved the parameter: {complex(L[s, 0])} != {complex(K[s, 0])}"
        )
    return projective_distances(Q[:, 0], P[:, 0])


# --- transfer maps -------------------------------------------------------------


def _transfer(P, K, j: int, b_plus, b_minus) -> None:
    """The j-th transfer composition of every sample, in place; a boundary
    slot holds one spec per sample, or None for the identity boundary."""
    N = K.shape[1]
    if N < 2:
        raise ValidationError("transfer maps need at least two sites")
    n = P.shape[-1]
    for m in range(j - 1, -1, -1):
        _collide(P, K, m, j)
    _bounce(P, K, j, None if b_plus is None else _small_ms(b_plus, K[:, j], n))
    for m in range(N):
        if m != j:
            _collide(P, K, j, m)
    _bounce(P, K, j, None if b_minus is None else _small_ms(b_minus, K[:, j], n))
    for m in range(N - 1, j, -1):
        _collide(P, K, m, j)


def transfer_commutators(
    P,
    K,
    b_plus: Optional[Sequence[BoundarySpec]],
    b_minus: Optional[Sequence[BoundarySpec]],
) -> np.ndarray:
    """(N(N-1)/2, S): row p is the per-sample max slotwise distance between
    T_j T_l and T_l T_j for the p-th site pair j < l, in lexicographic order.

    Every T_l P is computed first; then each T_j runs once over the stack of
    the other sites' T_l P, so a state takes 2N transfer maps, not four per
    pair.  b_plus and b_minus each hold one boundary spec per sample, or are
    None for the identity boundary.
    """
    S, N = K.shape
    single = []  # T_l P and its parameters, by site l
    for l in range(N):
        single.append((P.copy(), K.copy()))
        _transfer(*single[l], l, b_plus, b_minus)
    tiled = [None if b is None else tuple(b) * (N - 1) for b in (b_plus, b_minus)]
    both = {}  # (j, l) -> T_j T_l P and its parameters
    for j in range(N):
        others = [l for l in range(N) if l != j]
        Q, L = (np.concatenate(a) for a in zip(*[single[l] for l in others]))
        _transfer(Q, L, j, *tiled)
        for i, l in enumerate(others):
            both[j, l] = Q[i * S:(i + 1) * S], L[i * S:(i + 1) * S]
    pairs = [(j, l) for j in range(N) for l in range(j + 1, N)]
    Pa, Ka = (np.concatenate(a) for a in zip(*[both[j, l] for j, l in pairs]))
    Pb, Kb = (np.concatenate(a) for a in zip(*[both[l, j] for j, l in pairs]))
    return _slot_residual(Pa, Ka, Pb, Kb).reshape(len(pairs), S)
