"""Yang-Baxter and reflection maps on polarizations, and transfer maps.

The two-soliton collision acts on a pair of polarizations through rank-one
updates whose coefficients depend on the spectral parameters; a boundary
bounce acts on a single polarization and sends its parameter k to -k*.
Both are realized here as maps on tuples of extended points (p, k), so the
parametric bookkeeping of every composite equation is automatic: each factor
reads the parameters currently sitting in its slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, PoleError, ValidationError
from .soldata import (
    AXIS_TOL,
    PAIR_POLE_TOL,
    BoundarySpec,
    Polarization,
    projective_distance,
)


@dataclass(frozen=True, eq=False)
class ExtendedPoint:
    """Polarization together with its spectral parameter, off the imaginary axis."""

    p: Polarization
    k: complex

    def __post_init__(self):
        k = complex(self.k)
        if abs(k.real) <= AXIS_TOL:
            raise DomainError(f"imaginary axis: parameter {k} has |Re k| <= {AXIS_TOL}")
        object.__setattr__(self, "k", k)


def yb_map(
    k1: complex, k2: complex, p1: Polarization, p2: Polarization
) -> Tuple[Polarization, Polarization]:
    """Two-soliton collision map on a pair of polarizations.

    p1' = (I + ((k1*-k2)/(k1*-k2*) - 1) P2) p1,
    p2' = (I + ((k2-k1*)/(k2-k1) - 1) P1) p2,
    with P the orthogonal projector on a polarization.
    """
    k1, k2 = complex(k1), complex(k2)
    if abs(k1 - k2) < PAIR_POLE_TOL:
        raise PoleError(f"collision factors are singular for k1={k1} ~ k2={k2}")
    mu = (k1.conjugate() - k2) / (k1.conjugate() - k2.conjugate())
    nu = (k2 - k1.conjugate()) / (k2 - k1)
    a1, a2 = p1.p, p2.p
    b1 = a1 + (mu - 1.0) * np.vdot(a2, a1) * a2
    b2 = a2 + (nu - 1.0) * np.vdot(a1, a2) * a1
    return Polarization(b1), Polarization(b2)


# --- in-place steps on a list of extended points -------------------------------


def _collide(state: list, i: int, j: int) -> None:
    """Collide slots i and j in place; the parameters ride along unchanged."""
    a, b = state[i], state[j]
    try:
        q1, q2 = yb_map(a.k, b.k, a.p, b.p)
    except PoleError as exc:
        raise PoleError(f"pair ({i}, {j}) with parameters ({a.k}, {b.k}): {exc}") from exc
    state[i], state[j] = ExtendedPoint(q1, a.k), ExtendedPoint(q2, b.k)


def _bounce(state: list, j: int, spec: Optional[BoundarySpec]) -> None:
    """Bounce slot j off the boundary in place; None is the identity boundary."""
    if spec is not None:
        state[j] = reflection_map(state[j].k, state[j].p, spec)


def _state(*pairs) -> tuple:
    return tuple(ExtendedPoint(p, k) for p, k in pairs)


def _slot_residual(a: Sequence[ExtendedPoint], b: Sequence[ExtendedPoint]) -> float:
    for x, y in zip(a, b):
        if x.k != y.k:
            raise ValidationError(
                f"parameter mismatch between composite sides: {x.k} vs {y.k}"
            )
    return max(projective_distance(x.p, y.p) for x, y in zip(a, b))


def ybe_residual(k1, k2, k3, p1, p2, p3) -> float:
    """Max slotwise projective distance between the two triple-collision orders."""
    state = _state((p1, k1), (p2, k2), (p3, k3))
    lhs, rhs = list(state), list(state)
    for i, j in ((1, 2), (0, 2), (0, 1)):
        _collide(lhs, i, j)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        _collide(rhs, i, j)
    return _slot_residual(lhs, rhs)


def reversibility_residual(k1, k2, p1, p2) -> float:
    """Distance of the collide-then-collide-back round trip from the identity."""
    state = _state((p1, k1), (p2, k2))
    trip = list(state)
    _collide(trip, 0, 1)
    _collide(trip, 1, 0)
    return _slot_residual(trip, state)


# --- reflection maps -----------------------------------------------------------


def reflection_map(k: complex, p: Polarization, spec: BoundarySpec) -> ExtendedPoint:
    """Boundary bounce (p, k) -> (p breve, -k*).

    p breve = (I + (k-k*)/(k+k*) * p p^dag) m(k) p; undefined for k on the
    imaginary axis.
    """
    k = complex(k)
    if abs(k.real) <= AXIS_TOL:
        raise DomainError(f"imaginary axis: reflection undefined at k={k}")
    m = spec.small_m(k, p.n)
    q = m @ p.p
    coeff = (k - k.conjugate()) / (k + k.conjugate())
    out = q + coeff * np.vdot(p.p, q) * p.p
    return ExtendedPoint(Polarization(out), -k.conjugate())


def reflection_pair_safe(k1: complex, k2: complex) -> bool:
    """All collision denominators of the two-soliton reflection identity are safe."""
    k1, k2 = complex(k1), complex(k2)
    pairs = (
        (k1, k2),
        (-k2.conjugate(), k1),
        (-k1.conjugate(), k2),
        (-k2.conjugate(), -k1.conjugate()),
    )
    off_axis = min(abs(k1.real), abs(k2.real)) > AXIS_TOL
    return off_axis and all(abs(a - b) >= PAIR_POLE_TOL for a, b in pairs)


def reflection_equation_residual(k1, k2, p1, p2, spec: BoundarySpec) -> float:
    """Residual of the two orderings of two bounces and two collisions.

    Raises PoleError when the parameter configuration is unsafe; random
    drivers treat that as a resample signal.
    """
    k1, k2 = complex(k1), complex(k2)
    if not reflection_pair_safe(k1, k2):
        raise PoleError(f"unsafe reflection configuration for k1={k1}, k2={k2}")
    state = _state((p1, k1), (p2, k2))
    lhs, rhs = list(state), list(state)
    _collide(lhs, 0, 1)
    _bounce(lhs, 1, spec)
    _collide(lhs, 1, 0)
    _bounce(lhs, 0, spec)
    _bounce(rhs, 0, spec)
    _collide(rhs, 0, 1)
    _bounce(rhs, 1, spec)
    _collide(rhs, 1, 0)
    return _slot_residual(lhs, rhs)


def involution_residual(k, p: Polarization, spec: BoundarySpec) -> float:
    """Distance of the double bounce from the identity; parameter must return exactly."""
    first = reflection_map(k, p, spec)
    second = reflection_map(first.k, first.p, spec)
    if second.k != complex(k):
        raise ValidationError(f"double reflection moved the parameter: {second.k} != {k}")
    return projective_distance(second.p, p)


# --- transfer maps -------------------------------------------------------------


def transfer_map(
    j: int,
    state: Sequence[ExtendedPoint],
    b_plus: Optional[BoundarySpec],
    b_minus: Optional[BoundarySpec],
) -> tuple:
    """Apply the j-th transfer composition to a state of N >= 2 extended points.

    Soliton j collides out, bounces off b_plus, collides through the others,
    bounces off b_minus and collides back; None is the identity boundary.
    """
    state = list(state)
    N = len(state)
    if N < 2:
        raise ValidationError("transfer maps need at least two sites")
    j = int(j)
    if not 0 <= j < N:
        raise ValidationError(f"transfer index {j} outside 0..{N-1}")
    for m in range(j - 1, -1, -1):
        _collide(state, m, j)
    _bounce(state, j, b_plus)
    for m in range(N):
        if m != j:
            _collide(state, j, m)
    _bounce(state, j, b_minus)
    for m in range(N - 1, j, -1):
        _collide(state, m, j)
    return tuple(state)


def transfer_commutator_residual(
    j: int,
    l: int,
    state: Sequence[ExtendedPoint],
    b_plus: Optional[BoundarySpec],
    b_minus: Optional[BoundarySpec],
) -> float:
    """Max slotwise distance between T_j T_l and T_l T_j on the given state."""
    a = transfer_map(j, transfer_map(l, state, b_plus, b_minus), b_plus, b_minus)
    b = transfer_map(l, transfer_map(j, state, b_plus, b_minus), b_plus, b_minus)
    return _slot_residual(a, b)


def s_twist_residual(k1, k2, p1: Polarization, p2: Polarization) -> float:
    """Residual of S1 S2 R12 S1 S2 = R21 with S(p, k) = (p, -k*)."""
    state = _state((p1, k1), (p2, k2))
    lhs = [ExtendedPoint(e.p, -e.k.conjugate()) for e in state]
    _collide(lhs, 0, 1)
    lhs = [ExtendedPoint(e.p, -e.k.conjugate()) for e in lhs]
    rhs = list(state)
    _collide(rhs, 1, 0)
    return _slot_residual(lhs, rhs)
