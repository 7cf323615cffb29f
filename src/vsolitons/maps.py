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
from typing import Dict, Sequence, Tuple

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


# --- elementary rules on extended points -------------------------------------


@dataclass(frozen=True)
class YangBaxterRule:
    """Collision rule: parameters ride along unchanged."""

    def apply(self, a: ExtendedPoint, b: ExtendedPoint):
        q1, q2 = yb_map(a.k, b.k, a.p, b.p)
        return ExtendedPoint(q1, a.k), ExtendedPoint(q2, b.k)


@dataclass(frozen=True)
class IdentityReflection:
    """Trivial boundary: fixes both the polarization and the parameter."""

    def apply(self, a: ExtendedPoint) -> ExtendedPoint:
        return a


@dataclass(frozen=True, eq=False)
class BoundaryReflection:
    """Boundary bounce (p, k) -> (p breve, -k*) for a fixed boundary spec."""

    spec: BoundarySpec

    def apply(self, a: ExtendedPoint) -> ExtendedPoint:
        return reflection_map(a.k, a.p, self.spec)


@dataclass(frozen=True)
class PairStep:
    i: int
    j: int
    rule: YangBaxterRule

    def run(self, state: list) -> None:
        try:
            state[self.i], state[self.j] = self.rule.apply(state[self.i], state[self.j])
        except PoleError as exc:
            raise PoleError(
                f"pair ({self.i}, {self.j}) with parameters "
                f"({state[self.i].k}, {state[self.j].k}): {exc}"
            ) from exc


@dataclass(frozen=True)
class SiteStep:
    j: int
    rule: object

    def run(self, state: list) -> None:
        state[self.j] = self.rule.apply(state[self.j])


@dataclass(frozen=True)
class MapChain:
    """Lazy composition of elementary steps, applied in sequence order.

    Concatenating step tuples makes composition associative by construction;
    both sides of an equation are built as chains and applied to the same
    state.
    """

    steps: tuple

    def __call__(self, state: Sequence[ExtendedPoint]) -> tuple:
        work = list(state)
        for step in self.steps:
            step.run(work)
        return tuple(work)

    def then(self, other: "MapChain") -> "MapChain":
        """Chain that applies self first, then other."""
        return MapChain(self.steps + other.steps)

    @staticmethod
    def identity() -> "MapChain":
        return MapChain(())


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
    R = YangBaxterRule()
    lhs = MapChain((PairStep(1, 2, R), PairStep(0, 2, R), PairStep(0, 1, R)))
    rhs = MapChain((PairStep(0, 1, R), PairStep(0, 2, R), PairStep(1, 2, R)))
    state = _state((p1, k1), (p2, k2), (p3, k3))
    return _slot_residual(lhs(state), rhs(state))


def reversibility_residual(k1, k2, p1, p2) -> float:
    """Distance of the collide-then-collide-back round trip from the identity."""
    R = YangBaxterRule()
    trip = MapChain((PairStep(0, 1, R), PairStep(1, 0, R)))
    state = _state((p1, k1), (p2, k2))
    return _slot_residual(trip(state), state)


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
    R = YangBaxterRule()
    B = BoundaryReflection(spec)
    lhs = MapChain((PairStep(0, 1, R), SiteStep(1, B), PairStep(1, 0, R), SiteStep(0, B)))
    rhs = MapChain((SiteStep(0, B), PairStep(0, 1, R), SiteStep(1, B), PairStep(1, 0, R)))
    state = _state((p1, k1), (p2, k2))
    return _slot_residual(lhs(state), rhs(state))


def involution_residual(k, p: Polarization, spec: BoundarySpec) -> float:
    """Distance of the double bounce from the identity; parameter must return exactly."""
    first = reflection_map(k, p, spec)
    second = reflection_map(first.k, first.p, spec)
    if second.k != complex(k):
        raise ValidationError(f"double reflection moved the parameter: {second.k} != {k}")
    return projective_distance(second.p, p)


# --- transfer maps -------------------------------------------------------------


def transfer_chain(j: int, N: int, rule_r, rule_b_plus, rule_b_minus) -> MapChain:
    """One full traversal of soliton j: collisions out, bounce, collisions back."""
    if not 0 <= j < N:
        raise ValidationError(f"transfer index {j} outside 0..{N-1}")
    steps = []
    for m in range(j - 1, -1, -1):
        steps.append(PairStep(m, j, rule_r))
    steps.append(SiteStep(j, rule_b_plus))
    for m in range(0, j):
        steps.append(PairStep(j, m, rule_r))
    for m in range(j + 1, N):
        steps.append(PairStep(j, m, rule_r))
    steps.append(SiteStep(j, rule_b_minus))
    for m in range(N - 1, j, -1):
        steps.append(PairStep(m, j, rule_r))
    return MapChain(tuple(steps))


def transfer_map(j: int, maps: Dict[str, object], state: Sequence[ExtendedPoint]) -> tuple:
    """Apply the j-th transfer composition to a state of N >= 2 extended points."""
    state = tuple(state)
    if len(state) < 2:
        raise ValidationError("transfer maps need at least two sites")
    chain = transfer_chain(
        int(j), len(state), maps["R"], maps["B_plus"], maps["B_minus"]
    )
    return chain(state)


def transfer_commutator_residual(
    j: int, l: int, maps: Dict[str, object], state: Sequence[ExtendedPoint]
) -> float:
    """Max slotwise distance between T_j T_l and T_l T_j on the given state."""
    a = transfer_map(j, maps, transfer_map(l, maps, state))
    b = transfer_map(l, maps, transfer_map(j, maps, state))
    return _slot_residual(a, b)


def s_twist_residual(k1, k2, p1: Polarization, p2: Polarization) -> float:
    """Residual of S1 S2 R12 S1 S2 = R21 with S(p, k) = (p, -k*)."""
    state = _state((p1, k1), (p2, k2))
    R = YangBaxterRule()

    twisted = tuple(ExtendedPoint(e.p, -e.k.conjugate()) for e in state)
    mid = MapChain((PairStep(0, 1, R),))(twisted)
    lhs = tuple(ExtendedPoint(e.p, -e.k.conjugate()) for e in mid)

    rhs = MapChain((PairStep(1, 0, R),))(state)
    return _slot_residual(lhs, rhs)
