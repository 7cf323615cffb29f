"""Seeded random generators for spectral data, polarizations, and boundaries.

Draw ranges follow the workbench defaults: u in [-2,-0.1] u [0.1,2]
(positive only for half-line data), v in [0.2, 2], norming vectors complex
Gaussian.  Configurations too close to a factor pole are redrawn and the
resamples counted.

Stream contract: every generator makes the rng calls that drawing its
scalars one at a time would make, in order, through one whole-array path per
quantity: one rng.random call per try for the u's of `random_soliton_data`
and the parameters of `random_map_parameters`, `draw_unit_vectors` for every
norming or unit vector.  A uniform on [lo, hi) is always lo + (hi - lo) * r
of an rng.random() r, as Generator.uniform maps it: one rng.random() call
per scalar, one rng.random(shape) call per array (`uniforms`).  Per sample
only the draws and their accept tests run (nonzero vector, proper signs,
pole-safe parameters); `unit_vectors`, `unitaries` and `boundaries` (an
(S, n, n) boundary stack, no spec objects) derive a stack of `draw_*`
results at once, bit for bit as one at a time; one sample is a stack of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import SamplingError, ValidationError
from .soldata import (
    BoundarySpec,
    Mixed,
    NormingVector,
    Robin,
    RotatedMixed,
    SolitonData,
    SpectralPoint,
    _norms,
    _unit,
    boundary_stack,
    canonical_phase,
)

U_RANGE = (0.1, 2.0)
V_RANGE = (0.2, 2.0)

#: Minimum gap kept between distinct u draws (pole separation at desk scale).
MIN_U_GAP = 0.05

#: Denominator margin below which a parameter configuration is redrawn.
POLE_MARGIN = 1e-8

_MAX_TRIES = 1000

#: Boundary kinds `draw_boundary` draws, in the order the suites report them.
BOUNDARY_KINDS = ("robin", "mixed", "rotated_mixed")


@dataclass
class SampleLog:
    """Counts redraws so reports can state how many configurations were rejected."""

    resamples: int = 0


def _count(log: Optional[SampleLog]) -> None:
    if log is not None:
        log.resamples += 1


def draw_unit_vectors(
    rng: np.random.Generator, count: int, n: int, log: Optional[SampleLog] = None
) -> np.ndarray:
    """(count, 2, n): the real and imaginary parts of count complex Gaussian
    vectors, each redrawn (and counted in log) while its norm is <= 1e-6.
    One (missing, 2, n) draw per pass; a dropped vector is drawn again in the
    next pass, where one-at-a-time redraws would fall."""
    kept = []
    for _ in range(_MAX_TRIES):
        draws = rng.standard_normal((count - len(kept), 2, n))
        # a first entry of modulus >= 1e-5 passes the norm test without the
        # sum: a sum of nonnegative squares is at least each of its terms
        usable = [i for i, x in enumerate(draws[:, 0, 0].tolist())
                  if abs(x) >= 1e-5 or _norms(draws[i, 0] + 1j * draws[i, 1]) > 1e-6]
        if len(usable) == count:
            return draws
        if log is not None:
            log.resamples += len(draws) - len(usable)
        kept += [draws[i] for i in usable]
        if len(kept) == count:
            return np.array(kept)
    raise SamplingError("could not draw a usable unit vector")


def unit_vectors(draws: np.ndarray) -> np.ndarray:
    """Unit vectors in canonical phase of a stack of (..., 2, n) draws from
    `draw_unit_vectors`, each as `Polarization` makes it, bit for bit."""
    return canonical_phase(_unit(draws[..., 0, :] + 1j * draws[..., 1, :]))


def random_soliton_data(
    rng: np.random.Generator,
    N: int,
    n: int,
    positive: bool = False,
    log: Optional[SampleLog] = None,
) -> SolitonData:
    """Velocity-ordered data: u strictly increasing with gaps >= MIN_U_GAP.

    Stream contract: per u its magnitude and, unless positive, its sign, one
    rng.random((N, 1 or 2)) per try, mapped as in `random_map_parameters`;
    then per point v and its norming vector (`draw_unit_vectors`).
    """
    (lo, hi), (vlo, vhi) = U_RANGE, V_RANGE
    for _ in range(_MAX_TRIES):
        draws = rng.random((N, 1 if positive else 2)).tolist()
        us = sorted((lo + (hi - lo) * r[0]) * (1.0 if positive or r[1] < 0.5 else -1.0)
                    for r in draws)
        if all(b - a >= MIN_U_GAP for a, b in zip(us, us[1:])):
            break
        _count(log)
    else:
        raise SamplingError("could not draw separated velocities")
    vs, draws = [], []
    for _ in us:
        vs.append(vlo + (vhi - vlo) * rng.random())
        draws.append(draw_unit_vectors(rng, 1, n, log)[0])
    draws = np.array(draws)
    betas = NormingVector.stack(draws[:, 0] + 1j * draws[:, 1])
    return SolitonData(n, tuple(zip(map(SpectralPoint, us, vs), betas)))


def uniforms(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Uniforms on [lo, hi) elementwise, of lo's shape, as one rng.uniform
    call per element in C order draws them: one rng.random call."""
    return lo + (hi - lo) * rng.random(lo.shape)


def unitaries(draws: np.ndarray) -> np.ndarray:
    """Haar-ish unitaries of (..., 2, n, n) draws, the real and imaginary parts
    of complex Gaussian matrices: Q of QR with R's diagonal phases moved in."""
    Q, R = np.linalg.qr(draws[..., 0, :, :] + 1j * draws[..., 1, :, :])
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def draw_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((2, n, n))


def random_signs(rng: np.random.Generator, n: int) -> tuple:
    """A +1/-1 pattern with both signs when n > 1.

    Stream contract: one uniform per entry, +1 below 0.5, as n rng.random()
    calls would draw them; one rng.random(n) per try.
    """
    for _ in range(_MAX_TRIES):
        signs = tuple([1 if r < 0.5 else -1 for r in rng.random(n).tolist()])
        if n == 1 or (1 in signs and -1 in signs):
            return signs
    raise SamplingError("could not draw a proper sign pattern")


def draw_boundary(rng: np.random.Generator, kind: str, n: int):
    """A boundary of the kind as drawn: Robin's alpha (a float), mixed's sign
    pattern (a tuple), or rotated_mixed's (`draw_unitary` draws, sign
    pattern).  `boundaries` stacks such draws, `boundary_spec` makes one spec."""
    if kind == "robin":
        return -2.0 + 4.0 * rng.random()
    if kind == "mixed":
        return random_signs(rng, n)
    if kind == "rotated_mixed":
        return draw_unitary(rng, n), random_signs(rng, n)
    raise ValidationError(f"unknown boundary kind {kind!r}")


def _rotated(b) -> bool:
    return isinstance(b, tuple) and isinstance(b[0], np.ndarray)


def boundaries(drawn, n: int) -> np.ndarray:
    """The `boundary_stack` on n components of `draw_boundary` results (or
    specs), in order, each row as its spec's one-row stack has it; the
    rotated_mixed draws are derived as one stack."""
    rows = list(drawn)
    rotated = [i for i, b in enumerate(drawn) if _rotated(b)]
    if rotated:
        draws, signs = zip(*[drawn[i] for i in rotated])
        for i, m in zip(rotated, RotatedMixed.stack(unitaries(np.array(draws)), signs)):
            rows[i] = m
    return boundary_stack(rows, n)


def boundary_spec(drawn) -> BoundarySpec:
    """The spec of one `draw_boundary` result; a spec is returned as it is."""
    if isinstance(drawn, float):
        return Robin(drawn)
    if _rotated(drawn):
        return RotatedMixed(unitaries(drawn[0]), drawn[1])
    return Mixed(drawn) if isinstance(drawn, tuple) else drawn


def _pairs_safe(ks: List[complex], mirrored: bool) -> bool:
    """Every two of ks, and if mirrored of ks and their mirrors -k*, lie at
    least POLE_MARGIN apart.  Each mirrored distance is, bit for bit, one of
    |a - b|, |a + b*| and |a + a*| = |2 Re a|, so each is tested once."""
    for a, b in itertools.combinations(ks, 2):
        if not abs(a - b) >= POLE_MARGIN:
            return False
        if mirrored and not abs(a + b.conjugate()) >= POLE_MARGIN:
            return False
    if mirrored:
        for k in ks:
            if not abs(2.0 * k.real) >= POLE_MARGIN:
                return False
    return True


def random_map_parameters(
    rng: np.random.Generator,
    count: int,
    mirrored: bool = False,
    log: Optional[SampleLog] = None,
) -> List[complex]:
    """Spectral parameters for map identities, pole-safe (also under k -> -k*).

    Stream contract: per parameter |u|, its sign and v, as rng.uniform and
    rng.random draw them one at a time: one rng.random((count, 3)) per try,
    mapped as Generator.uniform maps a uniform r, lo + (hi - lo) * r.
    """
    (ulo, uhi), (vlo, vhi) = U_RANGE, V_RANGE
    for _ in range(_MAX_TRIES):
        ks = []
        for mag, sign, v in rng.random((count, 3)).tolist():
            u = ulo + (uhi - ulo) * mag
            ks.append(complex(u if sign < 0.5 else -u, vlo + (vhi - vlo) * v) / 2.0)
        if _pairs_safe(ks, mirrored):
            return ks
        _count(log)
    raise SamplingError("could not draw pole-safe parameters")
