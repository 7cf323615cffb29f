"""Seeded random generators for spectral data, polarizations, and boundaries.

Draw ranges follow the workbench defaults: u in [-2,-0.1] u [0.1,2]
(positive only for half-line data), v in [0.2, 2], norming vectors complex
Gaussian.  Configurations too close to a factor pole are redrawn and the
resamples counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import SamplingError
from .soldata import (
    Mixed,
    NormingVector,
    Robin,
    RotatedMixed,
    SolitonData,
    SpectralPoint,
    canonical_phase,
)

U_RANGE = (0.1, 2.0)
V_RANGE = (0.2, 2.0)

#: Minimum gap kept between distinct u draws (pole separation at desk scale).
MIN_U_GAP = 0.05

#: Denominator margin below which a parameter configuration is redrawn.
POLE_MARGIN = 1e-8

_MAX_TRIES = 1000

#: Boundary kinds `random_boundary` draws, in the order the suites report them.
BOUNDARY_KINDS = ("robin", "mixed", "rotated_mixed")


@dataclass
class SampleLog:
    """Counts redraws so reports can state how many configurations were rejected."""

    resamples: int = 0


def _count(log: Optional[SampleLog]) -> None:
    if log is not None:
        log.resamples += 1


def random_u(rng: np.random.Generator, positive: bool = False) -> float:
    lo, hi = U_RANGE
    mag = rng.uniform(lo, hi)
    if positive:
        return mag
    return mag if rng.random() < 0.5 else -mag


def random_norming_vector(
    rng: np.random.Generator, n: int, log: Optional[SampleLog] = None
) -> NormingVector:
    """Complex Gaussian: n real parts, then n imaginary parts, from one draw;
    redrawn (and counted) while its norm is <= 1e-6."""
    for _ in range(_MAX_TRIES):
        re, im = rng.standard_normal((2, n))
        vec = re + 1j * im
        if np.linalg.norm(vec) > 1e-6:
            return NormingVector(vec)
        _count(log)
    raise SamplingError("could not draw a usable norming vector")


def random_unit_vectors(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """(count, n) unit vectors in canonical phase (redraws are not counted).

    Stream contract: the draws, vectors and generator state of count
    `random_norming_vector` calls, each normalised.  One (missing, 2, n) draw
    per pass is that stream; a vector of norm <= 1e-6 is dropped and the next
    pass draws the missing ones, where one-at-a-time redraws would fall.
    """
    rows = []
    for _ in range(_MAX_TRIES):
        draws = rng.standard_normal((count - len(rows), 2, n))
        for v in draws[:, 0] + 1j * draws[:, 1]:
            # np.linalg.norm's sum, bit for bit, computed once per vector
            re, im = v.real, v.imag
            norm = math.sqrt(re.dot(re) + im.dot(im))
            if norm > 1e-6:
                rows.append(canonical_phase(v / norm))
        if len(rows) == count:
            return np.array(rows).reshape(count, n)
    raise SamplingError("could not draw a usable unit vector")


def random_soliton_data(
    rng: np.random.Generator,
    N: int,
    n: int,
    positive: bool = False,
    log: Optional[SampleLog] = None,
) -> SolitonData:
    """Velocity-ordered data: u strictly increasing with gaps >= MIN_U_GAP."""
    for _ in range(_MAX_TRIES):
        us = sorted(random_u(rng, positive) for _ in range(N))
        if all(b - a >= MIN_U_GAP for a, b in zip(us, us[1:])):
            break
        _count(log)
    else:
        raise SamplingError("could not draw separated velocities")
    points = tuple(
        (
            SpectralPoint(u, rng.uniform(*V_RANGE)),
            random_norming_vector(rng, n, log),
        )
        for u in us
    )
    return SolitonData(n, points)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix (its n^2 real
    parts, then its n^2 imaginary parts, from one draw)."""
    re, im = rng.standard_normal((2, n, n))
    Z = re + 1j * im
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def random_signs(rng: np.random.Generator, n: int, proper: bool = True) -> tuple:
    """A +1/-1 pattern; `proper` forces both signs to appear when n > 1.

    Stream contract: one uniform per entry, +1 below 0.5, as n rng.random()
    calls would draw them; one rng.random(n) per try.
    """
    for _ in range(_MAX_TRIES):
        signs = tuple([1 if r < 0.5 else -1 for r in rng.random(n).tolist()])
        if n == 1 or not proper or len(set(signs)) == 2:
            return signs
    raise SamplingError("could not draw a proper sign pattern")


def random_boundary(rng: np.random.Generator, kind: str, n: int):
    if kind == "robin":
        return Robin(rng.uniform(-2.0, 2.0))
    if kind == "mixed":
        return Mixed(random_signs(rng, n))
    if kind == "rotated_mixed":
        return RotatedMixed(random_unitary(rng, n), random_signs(rng, n))
    raise ValueError(f"unknown boundary kind {kind!r}")


def _pairs_safe(ks: List[complex], mirrored: bool) -> bool:
    probes = list(ks)
    if mirrored:
        probes += [-k.conjugate() for k in ks]
    for a in range(len(probes)):
        for b in range(a + 1, len(probes)):
            if abs(probes[a] - probes[b]) < POLE_MARGIN:
                return False
    return True


def random_map_parameters(
    rng: np.random.Generator,
    count: int,
    mirrored: bool = False,
    log: Optional[SampleLog] = None,
) -> List[complex]:
    """Spectral parameters for map identities, pole-safe (also under k -> -k*).

    Stream contract: per parameter |u|, its sign and v, as `random_u` and
    rng.uniform draw them one at a time: one rng.random((count, 3)) per try,
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
