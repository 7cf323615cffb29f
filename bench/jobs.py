"""Seeded job generators for the benchmark workloads.

A workload is an endless sequence of rounds.  Round r is a fixed list of CLI
jobs derived from (workload seed, r) alone, so one seed always gives the same
inputs and every round holds the same mix of job kinds.  The generators use
their own numpy draws, not ``vsolitons.sampling``, so a change to the program
never changes the benchmark's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

WORKLOADS = ("field-export", "certify-chain", "certify-maps")

#: Suites behind the dressing chain, the asymptotics and the mirror solver.
CHAIN_SUITES = (
    "one-soliton",
    "determinant",
    "permutation",
    "collision",
    "factorization",
    "mirror-constraint",
    "mirror-polarization",
    "pde",
)

#: Suites behind the Yang-Baxter, reflection and transfer maps.
MAPS_SUITES = (
    "ybe",
    "reversibility",
    "yb-structure",
    "reflection-equation",
    "involution",
    "transfer",
)

#: (nx, nt) of every field-export grid.
GRID_SHAPE = (121, 41)

FIELD_NS = (2, 4, 8)
BOUNDARY_KINDS = ("robin", "mixed", "rotated_mixed")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``vsolitons <mode> --config <config as JSON>``."""

    mode: str
    config: dict
    label: str


def make_round(
    workload: str,
    seed: int,
    r: int,
    grid: Tuple[int, int] = GRID_SHAPE,
    samples: Optional[int] = None,
) -> List[Job]:
    """Jobs of round ``r``.

    ``grid`` and ``samples`` exist for the smoke test; the benchmark runs the
    full grid and every suite at its default sample count (``samples=None``).
    """
    rng = np.random.default_rng([seed, r])
    if workload == "field-export":
        return _field_round(rng, grid)
    if workload == "certify-chain":
        return _suite_round(rng, CHAIN_SUITES, samples)
    if workload == "certify-maps":
        return _suite_round(rng, MAPS_SUITES, samples)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _field_round(rng, grid) -> List[Job]:
    """24 jobs: every (N in 1..4, n in {2,4,8}) pair once as a full-line
    ``simulate`` job and once as a half-line ``mirror`` job with a grid."""
    nx, nt = grid
    jobs = []
    for m in range(12):
        N, n = 1 + m % 4, FIELD_NS[m % 3]
        kind = BOUNDARY_KINDS[m // 4]
        jobs.append(
            Job(
                "simulate",
                {
                    "data": _soliton_doc(rng, N, n, positive=False),
                    "grid": _grid_doc(-6.0, 6.0, nx, nt),
                },
                f"simulate N={N} n={n}",
            )
        )
        jobs.append(
            Job(
                "mirror",
                {
                    "data": _soliton_doc(rng, N, n, positive=True),
                    "boundary": _boundary_doc(rng, kind, n),
                    "grid": _grid_doc(0.0, 8.0, nx, nt),
                },
                f"mirror N={N} n={n} {kind}",
            )
        )
    return jobs


def _suite_round(rng, suites, samples) -> List[Job]:
    jobs = []
    for name in suites:
        suite = {"name": name, "seed": int(rng.integers(0, 2**31 - 1))}
        if samples is not None:
            suite["samples"] = samples
        jobs.append(Job("verify", {"suite": suite}, f"{name} seed={suite['seed']}"))
    return jobs


def _grid_doc(x0, x1, nx, nt) -> dict:
    return {"x0": x0, "x1": x1, "t0": -1.0, "t1": 1.0, "nx": nx, "nt": nt}


def _pairs(z) -> list:
    return [[float(c.real), float(c.imag)] for c in z]


def _soliton_doc(rng, N: int, n: int, positive: bool) -> dict:
    """Velocities on a jittered lattice, so poles stay separated at every N.

    Half-line data needs 0 < u_1 < ... < u_N, kept clear of the imaginary
    axis where a soliton would collide with its own mirror image.
    """
    lo, hi = (0.3, 1.9) if positive else (-1.2, 1.2)
    width = (hi - lo) / N
    us = lo + width * (np.arange(N) + rng.uniform(0.2, 0.8, N))
    vs = rng.uniform(0.6, 1.4, N)
    betas = rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n))
    return {
        "n": n,
        "solitons": [
            {"u": float(u), "v": float(v), "beta": _pairs(b)}
            for u, v, b in zip(us, vs, betas)
        ],
    }


def _boundary_doc(rng, kind: str, n: int) -> dict:
    if kind == "robin":
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return {"kind": "robin", "alpha": sign * float(rng.uniform(0.3, 1.5))}
    # a proper pattern: both boundary conditions occur
    signs = [1, -1] + [1 if rng.random() < 0.5 else -1 for _ in range(n - 2)]
    signs = [int(s) for s in rng.permutation(signs)]
    if kind == "mixed":
        return {"kind": "mixed", "signs": signs}
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    u = q * (d / np.abs(d))
    return {"kind": "rotated_mixed", "signs": signs, "unitary": [_pairs(row) for row in u]}
