"""Output checks applied to every benchmark job.

* ``report.json`` ``passed`` must agree with the exit code (0 passed, 2 not).
* Every ``grid.csv`` is compared, on a fixed subsample of rows, with the
  Gram/Cauchy closed form of the multi-soliton field, which shares no code
  with the program's dressing chain.
* One job per run is replayed and its artifacts compared byte for byte.
* Only the suites in ``KNOWN_FAILING_SUITES`` may report a failed check
  (exit 2); a failed check in any other suite is a problem.

Each check returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import numpy as np

#: Suites with a known defect whose failed checks (exit 2) are expected on some
#: seeds: the mirror-constraint detector fails on about 9% of them.  Such jobs
#: count as failed jobs but do not make a run incorrect.
KNOWN_FAILING_SUITES = frozenset({"mirror-constraint"})

#: Rows of each grid.csv compared with the closed form.
SUBSAMPLE_ROWS = 32

#: Allowed |R_csv - R_closed_form| relative to max(1, max |R|) on the subsample.
ORACLE_TOL = 1e-9


def gram_field(ks: np.ndarray, betas: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """R(x, t) = 2i (S^T G^-1 S*)[:n, n] with G_jl = s_j^dag s_l / (k_j - k_l*).

    s_j is the seed exp(-i phi(x, t, k_j*) Sigma3) (beta_j; -1) with
    phi = k x + 2 k^2 t.  The formula is invariant under rescaling any s_j,
    so each seed is scaled by exp(-|Im phi|) to stay representable.

    G is Cauchy-like and can be ill-conditioned: on half-line data with poles
    near their mirror images a double-precision solve lost 1.7e-9 where the
    program's field agreed with a 50-digit evaluation to 6e-14.  So the form
    is evaluated in extended precision (``np.clongdouble``) and rounded to
    complex128.  Returns shape (len(x), n).
    """
    n = betas.shape[1]
    ks = ks.astype(np.clongdouble)
    kc = ks.conj()
    x = np.asarray(x, dtype=np.longdouble)
    t = np.asarray(t, dtype=np.longdouble)
    ph = x[:, None] * kc[None, :] + 2 * t[:, None] * (kc * kc)[None, :]
    scale = np.exp(-np.abs(ph.imag))
    seeds = np.empty(ph.shape + (n + 1,), dtype=np.clongdouble)
    seeds[..., :n] = (np.exp(-1j * ph) * scale)[..., None] * betas.astype(np.clongdouble)[None]
    seeds[..., n] = -np.exp(1j * ph) * scale
    gram = np.einsum("pjc,plc->pjl", seeds.conj(), seeds) / (ks[:, None] - kc[None, :])
    solved = _solve(gram, seeds[..., n].conj())
    return (2j * np.einsum("pjc,pj->pc", seeds[..., :n], solved)).astype(np.complex128)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y with a[p] @ y[p] = b[p] for every p: Gaussian elimination with
    partial pivoting, since ``np.linalg`` has no extended-precision solver."""
    a, b = a.copy(), b.copy()
    rows = np.arange(a.shape[0])
    size = a.shape[1]
    for c in range(size):
        piv = c + np.argmax(np.abs(a[:, c:, c]), axis=1)
        a[rows, c], a[rows, piv] = a[rows, piv], a[rows, c]
        b[rows, c], b[rows, piv] = b[rows, piv], b[rows, c]
        f = a[:, c + 1:, c] / a[:, c, c, None]
        a[:, c + 1:, c:] -= f[:, :, None] * a[:, c, None, c:]
        b[:, c + 1:] -= f * b[:, c, None]
    y = np.empty_like(b)
    for c in range(size - 1, -1, -1):
        y[:, c] = (b[:, c] - np.einsum("pj,pj->p", a[:, c, c + 1:], y[:, c + 1:])) / a[:, c, c]
    return y


def spectral_data(doc: dict):
    """(k, beta) arrays from a ``{"n", "solitons"}`` document."""
    sols = doc["solitons"]
    ks = np.array([complex(s["u"], s["v"]) / 2.0 for s in sols])
    betas = np.array([[complex(re, im) for re, im in s["beta"]] for s in sols])
    return ks, betas


def report_problems(code: int, outdir: Path) -> List[str]:
    if code not in (0, 2):
        return [f"exit code {code}"]
    try:
        report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    if report.get("passed") is not (code == 0):
        return [f"report.json passed={report.get('passed')!r} but exit code {code}"]
    return []


def grid_problems(csv_path: Path, data_doc: dict, grid_doc: dict) -> List[str]:
    """Shape, header and coordinates of grid.csv, and field values on a fixed
    row subsample against ``gram_field``."""
    try:
        text = csv_path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"grid.csv unreadable: {exc}"]
    ks, betas = spectral_data(data_doc)
    n = betas.shape[1]
    nx, nt = grid_doc["nx"], grid_doc["nt"]
    lines = text.split("\n")
    header = "x,t," + ",".join(f"re_{c + 1},im_{c + 1}" for c in range(n))
    if lines[0] != header:
        return [f"grid.csv header {lines[0]!r}"]
    rows = lines[1:-1]
    if len(rows) != nx * nt or lines[-1] != "":
        return [f"grid.csv has {len(rows)} rows, expected {nx * nt}"]

    xs = np.linspace(grid_doc["x0"], grid_doc["x1"], nx)
    ts = np.linspace(grid_doc["t0"], grid_doc["t1"], nt)
    picks = np.unique(np.linspace(0, len(rows) - 1, SUBSAMPLE_ROWS).round().astype(int))
    try:
        cells = np.array([[float(c) for c in rows[i].split(",")] for i in picks])
    except ValueError as exc:
        return [f"grid.csv has a non-numeric cell: {exc}"]
    if cells.shape != (picks.size, 2 + 2 * n):
        return [f"grid.csv rows have {cells.shape[1]} cells, expected {2 + 2 * n}"]
    it, ix = np.divmod(picks, nx)
    if not (np.array_equal(cells[:, 0], xs[ix]) and np.array_equal(cells[:, 1], ts[it])):
        return ["grid.csv coordinates are not the lattice, rows ordered by t then x"]
    got = cells[:, 2::2] + 1j * cells[:, 3::2]
    want = gram_field(ks, betas, cells[:, 0], cells[:, 1])
    err = float(np.max(np.abs(got - want)))
    if not err <= ORACLE_TOL * max(1.0, float(np.max(np.abs(want)))):
        return [f"grid.csv differs from the closed form by {err:.3e}"]
    return []


def job_problems(job, code: int, outdir: Path) -> List[str]:
    problems = report_problems(code, outdir)
    if problems:
        return problems
    if code == 2 and job.config.get("suite", {}).get("name") not in KNOWN_FAILING_SUITES:
        return ["a check failed (exit 2) in a suite with no known defect"]
    if "grid" not in job.config:
        return problems
    if job.mode == "mirror":
        try:
            data_doc = json.loads((outdir / "halfline.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"halfline.json unreadable: {exc}"]
    else:
        data_doc = job.config["data"]
    return grid_problems(outdir / "grid.csv", data_doc, job.config["grid"])


def replay_problems(first: Path, second: Path) -> List[str]:
    """Byte-for-byte comparison of every artifact of two runs of one job."""
    names = sorted(p.name for p in first.iterdir())
    other = sorted(p.name for p in second.iterdir())
    if names != other:
        return [f"replay wrote {other}, first run wrote {names}"]
    return [
        f"replay changed {name}"
        for name in names
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]
