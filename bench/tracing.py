"""Layer tracing for the benchmark's traced run.

``Tracer.install`` wraps, for the traced pass only, the public functions of
every vsolitons layer module, under the same names wherever other vsolitons
modules imported them, plus the CLI's suite table and Polarization
construction.  No file of the program changes.  Each call becomes a span
(name, start, end, parent span, job id) kept in flat arrays in memory;
``save`` writes them out when the run ends.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

#: The package modules, one layer each.
LAYERS = (
    "cli",
    "config",
    "dressing",
    "soldata",
    "asymptotics",
    "maps",
    "mirror",
    "verification",
    "sampling",
)

#: Calls of reconstruct_field with at least this many points are grid calls.
GRID_MIN_POINTS = 1000

_CALL_AND_SELF = {
    "dressing": (
        "build_reduced_chain",
        "eval_chain",
        "build_full_chain",
        "full_chain_matrix",
        "permutation_residual",
    ),
    "soldata": ("validate", "Polarization", "projective_distance"),
    "asymptotics": ("intermediate_gamma", "collision_consistency_residual"),
    "maps": (
        "yb_map",
        "reflection_map",
        "ybe_residual",
        "reflection_equation_residual",
        "involution_residual",
        "transfer_commutator_residual",
    ),
    "mirror": (
        "solve_mirror_norming",
        "mirror_constraint_residual",
        "mirror_polarization_residual",
        "halfline_field",
    ),
    "verification": (
        "sample_grid",
        "pde_residual",
        "boundary_residual",
        "extract_asymptotic_polarization",
        "convergence_order",
    ),
    "sampling": ("random_soliton_data",),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self.extras = {}  # span name -> list of (span index, *values)
        self._stack = []
        self._patches = []

    # --- instrumentation --------------------------------------------------

    def _wrap(self, label: str, fn, measure=None):
        name_id = len(self.names)
        self.names.append(label)
        extras = self.extras.setdefault(label, []) if measure else None
        start, end, names, parents, jobs = self.start, self.end, self.name, self.parent, self.job
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if measure:
                extras.append((idx,) + measure(args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value, item=False):
        if item:
            self._patches.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr), False))
            setattr(owner, attr, value)

    def install(self) -> None:
        import vsolitons.cli  # noqa: F401  (loads every layer module)

        mods = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "vsolitons"}
        measures = {
            "dressing.reconstruct_field": _field_size,
            "cli.export_grid": _export_size,
        }
        wrappers = {}
        for layer in LAYERS:
            mod = mods[f"vsolitons.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    label = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(label, obj, measures.get(label))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        suites = mods["vsolitons.cli"]._SUITES
        for suite, fn in list(suites.items()):
            self._patch(suites, suite, self._wrap(f"cli.suite.{suite}", fn), item=True)
        pol = mods["vsolitons.soldata"].Polarization
        self._patch(pol, "__post_init__", self._wrap("soldata.Polarization", pol.__post_init__))

    def uninstall(self) -> None:
        for owner, attr, old, item in reversed(self._patches):
            if item:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # --- analysis -----------------------------------------------------------

    def self_times(self):
        """(duration, self time) per span, as float arrays."""
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        parent = np.frombuffer(self.parent, dtype=np.int32)
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return dur, dur - covered

    def calls(self, label: str) -> int:
        """Number of spans named ``label``."""
        name = np.frombuffer(self.name, dtype=np.int32)
        return int(np.count_nonzero(name == self.names.index(label))) if label in self.names else 0

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
        )

    def layer_metrics(self) -> dict:
        """Every per-layer metric of BENCHMARK.json except the run-level ones
        (``sampling.resamples``, ``sampling.accept_ratio`` and ``trace.*``)."""
        dur, own = self.self_times()
        name = np.frombuffer(self.name, dtype=np.int32)
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        by = {label: i for i, label in enumerate(self.names)}
        count = self.calls

        def secs(label):
            return float(self_s[by[label]]) if label in by else 0.0

        m = {}
        for layer in LAYERS:
            prefix = layer + "."
            m[f"{layer}.self_s"] = (
                sum(secs(lb) for lb in by if lb.startswith(prefix)), "s")

        cells = sum(e[1] for e in self.extras.get("cli.export_grid", ()))
        nbytes = sum(e[2] for e in self.extras.get("cli.export_grid", ()))
        m["cli.export_grid.calls"] = (count("cli.export_grid"), "count")
        m["cli.export_grid.s"] = (secs("cli.export_grid"), "s")
        m["cli.export_grid.cells"] = (cells, "count")
        m["cli.export_grid.bytes"] = (nbytes, "B")
        m["cli.export_grid.ns_per_cell"] = (
            secs("cli.export_grid") / cells * 1e9 if cells else 0.0, "ns/cell")
        m["cli.parse_run_config.s"] = (secs("cli.parse_run_config"), "s")
        for label in sorted(lb for lb in by if lb.startswith("cli.suite.")):
            m[f"{label}.s"] = (secs(label), "s")
        for fn in ("load_json", "dataset_digest", "halfline_to_json"):
            m[f"config.{fn}.s"] = (secs(f"config.{fn}"), "s")

        m.update(self._field_metrics(dur, own, count, secs))
        for layer, fns in _CALL_AND_SELF.items():
            for fn in fns:
                m[f"{layer}.{fn}.calls"] = (count(f"{layer}.{fn}"), "count")
                m[f"{layer}.{fn}.s"] = (secs(f"{layer}.{fn}"), "s")
        m["trace.spans"] = (int(name.size), "count")
        return m

    def _field_metrics(self, dur, own, count, secs) -> dict:
        rec = np.array(self.extras.get("dressing.reconstruct_field", ()), dtype=np.int64)
        idx, pts, N, n = rec.reshape(-1, 4).T  # span index, points, N, n
        grid = pts >= GRID_MIN_POINTS
        scalar = pts == 1
        grid_work = int(np.sum(pts[grid] * N[grid]))
        flops, nbytes = grid_kernel_counts(pts, N, n)
        return {
            "dressing.reconstruct_field.calls": (count("dressing.reconstruct_field"), "count"),
            "dressing.reconstruct_field.s": (secs("dressing.reconstruct_field"), "s"),
            "dressing.reconstruct_field.points": (int(pts.sum()), "count"),
            "dressing.field_pt_sol": (int(np.sum(pts * N)), "count"),
            "dressing.grid_ns_per_pt_sol": (
                float(own[idx[grid]].sum()) / grid_work * 1e9 if grid_work else 0.0, "ns"),
            "dressing.scalar_calls": (int(scalar.sum()), "count"),
            "dressing.scalar_us_per_call": (
                float(dur[idx[scalar]].mean()) * 1e6 if scalar.any() else 0.0, "us"),
            "dressing.grid_flops_computed": (flops, "flop"),
            "dressing.grid_bytes_computed": (nbytes, "B"),
        }


def grid_kernel_counts(pts, N, n):
    """Computed (not measured) operations and bytes of the field kernel.

    Per point, each of the N factors costs a seed, a normalisation and a field
    update (20 + 6n + 12d + 10n flops, with d = n + 1), and each of the
    N(N-1)/2 factor pairs an inner product and an update (16d + 6 flops).
    Bytes count complex128 array passes: 7d + 4n per factor and 8d per pair,
    16 bytes each.  Cache reuse is ignored.
    """
    pts, N, n = (np.asarray(a, dtype=np.int64) for a in (pts, N, n))
    d = n + 1
    pairs = N * (N - 1) // 2
    flops = pts * (N * (20 + 16 * n + 12 * d) + pairs * (16 * d + 6))
    nbytes = 16 * pts * (N * (7 * d + 4 * n) + pairs * 8 * d)
    return int(flops.sum()), int(nbytes.sum())


def _field_size(args, out):
    data = args[0]
    return int(out.size // data.n), data.N, data.n


def _export_size(args, out):
    grid, path = args[0], args[1]
    return grid.nx * grid.nt * (2 + 2 * grid.n), os.path.getsize(path)
