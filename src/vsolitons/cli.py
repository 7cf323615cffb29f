"""Command-line workbench: seeded property suites, grid exports, reports.

Every run consumes one JSON config and writes a deterministic report.json
(plus grid.csv and manifest.json where applicable) into the output directory.
Identical config and seed reproduce byte-identical artifacts; wall-clock
timings are printed to the console only, never serialized.

Exit codes: 0 all checks passed, 1 configuration, validation or sampling
error, 2 at least one check failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from . import __version__
from .asymptotics import (
    beta_in,
    beta_out,
    check_velocity_ordered,
    collision_pair_residuals,
    intermediate_gamma,
    min_relative_velocity,
)
from .config import (
    _expect,
    _integer,
    _number,
    _object,
    dataset_digest,
    halfline_to_json,
    load_json,
    parse_boundary,
    parse_grid,
    parse_halfline,
    parse_soliton_data,
    soliton_data_to_json,
)
from .dressing import (
    _blaschke,
    _product,
    build_reduced_chain,
    eval_chain,
    one_soliton_field,
    permutation_residuals,
    reconstruct_field,
)
from .errors import ConfigError, VsolitonsError
from .maps import (
    involution_residuals,
    reflection_equation_residuals,
    reflection_maps,
    reversibility_residuals,
    s_twist_residuals,
    transfer_commutators,
    yb_schedule,
    ybe_residuals,
)
from .mirror import (
    HalfLineData,
    halfline_field,
    mirror_polarization_residual,
    solve_mirror_norming,
)
from .sampling import (
    BOUNDARY_KINDS,
    SampleLog,
    boundaries,
    boundary_spec,
    draw_boundary,
    draw_unit_vectors,
    draw_unitary,
    random_map_parameters,
    random_soliton_data,
    unit_vectors,
    unitaries,
)
from .soldata import (
    Mixed,
    NormingVector,
    Polarization,
    Robin,
    SolitonData,
    SolitonStack,
    _polarizations,
    boundary_stack,
    projective_distance,
)
from .verification import (
    FieldGrid,
    boundary_residual,
    convergence_order,
    extract_asymptotic_polarization,
    pde_residual,
    sample_grid,
)

#: Default tolerances by check family; suite.tolerances overrides them by family.
DEFAULT_TOLERANCES = {
    "algebraic": 1e-10,
    "involution": 1e-12,
    "mirror_constraint": 1e-8,
    "asymptotic": 1e-4,
}


@dataclass
class ReportCheck:
    """One executed check: a residual compared against its tolerance."""

    name: str
    residual: float
    tolerance: Optional[float]
    comparison: str = "<="
    informational: bool = False
    elapsed: float = 0.0  # console display only, never serialized

    @property
    def passed(self) -> Optional[bool]:
        if self.informational or self.tolerance is None:
            return None
        if self.comparison == "<=":
            return self.residual <= self.tolerance
        return self.residual >= self.tolerance

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": None if self.tolerance is None else float(self.tolerance),
            "comparison": self.comparison,
            "informational": self.informational,
            "passed": self.passed,
        }


@dataclass
class ReportDocument:
    """Per-run record: checks, environment digest, config echo, resamples."""

    mode: str
    config_echo: dict
    checks: List[ReportCheck] = field(default_factory=list)
    resamples: int = 0
    clock: Optional[float] = None  # end of the last timed step; console only

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def to_json(self) -> dict:
        return {
            "tool": "vsolitons",
            "version": __version__,
            "mode": self.mode,
            "environment": environment_digest(),
            "config": self.config_echo,
            "checks": [c.to_json() for c in self.checks],
            "resamples": self.resamples,
            "passed": self.passed,
        }


def config_echo(doc: dict) -> dict:
    """Config document as echoed into reports: the output path is excluded."""
    return {k: v for k, v in doc.items() if k != "output"}


def environment_digest() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


@dataclass
class RunConfig:
    """Parsed configuration for one workbench run."""

    mode: str
    raw: dict
    data: Optional[SolitonData] = None
    halfline: Optional[HalfLineData] = None
    boundary: Optional[object] = None
    grid: Optional[dict] = None
    suite_name: Optional[str] = None
    #: the suite's integer entries (samples, seed, n, N) that the config sets
    suite_params: Dict[str, int] = field(default_factory=dict)
    tolerances: Dict[str, float] = field(default_factory=dict)
    output: Path = Path("out")


#: The optional top-level keys (besides the mode), the keys of "suite", and the
#: least and largest value of each suite integer (None: any).  The largest
#: bound every suite's draws and stacks: 100 times the largest default sample
#: count, and room past the suites' own n and N limits.
_TOP_KEYS = ("data", "boundary", "grid", "suite", "output")
_SUITE_INTEGERS = {"samples": (0, 10_000), "seed": (0, None), "n": (1, 16), "N": (1, 64)}
_SUITE_KEYS = ("name", *_SUITE_INTEGERS, "tolerances")


def parse_run_config(doc: dict) -> RunConfig:
    doc = _object(doc, "", ("mode",), _TOP_KEYS)
    if doc["mode"] not in MODES:
        raise ConfigError(f"config.mode: expected one of {MODES}, got {doc['mode']!r}")
    cfg = RunConfig(mode=doc["mode"], raw=doc)
    if "data" in doc:
        # data with a real_count is a stored half-line dataset
        if "real_count" in _expect(doc["data"], dict, "data"):
            cfg.halfline = parse_halfline(doc["data"])
            cfg.data, cfg.boundary = cfg.halfline.combined, cfg.halfline.spec
        else:
            cfg.data = parse_soliton_data(doc["data"])
    if "boundary" in doc:
        if cfg.halfline is not None:
            raise ConfigError("boundary: stored half-line data carries its own boundary")
        cfg.boundary = parse_boundary(doc["boundary"])
    if "grid" in doc:
        cfg.grid = parse_grid(doc["grid"])

    suite = _object(doc.get("suite", {}), "suite", (), _SUITE_KEYS)
    if "name" in suite:
        cfg.suite_name = _expect(suite["name"], str, "suite.name")
    cfg.suite_params = {key: _integer(suite[key], f"suite.{key}", *bounds)
                        for key, bounds in _SUITE_INTEGERS.items() if key in suite}
    tols = _object(suite.get("tolerances", {}), "suite.tolerances", (), DEFAULT_TOLERANCES)
    cfg.tolerances = {key: _number(val, f"suite.tolerances.{key}", 0.0)
                      for key, val in tols.items()}
    if cfg.mode == "transfer":
        if cfg.suite_name not in (None, "transfer"):
            raise ConfigError(f"suite.name: transfer mode runs 'transfer', got {cfg.suite_name!r}")
        cfg.suite_name = "transfer"
    if cfg.suite_params.get("samples", 0) > 0 and "seed" not in cfg.suite_params:
        raise ConfigError("suite.seed: required whenever samples > 0 (reproducibility)")
    if "output" in doc:
        cfg.output = Path(_expect(doc["output"], str, "output"))
    return cfg


def _check(
    report: ReportDocument,
    cfg: RunConfig,
    name: str,
    residual: float,
    family: str = "algebraic",
    tolerance: Optional[float] = None,
    comparison: str = "<=",
    informational: bool = False,
) -> None:
    tol = tolerance
    if tol is None and not informational:
        tol = cfg.tolerances.get(family, DEFAULT_TOLERANCES[family])
    report.checks.append(ReportCheck(name, float(residual), tol, comparison, informational))


# --- grid export ---------------------------------------------------------------


def export_grid(grid: FieldGrid, path) -> None:
    """CSV export: header x,t,re_1,im_1,...; rows ordered by t, then x.

    Every number is repr(float), the shortest string that reads back as the
    same double.  Rows are formatted and written one t-slice at a time.
    """
    header = "x,t," + ",".join(f"re_{c+1},im_{c+1}" for c in range(grid.n))
    # one row per x: x, t, re_1, im_1, ..., re_n, im_n
    table = np.empty((grid.nx, 2 + 2 * grid.n))
    table[:, 0] = grid.xs
    cells = table.view(np.complex128)[:, 1:]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as out:
        out.write(header.encode() + b"\n")
        for it, t in enumerate(grid.ts):
            table[:, 1] = t
            cells[...] = grid.values[:, it]
            out.write(_csv_rows(table))


def _csv_rows(table: np.ndarray) -> memoryview:
    """CSV lines of a 2-D float64 table, every number as repr(float) writes it.

    orjson formats the shortest round-trip digits (Ryu) as repr does, but
    spells some values differently: 0.00001 for 1e-05, 1e-7 for 1e-07, 1e16
    for 1e+16, and null for non-finite values.  Those values, and a margin
    around them, go through repr: they are dumped as null and spliced back.
    """
    # imported here: at module top it would load uuid, zoneinfo and json on every start
    from orjson import OPT_SERIALIZE_NUMPY, dumps

    mag = np.abs(table)
    # not (mag < 0.99e16) also holds for nan and inf
    odd = ~(mag < 0.99e16) | ((mag >= 0.99e-9) & (mag < 1.01e-4))
    picked = table[odd].tolist()
    # "[v,v,...,v]": every number of the table, row after row
    text = dumps(np.where(odd, np.nan, table).ravel(), option=OPT_SERIALIZE_NUMPY)
    if picked:
        parts = text.split(b"null")
        spliced = [parts[0]]
        for value, part in zip(picked, parts[1:]):
            spliced += (repr(value).encode(), part)
        text = b"".join(spliced)
    text = bytearray(text)
    chars = np.frombuffer(text, np.uint8)
    # the last comma of each row and the closing bracket end the lines
    k = table.shape[1]
    chars[np.flatnonzero(chars == ord(","))[k - 1::k]] = ord("\n")
    chars[-1] = ord("\n")
    return memoryview(text)[1:]  # without the opening bracket


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_strict(doc), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _strict(obj):
    """obj with each non-finite float as repr(float) spells it ("nan", "inf",
    "-inf"), as in grid.csv: strict JSON has no such number."""
    if isinstance(obj, dict):
        return {key: _strict(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(val) for val in obj]
    return repr(float(obj)) if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_manifest(cfg: RunConfig, digest_source, outputs: List[str]) -> None:
    manifest = {
        "tool": "vsolitons",
        "version": __version__,
        "mode": cfg.mode,
        "config": config_echo(cfg.raw),
        "dataset_digest": dataset_digest(digest_source),
        "outputs": sorted(outputs),
    }
    _write_json(cfg.output / "manifest.json", manifest)


# --- property suites -------------------------------------------------------------


@dataclass(frozen=True)
class _Sampled:
    """A sampled suite, or one part of a `_Parts` suite: draw every variant's
    instances, keep each check's worst per variant.

    ``draw(cfg, rng, log, i, variant)`` draws instance i of a variant and
    returns one residual per check: (name template, family[, settings]), the
    settings being `_check` keywords the check fixes for itself.  ``{}`` in a
    name takes the variant label.  A ``>=`` check keeps its least residual,
    any other its largest (from 0.0); either keeps a nan.  ``variants(cfg)``
    lists (label, payload) pairs, each run over all samples.

    With ``stacked``, a draw returns the instance as drawn instead.  After
    every variant's draws, in variant order, the instances are grouped by the
    shapes of their ndarray members, and ``stacked(instances)`` evaluates one
    group per call, the groups in order of their first sample.  It returns
    one sequence of per-sample residuals per check, and the rows go back in
    sample order, each with the bits of its own S = 1 call.  An evaluation
    error names the first failing sample of the first group that raises: a
    group that raises is evaluated again one sample at a time, so the error
    is that sample's own S = 1 error.

    Each variant's checks share, evenly, its own draw time plus its sample
    share of the stacked call and the folds, so the check times sum to the
    part's time (console only).
    """

    default: int  # samples when suite.samples is unset or the part is fixed
    checks: tuple
    draw: Callable
    variants: Callable = lambda cfg: [("", None)]
    stacked: Optional[Callable] = None
    fixed: bool = False

    def __call__(self, cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
        samples = self.default if self.fixed else cfg.suite_params.get("samples", self.default)
        variants = self.variants(cfg)
        drawn, drew, start = [], [], report.clock
        for variant in variants:
            drawn += [self.draw(cfg, rng, log, i, variant) for i in range(samples)]
            drew.append(time.perf_counter())
        if self.stacked is not None:
            drawn = self._evaluate(drawn)
        first = len(report.checks)
        for v, variant in enumerate(variants):
            # np.max and np.min keep a nan residual, where Python's max would drop it
            rows = drawn[v * samples:(v + 1) * samples]
            most = np.max([[0.0] * len(self.checks), *rows], axis=0).tolist()
            least = np.min(rows, axis=0).tolist()
            for (name, family, *settings), hi, lo in zip(self.checks, most, least):
                settings = dict(*settings)
                worst = lo if settings.get("comparison") == ">=" else hi
                _check(report, cfg, name.format(variant[0]), worst, family, **settings)
        report.clock = time.perf_counter()
        shared = (report.clock - drew[-1]) / len(variants)
        count = len(self.checks)
        for v, end in enumerate(drew):
            own = (end - (drew[v - 1] if v else start) + shared) / count
            for chk in report.checks[first + v * count:first + (v + 1) * count]:
                chk.elapsed = own

    def _evaluate(self, instances) -> list:
        """Per-instance residual rows, in sample order: one stacked call per
        group of instances whose ndarrays have the same shapes.  A suite's
        instances share their layout, so the first one shows where they hold
        ndarrays; the shapes are read column by column, at about a third of
        the cost of one key built per instance."""
        shapes = [[a.shape for a in column] for column in zip(*instances)
                  if isinstance(column[0], np.ndarray)]
        groups: Dict[tuple, List[int]] = {}
        for i, key in enumerate(zip(*shapes)):
            groups.setdefault(key, []).append(i)
        rows = [()] * len(instances)
        for idx in groups.values():
            group = [instances[i] for i in idx]
            try:
                residuals = self.stacked(group)
            except VsolitonsError:
                for instance in group:  # the first sample that raises alone raises here
                    self.stacked([instance])
                raise
            for i, row in zip(idx, zip(*(np.asarray(c).tolist() for c in residuals))):
                rows[i] = row
        return rows


def _map_state(evaluate: Callable) -> Callable:
    """A `_Sampled.stacked` for map-suite draws (parameters,
    `draw_unit_vectors` draws, extra) of one component count: derives their
    unit vectors and parameters as one (P, K) state and returns
    evaluate(P, K, extras)."""
    def stacked(instances):
        ks, draws, extras = zip(*instances)
        return evaluate(unit_vectors(np.array(draws)), np.array(ks, dtype=np.complex128), extras)
    return stacked


def _worst(residuals) -> float:
    """Worst of one instance's residuals, folded from 0.0 as the runner folds:
    a nan residual is the worst."""
    return float(np.max([0.0, *residuals]))


def _suite_ns(cfg: RunConfig) -> list:
    return [cfg.suite_params["n"]] if "n" in cfg.suite_params else [2, 3]


def _n_variants(cfg: RunConfig):
    return [(f"n={n}", n) for n in _suite_ns(cfg)]


def _boundary_kinds(cfg: RunConfig):
    if cfg.boundary is not None:
        return [("given", cfg.boundary)]
    return [(label, None) for label in BOUNDARY_KINDS]


def _variant_boundary(rng, variant, n: int):
    """The given spec or a `draw_boundary` of the variant's kind, and its n."""
    label, fixed = variant
    if fixed is not None:
        return fixed, fixed.n or n
    return draw_boundary(rng, label, n), n


def _draw_one_soliton(cfg, rng, log, i, variant):
    data = random_soliton_data(rng, 1, (2, 3, 1)[i % 3], log=log)
    xs = rng.uniform(-6, 6, 50)
    ts = rng.uniform(-3, 3, 50)
    exact = one_soliton_field(data.points[0][0], data.points[0][1], xs, ts)
    return (float(np.max(np.abs(exact - reconstruct_field(data, xs, ts)))),)


def _draw_determinant(cfg, rng, log, i, variant):
    data = random_soliton_data(rng, 2 + i % 3, 2 + i % 2, log=log)
    chain = build_reduced_chain(data)
    poles = [kk.conjugate() for kk in data.ks]
    ks = []
    for _ in range(20):
        k = complex(rng.uniform(-3, 3), rng.uniform(0, 2.5))
        if any(abs(k - pole) < 1e-6 for pole in poles):
            log.resamples += 1
            continue
        ks.append(k)
    prod = _product(_blaschke(data.ks, np.array(ks)[:, None]))
    return (_worst(abs(np.linalg.det(eval_chain(chain, ks)) - prod) / abs(prod)),)


def _permutation_variants(cfg: RunConfig):
    N, n = cfg.suite_params.get("N", 3), cfg.suite_params.get("n", 2)
    return [(f"N={N},n={n}", (N, n))]


def _draw_permutation(cfg, rng, log, i, variant):
    N, n = variant[1]
    data = random_soliton_data(rng, N, n, log=log)
    # checked after the draw: an N past the sampler's reach is a SamplingError
    if not 2 <= N <= 6:
        raise ConfigError(f"suite.N: the permutation suite needs 2 <= N <= 6, got {N}")
    ks = [complex(rng.uniform(-2, 2), rng.uniform(0.0, 2.0)) for _ in range(20)]
    xts = [(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(5)]
    return data, data.stack.betas[0], np.array(ks), np.array(xts)


def _permutation_stack(instances):
    """Permutation draws of one (N, n) as one stack: per sample, the worst
    disagreement of every other factor order with the identity order."""
    datasets, _, ks, xts = zip(*instances)
    stack = SolitonStack(tuple(data.points for data in datasets))
    reference = tuple(range(stack.N))
    orders = [order for order in itertools.permutations(reference) if order != reference]
    residuals = permutation_residuals(stack, reference, orders, np.array(ks), np.array(xts))
    return (np.max([np.zeros(len(datasets)), *residuals], axis=0),)


def _map_draw(slots: int, with_boundary: bool) -> Callable:
    """A map-suite draw: slots parameters, then slots unit vectors.  With a
    boundary, the boundary comes first and gives n, and the parameters are
    pole-safe under k -> -k*; without, n is the variant's."""
    def draw(cfg, rng, log, i, variant):
        drawn, n = None, variant[1]
        if with_boundary:
            ns = _suite_ns(cfg)
            drawn, n = _variant_boundary(rng, variant, ns[i % len(ns)])
        ks = random_map_parameters(rng, slots, mirrored=with_boundary, log=log)
        return ks, draw_unit_vectors(rng, slots, n), drawn
    return draw


def _draw_yb_structure(cfg, rng, log, i, variant):
    n = (2, 3)[i % 2]
    ks = random_map_parameters(rng, 2, mirrored=True, log=log)
    return ks, draw_unit_vectors(rng, 2, n), draw_unitary(rng, n)


def _yb_structure(P, K, draws):
    """Unitary-diagonal invariance and parameter-twist residuals per sample."""
    V = unitaries(np.array(draws))
    rotated_after = np.einsum("sab,sjb->sja", V, yb_schedule(P, K, ((0, 1),)))
    after_rotated = yb_schedule(np.einsum("sab,sjb->sja", V, P), K, ((0, 1),))
    unitary = projective_distance(rotated_after, after_rotated).max(axis=1)
    return unitary, s_twist_residuals(P, K)


def _draw_collision(cfg, rng, log, i, variant):
    data = random_soliton_data(rng, 2 + i % 2, (2, 3)[i % 2], log=log)
    return data, data.stack.betas[0]  # the (N, n) betas key the stacking group


def _collision_stack(instances):
    """Collision draws of one (N, n) as one stack, each gamma built once: per
    sample, its worst pair residuals and its pipeline residual."""
    stack = SolitonStack(tuple(data.points for data, _ in instances))
    pols = _in_out(stack)  # first: it names a sample with unordered velocities
    return (*_pair_residuals(stack), _pipeline_residuals(pols, stack.ks))


def _pair_residuals(data) -> tuple:
    """Per sample, the worst collision_pair_residuals over the pairs j < l,
    the first other index a spectator: (relations, norm-ratio asymmetry)."""
    stack = data.stack
    out = [np.zeros((2, len(stack.points)))]
    for j, l in collision_orders(stack.N)[0]:
        others = tuple(m for m in range(stack.N) if m not in (j, l))
        out.append(collision_pair_residuals(j, l, others[:1], stack))
    return tuple(np.max(out, axis=0))


def collision_orders(N: int):
    """Two maximal collision schedules: lexicographic and reversed."""
    pairs = [(j, l) for j in range(N) for l in range(j + 1, N)]
    return pairs, list(reversed(pairs))


def _in_out(data) -> np.ndarray:
    """(S, 2, N, n): every soliton's unit in- and out-polarization per sample,
    each as `Polarization` makes it from `beta_in` or `beta_out`."""
    stack = data.stack
    check_velocity_ordered(stack)
    N = stack.N
    ins = [intermediate_gamma(j, range(j + 1, N), stack) for j in range(N)]
    outs = [intermediate_gamma(j, range(j), stack) for j in range(N)]
    pols = _polarizations(np.concatenate(ins + outs)).reshape(2, N, -1, ins[0].shape[-1])
    return np.ascontiguousarray(pols.transpose(2, 0, 1, 3))


def _pipeline_residuals(pols, K) -> np.ndarray:
    """Per sample of an (S, 2, N, n) stack of `_in_out` polarizations and their
    (S, N) parameters, the worst distance of either collision schedule's output
    from the out-polarizations: one `yb_schedule` per schedule, one distance call."""
    schedules = collision_orders(K.shape[1])
    got = np.concatenate([yb_schedule(pols[:, 0], K, s) for s in schedules])
    dist = projective_distance(got, np.concatenate([pols[:, 1]] * len(schedules))).max(axis=-1)
    return dist.reshape(len(schedules), len(K)).max(axis=0)


def _mirror_kinds(cfg: RunConfig):
    # the mirror suites draw the unrotated kinds only
    return _boundary_kinds(cfg)[:2]


def _draw_mirror(cfg, rng, log, i: int, variant) -> tuple:
    N, n = 1 + i % 3, (2, 3)[i % 2]
    data = random_soliton_data(rng, N, n, positive=True, log=log)
    drawn, m = _variant_boundary(rng, variant, n)
    if m != n:
        data = random_soliton_data(rng, N, m, positive=True, log=log)
    return data, data.stack.betas[0], drawn  # the real data, as the collision draw, and a boundary


def _mirror_solve(instances) -> tuple:
    """Mirror draws of one (N, n) solved as one stack (`solve_mirror_norming`)."""
    datasets, _, drawn = zip(*instances)
    return solve_mirror_norming(datasets, [boundary_spec(d) for d in drawn])


def _draw_mirror_detector(cfg, rng, log, i, variant):
    """Detector sanity: a corrupted mirror norming vector must be flagged.  It
    draws from its own stream of the suite seed, not after the sampled rows,
    so its row does not move with suite.samples."""
    own = np.random.SeedSequence(cfg.suite_params.get("seed", 0)).spawn(1)[0]
    data = random_soliton_data(np.random.default_rng(own), 2, 2, positive=True, log=log)
    hl_bad = _perturb_halfline(solve_mirror_norming(data, Mixed((1, -1))), 1e-3)
    return (hl_bad.constraint_residual,)


def _perturb_halfline(hl: HalfLineData, size: float) -> HalfLineData:
    pts = list(hl.mirror_data.points)
    pt, nv = pts[0]
    bumped = nv.beta.copy()
    bumped[0] += size * nv.norm
    pts[0] = (pt, NormingVector(bumped))
    return HalfLineData(hl.real_data, SolitonData(hl.n, tuple(pts)), hl.spec)


def _draw_transfer(n: int) -> Callable:
    """A transfer draw: the variant's boundary (which gives n; none for the
    unlabelled variant, the identity), then an N = 2 and an N = 3 state, each
    as parameters and `draw_unit_vectors` draws."""
    def draw(cfg, rng, log, i, variant):
        drawn, m = _variant_boundary(rng, variant, n) if variant[0] else (None, n)
        states = [state for N in (2, 3) for state in (
            random_map_parameters(rng, N, mirrored=True, log=log), draw_unit_vectors(rng, N, m))]
        if not variant[0]:
            # the draw of a retired n = 1 check, which read 0 by construction:
            # kept, so every later row keeps its draws
            random_map_parameters(rng, 2, mirrored=True, log=log)
        return (*states, drawn)
    return draw


def _transfer_stack(both: bool) -> Callable:
    """A `_Sampled.stacked` for transfer draws: per sample, the worst
    commutator of its N = 2 and N = 3 states, one `transfer_commutators` call
    per N, with the sample's boundary (None: the identity) in the b_plus slot
    and, if both, in the b_minus slot too."""
    def stacked(instances):
        *states, drawn = zip(*instances)
        stack = None if drawn[0] is None else boundaries(drawn, states[1][0].shape[-1])
        worst = 0.0
        for ks, raw in zip(states[::2], states[1::2]):
            rows = transfer_commutators(unit_vectors(np.array(raw)), np.array(ks),
                                        stack, stack if both else None)
            worst = np.maximum(worst, rows.max(axis=0))
        return (worst,)
    return stacked


def _pde_order(field_fn, x0: float, x1: float, hs) -> float:
    """Fitted convergence order of the PDE residual on [x0, x1] x [-1, 1].

    The field is sampled once, at the finest spacing hs[-1]; spacing h reads
    the strided view values[::s, ::s], s = round(h / hs[-1]), so every h must
    be an integer multiple of hs[-1].  The view's nodes are exactly the nodes
    of the grid sampled at h: linspace puts node i at start + i * step, and
    when s is a power of two (as for 0.04, 0.02, 0.01) the fine step is the
    coarse step divided by s without rounding, so fine node i * s and coarse
    node i round the same real number.
    """
    nx, nt = int(round((x1 - x0) / hs[-1])) + 1, int(round(2 / hs[-1])) + 1
    fine = sample_grid(field_fn, x0, x1, -1, 1, nx, nt)

    def residual(h):
        s = int(round(h / hs[-1]))
        # a contiguous copy: the same bits, and a faster stencil than the strided view
        values = np.ascontiguousarray(fine.values[::s, ::s])
        return pde_residual(FieldGrid(x0, x1, -1, 1, *values.shape[:2], values))

    return convergence_order(residual, hs)


def _draw_pde(cfg, rng, log, i, variant):
    """PDE orders of a line and a half-line (Mixed) field; boundary orders."""
    hs = [0.04, 0.02, 0.01]
    data = random_soliton_data(rng, 2, 2, log=log)
    line = _pde_order(lambda X, T: reconstruct_field(data, X, T), -4, 4, hs)
    hdata = random_soliton_data(rng, 2, 2, positive=True, log=log)
    mixed, robin = (solve_mirror_norming(hdata, spec) for spec in (Mixed((1, -1)), Robin(0.8)))
    half = _pde_order(lambda X, T: halfline_field(mixed, X, T), 0, 6, hs)
    ts = np.linspace(-1.0, 1.0, 9)
    return (abs(line - 2.0), abs(half - 2.0), *[
        convergence_order(lambda h: boundary_residual(hl, ts, h=h), hs) for hl in (robin, mixed)])


def _draw_factorization(cfg, rng, log, i, variant):
    data = _moderate_collision_data(rng, 2 + i % 2, (2, 3)[i % 2], log)
    T = 18.0 / (min(pt.v for pt, _ in data.points) * min_relative_velocity(data))
    js, ts, sides = zip(*[(j, t, side) for j in range(data.N) for side, t in enumerate((-T, T))])
    found = extract_asymptotic_polarization(data, js, ts)
    pols = _in_out(data)
    dist = projective_distance(np.array([pol.p for pol, _ in found]), pols[0, sides, js])
    return _worst(dist), _pipeline_residuals(pols, data.ks[None])[0]


def _moderate_collision_data(rng, N: int, n: int, log) -> SolitonData:
    """Random data with v and velocity gaps bounded away from zero.

    Keeps the asymptotic extraction times modest so field scans stay cheap.
    """
    while True:
        data = random_soliton_data(rng, N, n, log=log)
        vmin = min(pt.v for pt, _ in data.points)
        if vmin >= 0.5 and min_relative_velocity(data) >= 0.8:
            return data
        log.resamples += 1


class _Parts(tuple):
    """A suite of ordered `_Sampled` parts that share rng, report and sample log."""

    def __call__(self, *args):
        for part in self:
            part(*args)


#: Every suite is a callable (cfg, rng, report, log): a
#: _Sampled(default samples, checks, draw[, variants][, stacked][, fixed]), or
#: a _Parts of them when its checks' names or settings differ between groups.
_SUITES: Dict[str, Callable] = {
    "one-soliton": _Sampled(20, (("one-soliton-oracle", "involution"),), _draw_one_soliton),
    "determinant": _Sampled(10, (("determinant-blaschke-product", "involution"),),
                            _draw_determinant),
    "permutation": _Sampled(5, (("permutation-factorization[{}]", "algebraic"),),
                            _draw_permutation, _permutation_variants, _permutation_stack),
    "ybe": _Sampled(100, (("yang-baxter-equation[{}]", "algebraic"),), _map_draw(3, False),
                    _n_variants,
                    stacked=_map_state(lambda P, K, _: (ybe_residuals(P, K),))),
    "reversibility": _Sampled(100, (("reversibility[{}]", "involution"),),
                              _map_draw(2, False), _n_variants,
                              stacked=_map_state(lambda P, K, _: (reversibility_residuals(P, K),))),
    "yb-structure": _Sampled(50, (("unitary-diagonal-invariance", "involution"),
                                  ("parameter-twist-transpose", "involution")),
                             _draw_yb_structure, stacked=_map_state(_yb_structure)),
    "reflection-equation": _Sampled(
        100, (("reflection-equation[{}]", "algebraic"),), _map_draw(2, True), _boundary_kinds,
        stacked=_map_state(lambda P, K, drawn: (
            reflection_equation_residuals(P, K, boundaries(drawn, P.shape[-1])),)),
    ),
    "involution": _Sampled(
        100, (("reflection-involution[{}]", "involution"),), _map_draw(1, True), _boundary_kinds,
        stacked=_map_state(lambda P, K, drawn: (
            involution_residuals(P, K, boundaries(drawn, P.shape[-1])),)),
    ),
    "collision": _Sampled(20, (("pairwise-collision-relations", "algebraic"),
                               ("norm-ratio-symmetry", "involution"),
                               ("factorization-pipeline", "algebraic")), _draw_collision,
                          stacked=_collision_stack),
    "mirror-constraint": _Parts((
        _Sampled(10, (("mirror-constraint[{}]", "mirror_constraint"),), _draw_mirror,
                 _mirror_kinds, lambda group: (
                     [hl.constraint_residual for hl in _mirror_solve(group)[0]],)),
        _Sampled(1, (("mirror-constraint-detector", "asymptotic",
                      {"tolerance": 1e-4, "comparison": ">="}),),
                 _draw_mirror_detector, fixed=True),
    )),
    "mirror-polarization": _Sampled(
        10, (("mirror-polarization[{}]", "algebraic"),), _draw_mirror, _mirror_kinds,
        stacked=lambda group: (mirror_polarization_residual(_mirror_solve(group)),),
    ),
    "transfer": _Parts((
        _Sampled(1, (("transfer-commutator[identity-boundary]", "involution"),),
                 _draw_transfer(2), stacked=_transfer_stack(False), fixed=True),
        # exploratory: both boundary slots filled with the concrete reflection
        # map; the measured residual is recorded, not asserted (the b_minus
        # slot needs a dual map that is not derived yet)
        _Sampled(1, (("transfer-commutator[vnls-reflection:{}]", "algebraic",
                      {"informational": True}),),
                 _draw_transfer(2), _boundary_kinds, _transfer_stack(True), fixed=True),
        # the concrete reflection map is a valid b_plus with the identity as b_minus
        _Sampled(1, (("transfer-commutator[b-plus-reflection:{}]", "involution"),),
                 _draw_transfer(3), _boundary_kinds, _transfer_stack(False), fixed=True),
    )),
    "pde": _Sampled(
        1, (("pde-order[line-2-soliton]", "asymptotic", {"tolerance": 0.3}),
            ("pde-order[half-line-2-soliton]", "asymptotic", {"tolerance": 0.3}),
            ("boundary-order[robin]", "asymptotic", {"tolerance": 1.7, "comparison": ">="}),
            ("boundary-order[mixed]", "asymptotic", {"tolerance": 1.7, "comparison": ">="})),
        _draw_pde, fixed=True),
    "factorization": _Sampled(2, (("asymptotic-polarization-match", "asymptotic"),
                                  ("factorization-pipeline", "algebraic")),
                              _draw_factorization),
}


#: The suites that read suite.n and suite.N; any other suite refuses them.
_SIZE_READERS = {"n": ("ybe", "reversibility", "reflection-equation", "involution", "permutation"),
                 "N": ("permutation",)}


def run_property_suite(cfg: RunConfig) -> ReportDocument:
    """Execute one named suite deterministically under the configured seed."""
    if cfg.suite_name not in _SUITES:
        raise ConfigError(
            f"suite.name: unknown suite {cfg.suite_name!r}; "
            f"available: {sorted(_SUITES)}"
        )
    for key, readers in _SIZE_READERS.items():
        if key in cfg.suite_params and cfg.suite_name not in readers:
            raise ConfigError(f"suite.{key}: the {cfg.suite_name} suite does not read it; "
                              f"only {', '.join(readers)} do")
    report = ReportDocument(mode=cfg.mode, config_echo=config_echo(cfg.raw))
    log = SampleLog()
    rng = np.random.default_rng(cfg.suite_params.get("seed", 0))
    if cfg.suite_params.get("samples") != 0:
        report.clock = time.perf_counter()
        _SUITES[cfg.suite_name](cfg, rng, report, log)
    report.resamples = log.resamples
    return report


# --- modes ---------------------------------------------------------------------


def _grid_from_cfg(cfg: RunConfig, field_fn) -> FieldGrid:
    g = cfg.grid
    return sample_grid(field_fn, g["x0"], g["x1"], g["t0"], g["t1"], g["nx"], g["nt"])


def _mode_simulate(cfg: RunConfig, report: ReportDocument) -> None:
    if cfg.data is None:
        raise ConfigError("data: required for simulate mode")
    if cfg.grid is None:
        raise ConfigError("grid: required for simulate mode")
    grid = _grid_from_cfg(cfg, lambda X, T: reconstruct_field(cfg.data, X, T))
    export_grid(grid, cfg.output / "grid.csv")
    _check(report, cfg, "pde-residual", pde_residual(grid), informational=True)
    _write_manifest(cfg, soliton_data_to_json(cfg.data), ["grid.csv", "report.json"])


def _mode_collide(cfg: RunConfig, report: ReportDocument) -> None:
    if cfg.data is None or cfg.data.N < 2:
        raise ConfigError("data: collide mode needs at least two solitons")
    data = cfg.data
    _check(report, cfg, "pairwise-collision-relations", _pair_residuals(data)[0][0],
           family="algebraic")
    _check(report, cfg, "factorization-pipeline",
           _pipeline_residuals(_in_out(data), data.ks[None])[0], family="algebraic")
    doc = {
        "in": soliton_data_to_json(_replace_betas(data, beta_in)),
        "out": soliton_data_to_json(_replace_betas(data, beta_out)),
    }
    _write_json(cfg.output / "collide.json", doc)
    _write_manifest(cfg, soliton_data_to_json(data), ["collide.json", "report.json"])


def _replace_betas(data: SolitonData, which) -> SolitonData:
    return SolitonData(
        data.n,
        tuple((pt, which(j, data)) for j, (pt, _) in enumerate(data.points)),
    )


def _mode_reflect(cfg: RunConfig, report: ReportDocument) -> None:
    if cfg.data is None:
        raise ConfigError("data: required for reflect mode")
    if cfg.boundary is None:
        raise ConfigError("boundary: required for reflect mode")
    # every soliton is one sample of a one-slot state
    P = np.array([[Polarization(nv.beta).p] for _, nv in cfg.data.points])
    K = cfg.data.ks[:, None]
    stack = boundary_stack((cfg.boundary,) * cfg.data.N, P.shape[-1])
    Q, L = reflection_maps(P, K, stack)
    records = []
    for j, (k, kr) in enumerate(zip(K[:, 0].tolist(), L[:, 0].tolist())):
        records.append(
            {
                "index": j,
                "k": [k.real, k.imag],
                "reflected_k": [kr.real, kr.imag],
                "polarization": [[z.real, z.imag] for z in P[j, 0]],
                "reflected_polarization": [[z.real, z.imag] for z in Polarization(Q[j, 0]).p],
            }
        )
    worst = _worst(involution_residuals(P, K, stack).tolist())
    _check(report, cfg, "reflection-involution", worst, family="involution")
    _write_json(cfg.output / "reflect.json", {"reflections": records})
    _write_manifest(cfg, soliton_data_to_json(cfg.data), ["reflect.json", "report.json"])


def _mode_mirror(cfg: RunConfig, report: ReportDocument) -> None:
    if cfg.data is None:
        raise ConfigError("data: required for mirror mode")
    if cfg.boundary is None:
        raise ConfigError("boundary: required for mirror mode")
    if cfg.grid is not None and cfg.grid["x0"] < 0:
        raise ConfigError("grid.x0: half-line grids need x0 >= 0")
    hl = cfg.halfline or solve_mirror_norming(cfg.data, cfg.boundary)
    _check(report, cfg, "mirror-constraint", hl.constraint_residual,
           family="mirror_constraint")
    _check(report, cfg, "mirror-polarization", mirror_polarization_residual(hl),
           family="algebraic")
    doc = halfline_to_json(hl)
    _write_json(cfg.output / "halfline.json", doc)
    outputs = ["halfline.json"]
    if cfg.grid is not None:
        grid = _grid_from_cfg(cfg, lambda X, T: halfline_field(hl, X, T))
        export_grid(grid, cfg.output / "grid.csv")
        _check(report, cfg, "pde-residual", pde_residual(grid), informational=True)
        ts = np.linspace(cfg.grid["t0"], cfg.grid["t1"], 9)
        _check(report, cfg, "boundary-residual", boundary_residual(hl, ts),
               informational=True)
        outputs.append("grid.csv")
    _write_manifest(cfg, doc, outputs + ["report.json"])


_MODES = {
    "simulate": _mode_simulate,
    "collide": _mode_collide,
    "reflect": _mode_reflect,
    "mirror": _mode_mirror,
}
MODES = (*_MODES, "verify", "transfer")


def run(cfg: RunConfig) -> int:
    """Execute one configured run; returns the process exit code.

    The output directory is made by the first write, so a run that stops on
    a config error leaves none behind.
    """
    if cfg.mode in _MODES:
        report = ReportDocument(mode=cfg.mode, config_echo=config_echo(cfg.raw))
        _MODES[cfg.mode](cfg, report)
    else:
        if cfg.suite_name is None:
            raise ConfigError("suite.name: required for verify mode")
        report = run_property_suite(cfg)
        _write_manifest(cfg, cfg.raw.get("suite", {}), ["report.json"])
    _write_json(cfg.output / "report.json", report.to_json())
    for chk in report.checks:
        status = "INFO" if chk.passed is None else ("PASS" if chk.passed else "FAIL")
        tol = "-" if chk.tolerance is None else f"{chk.tolerance:g}"
        timing = f" ({chk.elapsed * 1e3:.1f} ms)" if chk.elapsed else ""
        print(f"{status:4s} {chk.name}: residual={chk.residual:.6e} "
              f"{chk.comparison} {tol}{timing}")
    print(f"report: {cfg.output / 'report.json'}  resamples={report.resamples}")
    return 0 if report.passed else 2


#: Built once, at import: building a parser takes several times as long as a parse.
_PARSER = argparse.ArgumentParser(
    prog="vsolitons",
    description="Vector NLS soliton workbench: constructions and property suites.",
)
_PARSER.add_argument("mode", choices=MODES)
_PARSER.add_argument("--config", required=True, help="path to the JSON run config")
_PARSER.add_argument("--out", help="output directory (overrides config)")
_PARSER.add_argument("--seed", type=int, help="suite seed (overrides config)")
_PARSER.add_argument("--samples", type=int, help="suite sample count (overrides config)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        doc = dict(_expect(load_json(args.config), dict, "config"), mode=args.mode)
        if args.out is not None:
            doc["output"] = args.out
        overrides = {key: val for key, val in (("seed", args.seed), ("samples", args.samples))
                     if val is not None}
        if overrides:
            doc["suite"] = {**_object(doc.get("suite", {}), "suite", (), _SUITE_KEYS), **overrides}
        cfg = parse_run_config(doc)
        return run(cfg)
    except VsolitonsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
