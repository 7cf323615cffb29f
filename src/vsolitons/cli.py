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
import platform
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from . import __version__
from .asymptotics import (
    beta_in,
    beta_out,
    collision_consistency_residual,
    min_relative_velocity,
    xi_factor,
)
from .config import (
    dataset_digest,
    halfline_to_json,
    load_json,
    parse_boundary,
    parse_halfline,
    parse_soliton_data,
    soliton_data_to_json,
)
from .dressing import (
    blaschke_factor,
    build_reduced_chain,
    eval_chain,
    one_soliton_field,
    permutation_residual,
    reconstruct_field,
)
from .errors import ConfigError, PoleError, VsolitonsError
from .maps import (
    BoundaryReflection,
    ExtendedPoint,
    IdentityReflection,
    YangBaxterRule,
    involution_residual,
    reflection_equation_residual,
    reflection_map,
    reversibility_residual,
    s_twist_residual,
    transfer_commutator_residual,
    yb_map,
    ybe_residual,
)
from .mirror import (
    HalfLineData,
    halfline_field,
    mirror_constraint_residual,
    mirror_polarization_residual,
    solve_mirror_norming,
)
from .sampling import (
    BOUNDARY_KINDS,
    SampleLog,
    random_boundary,
    random_map_parameters,
    random_polarization,
    random_soliton_data,
    random_unitary,
)
from .soldata import (
    Mixed,
    Polarization,
    Robin,
    SolitonData,
    polarization_of,
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

MODES = ("simulate", "collide", "reflect", "mirror", "verify", "transfer")

#: Default tolerances by check family; each overridable per run.
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
    family: str = "algebraic"
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
    samples: Optional[int] = None
    seed: Optional[int] = None
    tolerances: Dict[str, float] = field(default_factory=dict)
    suite_params: Dict[str, int] = field(default_factory=dict)
    output: Path = Path("out")


def parse_run_config(doc: dict, path_hint: str = "config") -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path_hint}: top level must be a JSON object")
    mode = doc.get("mode")
    if mode not in MODES:
        raise ConfigError(f"{path_hint}.mode: expected one of {MODES}, got {mode!r}")
    cfg = RunConfig(mode=mode, raw=doc)

    if "data" in doc:
        block = doc["data"]
        if isinstance(block, dict) and "real_count" in block:
            cfg.halfline = parse_halfline(block, "data")
            cfg.data = cfg.halfline.combined
            cfg.boundary = cfg.halfline.spec
        else:
            cfg.data = parse_soliton_data(block, "data")
    if "boundary" in doc and cfg.boundary is None:
        cfg.boundary = parse_boundary(doc["boundary"], "boundary")
    if "grid" in doc:
        cfg.grid = _parse_grid(doc["grid"])

    suite = doc.get("suite", {})
    if suite:
        if not isinstance(suite, dict):
            raise ConfigError("suite: must be an object")
        cfg.suite_name = suite.get("name")
        if "samples" in suite:
            cfg.samples = _parse_count(suite["samples"], "suite.samples")
        if "seed" in suite:
            cfg.seed = _parse_count(suite["seed"], "suite.seed")
        tols = suite.get("tolerances", {})
        if not isinstance(tols, dict):
            raise ConfigError("suite.tolerances: must be an object")
        for key, val in tols.items():
            if isinstance(val, bool) or not isinstance(val, (int, float)) or val < 0:
                raise ConfigError(f"suite.tolerances.{key}: must be a nonnegative number")
            cfg.tolerances[str(key)] = float(val)
        for key in ("n", "N"):
            if key in suite:
                cfg.suite_params[key] = _parse_count(suite[key], f"suite.{key}")
    if cfg.samples is not None and cfg.samples > 0 and cfg.seed is None:
        raise ConfigError("suite.seed: required whenever samples > 0 (reproducibility)")
    if "output" in doc:
        if not isinstance(doc["output"], str):
            raise ConfigError("output: must be a directory path string")
        cfg.output = Path(doc["output"])
    return cfg


def _parse_count(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int) or obj < 0:
        raise ConfigError(f"{where}: must be a nonnegative integer")
    return obj


def _parse_grid(obj) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("grid: must be an object")
    out = {}
    for key in ("x0", "x1", "t0", "t1"):
        if key not in obj:
            raise ConfigError(f"grid.{key}: missing")
        val = obj[key]
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"grid.{key}: must be a number")
        out[key] = float(val)
    for key in ("nx", "nt"):
        if key not in obj:
            raise ConfigError(f"grid.{key}: missing")
        val = obj[key]
        if isinstance(val, bool) or not isinstance(val, int) or val < 5:
            raise ConfigError(f"grid.{key}: must be an integer >= 5")
        out[key] = val
    if not (out["x1"] > out["x0"] and out["t1"] > out["t0"]):
        raise ConfigError("grid: bounds must satisfy x1 > x0 and t1 > t0")
    return out


def _tol(cfg: RunConfig, name: str, family: str) -> float:
    if name in cfg.tolerances:
        return cfg.tolerances[name]
    if family in cfg.tolerances:
        return cfg.tolerances[family]
    return DEFAULT_TOLERANCES[family]


def _check(
    report: ReportDocument,
    cfg: RunConfig,
    name: str,
    residual: float,
    family: str = "algebraic",
    tolerance: Optional[float] = None,
    comparison: str = "<=",
    informational: bool = False,
) -> ReportCheck:
    tol = tolerance
    if tol is None and not informational:
        tol = _tol(cfg, name, family)
    chk = ReportCheck(name, float(residual), tol, family, comparison, informational)
    if report.clock is not None:
        # a check's time runs from the suite start or the previous check
        now = time.perf_counter()
        chk.elapsed, report.clock = now - report.clock, now
    report.checks.append(chk)
    return chk


# --- grid export ---------------------------------------------------------------


def export_grid(grid: FieldGrid, path) -> None:
    """CSV export: header x,t,re_1,im_1,...; rows ordered by t, then x.

    Every number is repr(float), the shortest string that reads back as the
    same double.  Rows are formatted and written one t-slice at a time.
    """
    header = "x,t," + ",".join(f"re_{c+1},im_{c+1}" for c in range(grid.n))
    xs = list(map(repr, grid.xs.tolist()))
    # (nt, nx, 2n) doubles: each row is re_1, im_1, ..., re_n, im_n
    slices = grid.values.transpose(1, 0, 2).copy().view(np.float64)
    with open(path, "w", encoding="utf-8") as out:
        out.write(header + "\n")
        for t, rows in zip(map(repr, grid.ts.tolist()), slices):
            out.write("".join([",".join([x, t, *map(repr, row)]) + "\n"
                               for x, row in zip(xs, rows.tolist())]))


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


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


def _suite_one_soliton(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
    worst = 0.0
    samples = cfg.samples if cfg.samples is not None else 20
    for i in range(samples):
        n = (2, 3, 1)[i % 3]
        data = random_soliton_data(rng, 1, n, log=log)
        xs = rng.uniform(-6, 6, 50)
        ts = rng.uniform(-3, 3, 50)
        exact = one_soliton_field(data.points[0][0], data.points[0][1], xs, ts)
        built = reconstruct_field(data, xs, ts)
        worst = max(worst, float(np.max(np.abs(exact - built))))
    _check(report, cfg, "one-soliton-oracle", worst, family="involution")


def _suite_determinant(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
    worst = 0.0
    samples = cfg.samples if cfg.samples is not None else 10
    for i in range(samples):
        N = 2 + i % 3
        data = random_soliton_data(rng, N, 2 + i % 2, log=log)
        chain = build_reduced_chain(data)
        ks = []
        for _ in range(20):
            k = complex(rng.uniform(-3, 3), rng.uniform(0, 2.5))
            if any(abs(k - kk.conjugate()) < 1e-6 for kk in data.ks):
                log.resamples += 1
                continue
            ks.append(k)
        for k, det in zip(ks, np.linalg.det(eval_chain(chain, ks))):
            prod = np.prod([blaschke_factor(pt, k) for pt, _ in data.points])
            worst = max(worst, abs(det - prod) / abs(prod))
    _check(report, cfg, "determinant-blaschke-product", worst, family="involution")


def _suite_permutation(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
    N = cfg.suite_params.get("N", 3)
    n = cfg.suite_params.get("n", 2)
    samples = cfg.samples if cfg.samples is not None else 5
    worst = 0.0
    reference = tuple(range(N))
    for _ in range(samples):
        data = random_soliton_data(rng, N, n, log=log)
        # checked after the draw: an N past the sampler's reach is a SamplingError
        if not 2 <= N <= 6:
            raise ConfigError(f"suite.N: the permutation suite needs 2 <= N <= 6, got {N}")
        ks = [complex(rng.uniform(-2, 2), rng.uniform(0.0, 2.0)) for _ in range(20)]
        xts = [(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(5)]
        for order in itertools.permutations(range(N)):
            if order == reference:
                continue
            worst = max(worst, permutation_residual(data, reference, order, ks, xts))
    _check(report, cfg, f"permutation-factorization[N={N},n={n}]", worst, family="algebraic")


def _suite_ybe(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
    samples = cfg.samples if cfg.samples is not None else 100
    for n in _suite_ns(cfg):
        worst = 0.0
        for _ in range(samples):
            ks = random_map_parameters(rng, 3, log=log)
            ps = [random_polarization(rng, n) for _ in range(3)]
            worst = max(worst, ybe_residual(*ks, *ps))
        _check(report, cfg, f"yang-baxter-equation[n={n}]", worst, family="algebraic")


def _suite_reversibility(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
    samples = cfg.samples if cfg.samples is not None else 100
    for n in _suite_ns(cfg):
        worst = 0.0
        for _ in range(samples):
            ks = random_map_parameters(rng, 2, log=log)
            ps = [random_polarization(rng, n) for _ in range(2)]
            worst = max(worst, reversibility_residual(ks[0], ks[1], ps[0], ps[1]))
        _check(report, cfg, f"reversibility[n={n}]", worst, family="involution")


def _suite_yb_structure(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
    samples = cfg.samples if cfg.samples is not None else 50
    worst_u = worst_s = 0.0
    for i in range(samples):
        n = (2, 3)[i % 2]
        ks = random_map_parameters(rng, 2, mirrored=True, log=log)
        ps = [random_polarization(rng, n) for _ in range(2)]
        V = random_unitary(rng, n)
        a1, a2 = yb_map(ks[0], ks[1], ps[0], ps[1])
        b1, b2 = yb_map(
            ks[0], ks[1], Polarization(V @ ps[0].p), Polarization(V @ ps[1].p)
        )
        worst_u = max(
            worst_u,
            projective_distance(Polarization(V @ a1.p), b1),
            projective_distance(Polarization(V @ a2.p), b2),
        )
        worst_s = max(worst_s, s_twist_residual(ks[0], ks[1], ps[0], ps[1]))
    _check(report, cfg, "unitary-diagonal-invariance", worst_u, family="involution")
    _check(report, cfg, "parameter-twist-transpose", worst_s, family="involution")


def _boundary_kinds(cfg: RunConfig):
    if cfg.boundary is not None:
        return [("given", cfg.boundary)]
    return [(label, None) for label in BOUNDARY_KINDS]


def _suite_reflection_equation(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
    samples = cfg.samples if cfg.samples is not None else 100
    for label, fixed in _boundary_kinds(cfg):
        worst = 0.0
        for i in range(samples):
            n = _suite_ns(cfg)[i % len(_suite_ns(cfg))]
            spec = fixed if fixed is not None else random_boundary(rng, label, n)
            nn = spec.n or n
            ks = random_map_parameters(rng, 2, mirrored=True, log=log)
            ps = [random_polarization(rng, nn) for _ in range(2)]
            try:
                worst = max(
                    worst, reflection_equation_residual(ks[0], ks[1], ps[0], ps[1], spec)
                )
            except PoleError:
                log.resamples += 1
        _check(report, cfg, f"reflection-equation[{label}]", worst, family="algebraic")


def _suite_involution(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
    samples = cfg.samples if cfg.samples is not None else 100
    for label, fixed in _boundary_kinds(cfg):
        worst = 0.0
        for i in range(samples):
            n = _suite_ns(cfg)[i % len(_suite_ns(cfg))]
            spec = fixed if fixed is not None else random_boundary(rng, label, n)
            nn = spec.n or n
            ks = random_map_parameters(rng, 1, mirrored=True, log=log)
            worst = max(
                worst, involution_residual(ks[0], random_polarization(rng, nn), spec)
            )
        _check(report, cfg, f"reflection-involution[{label}]", worst, family="involution")


def _suite_collision(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
    samples = cfg.samples if cfg.samples is not None else 20
    worst_rel = worst_xi = worst_pipe = 0.0
    for i in range(samples):
        N = 2 + i % 2
        n = (2, 3)[i % 2]
        data = random_soliton_data(rng, N, n, log=log)
        for j in range(N):
            for l in range(j + 1, N):
                spect = tuple(m for m in range(N) if m not in (j, l))[: i % 2]
                worst_rel = max(
                    worst_rel, collision_consistency_residual(j, l, spect, data)
                )
                worst_xi = max(
                    worst_xi,
                    abs(xi_factor(j, l, spect, data) - xi_factor(l, j, spect, data)),
                )
        worst_pipe = max(worst_pipe, _pipeline_residual(data))
    _check(report, cfg, "pairwise-collision-relations", worst_rel, family="algebraic")
    _check(report, cfg, "norm-ratio-symmetry", worst_xi, family="involution")
    _check(report, cfg, "factorization-pipeline", worst_pipe, family="algebraic")


def collision_orders(N: int):
    """Two maximal collision schedules: lexicographic and reversed."""
    pairs = [(j, l) for j in range(N) for l in range(j + 1, N)]
    return pairs, list(reversed(pairs))


def yb_pipeline(data: SolitonData, order_pairs) -> List[Polarization]:
    """Drive the in-polarizations through a schedule of pairwise collisions."""
    state = [polarization_of(beta_in(j, data)) for j in range(data.N)]
    ks = data.ks
    for a, b in order_pairs:
        pa, pb = yb_map(ks[a], ks[b], state[a], state[b])
        state[a], state[b] = pa, pb
    return state


def _pipeline_residual(data: SolitonData) -> float:
    outs = [polarization_of(beta_out(j, data)) for j in range(data.N)]
    worst = 0.0
    for schedule in collision_orders(data.N):
        got = yb_pipeline(data, schedule)
        worst = max(
            worst,
            max(projective_distance(a, b) for a, b in zip(got, outs)),
        )
    return worst


def _suite_mirror(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog, which: str):
    samples = cfg.samples if cfg.samples is not None else 10
    # the mirror suites draw the unrotated kinds only
    for label, fixed in _boundary_kinds(cfg)[:2]:
        worst = 0.0
        for i in range(samples):
            N = 1 + i % 3
            n = (2, 3)[i % 2]
            data = random_soliton_data(rng, N, n, positive=True, log=log)
            spec = fixed if fixed is not None else random_boundary(rng, label, n)
            if (spec.n or n) != n:
                n = spec.n
                data = random_soliton_data(rng, N, n, positive=True, log=log)
            hl = solve_mirror_norming(data, spec)
            if which == "constraint":
                worst = max(worst, mirror_constraint_residual(hl))
            else:
                worst = max(worst, mirror_polarization_residual(hl))
        if which == "constraint":
            _check(report, cfg, f"mirror-constraint[{label}]", worst, family="mirror_constraint")
        else:
            _check(report, cfg, f"mirror-polarization[{label}]", worst, family="algebraic")
    if which == "constraint":
        # detector sanity: a corrupted mirror norming vector must be flagged
        data = random_soliton_data(rng, 2, 2, positive=True, log=log)
        hl = solve_mirror_norming(data, Mixed((1, -1)))
        hl_bad = _perturb_halfline(hl, 1e-3)
        _check(
            report,
            cfg,
            "mirror-constraint-detector",
            mirror_constraint_residual(hl_bad),
            family="asymptotic",
            tolerance=1e-4,
            comparison=">=",
        )


def _perturb_halfline(hl: HalfLineData, size: float) -> HalfLineData:
    from .soldata import NormingVector

    pts = list(hl.mirror_data.points)
    pt, nv = pts[0]
    bumped = nv.beta.copy()
    bumped[0] += size * nv.norm
    pts[0] = (pt, NormingVector(bumped))
    mirror = SolitonData(hl.n, tuple(pts))
    combined = SolitonData(hl.n, hl.real_data.points + mirror.points)
    return HalfLineData(hl.real_data, mirror, hl.spec, combined)


def _suite_transfer(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
    R = YangBaxterRule()
    ident = IdentityReflection()
    worst = 0.0
    for N in (2, 3):
        ks = random_map_parameters(rng, N, mirrored=True, log=log)
        state = tuple(ExtendedPoint(random_polarization(rng, 2), k) for k in ks)
        maps = {"R": R, "B_plus": ident, "B_minus": ident}
        for j in range(N):
            for l in range(j, N):
                worst = max(worst, transfer_commutator_residual(j, l, maps, state))
    _check(report, cfg, "transfer-commutator[identity-boundary]", worst, family="involution")

    ks = random_map_parameters(rng, 2, mirrored=True, log=log)
    scalar_state = tuple(ExtendedPoint(Polarization([1.0]), k) for k in ks)
    maps1 = {
        "R": R,
        "B_plus": BoundaryReflection(Robin(0.5)),
        "B_minus": BoundaryReflection(Robin(0.5)),
    }
    _check(
        report,
        cfg,
        "transfer-commutator[scalar]",
        transfer_commutator_residual(0, 1, maps1, scalar_state),
        family="involution",
        tolerance=0.0,
    )

    # exploratory: both boundary slots filled with the concrete reflection map;
    # the measured residual is recorded, not asserted
    for label in BOUNDARY_KINDS:
        spec = cfg.boundary if cfg.boundary is not None else random_boundary(rng, label, 2)
        n = spec.n or 2
        B = BoundaryReflection(spec)
        maps_b = {"R": R, "B_plus": B, "B_minus": B}
        worst = 0.0
        for N in (2, 3):
            ks = random_map_parameters(rng, N, mirrored=True, log=log)
            state = tuple(ExtendedPoint(random_polarization(rng, n), k) for k in ks)
            for j in range(N):
                for l in range(j + 1, N):
                    worst = max(worst, transfer_commutator_residual(j, l, maps_b, state))
        _check(
            report,
            cfg,
            f"transfer-commutator[vnls-reflection:{label}]",
            worst,
            informational=True,
        )
        if cfg.boundary is not None:
            break


def _suite_pde(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
    hs = [0.04, 0.02, 0.01]
    data = random_soliton_data(rng, 2, 2, log=log)

    def line_res(h):
        nx, nt = int(round(8 / h)) + 1, int(round(2 / h)) + 1
        grid = sample_grid(
            lambda X, T: reconstruct_field(data, X, T), -4, 4, -1, 1, nx, nt
        )
        return pde_residual(grid)

    order = convergence_order(line_res, hs)
    _check(report, cfg, "pde-order[line-2-soliton]", abs(order - 2.0),
           family="asymptotic", tolerance=0.3)

    hdata = random_soliton_data(rng, 2, 2, positive=True, log=log)
    hl_mixed = solve_mirror_norming(hdata, Mixed((1, -1)))
    hl_robin = solve_mirror_norming(hdata, Robin(0.8))

    def half_res(h):
        nx, nt = int(round(6 / h)) + 1, int(round(2 / h)) + 1
        grid = sample_grid(
            lambda X, T: halfline_field(hl_mixed, X, T), 0, 6, -1, 1, nx, nt
        )
        return pde_residual(grid)

    order = convergence_order(half_res, hs)
    _check(report, cfg, "pde-order[half-line-2-soliton]", abs(order - 2.0),
           family="asymptotic", tolerance=0.3)

    ts = np.linspace(-1.0, 1.0, 9)
    order_r = convergence_order(lambda h: boundary_residual(hl_robin, ts, h=h), hs)
    _check(report, cfg, "boundary-order[robin]", order_r,
           family="asymptotic", tolerance=1.7, comparison=">=")
    order_m = convergence_order(lambda h: boundary_residual(hl_mixed, ts, h=h), hs)
    _check(report, cfg, "boundary-order[mixed]", order_m,
           family="asymptotic", tolerance=1.7, comparison=">=")


def _suite_factorization(cfg: RunConfig, rng, report: ReportDocument, log: SampleLog):
    samples = cfg.samples if cfg.samples is not None else 2
    worst_pol = worst_pipe = 0.0
    for i in range(samples):
        N = 2 + i % 2
        data = _moderate_collision_data(rng, N, (2, 3)[i % 2], log)
        T = 18.0 / (
            min(pt.v for pt, _ in data.points) * min_relative_velocity(data)
        )
        for j in range(data.N):
            for t, bfun in ((-T, beta_in), (T, beta_out)):
                pol, _ = extract_asymptotic_polarization(data, j, t)
                worst_pol = max(
                    worst_pol,
                    projective_distance(pol, polarization_of(bfun(j, data))),
                )
        worst_pipe = max(worst_pipe, _pipeline_residual(data))
    _check(report, cfg, "asymptotic-polarization-match", worst_pol, family="asymptotic")
    _check(report, cfg, "factorization-pipeline", worst_pipe, family="algebraic")


def _moderate_collision_data(rng, N: int, n: int, log) -> SolitonData:
    """Random data with v and velocity gaps bounded away from zero.

    Keeps the asymptotic extraction times modest so field scans stay cheap.
    """
    while True:
        data = random_soliton_data(rng, N, n, log=log)
        vmin = min(pt.v for pt, _ in data.points)
        if vmin >= 0.5 and min_relative_velocity(data) >= 0.8:
            return data
        if log is not None:
            log.resamples += 1


_SUITES: Dict[str, Callable] = {
    "one-soliton": _suite_one_soliton,
    "determinant": _suite_determinant,
    "permutation": _suite_permutation,
    "ybe": _suite_ybe,
    "reversibility": _suite_reversibility,
    "yb-structure": _suite_yb_structure,
    "reflection-equation": _suite_reflection_equation,
    "involution": _suite_involution,
    "collision": _suite_collision,
    "mirror-constraint": lambda c, r, rep, lg: _suite_mirror(c, r, rep, lg, "constraint"),
    "mirror-polarization": lambda c, r, rep, lg: _suite_mirror(c, r, rep, lg, "polarization"),
    "transfer": _suite_transfer,
    "pde": _suite_pde,
    "factorization": _suite_factorization,
}


def _suite_ns(cfg: RunConfig) -> list:
    if "n" in cfg.suite_params:
        return [cfg.suite_params["n"]]
    return [2, 3]


def run_property_suite(cfg: RunConfig) -> ReportDocument:
    """Execute one named suite deterministically under the configured seed."""
    if cfg.suite_name not in _SUITES:
        raise ConfigError(
            f"suite.name: unknown suite {cfg.suite_name!r}; "
            f"available: {sorted(_SUITES)}"
        )
    report = ReportDocument(mode=cfg.mode, config_echo=config_echo(cfg.raw))
    log = SampleLog()
    rng = np.random.default_rng(cfg.seed if cfg.seed is not None else 0)
    if cfg.samples != 0:
        report.clock = time.perf_counter()
        _SUITES[cfg.suite_name](cfg, rng, report, log)
    report.resamples = log.resamples
    return report


# --- modes ---------------------------------------------------------------------


def _grid_from_cfg(cfg: RunConfig, field_fn) -> FieldGrid:
    g = cfg.grid
    return sample_grid(field_fn, g["x0"], g["x1"], g["t0"], g["t1"], g["nx"], g["nt"])


def _mode_simulate(cfg: RunConfig, report: ReportDocument) -> List[str]:
    if cfg.data is None:
        raise ConfigError("data: required for simulate mode")
    if cfg.grid is None:
        raise ConfigError("grid: required for simulate mode")
    grid = _grid_from_cfg(cfg, lambda X, T: reconstruct_field(cfg.data, X, T))
    export_grid(grid, cfg.output / "grid.csv")
    _check(report, cfg, "pde-residual", pde_residual(grid), informational=True)
    _write_manifest(cfg, soliton_data_to_json(cfg.data), ["grid.csv", "report.json"])
    return ["grid.csv", "manifest.json"]


def _mode_collide(cfg: RunConfig, report: ReportDocument) -> List[str]:
    if cfg.data is None or cfg.data.N < 2:
        raise ConfigError("data: collide mode needs at least two solitons")
    data = cfg.data
    worst = 0.0
    for j in range(data.N):
        for l in range(j + 1, data.N):
            spect = tuple(m for m in range(data.N) if m not in (j, l))
            worst = max(worst, collision_consistency_residual(j, l, spect[:1], data))
    _check(report, cfg, "pairwise-collision-relations", worst, family="algebraic")
    _check(report, cfg, "factorization-pipeline", _pipeline_residual(data), family="algebraic")
    doc = {
        "in": soliton_data_to_json(_replace_betas(data, beta_in)),
        "out": soliton_data_to_json(_replace_betas(data, beta_out)),
    }
    _write_json(cfg.output / "collide.json", doc)
    _write_manifest(cfg, soliton_data_to_json(data), ["collide.json", "report.json"])
    return ["collide.json", "manifest.json"]


def _replace_betas(data: SolitonData, which) -> SolitonData:
    return SolitonData(
        data.n,
        tuple((pt, which(j, data)) for j, (pt, _) in enumerate(data.points)),
    )


def _mode_reflect(cfg: RunConfig, report: ReportDocument) -> List[str]:
    if cfg.data is None:
        raise ConfigError("data: required for reflect mode")
    if cfg.boundary is None:
        raise ConfigError("boundary: required for reflect mode")
    records = []
    worst = 0.0
    for j, (pt, nv) in enumerate(cfg.data.points):
        pol = polarization_of(nv)
        out = reflection_map(pt.k, pol, cfg.boundary)
        worst = max(worst, involution_residual(pt.k, pol, cfg.boundary))
        records.append(
            {
                "index": j,
                "k": [pt.k.real, pt.k.imag],
                "reflected_k": [out.k.real, out.k.imag],
                "polarization": [[z.real, z.imag] for z in pol.p],
                "reflected_polarization": [[z.real, z.imag] for z in out.p.p],
            }
        )
    _check(report, cfg, "reflection-involution", worst, family="involution")
    _write_json(cfg.output / "reflect.json", {"reflections": records})
    _write_manifest(cfg, soliton_data_to_json(cfg.data), ["reflect.json", "report.json"])
    return ["reflect.json", "manifest.json"]


def _mode_mirror(cfg: RunConfig, report: ReportDocument) -> List[str]:
    if cfg.data is None:
        raise ConfigError("data: required for mirror mode")
    if cfg.boundary is None:
        raise ConfigError("boundary: required for mirror mode")
    hl = cfg.halfline or solve_mirror_norming(cfg.data, cfg.boundary)
    _check(report, cfg, "mirror-constraint", mirror_constraint_residual(hl),
           family="mirror_constraint")
    _check(report, cfg, "mirror-polarization", mirror_polarization_residual(hl),
           family="algebraic")
    _write_json(cfg.output / "halfline.json", halfline_to_json(hl))
    outputs = ["halfline.json", "manifest.json"]
    if cfg.grid is not None:
        if cfg.grid["x0"] < 0:
            raise ConfigError("grid.x0: half-line grids need x0 >= 0")
        grid = _grid_from_cfg(cfg, lambda X, T: halfline_field(hl, X, T))
        export_grid(grid, cfg.output / "grid.csv")
        _check(report, cfg, "pde-residual", pde_residual(grid), informational=True)
        ts = np.linspace(cfg.grid["t0"], cfg.grid["t1"], 9)
        _check(report, cfg, "boundary-residual", boundary_residual(hl, ts),
               informational=True)
        outputs.append("grid.csv")
    _write_manifest(cfg, halfline_to_json(hl), outputs + ["report.json"])
    return outputs


def _mode_verify(cfg: RunConfig) -> ReportDocument:
    if cfg.suite_name is None:
        raise ConfigError("suite.name: required for verify mode")
    return run_property_suite(cfg)


def _mode_transfer(cfg: RunConfig) -> ReportDocument:
    cfg = replace(cfg, suite_name="transfer")
    return run_property_suite(cfg)


def run(cfg: RunConfig) -> int:
    """Execute one configured run; returns the process exit code."""
    cfg.output.mkdir(parents=True, exist_ok=True)
    if cfg.mode == "verify":
        report = _mode_verify(cfg)
    elif cfg.mode == "transfer":
        report = _mode_transfer(cfg)
    else:
        report = ReportDocument(mode=cfg.mode, config_echo=config_echo(cfg.raw))
        if cfg.mode == "simulate":
            _mode_simulate(cfg, report)
        elif cfg.mode == "collide":
            _mode_collide(cfg, report)
        elif cfg.mode == "reflect":
            _mode_reflect(cfg, report)
        elif cfg.mode == "mirror":
            _mode_mirror(cfg, report)
    if cfg.mode in ("verify", "transfer"):
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vsolitons",
        description="Vector NLS soliton workbench: constructions and property suites.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="suite seed (overrides config)")
    parser.add_argument("--samples", type=int, help="suite sample count (overrides config)")
    args = parser.parse_args(argv)

    try:
        doc = load_json(args.config)
        if not isinstance(doc, dict):
            raise ConfigError("config: top level must be a JSON object")
        doc = dict(doc)
        doc["mode"] = args.mode
        if args.out is not None:
            doc["output"] = args.out
        if args.seed is not None or args.samples is not None:
            suite = dict(doc.get("suite", {}))
            if args.seed is not None:
                suite["seed"] = args.seed
            if args.samples is not None:
                suite["samples"] = args.samples
            doc["suite"] = suite
        cfg = parse_run_config(doc)
        return run(cfg)
    except VsolitonsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
