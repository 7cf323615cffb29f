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
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .asymptotics import beta_in, beta_out, check_velocity_ordered
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
from .dressing import reconstruct_field
from .errors import ConfigError, DomainError, ValidationError, VsolitonsError
from .maps import _check_parameters, involution_residuals, reflection_maps
from .mirror import (
    HalfLineData,
    check_halfline_real_data,
    halfline_field,
    mirror_polarization_residual,
    solve_mirror_norming,
)
from .sampling import SampleLog
from .soldata import Polarization, SolitonData, boundary_stack
from .suites import (
    DEFAULT_TOLERANCES,
    ReportCheck,
    _SIZE_READERS,
    _SUITES,
    _check,
    _in_out,
    _pair_residuals,
    _pipeline_residuals,
    _worst,
)
from .verification import FieldGrid, boundary_residual, pde_residual, sample_grid


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


#: The optional top-level keys (besides the mode), and the least and largest
#: value of each suite integer (None: any).  The largest bound every suite's
#: draws and stacks: 100 times the largest default sample count, room past the
#: suites' own n limits, and permutation's own N range.
_TOP_KEYS = ("data", "boundary", "grid", "suite", "output")
_SUITE_INTEGERS = {"samples": (0, 10_000), "seed": (0, None), "n": (1, 16), "N": (2, 6)}


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

    suite = _object(doc.get("suite", {}), "suite", (), ("name", *_SUITE_INTEGERS, "tolerances"))
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
    # what the mode needs, in the order the mode reaches it: a config that parses runs
    for need in _MODE_NEEDS.get(cfg.mode, ()):
        if getattr(cfg, need.replace(".", "_")) is None:
            raise ConfigError(f"{need}: required for {cfg.mode} mode")
    if cfg.mode == "collide" and (cfg.data is None or cfg.data.N < 2):
        raise ConfigError("data: collide mode needs at least two solitons")
    if cfg.mode == "mirror" and cfg.grid is not None and cfg.grid["x0"] < 0:
        raise ConfigError("grid.x0: half-line grids need x0 >= 0")
    try:  # the data rules the mode's own layers apply, with their messages
        if cfg.mode == "collide":
            check_velocity_ordered(cfg.data)
        elif cfg.mode == "mirror" and cfg.halfline is None:  # mirror solves given data only
            check_halfline_real_data(cfg.data)
        elif cfg.mode == "reflect":
            _check_parameters(cfg.data.ks)
    except (DomainError, ValidationError) as exc:
        raise ConfigError(f"data: {exc}")
    if cfg.mode in ("reflect", "mirror") and cfg.boundary.n not in (None, cfg.data.n):
        raise ConfigError(f"boundary: acts on {cfg.boundary.n} components, "
                          f"the data has {cfg.data.n}")
    if cfg.mode in ("verify", "transfer"):
        if cfg.suite_name not in _SUITES:
            raise ConfigError(f"suite.name: unknown suite {cfg.suite_name!r}; "
                              f"available: {sorted(_SUITES)}")
        for key, readers in _SIZE_READERS.items():
            if key in cfg.suite_params and cfg.suite_name not in readers:
                raise ConfigError(f"suite.{key}: the {cfg.suite_name} suite does not read it; "
                                  f"only {', '.join(readers)} do")
    return cfg


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


#: The sections (RunConfig fields, as the config spells them) a mode cannot run
#: without; collide's two solitons, mirror's x0 >= 0 and the data rules of
#: collide, mirror and reflect are checked after them.
_MODE_NEEDS = {"simulate": ("data", "grid"), "reflect": ("data", "boundary"),
               "mirror": ("data", "boundary"), "verify": ("suite.name",)}


def run_property_suite(cfg: RunConfig) -> ReportDocument:
    """Execute one named suite deterministically under the configured seed."""
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
    grid = _grid_from_cfg(cfg, lambda X, T: reconstruct_field(cfg.data, X, T))
    export_grid(grid, cfg.output / "grid.csv")
    _check(report, cfg, "pde-residual", pde_residual(grid), informational=True)
    _write_manifest(cfg, soliton_data_to_json(cfg.data), ["grid.csv", "report.json"])


def _mode_collide(cfg: RunConfig, report: ReportDocument) -> None:
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
    an error before it leaves none behind.
    """
    if cfg.mode in _MODES:
        report = ReportDocument(mode=cfg.mode, config_echo=config_echo(cfg.raw))
        _MODES[cfg.mode](cfg, report)
    else:
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
            doc["suite"] = {**_expect(doc.get("suite", {}), dict, "suite"), **overrides}
        cfg = parse_run_config(doc)
        return run(cfg)
    except VsolitonsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
