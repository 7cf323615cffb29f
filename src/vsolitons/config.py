"""Configuration documents: parsing, serialization, and digests.

One JSON document drives every CLI mode.  Soliton data is written as
{"n": ..., "solitons": [{"u": ..., "v": ..., "beta": [[re, im], ...]}, ...]};
half-line datasets reuse the same layout for the combined 2N points plus a
"boundary" block and "real_count".  Every object accepts its listed keys and
no others, and parse errors carry the JSON path of the offending field.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np

from .errors import ConfigError, ValidationError
from .mirror import HalfLineData, CONSTRAINT_TOL
from .soldata import (
    POLE_MERGE_TOL,
    BoundarySpec,
    Mixed,
    NormingVector,
    Robin,
    RotatedMixed,
    SolitonData,
    SpectralPoint,
    _SAFE_NORM,
    _norms,
)


#: Largest accepted |u| and |v|: two parameters then differ by at most twice
#: this in each part, so every squared difference stays at most max/4.
_PARAMETER_LIMIT = math.sqrt(sys.float_info.max) / 4


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")


def _expect(obj, typ, where: str):
    if not isinstance(obj, typ):
        raise ConfigError(f"{where}: expected {typ.__name__}, got {type(obj).__name__}")
    return obj


def _object(obj, where: str, required=(), optional=()) -> dict:
    """obj as a JSON object with every required key and no other key than
    the optional ones.  where "" is the top level, whose keys are their paths."""
    doc = _expect(obj, dict, where or "config")
    for key in (*required, *doc):
        here = f"{where}.{key}" if where else key
        if key not in doc:
            raise ConfigError(f"{here}: missing")
        if key not in required and key not in optional:
            raise ConfigError(f"{here}: unknown key; expected one of {[*required, *optional]}")
    return doc


def _number(obj, where: str, least=None) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {type(obj).__name__}")
    if least is not None and not obj >= least:
        raise ConfigError(f"{where}: must be a number >= {least}")
    try:
        return float(obj)
    except OverflowError:  # an int beyond the float range
        raise ConfigError(f"{where}: must lie in the float range")


def _integer(obj, where: str, least: int, most=None) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int) or obj < least:
        raise ConfigError(f"{where}: must be an integer >= {least}")
    if most is not None and obj > most:
        raise ConfigError(f"{where}: must be at most {most}")
    return obj


def _complex_entry(obj, where: str) -> complex:
    pair = _expect(obj, list, where)
    if len(pair) != 2:
        raise ConfigError(f"{where}: expected [re, im]")
    return complex(_number(pair[0], where + "[0]"), _number(pair[1], where + "[1]"))


def parse_soliton_data(obj, where: str = "data") -> SolitonData:
    return _soliton_data(_object(obj, where, ("n", "solitons")), where)


def _soliton_data(doc: dict, where: str, given=None) -> SolitonData:
    """The soliton data of a checked object; the norming vectors of the first
    `given` solitons (default all) must have |beta| inside _SAFE_NORM."""
    n = _integer(doc["n"], f"{where}.n", 1)
    sols = _expect(doc["solitons"], list, f"{where}.solitons")
    if not sols:
        raise ConfigError(f"{where}.solitons: needs at least one soliton")
    points = []
    for i, entry in enumerate(sols):
        here = f"{where}.solitons[{i}]"
        rec = _object(entry, here, ("u", "v", "beta"))
        for key in ("u", "v"):
            if abs(_number(rec[key], f"{here}.{key}")) > _PARAMETER_LIMIT:
                raise ConfigError(f"{here}.{key}: |{key}| must be at most {_PARAMETER_LIMIT!r}")
        beta_list = _expect(rec["beta"], list, f"{here}.beta")
        if len(beta_list) != n:
            raise ConfigError(f"{here}.beta: expected {n} components, got {len(beta_list)}")
        beta = [_complex_entry(c, f"{here}.beta[{j}]") for j, c in enumerate(beta_list)]
        size = float(_norms(np.array(beta)))
        if (given is None or i < given) and not _SAFE_NORM[0] <= size <= _SAFE_NORM[1]:
            raise ConfigError(f"{here}.beta: |beta| = {size!r} must lie in "
                              f"[{_SAFE_NORM[0]!r}, {_SAFE_NORM[1]!r}]")
        try:
            points.append((SpectralPoint(rec["u"], rec["v"]), NormingVector(np.array(beta))))
        except ValidationError as exc:
            raise ConfigError(f"{here}: {exc}")
    try:
        return SolitonData(n, tuple(points))
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}")


#: The keys of each boundary kind besides "kind".
_BOUNDARY_KEYS = {"robin": ("alpha",), "mixed": ("signs",), "rotated_mixed": ("signs", "unitary")}


def parse_boundary(obj, where: str = "boundary") -> BoundarySpec:
    kind = _expect(obj, dict, where).get("kind")
    if kind not in tuple(_BOUNDARY_KEYS):  # a tuple: an unhashable kind is unequal, not an error
        raise ConfigError(
            f"{where}.kind: expected one of robin/mixed/rotated_mixed, got {kind!r}"
        )
    doc = _object(obj, where, ("kind", *_BOUNDARY_KEYS[kind]))
    try:
        if kind == "robin":
            return Robin(_number(doc["alpha"], f"{where}.alpha"))
        signs = _expect(doc["signs"], list, f"{where}.signs")
        if any(isinstance(s, bool) or s not in (-1, 1) for s in signs):
            raise ConfigError(f"{where}.signs: entries must be +1 or -1")
        if kind == "mixed":
            return Mixed(tuple(signs))
        U = []
        for r, row in enumerate(_expect(doc["unitary"], list, f"{where}.unitary")):
            here = f"{where}.unitary[{r}]"
            if len(_expect(row, list, here)) != len(signs):
                raise ConfigError(f"{here}: expected {len(signs)} entries, one per sign")
            U.append([_complex_entry(c, f"{here}[{i}]") for i, c in enumerate(row)])
        return RotatedMixed(np.array(U), tuple(signs))
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}")


def parse_grid(obj, where: str = "grid") -> dict:
    """Bounds x0 < x1, t0 < t1 and node counts nx, nt >= 5 of a sampling lattice."""
    doc = _object(obj, where, ("x0", "x1", "t0", "t1", "nx", "nt"))
    out = {key: _number(doc[key], f"{where}.{key}") for key in ("x0", "x1", "t0", "t1")}
    out.update((key, _integer(doc[key], f"{where}.{key}", 5)) for key in ("nx", "nt"))
    if not (out["x1"] > out["x0"] and out["t1"] > out["t0"]):
        raise ConfigError(f"{where}: bounds must satisfy x1 > x0 and t1 > t0")
    # a normal h^2 keeps 1/h^2 and 1/(2h), the difference stencils' scales, finite
    for name, a, b, count in (("hx", "x0", "x1", "nx"), ("ht", "t0", "t1", "nt")):
        h = (out[b] - out[a]) / (out[count] - 1)
        if not sys.float_info.min <= h * h <= sys.float_info.max:
            raise ConfigError(f"{where}: spacing {name} = {h!r} must square to a normal float")
    return out


def _complex_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def soliton_data_to_json(data: SolitonData) -> dict:
    return {
        "n": data.n,
        "solitons": [
            {
                "u": pt.u,
                "v": pt.v,
                "beta": [_complex_pair(z) for z in nv.beta],
            }
            for pt, nv in data.points
        ],
    }


def halfline_to_json(hl: HalfLineData) -> dict:
    doc = soliton_data_to_json(hl.combined)
    doc["real_count"] = hl.N
    doc["boundary"] = hl.spec.to_json()
    return doc


def parse_halfline(obj, where: str = "data") -> HalfLineData:
    """A stored half-line dataset: the combined 2N points, real first.  Only
    the real half's |beta| is windowed: mirror norming vectors are derived."""
    doc = _object(obj, where, ("n", "solitons", "real_count", "boundary"))
    count = _integer(doc["real_count"], f"{where}.real_count", 1)
    combined = _soliton_data(doc, where, given=count)
    if 2 * count != combined.N:
        raise ConfigError(
            f"{where}.real_count: must be half the soliton count {combined.N}"
        )
    spec = parse_boundary(doc["boundary"], f"{where}.boundary")
    real = combined.subset(range(count))
    mirror = combined.subset(range(count, 2 * count))
    for j in range(count):
        km = mirror.points[j][0].k
        kr = real.points[j][0].k
        if abs(km + kr.conjugate()) > POLE_MERGE_TOL:
            raise ConfigError(
                f"{where}.solitons[{count + j}]: not the mirror of soliton {j}"
            )
    hl = HalfLineData(real, mirror, spec)
    residual = hl.constraint_residual
    if not residual <= CONSTRAINT_TOL:  # a nan residual fails too
        raise ConfigError(
            f"{where}: stored mirror norming vectors violate the constraint "
            f"(residual {residual:.3e} > {CONSTRAINT_TOL})"
        )
    return hl


def dataset_digest(obj) -> str:
    """Stable sha256 of the canonical JSON rendering: sorted keys, minimal separators."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
