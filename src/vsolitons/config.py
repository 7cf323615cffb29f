"""Configuration documents: parsing, serialization, and digests.

One JSON document drives every CLI mode.  Soliton data is written as
{"n": ..., "solitons": [{"u": ..., "v": ..., "beta": [[re, im], ...]}, ...]};
half-line datasets reuse the same layout for the combined 2N points plus a
"boundary" block and "real_count".  Parse errors carry the JSON path of the
offending field.
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
        names = typ.__name__ if isinstance(typ, type) else "/".join(t.__name__ for t in typ)
        raise ConfigError(f"{where}: expected {names}, got {type(obj).__name__}")
    return obj


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {type(obj).__name__}")
    return float(obj)


def _complex_entry(obj, where: str) -> complex:
    pair = _expect(obj, list, where)
    if len(pair) != 2:
        raise ConfigError(f"{where}: expected [re, im]")
    return complex(_number(pair[0], where + "[0]"), _number(pair[1], where + "[1]"))


def parse_soliton_data(obj, where: str = "data") -> SolitonData:
    doc = _expect(obj, dict, where)
    if "n" not in doc:
        raise ConfigError(f"{where}.n: missing component count")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError(f"{where}.n: must be a positive integer, got {n!r}")
    sols = _expect(doc.get("solitons"), list, f"{where}.solitons")
    if not sols:
        raise ConfigError(f"{where}.solitons: needs at least one soliton")
    points = []
    for i, entry in enumerate(sols):
        here = f"{where}.solitons[{i}]"
        rec = _expect(entry, dict, here)
        for key in ("u", "v", "beta"):
            if key not in rec:
                raise ConfigError(f"{here}.{key}: missing")
        u = _number(rec["u"], f"{here}.u")
        v = _number(rec["v"], f"{here}.v")
        for key, val in (("u", u), ("v", v)):
            if abs(val) > _PARAMETER_LIMIT:
                raise ConfigError(f"{here}.{key}: |{key}| must be at most {_PARAMETER_LIMIT!r}")
        beta_list = _expect(rec["beta"], list, f"{here}.beta")
        if len(beta_list) != n:
            raise ConfigError(f"{here}.beta: expected {n} components, got {len(beta_list)}")
        beta = np.array(
            [_complex_entry(c, f"{here}.beta[{j}]") for j, c in enumerate(beta_list)]
        )
        try:
            points.append((SpectralPoint(u, v), NormingVector(beta)))
        except ValidationError as exc:
            raise ConfigError(f"{here}: {exc}")
    try:
        return SolitonData(n, tuple(points))
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}")


def parse_boundary(obj, where: str = "boundary") -> BoundarySpec:
    doc = _expect(obj, dict, where)
    kind = doc.get("kind")
    if kind == "robin":
        if "alpha" not in doc:
            raise ConfigError(f"{where}.alpha: missing Robin parameter")
        return Robin(_number(doc["alpha"], f"{where}.alpha"))
    if kind in ("mixed", "rotated_mixed"):
        signs = _expect(doc.get("signs"), list, f"{where}.signs")
        if any(isinstance(s, bool) or s not in (-1, 1) for s in signs):
            raise ConfigError(f"{where}.signs: entries must be +1 or -1")
        if kind == "mixed":
            return Mixed(tuple(signs))
        U = []
        for r, row in enumerate(_expect(doc.get("unitary"), list, f"{where}.unitary")):
            here = f"{where}.unitary[{r}]"
            if len(_expect(row, list, here)) != len(signs):
                raise ConfigError(f"{here}: expected {len(signs)} entries, one per sign")
            U.append([_complex_entry(c, f"{here}[{i}]") for i, c in enumerate(row)])
        try:
            return RotatedMixed(np.array(U), tuple(signs))
        except ValidationError as exc:
            raise ConfigError(f"{where}: {exc}")
    raise ConfigError(
        f"{where}.kind: expected one of robin/mixed/rotated_mixed, got {kind!r}"
    )


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
    doc = _expect(obj, dict, where)
    for key in ("real_count", "boundary"):
        if key not in doc:
            raise ConfigError(f"{where}.{key}: missing for half-line data")
    combined = parse_soliton_data(obj, where)
    count = doc["real_count"]
    if isinstance(count, bool) or not isinstance(count, int) or 2 * count != combined.N:
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
    if residual > CONSTRAINT_TOL:
        raise ConfigError(
            f"{where}: stored mirror norming vectors violate the constraint "
            f"(residual {residual:.3e} > {CONSTRAINT_TOL})"
        )
    return hl


def canonical_dumps(obj) -> str:
    """Deterministic JSON serialization: sorted keys, minimal separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dataset_digest(obj) -> str:
    """Stable sha256 of a canonical JSON rendering."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()
