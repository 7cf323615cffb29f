"""Generated bad configs take the documented exit path.

Each case mutates one configs/*.json document once: it substitutes a value
from a pool that spans types and magnitudes, deletes a key, or inserts an
unknown key into an object at any level, and runs the result through main.
Reordered data (solitons permuted, signs of u flipped) is refused by the
parser or runs: exit 1 never follows a successful parse.
"""

import contextlib
import copy
import io
import itertools
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsolitons.cli import main, parse_run_config
from vsolitons.errors import ConfigError
from vsolitons.suites import _SUITES

CONFIGS = Path(__file__).parent.parent / "configs"
MODES = sorted(path.stem for path in CONFIGS.glob("*.json"))

#: Values that span types and magnitudes, substituted or inserted as drawn.
POOL = [0, 1, -1, 1e-320, 1e-300, 1e154, 1e300, float("nan"), float("inf"), float("-inf"),
        True, False, None, "", "robin", [], [1.0, 0.0], [[1.0, 0.0]], {}, {"kind": "mixed"}]


def _base(mode: str, suite: str) -> dict:
    """configs/<mode>.json, with a grid of at most 41 x 21 nodes and at most 5
    samples so that no case allocates a large grid or starts a long draw (every
    n and N there is at most 6); verify mode runs the given suite."""
    doc = json.loads((CONFIGS / f"{mode}.json").read_text())
    if "grid" in doc:
        doc["grid"].update(nx=min(doc["grid"]["nx"], 41), nt=min(doc["grid"]["nt"], 21))
    if "suite" in doc:
        doc["suite"]["samples"] = min(doc["suite"]["samples"], 5)
    if mode == "verify":
        doc["suite"]["name"] = suite
    return doc


def _nodes(node, path=()):
    """(path, value) of the node and of everything under it."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nodes(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _located(path) -> str:
    """A path as errors print it: data.solitons[1].u, or u at the top level."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


@st.composite
def mutated_configs(draw):
    """(mode, mutated document, printed path of an inserted key or None)."""
    mode = draw(st.sampled_from(MODES))
    doc = _base(mode, draw(st.sampled_from(sorted(_SUITES))))
    nodes = list(_nodes(doc))
    value = copy.deepcopy(draw(st.sampled_from(POOL)))
    how = draw(st.sampled_from(["substitute", "delete", "insert"]))
    if how == "insert":
        path = draw(st.sampled_from([p for p, node in nodes if isinstance(node, dict)]))
        key = "zz_" + draw(st.sampled_from(["a", "samples", "u", "kind"]))
        _at(doc, path)[key] = value
        return mode, doc, _located((*path, key))
    if how == "delete":
        keys = [p for p, _ in nodes if p and isinstance(_at(doc, p[:-1]), dict)]
        path = draw(st.sampled_from(keys))
        del _at(doc, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from([p for p, _ in nodes if p]))
        _at(doc, path[:-1])[path[-1]] = value
    return mode, doc, None


def _check_exit_path(mode, doc, inserted):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "o"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        # no exception may escape main; a RuntimeWarning is one
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main([mode, "--config", str(config), "--out", str(out)])
        err = err.getvalue()
        assert code in (0, 1, 2)
        if code == 1:
            assert err.startswith("error: ") and not out.exists()
        else:
            assert (out / "report.json").is_file() and (out / "manifest.json").is_file()
        if inserted is not None:
            assert code == 1 and err.startswith(f"error: {inserted}: ")
    return code


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(mutated_configs())
def test_mutated_configs_take_the_exit_path(case):
    _check_exit_path(*case)


@pytest.mark.slow
@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(mutated_configs())
def test_mutated_configs_take_the_exit_path_many(case):
    _check_exit_path(*case)


def _reordered_data():
    """A case for each configs/*.json with data, each order of its solitons and
    each choice of signs of their u; its id names both, as order01-u+-."""
    for mode in MODES:
        doc = _base(mode, None)
        if "data" not in doc:
            continue
        solitons = doc["data"]["solitons"]
        for order in itertools.permutations(range(len(solitons))):
            for signs in itertools.product("+-", repeat=len(solitons)):
                data = dict(doc["data"], solitons=[
                    dict(solitons[i], u=solitons[i]["u"] * (-1 if sign == "-" else 1))
                    for i, sign in zip(order, signs)])
                yield pytest.param(mode, dict(doc, data=data),
                                   id=f"{mode}-order{''.join(map(str, order))}-u{''.join(signs)}")


@pytest.mark.parametrize("mode, doc", _reordered_data())
def test_reordered_data_is_refused_at_parse_or_runs(mode, doc):
    try:
        parse_run_config(dict(doc, mode=mode))
    except ConfigError:
        return
    assert _check_exit_path(mode, doc, None) in (0, 2)
