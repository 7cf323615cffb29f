import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vsolitons import (NormingVector, Polarization, SolitonData, SpectralPoint, beta_in, beta_out,
                       cli, collision_pair_residuals, intermediate_gamma, one_soliton_field,
                       projective_distance, yb_schedule)
from vsolitons.cli import export_grid, main, parse_run_config, run_property_suite
from vsolitons.config import (
    dataset_digest,
    halfline_to_json,
    parse_boundary,
    parse_halfline,
    parse_soliton_data,
    soliton_data_to_json,
)
from vsolitons.errors import ConfigError
from vsolitons.mirror import solve_mirror_norming
from vsolitons.sampling import SampleLog, random_soliton_data
from vsolitons.soldata import Mixed, SolitonStack
from vsolitons.verification import FieldGrid


ONE_SOLITON = {
    "n": 2,
    "solitons": [{"u": 0.0, "v": 1.0, "beta": [[1, 0], [0, 0]]}],
}

CONFIGS = Path(__file__).parent.parent / "configs"


def _shipped(mode, **changes):
    """configs/<mode>.json with the given top-level entries replaced."""
    return dict(json.loads((CONFIGS / f"{mode}.json").read_text()), **changes)


# a solved one-soliton half-line dataset, as mirror mode stores it
_STORED_HALFLINE = halfline_to_json(solve_mirror_norming(
    SolitonData(2, ((SpectralPoint(0.8, 1.0), NormingVector([0.8, 0.5 + 0.4j])),)), Mixed((1, -1))))


def _scaled_last_beta(mode, size):
    """configs/<mode>.json's data with the last soliton's |beta| = size."""
    data = _shipped(mode)["data"]
    data["solitons"][-1]["beta"] = [[0.6 * size, 0.0], [0.0, 0.8 * size]]
    return data


def _scaled_mirror_beta(scale):
    """_STORED_HALFLINE with its mirror soliton's beta times scale."""
    solitons = [dict(sol) for sol in _STORED_HALFLINE["solitons"]]
    solitons[-1]["beta"] = [[scale * a, scale * b] for a, b in solitons[-1]["beta"]]
    return dict(_STORED_HALFLINE, solitons=solitons)


def _strict_json(path):
    """A written JSON file, read as RFC 8259 allows: no NaN or Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{path.name}: {token} is not strict JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigParsing:
    def test_soliton_data_roundtrip(self):
        data = parse_soliton_data(ONE_SOLITON)
        assert data.N == 1 and data.n == 2
        assert soliton_data_to_json(data) == {
            "n": 2,
            "solitons": [{"u": 0.0, "v": 1.0, "beta": [[1.0, 0.0], [0.0, 0.0]]}],
        }

    def test_location_precise_errors(self):
        with pytest.raises(ConfigError, match=r"data\.solitons\[0\]\.beta"):
            parse_soliton_data({"n": 2, "solitons": [{"u": 0, "v": 1, "beta": [[1, 0]]}]})
        with pytest.raises(ConfigError, match=r"data\.n"):
            parse_soliton_data({"n": -1, "solitons": []})
        with pytest.raises(ConfigError, match="lower half plane"):
            parse_soliton_data(
                {"n": 1, "solitons": [{"u": 0, "v": -1, "beta": [[1, 0]]}]}
            )

    def test_boundary_kinds(self):
        assert parse_boundary({"kind": "robin", "alpha": 0.5}).alpha == 0.5
        assert parse_boundary({"kind": "mixed", "signs": [1, -1]}).signs == (1, -1)
        with pytest.raises(ConfigError, match="boundary.kind"):
            parse_boundary({"kind": "dirichlet"})

    def test_halfline_roundtrip(self):
        real = SolitonData(
            2, ((SpectralPoint(0.8, 1.0), NormingVector([1.0, 0.4j])),)
        )
        hl = solve_mirror_norming(real, Mixed((1, -1)))
        doc = halfline_to_json(hl)
        back = parse_halfline(doc)
        assert back.N == 1
        assert np.allclose(
            back.mirror_data.points[0][1].beta, hl.mirror_data.points[0][1].beta
        )

    def test_halfline_rejects_corrupted_norming(self):
        real = SolitonData(
            2, ((SpectralPoint(0.8, 1.0), NormingVector([1.0, 0.4j])),)
        )
        hl = solve_mirror_norming(real, Mixed((1, -1)))
        doc = halfline_to_json(hl)
        doc["solitons"][1]["beta"][0][0] += 1e-2
        with pytest.raises(ConfigError, match="constraint"):
            parse_halfline(doc)

    def test_seed_required_with_samples(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_run_config({"mode": "verify", "suite": {"name": "ybe", "samples": 5}})

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_run_config({"mode": "meditate"})


class TestExitCodes:
    def test_verify_pass_is_zero(self, tmp_path):
        cfg = write_config(
            tmp_path, {"suite": {"name": "ybe", "samples": 20, "seed": 7, "n": 2}}
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_malformed_config_is_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify", "--config", str(path)]) == 1

    def test_unknown_suite_is_one(self, tmp_path):
        cfg = write_config(tmp_path, {"suite": {"name": "nope", "samples": 1, "seed": 1}})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_imaginary_axis_mirror_is_one(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"data": ONE_SOLITON, "boundary": {"kind": "robin", "alpha": 1.0}},
        )
        assert main(["mirror", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_mirror_sign_pattern_of_wrong_size_is_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "data": {"n": 2, "solitons": [{"u": 0.8, "v": 1.0, "beta": [[1, 0], [0.4, 0]]}]},
                "boundary": {"kind": "mixed", "signs": [1, -1, 1]},
            },
        )
        assert main(["mirror", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "acts on 3 components, expected 2" in capsys.readouterr().err

    def test_negative_half_line_grid_is_one_and_writes_nothing(self, tmp_path, capsys):
        doc = json.loads((Path(__file__).parent.parent / "configs" / "mirror.json").read_text())
        doc["grid"]["x0"] = -1.0
        out = tmp_path / "o"
        assert main(["mirror", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert "grid.x0" in capsys.readouterr().err
        assert not (out / "halfline.json").exists()

    @pytest.mark.parametrize("mode", ["simulate", "mirror", "verify"])
    def test_config_error_leaves_no_output_directory(self, tmp_path, capsys, mode):
        doc = json.loads((Path(__file__).parent.parent / "configs" / "mirror.json").read_text())
        if mode == "simulate":
            del doc["grid"]
        elif mode == "mirror":
            doc["grid"]["x0"] = -1.0
        else:
            doc = {"suite": {"name": "nope", "samples": 1, "seed": 1}}
        out = tmp_path / "o"
        assert main([mode, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_nan_unitary_is_one_and_writes_nothing(self, tmp_path, capsys):
        unitary = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("nan"), 0.0]]]
        doc = {"suite": {"name": "involution", "samples": 2, "seed": 1},
               "boundary": {"kind": "rotated_mixed", "signs": [1, -1], "unitary": unitary}}
        out = tmp_path / "o"
        cfg = write_config(tmp_path, doc)
        assert "NaN" in Path(cfg).read_text()  # json writes and reads the NaN literal
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: boundary: matrix is not unitary")
        assert not out.exists()

    @pytest.mark.parametrize("mode,doc,where", [
        ("verify", {"suite": {"name": ["ybe"], "seed": 1}}, "suite.name"),
        ("verify", {"suite": {"name": "involution", "samples": 2, "seed": 1},
                    "boundary": {"kind": "rotated_mixed", "signs": [1, -1],
                                 "unitary": [[[1, 0]], [[0, 0], [1, 0]]]}}, "boundary.unitary[0]"),
        ("verify", {"suite": {"name": "ybe", "samples": 2, "seed": 1,
                              "tolerances": {"algebraic": math.nan}}}, "suite.tolerances.algebraic"),
        ("verify", {"suite": {"name": "ybe", "samples": 2, "seed": 1,
                              "tolerances": {"algebriac": 1e-30}}}, "suite.tolerances.algebriac"),
        ("verify", {"suite": {"name": "ybe", "samples": 1, "seed": 1, "n": 0}}, "suite.n"),
        ("verify", {"suite": {"name": "involution", "samples": 1, "seed": 1, "n": 0}}, "suite.n"),
        ("verify", {"suite": {"name": "permutation", "samples": 1, "seed": 1, "n": 0}}, "suite.n"),
        ("verify", {"suite": {"name": "permutation", "samples": 1, "seed": 1, "N": 0}}, "suite.N"),
        ("mirror", {"data": dict(_STORED_HALFLINE, real_count=True)}, "data.real_count"),
        ("simulate", _shipped("simulate", grid={"x0": 0.0, "x1": 1e-300, "t0": -1.0,
                                                 "t1": 1.0, "nx": 161, "nt": 41}), "grid"),
        ("collide", _shipped("collide", data={"n": 1, "solitons": [
            {"u": 1e300, "v": 1.0, "beta": [[1.0, 0.0]]},
            {"u": 2e300, "v": 1.0, "beta": [[1.0, 0.0]]}]}), "data.solitons[0].u"),
        # every object accepts its listed keys only
        ("verify", {"suite": {"name": "ybe", "samples": 1, "seed": 1}, "sutie": {}}, "sutie"),
        ("verify", {"suite": {"name": "ybe", "sampels": 3, "seed": 1}}, "suite.sampels"),
        ("simulate", _shipped("simulate", data=dict(_shipped("simulate")["data"], N=2)), "data.N"),
        ("collide", _shipped("collide", data={"n": 1, "solitons": [
            {"u": -0.5, "v": 1.0, "beta": [[1.0, 0.0]]},
            {"u": 0.5, "v": 1.0, "beta": [[1.0, 0.0]], "w": 1.0}]}), "data.solitons[1].w"),
        ("reflect", _shipped("reflect", boundary={"kind": "robin", "alpha": 0.8, "aplha": 0.8}),
         "boundary.aplha"),
        ("reflect", _shipped("reflect", boundary={"kind": "mixed", "signs": [1, -1],
                                                  "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}),
         "boundary.unitary"),
        ("reflect", _shipped("reflect", boundary={
            "kind": "rotated_mixed", "signs": [1, -1], "alpha": 0.8,
            "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}), "boundary.alpha"),
        ("simulate", _shipped("simulate", grid=dict(_shipped("simulate")["grid"], dx=0.05)),
         "grid.dx"),
        ("mirror", {"data": dict(_STORED_HALFLINE, real_cuont=1)}, "data.real_cuont"),
        ("mirror", {"data": dict(_STORED_HALFLINE, boundary=dict(_STORED_HALFLINE["boundary"],
                                                                 alpha=0.8))},
         "data.boundary.alpha"),
        # stored half-line data carries its boundary
        ("mirror", {"data": _STORED_HALFLINE, "boundary": {"kind": "robin", "alpha": 0.3}},
         "boundary"),
        # a given |beta| outside [1e-150, 1e150]
        *[(mode, _shipped(mode, data=_scaled_last_beta(mode, s)), "data.solitons[1].beta")
          for mode in ("collide", "mirror") for s in (1e-160, 1e200)],
        # a stored mirror beta is not windowed: the constraint gate refuses it,
        # its chain's norms taken without an overflowing or underflowing square
        *[("mirror", {"data": _scaled_mirror_beta(s)}, "data") for s in (1e250, 1e-250, 1e-320)],
        ("simulate", _shipped("simulate", grid=dict(_shipped("simulate")["grid"], x1=10**400)),
         "grid.x1"),
        # the suite integers' largest values: refused before anything is drawn
        ("verify", {"suite": {"name": "yb-structure", "samples": 10_001, "seed": 1}},
         "suite.samples"),
        ("verify", {"suite": {"name": "yb-structure", "samples": 10**400, "seed": 1}},
         "suite.samples"),
        ("verify", {"suite": {"name": "ybe", "samples": 1, "seed": 1, "n": 17}}, "suite.n"),
        ("verify", {"suite": {"name": "ybe", "samples": 1, "seed": 1, "n": 10**400}}, "suite.n"),
        ("verify", {"suite": {"name": "permutation", "samples": 1, "seed": 1, "N": 65}},
         "suite.N"),
        # transfer mode runs the transfer suite only
        ("transfer", {"suite": {"name": "ybe", "seed": 1}}, "suite.name"),
        # suite.n and suite.N only where the suite reads them, whatever the sample count
        ("verify", {"suite": {"name": "collision", "seed": 2, "n": 4}}, "suite.n"),
        ("verify", {"suite": {"name": "yb-structure", "seed": 2, "n": 2}}, "suite.n"),
        ("verify", {"suite": {"name": "mirror-polarization", "seed": 2, "samples": 0, "n": 3}},
         "suite.n"),
        ("transfer", {"suite": {"seed": 2, "n": 2}}, "suite.n"),
        ("verify", {"suite": {"name": "ybe", "seed": 2, "N": 3}}, "suite.N"),
        ("verify", {"suite": {"name": "determinant", "seed": 2, "samples": 0, "N": 3}}, "suite.N"),
    ], ids=["list-suite-name", "ragged-unitary-rows", "nan-tolerance", "misspelled-tolerance",
            "ybe-n-0",
            "involution-n-0", "permutation-n-0", "permutation-N-0", "bool-real-count",
            "subnormal-grid-spacing-squared", "overflowing-parameter-difference",
            "top-level-key", "suite-key", "data-key", "soliton-key", "robin-key",
            "mixed-key", "rotated-mixed-key", "grid-key", "halfline-key", "halfline-boundary-key",
            "halfline-with-given-boundary", "collide-beta-1e-160", "collide-beta-1e200",
            "mirror-beta-1e-160", "mirror-beta-1e200", "stored-mirror-beta-1e250",
            "stored-mirror-beta-1e-250", "stored-mirror-beta-1e-320", "int-beyond-float-range",
            "samples-past-bound", "samples-10**400", "n-past-bound", "n-10**400",
            "N-past-bound", "transfer-mode-other-suite", "collision-n", "yb-structure-n",
            "mirror-polarization-n-no-samples", "transfer-n", "ybe-N", "determinant-N-no-samples"])
    def test_malformed_config_is_one_and_writes_nothing(self, tmp_path, capsys, mode, doc, where):
        out = tmp_path / "o"
        assert main([mode, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {where}: ")
        assert not out.exists()

    def test_size_key_error_names_the_suite_and_the_readers(self, tmp_path, capsys):
        doc = {"suite": {"name": "collision", "seed": 2, "n": 4}}
        assert main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: suite.n: the collision suite does not read it; "
            "only ybe, reversibility, reflection-equation, involution, permutation do\n")

    @pytest.mark.parametrize("suite,key", [("ybe", "n"), ("reversibility", "n"),
                                           ("reflection-equation", "n"), ("involution", "n"),
                                           ("permutation", "n"), ("permutation", "N")])
    def test_size_key_is_read_where_the_suite_reads_it(self, suite, key):
        value = 3 + (key == "N")  # n = 3 components, or N = 4 solitons
        report = run_property_suite(parse_run_config(
            {"mode": "verify", "suite": {"name": suite, "seed": 2, "samples": 1, key: value}}))
        assert report.passed and report.checks
        if suite in ("ybe", "reversibility", "permutation"):  # their labels give the size
            assert all(f"{key}={value}" in chk.name for chk in report.checks)

    def test_samples_override_past_its_bound_is_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"suite": {"name": "ybe", "seed": 1}})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--samples", str(10**400),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: suite.samples: must be at most 10000\n"
        assert not out.exists()

    def test_suite_integers_at_their_bounds_are_taken(self, tmp_path):
        # parsed only: 10,000 samples would be a long run, not a large allocation
        cfg = parse_run_config({"mode": "verify", "suite": {
            "name": "ybe", "samples": 10_000, "seed": 10**400, "n": 16, "N": 64}})
        assert cfg.suite_params == {"samples": 10_000, "seed": 10**400, "n": 16, "N": 64}
        doc = {"suite": {"name": "ybe", "samples": 1, "seed": 1, "n": 16}}
        assert main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("size", [1.001e-150, 0.999e150])
    def test_halfline_written_at_the_beta_window_edge_reloads(self, tmp_path, size):
        doc = _shipped("mirror", data=_scaled_last_beta("mirror", size))
        assert main(["mirror", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "a")]) == 0
        stored = json.loads((tmp_path / "a" / "halfline.json").read_text())
        mirror_sizes = [np.linalg.norm(np.array(sol["beta"]))
                        for sol in stored["solitons"][stored["real_count"]:]]
        if size > 1:
            # mirror norming vectors are derived: only the real half is windowed
            assert min(mirror_sizes) < 1e-150
        reload = {"data": stored, "grid": doc["grid"]}
        assert main(["mirror", "--config", write_config(tmp_path, reload, "reload.json"),
                     "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "halfline.json").read_bytes() == \
            (tmp_path / "a" / "halfline.json").read_bytes()

    def test_overflowing_pde_residual_is_zero_without_warning(self, tmp_path, capfd):
        # v = 1e153 and spacings of 5e-151 are in the domain, but the
        # residual's terms leave the float range: no warning, the
        # informational pde-residual is not finite
        doc = _shipped("simulate", grid={"x0": -1e-150, "x1": 1e-150, "t0": 0.0,
                                         "t1": 1e-150, "nx": 5, "nt": 5})
        doc["data"]["solitons"][0]["v"] = 1e153
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would raise here
            assert main(["simulate", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 0
        assert capfd.readouterr().err == ""
        (check,) = _strict_json(out / "report.json")["checks"]
        assert check["name"] == "pde-residual" and check["informational"]
        assert check["residual"] in ("nan", "inf", "-inf")  # repr(float), as in grid.csv

    def test_failed_check_is_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "suite": {
                    "name": "ybe",
                    "samples": 5,
                    "seed": 7,
                    "n": 2,
                    "tolerances": {"algebraic": 1e-18},
                }
            },
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_sampling_failure_is_one(self, tmp_path, capsys):
        # 40 velocities cannot be drawn with the minimum separation
        cfg = write_config(
            tmp_path, {"suite": {"name": "permutation", "samples": 1, "seed": 1, "N": 40}}
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "separated velocities" in err


class TestUnsortedData:
    """Data whose velocities are not increasing exit 1, with the message of
    the first check that refuses them, and write nothing."""

    @pytest.mark.parametrize("mode, us, extra, message", [
        ("collide", (0.6, -0.5, 0.1), {}, "relations assume u_j < u_l"),
        ("mirror", (0.9, 0.4), {"boundary": {"kind": "mixed", "signs": [1, -1]}},
         "u values must be strictly increasing, got [0.9, 0.4]"),
        ("mirror", (0.9, 0.4), {"boundary": {"kind": "robin", "alpha": 0.5}},
         "u values must be strictly increasing, got [0.9, 0.4]"),
    ], ids=["collide", "mirror-mixed", "mirror-robin"])
    def test_exit_one_with_the_first_refusal(self, tmp_path, capsys, mode, us, extra, message):
        doc = {"data": {"n": 2, "solitons": [
            {"u": u, "v": 1.0, "beta": [[1, 0], [0.5, 0.5]]} for u in us]}, **extra}
        out = tmp_path / "o"
        assert main([mode, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestNanResiduals:
    """A nan residual fails its check wherever it falls: Python's max(0.0, nan)
    is 0.0, so every fold of residuals must keep the nan."""

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_nan_draw_fails_its_check(self, tmp_path, monkeypatch, where):
        residuals = [1e-16, 1e-16, 1e-16]
        residuals[where] = math.nan
        draws = iter(residuals)
        suite = cli._SUITES["determinant"]
        monkeypatch.setitem(cli._SUITES, "determinant",
                            replace(suite, draw=lambda *a: (next(draws),)))
        doc = {"suite": {"name": "determinant", "samples": 3, "seed": 1}}
        out = tmp_path / "o"
        assert main(["verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        (check,) = _strict_json(out / "report.json")["checks"]
        assert check["passed"] is False and check["residual"] == "nan"

    def test_instance_and_transfer_folds_keep_nan(self, tmp_path, monkeypatch):
        assert math.isnan(cli._worst([1e-3, math.nan, 1e-9]))

        def commutators(P, K, b_plus, b_minus):
            # one pair row per call: 1e-3 at N = 2; at N = 3 1e-9, and nan
            # for the second sample (the mixed kind) of a stacked call
            rows = np.full((1, len(K)), 1e-3 if K.shape[1] == 2 else 1e-9)
            if K.shape[1] == 3:
                rows[0, 1:2] = math.nan
            return rows

        monkeypatch.setattr(cli, "transfer_commutators", commutators)
        doc = {"suite": {"name": "transfer", "seed": 1}}
        out = tmp_path / "o"
        assert main(["transfer", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        checks = _strict_json(out / "report.json")["checks"]
        assert [(c["residual"], c["passed"]) for c in checks] == [
            (1e-3, False),
            (1e-3, None), ("nan", None), (1e-3, None),
            (1e-3, False), ("nan", False), (1e-3, False)]

    @pytest.mark.parametrize("order, pde, boundary", [(-0.5, 2.5, -0.5),
                                                      (math.nan, "nan", "nan")])
    def test_order_checks_keep_negative_and_nan_orders(self, tmp_path, monkeypatch,
                                                       order, pde, boundary):
        # a >= check folds to its least residual: a negative fitted order is
        # not clipped at 0.0, and a nan stays nan
        monkeypatch.setattr(cli, "convergence_order", lambda *a: order)
        out = tmp_path / "o"
        doc = {"suite": {"name": "pde", "seed": 3}}
        assert main(["verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        checks = _strict_json(out / "report.json")["checks"]
        assert [(c["name"], c["residual"], c["comparison"], c["passed"]) for c in checks] == [
            ("pde-order[line-2-soliton]", pde, "<=", False),
            ("pde-order[half-line-2-soliton]", pde, "<=", False),
            ("boundary-order[robin]", boundary, ">=", False),
            ("boundary-order[mixed]", boundary, ">=", False)]

    def test_nan_collision_residual_fails_collide_mode(self, tmp_path, monkeypatch):
        calls = iter([(1e-16, 0.0), (math.nan, 0.0), (1e-16, 0.0)])
        monkeypatch.setattr(cli, "collision_pair_residuals",
                            lambda *a: tuple(np.array([r]) for r in next(calls)))
        doc = {"data": {"n": 2, "solitons": [
            {"u": u, "v": 1.0, "beta": [[1, 0], [0.5, 0.5]]} for u in (-0.5, 0.1, 0.6)]}}
        out = tmp_path / "o"
        assert main(["collide", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        check = _strict_json(out / "report.json")["checks"][0]
        assert check["name"] == "pairwise-collision-relations" and check["passed"] is False
        assert check["residual"] == "nan"

    def test_infinite_tolerance_is_written_as_strict_json(self, tmp_path):
        # json reads Infinity in a config; every JSON output spells it "inf"
        doc = {"suite": {"name": "ybe", "samples": 2, "seed": 1,
                         "tolerances": {"algebraic": math.inf}}}
        out = tmp_path / "o"
        assert main(["verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        report = _strict_json(out / "report.json")
        assert report["checks"][0]["tolerance"] == "inf"
        assert report["config"]["suite"]["tolerances"] == {"algebraic": "inf"}
        assert _strict_json(out / "manifest.json")["config"] == report["config"]


class TestSimulateMode:
    def test_csv_matches_closed_form(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "data": ONE_SOLITON,
                "grid": {"x0": -2.0, "x1": 2.0, "t0": -0.5, "t1": 0.5, "nx": 9, "nt": 5},
            },
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "grid.csv").read_text().strip().split("\n")
        assert lines[0] == "x,t,re_1,im_1,re_2,im_2"
        assert len(lines) == 1 + 9 * 5
        pt = SpectralPoint(0.0, 1.0)
        nv = NormingVector([1.0, 0.0])
        # rows are ordered t-major, x-minor
        row = lines[1 + 2 * 9 + 3].split(",")  # t index 2, x index 3
        x, t = float(row[0]), float(row[1])
        val = one_soliton_field(pt, nv, x, t)
        assert float(row[2]) == pytest.approx(val[0].real, abs=1e-12)
        assert float(row[3]) == pytest.approx(val[0].imag, abs=1e-12)

    def test_zero_tail_grid_export_shape(self, tmp_path):
        grid = FieldGrid(0, 1, 0, 1, 5, 5, np.zeros((5, 5, 2), complex))
        export_grid(grid, tmp_path / "g.csv")
        lines = (tmp_path / "g.csv").read_text().strip().split("\n")
        assert len(lines) == 26
        assert set(lines[1].split(",")[2:]) == {"0.0"}

    def test_manifest_contains_digest(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "data": ONE_SOLITON,
                "grid": {"x0": -1, "x1": 1, "t0": -1, "t1": 1, "nx": 5, "nt": 5},
            },
        )
        out = tmp_path / "o"
        main(["simulate", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        data = parse_soliton_data(ONE_SOLITON)
        assert manifest["dataset_digest"] == dataset_digest(soliton_data_to_json(data))
        assert manifest["tool"] == "vsolitons"


def _reference_export(grid: FieldGrid, path) -> None:
    """Per-cell CSV writer: the byte-identity reference for export_grid."""
    path = Path(path)
    comps = grid.n
    header = "x,t," + ",".join(f"re_{c+1},im_{c+1}" for c in range(comps))
    lines = [header]
    xs, ts = grid.xs, grid.ts
    for it in range(grid.nt):
        for ix in range(grid.nx):
            val = grid.values[ix, it]
            cells = [repr(float(xs[ix])), repr(float(ts[it]))]
            for c in range(comps):
                cells.append(repr(float(val[c].real)))
                cells.append(repr(float(val[c].imag)))
            lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


#: Zeros of both signs, both sides of repr's switches to exponent notation
#: (below 1e-4 and at 1e16), the extreme doubles, the non-finite values, and
#: each edge of the band that export_grid formats with repr (1e-9, 1e-4, 1e16
#: and the band's bounds) with its two neighbouring doubles.
PLANTED = [0.0, -0.0, 1e-05, 5e-324, 1.7976931348623157e308,
           float("nan"), float("inf"), float("-inf")] + [
    float(np.nextafter(edge, toward))
    for edge in (1e-9, 1e-4, 1e16, 0.99e-9, 1.01e-4, 0.99e16)
    for toward in (0.0, edge, np.inf)
]


def _seeded_grid(seed: int, n: int, nx: int, nt: int) -> FieldGrid:
    rng = np.random.default_rng(seed)
    x0, t0 = rng.uniform(-10, 0, 2)
    shape = (nx, nt, n)
    scale = 10.0 ** rng.integers(-30, 30, shape)
    values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    flat = values.view(np.float64).reshape(-1)
    spots = rng.choice(flat.size, 2 * len(PLANTED), replace=False)
    flat[spots] = PLANTED + [-v for v in PLANTED]
    return FieldGrid(x0, x0 + rng.uniform(0.5, 12), t0, t0 + rng.uniform(0.5, 3), nx, nt,
                     values)


class TestGridExportBytes:
    """export_grid writes exactly the bytes of the per-cell reference writer."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_seeded_grids(self, tmp_path, n):
        for seed, (nx, nt) in enumerate([(7, 5), (5, 9), (121, 41)]):
            grid = _seeded_grid(100 * n + seed, n, nx, nt)
            export_grid(grid, tmp_path / "new.csv")
            _reference_export(grid, tmp_path / "ref.csv")
            new = (tmp_path / "new.csv").read_bytes()
            assert new == (tmp_path / "ref.csv").read_bytes()
            for token in ("nan", "inf", "-inf", "-0.0", "1e-05", "9.999999999999999e-05",
                          "1e+16", "9999999999999998.0", "5e-324", "1.7976931348623157e+308"):
                assert f",{token},".encode() in new or f",{token}\n".encode() in new

    @pytest.mark.parametrize("mode", ["simulate", "mirror"])
    def test_cli_grids(self, tmp_path, monkeypatch, mode):
        doc = json.loads((Path(__file__).parent.parent / "configs" / f"{mode}.json").read_text())
        grids = []

        def recording_export(grid, path):
            grids.append(grid)
            export_grid(grid, path)

        monkeypatch.setattr("vsolitons.cli.export_grid", recording_export)
        out = tmp_path / "o"
        assert main([mode, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert len(grids) == 1
        _reference_export(grids[0], tmp_path / "ref.csv")
        assert (out / "grid.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _repr_rows(table: np.ndarray) -> bytes:
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


def _random_doubles(seed: int, count: int) -> np.ndarray:
    """Random bit patterns, which cover every exponent, and log-uniform
    magnitudes of both signs over 1e-12..1e18, which cover the decimal range."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, count - count // 4, dtype=np.uint64).view(np.float64)
    logs = 10.0 ** rng.uniform(-12, 18, count // 4) * rng.choice([-1.0, 1.0], count // 4)
    return np.concatenate([bits, logs])


class TestCsvRowsMatchRepr:
    """The slice formatter writes every double exactly as repr does."""

    def test_random_doubles(self):
        table = _random_doubles(0, 276_000).reshape(-1, 6)
        assert bytes(cli._csv_rows(table)) == _repr_rows(table)

    @pytest.mark.slow
    def test_ten_million_doubles(self):
        for seed in range(20):
            table = _random_doubles(1000 + seed, 500_000).reshape(-1, 10)
            assert bytes(cli._csv_rows(table)) == _repr_rows(table)


class TestShippedConfigs:
    """Every configs/*.json runs clean and writes the files its manifest lists."""

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_runs_and_writes_the_manifest_outputs(self, tmp_path, config):
        out = tmp_path / "o"
        assert main([config.stem, "--config", str(config), "--out", str(out)]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        # outputs lists every file a run writes except the manifest itself
        assert "manifest.json" not in outputs
        assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json"])


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        doc = {
            "data": ONE_SOLITON,
            "grid": {"x0": -2, "x1": 2, "t0": -0.5, "t1": 0.5, "nx": 9, "nt": 5},
        }
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        for name in ("report.json", "grid.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_suite_reports_identical(self, tmp_path):
        cfg = write_config(
            tmp_path, {"suite": {"name": "reversibility", "samples": 30, "seed": 11, "n": 3}}
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify", "--config", cfg, "--out", str(out1)])
        main(["verify", "--config", cfg, "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_different_seed_changes_residuals(self, tmp_path):
        base = {"suite": {"name": "ybe", "samples": 10, "n": 2}}
        cfg = write_config(tmp_path, base)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify", "--config", cfg, "--seed", "1", "--out", str(out1)])
        main(["verify", "--config", cfg, "--seed", "2", "--out", str(out2)])
        r1 = json.loads((out1 / "report.json").read_text())["checks"][0]["residual"]
        r2 = json.loads((out2 / "report.json").read_text())["checks"][0]["residual"]
        assert r1 != r2


#: (name, tolerance, comparison, informational) of every check each suite
#: reports at seed 0, with one sample where the suite samples.
SUITE_SCHEMAS = {
    "one-soliton": [("one-soliton-oracle", 1e-12, "<=", False)],
    "determinant": [("determinant-blaschke-product", 1e-12, "<=", False)],
    "permutation": [("permutation-factorization[N=3,n=2]", 1e-10, "<=", False)],
    "ybe": [
        ("yang-baxter-equation[n=2]", 1e-10, "<=", False),
        ("yang-baxter-equation[n=3]", 1e-10, "<=", False),
    ],
    "reversibility": [
        ("reversibility[n=2]", 1e-12, "<=", False),
        ("reversibility[n=3]", 1e-12, "<=", False),
    ],
    "yb-structure": [
        ("unitary-diagonal-invariance", 1e-12, "<=", False),
        ("parameter-twist-transpose", 1e-12, "<=", False),
    ],
    "reflection-equation": [
        ("reflection-equation[robin]", 1e-10, "<=", False),
        ("reflection-equation[mixed]", 1e-10, "<=", False),
        ("reflection-equation[rotated_mixed]", 1e-10, "<=", False),
    ],
    "involution": [
        ("reflection-involution[robin]", 1e-12, "<=", False),
        ("reflection-involution[mixed]", 1e-12, "<=", False),
        ("reflection-involution[rotated_mixed]", 1e-12, "<=", False),
    ],
    "collision": [
        ("pairwise-collision-relations", 1e-10, "<=", False),
        ("norm-ratio-symmetry", 1e-12, "<=", False),
        ("factorization-pipeline", 1e-10, "<=", False),
    ],
    "mirror-constraint": [
        ("mirror-constraint[robin]", 1e-08, "<=", False),
        ("mirror-constraint[mixed]", 1e-08, "<=", False),
        ("mirror-constraint-detector", 1e-4, ">=", False),
    ],
    "mirror-polarization": [
        ("mirror-polarization[robin]", 1e-10, "<=", False),
        ("mirror-polarization[mixed]", 1e-10, "<=", False),
    ],
    "transfer": [
        ("transfer-commutator[identity-boundary]", 1e-12, "<=", False),
        ("transfer-commutator[vnls-reflection:robin]", None, "<=", True),
        ("transfer-commutator[vnls-reflection:mixed]", None, "<=", True),
        ("transfer-commutator[vnls-reflection:rotated_mixed]", None, "<=", True),
        ("transfer-commutator[b-plus-reflection:robin]", 1e-12, "<=", False),
        ("transfer-commutator[b-plus-reflection:mixed]", 1e-12, "<=", False),
        ("transfer-commutator[b-plus-reflection:rotated_mixed]", 1e-12, "<=", False),
    ],
    "pde": [
        ("pde-order[line-2-soliton]", 0.3, "<=", False),
        ("pde-order[half-line-2-soliton]", 0.3, "<=", False),
        ("boundary-order[robin]", 1.7, ">=", False),
        ("boundary-order[mixed]", 1.7, ">=", False),
    ],
    "factorization": [
        ("asymptotic-polarization-match", 1e-4, "<=", False),
        ("factorization-pipeline", 1e-10, "<=", False),
    ],
}


class TestSuites:
    @pytest.mark.parametrize("suite", list(cli._SUITES))
    def test_report_schema(self, suite):
        params = {"name": suite, "seed": 0}
        if suite not in ("pde", "transfer"):  # these two ignore the count
            params["samples"] = 1
        report = run_property_suite(parse_run_config({"mode": "verify", "suite": params}))
        got = [
            (c["name"], c["tolerance"], c["comparison"], c["informational"])
            for c in report.to_json()["checks"]
        ]
        assert got == SUITE_SCHEMAS[suite]

    def test_schema_table_covers_every_suite(self):
        assert list(SUITE_SCHEMAS) == list(cli._SUITES)

    def test_empty_suite_report(self, tmp_path):
        for suite in cli._SUITES:
            cfg = write_config(
                tmp_path, {"suite": {"name": suite, "samples": 0, "seed": 0}}
            )
            out = tmp_path / suite
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["checks"] == []
            assert report["passed"] is True

    def test_reflection_equation_suite(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "boundary": {"kind": "mixed", "signs": [1, -1]},
                "suite": {"name": "reflection-equation", "samples": 25, "seed": 3, "n": 2},
            },
        )
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [c["name"] for c in report["checks"]] == ["reflection-equation[given]"]
        assert report["checks"][0]["residual"] <= 1e-10

    def test_permutation_suite(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"suite": {"name": "permutation", "samples": 2, "seed": 5, "N": 3, "n": 2}},
        )
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0

    @pytest.mark.parametrize("N", [0, 1, 7, 9])
    def test_permutation_order_count_bounded(self, tmp_path, capsys, N):
        # N < 2 has no second order to compare; N = 9 would enumerate 9! orders
        cfg = write_config(
            tmp_path, {"suite": {"name": "permutation", "samples": 1, "seed": 1, "N": N}}
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "suite.N" in capsys.readouterr().err

    def test_each_check_timed_on_console_only(self, tmp_path):
        cfg = parse_run_config(
            {"mode": "verify", "suite": {"name": "collision", "samples": 2, "seed": 4}}
        )
        checks = run_property_suite(cfg).checks
        assert len(checks) == 3
        assert all(chk.elapsed > 0.0 for chk in checks)
        path = write_config(tmp_path, {"suite": {"name": "collision", "samples": 2, "seed": 4}})
        out = tmp_path / "o"
        assert main(["verify", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(
            set(c) == {"name", "residual", "tolerance", "comparison", "informational", "passed"}
            for c in report["checks"]
        )

    @pytest.mark.parametrize("suite,samples,times", [
        # clock readings: the start, then per part one per variant's draws and the end
        ("reflection-equation", 3, [4 / 3] * 3),  # 1 tick of draws + 1/3 shared
        ("yb-structure", 3, [1.0, 1.0]),  # one variant, (1 + 1) / 2 per check
        # 1 + 1/2 per variant; the detector part's own 1 + 1
        ("mirror-constraint", 2, [1.5, 1.5, 2.0]),
        # three parts: 1 + 1 for the identity row, then 1 + 1/3 per kind, twice
        ("transfer", 1, [2.0] + [4 / 3] * 6),
        ("pde", 1, [0.5] * 4),  # one part of four checks: (1 + 1) / 4 each
    ])
    def test_check_times_share_the_suite_time(self, monkeypatch, suite, samples, times):
        # a clock that ticks once per reading: each variant's checks share its
        # own draws plus its sample share of the stacked call and the folds
        cfg = parse_run_config({"mode": "verify",
                                "suite": {"name": suite, "samples": samples, "seed": 2}})
        ticks = itertools.count()
        with monkeypatch.context() as patch:
            patch.setattr(cli.time, "perf_counter", lambda: float(next(ticks)))
            report = run_property_suite(cfg)
        assert [c.elapsed for c in report.checks] == pytest.approx(times)
        assert math.fsum(c.elapsed for c in report.checks) == pytest.approx(report.clock)

    def test_fixed_parts_ignore_the_sample_count(self, monkeypatch):
        def checks(suite, samples):
            cfg = parse_run_config(
                {"mode": "verify", "suite": {"name": suite, "samples": samples, "seed": 4}})
            return [chk.to_json() for chk in run_property_suite(cfg).checks]

        # pde and transfer read suite.samples only as 0 = empty
        for suite in ("pde", "transfer"):
            assert checks(suite, 1) == checks(suite, 3)
        # the detector part draws one instance at any count, from its own stream
        perturbed = []
        perturb = cli._perturb_halfline
        monkeypatch.setattr(cli, "_perturb_halfline",
                            lambda hl, size: perturbed.append(size) or perturb(hl, size))
        one, three = checks("mirror-constraint", 1), checks("mirror-constraint", 3)
        assert perturbed == [1e-3, 1e-3]
        names = ["mirror-constraint[robin]", "mirror-constraint[mixed]",
                 "mirror-constraint-detector"]
        assert [c["name"] for c in one] == [c["name"] for c in three] == names
        assert one[:2] != three[:2] and one[2] == three[2]

    def test_mirror_constraint_detector_row_does_not_move_with_samples(self):
        # it drew from the shared stream after the sampled rows: seed 2 read
        # 1.336e-3, 4.975e-4 and 4.962e-4 at samples 1, 3 and 10
        rows = []
        for samples in (1, 3, 10):
            cfg = parse_run_config({"mode": "verify", "suite": {
                "name": "mirror-constraint", "samples": samples, "seed": 2}})
            rows += [c.to_json() for c in run_property_suite(cfg).checks
                     if c.name == "mirror-constraint-detector"]
        assert len(rows) == 3 and rows[0] == rows[1] == rows[2]
        assert rows[0]["residual"] >= 1e-4 and rows[0]["passed"]

    def test_transfer_mode_records_experiment(self, tmp_path):
        cfg = write_config(tmp_path, {"suite": {"samples": 1, "seed": 2}})
        out = tmp_path / "o"
        assert main(["transfer", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        names = [c["name"] for c in report["checks"]]
        assert "transfer-commutator[identity-boundary]" in names
        # the n = 1 scalar row read 0 by construction and is retired
        assert "transfer-commutator[scalar]" not in names
        info = [c for c in report["checks"] if c["informational"]]
        assert info and all(c["passed"] is None for c in info)

    def test_transfer_takes_given_boundary_component_count(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "suite": {"name": "transfer", "seed": 5},
                "boundary": {"kind": "mixed", "signs": [-1, 1, 1]},
            },
        )
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        checks = json.loads((out / "report.json").read_text())["checks"]
        rows = [c for c in checks if c["name"].startswith("transfer-commutator[vnls-reflection:")]
        assert len(rows) == 1 and rows[0]["informational"]

    def test_transfer_names_given_boundary_row(self):
        cfg = parse_run_config(
            {
                "mode": "verify",
                "suite": {"name": "transfer", "seed": 2},
                "boundary": {"kind": "mixed", "signs": [1, -1, 1]},
            }
        )
        names = [c.name for c in run_property_suite(cfg).checks]
        assert names == [
            "transfer-commutator[identity-boundary]",
            "transfer-commutator[vnls-reflection:given]",
            "transfer-commutator[b-plus-reflection:given]",
        ]

    @pytest.mark.parametrize("seed", [3, 6, 14])
    def test_mirror_constraint_detector_is_scale_invariant(self, seed):
        # on these seeds the mirror |beta| is small enough that an absolute
        # residual put the corrupted dataset below the detector's 1e-4 bound
        cfg = parse_run_config(
            {"mode": "verify", "suite": {"name": "mirror-constraint", "seed": seed}}
        )
        report = run_property_suite(cfg)
        assert report.passed
        detector = [c for c in report.checks if c.name == "mirror-constraint-detector"]
        assert detector[0].residual >= 1e-4

    def test_collide_mode(self, tmp_path):
        doc = {
            "data": {
                "n": 2,
                "solitons": [
                    {"u": -0.5, "v": 1.0, "beta": [[1, 0], [0.5, 0.5]]},
                    {"u": 0.5, "v": 1.2, "beta": [[0.3, -0.2], [1, 0]]},
                ],
            }
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["collide", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "collide.json").read_text())
        assert set(doc) == {"in", "out"}

    def test_reflect_mode(self, tmp_path):
        doc = {
            "data": {
                "n": 2,
                "solitons": [{"u": 0.8, "v": 1.0, "beta": [[1, 0], [0.4, 0.0]]}],
            },
            "boundary": {"kind": "mixed", "signs": [1, -1]},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["reflect", "--config", cfg, "--out", str(out)]) == 0
        rec = json.loads((out / "reflect.json").read_text())["reflections"][0]
        assert rec["reflected_k"] == [-0.4, 0.5]

    def test_mirror_mode_writes_halfline(self, tmp_path):
        doc = {
            "data": {
                "n": 2,
                "solitons": [{"u": 0.8, "v": 1.0, "beta": [[1, 0], [0.4, 0.0]]}],
            },
            "boundary": {"kind": "robin", "alpha": 0.7},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["mirror", "--config", cfg, "--out", str(out)]) == 0
        hl = parse_halfline(json.loads((out / "halfline.json").read_text()))
        assert hl.N == 1


def _oracle_pipeline_residual(data):
    """The factorization pipeline of one dataset as one-sample states, one
    schedule at a time."""
    ins, outs = (np.array([[Polarization(which(j, data).beta).p for j in range(data.N)]])
                 for which in (beta_in, beta_out))
    return float(np.max([projective_distance(yb_schedule(ins, data.ks[None], s), outs).max()
                         for s in cli.collision_orders(data.N)]))


class TestStackedCollisionPipeline:
    def test_suite_draws_keep_their_one_sample_bits(self):
        # the collision suite runs its pipeline once per (N, n) group after
        # all draws; every sample keeps the bits of its S = 1 pipeline
        rng, log = np.random.default_rng(5), SampleLog()
        instances = [cli._draw_collision(None, rng, log, i, None) for i in range(20)]
        # the draws again: each sample's data is its one random_soliton_data call
        rng = np.random.default_rng(5)
        datas = [random_soliton_data(rng, 2 + i % 2, (2, 3)[i % 2]) for i in range(20)]
        rows = cli._SUITES["collision"]._evaluate(instances)
        for (drawn, betas), data, row in zip(instances, datas, rows):
            assert drawn.ks.tobytes() == data.ks.tobytes()
            assert betas.tobytes() == np.array([nv.beta for _, nv in data.points]).tobytes()
            pairs = [collision_pair_residuals(j, l, [m for m in range(data.N) if m not in (j, l)][:1],
                                              data) for j, l in cli.collision_orders(data.N)[0]]
            rel, xi = zip(*pairs)
            assert row == (cli._worst(rel), cli._worst(xi), _oracle_pipeline_residual(data))

    def test_interleaved_groups_keep_their_one_sample_bits(self):
        # N and n in {2, 3}, interleaved: four stacks of six, results in order
        rng = np.random.default_rng(6)
        datas = [random_soliton_data(rng, 2 + i % 2, 2 + i // 2 % 2) for i in range(24)]
        rows = cli._SUITES["collision"]._evaluate([(data, data.stack.betas[0]) for data in datas])
        for data, row in zip(datas, rows):
            assert row[2] == _oracle_pipeline_residual(data)

    @pytest.mark.parametrize("N, n", [(2, 2), (3, 3), (4, 2)])
    def test_stacked_gammas_and_in_out_keep_their_one_sample_bits(self, N, n):
        # every (j, spectators) gamma of a stack, and its in/out polarizations,
        # has the bits of the S = 1 build on a dataset of its own
        rng = np.random.default_rng(7 + N + n)
        datas = [random_soliton_data(rng, N, n) for _ in range(6)]
        stack = SolitonStack(tuple(data.points for data in datas))
        pols = cli._in_out(stack)
        spectator_sets = [(j, sp) for j in range(N) for size in range(N)
                          for sp in itertools.permutations(set(range(N)) - {j}, size)]
        for s, data in enumerate(datas):
            fresh = SolitonData(data.n, data.points)
            for j, sp in spectator_sets:
                assert (intermediate_gamma(j, sp, stack)[s].tobytes()
                        == intermediate_gamma(j, sp, fresh).tobytes())
            frozen = [[Polarization(which(j, data).beta).p for j in range(N)]
                      for which in (beta_in, beta_out)]
            assert pols[s].tobytes() == np.array(frozen).tobytes()
            assert pols[s].tobytes() == cli._in_out(fresh)[0].tobytes()


class TestParser:
    """main parses with one parser, built at import."""

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: vsolitons ")

    def test_unknown_flag_is_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"suite": {"name": "ybe", "seed": 1}})
        with pytest.raises(SystemExit) as info:
            main(["verify", "--config", cfg, "--sede", "3"])
        assert info.value.code == 2
        assert "unrecognized arguments: --sede 3" in capsys.readouterr().err

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path):
        # no override or mode may carry over from one call to the next
        runs = [["verify", "--config", str(CONFIGS / "verify.json"), "--seed", "3",
                 "--samples", "4"],
                ["transfer", "--config", str(CONFIGS / "transfer.json")],
                ["verify", "--config", str(CONFIGS / "verify.json"), "--samples", "5"]]
        env = {"PYTHONPATH": str(Path(cli.__file__).parent.parent), "PATH": ""}
        # a checkout tested without bytecode caches keeps none after this test either
        if "PYTHONDONTWRITEBYTECODE" in os.environ:
            env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
        script = "import sys; from vsolitons.cli import main; sys.exit(main(sys.argv[1:]))"
        for i, argv in enumerate(runs):
            assert main([*argv, "--out", str(tmp_path / f"in-process-{i}")]) == 0
        for i, argv in enumerate(runs):
            subprocess.run([sys.executable, "-c", script, *argv,
                            "--out", str(tmp_path / f"fresh-{i}")],
                           env=env, check=True, capture_output=True)
        for i in range(len(runs)):
            ours, fresh = tmp_path / f"in-process-{i}", tmp_path / f"fresh-{i}"
            assert sorted(p.name for p in ours.iterdir()) == ["manifest.json", "report.json"]
            for path in ours.iterdir():
                assert path.read_bytes() == (fresh / path.name).read_bytes()
