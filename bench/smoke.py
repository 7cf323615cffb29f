"""Tiny-size smoke test of the benchmark: ``python3 -m pytest -q bench/smoke.py``.

Runs one round of every workload on small grids and sample counts through the
benchmark's own runner and checks, shows that the output checks catch a
corrupted grid, a report that disagrees with its exit code and a replay that
differs, and that a traced run reports exactly the per-layer metrics
BENCHMARK.json declares.  The file name keeps it out of the tier-1 run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from checks import grid_problems, job_problems, replay_problems, report_problems  # noqa: E402
from jobs import WORKLOADS, Job, make_round  # noqa: E402
from tracing import Tracer  # noqa: E402

import vsolitons.cli as cli  # noqa: E402

TINY = {"grid": (21, 9), "samples": 1}


def tiny_round(workload, seed=3):
    return make_round(workload, seed, 0, **TINY)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_runs_and_checks_clean(workload, tmp_path):
    runner = run.Runner(cli, tmp_path)
    jobs = tiny_round(workload)
    runner.run_pass(jobs)
    assert runner.problems == []
    assert runner.attempted == len(jobs)
    if workload == "field-export":
        assert runner.failed == 0


def test_rounds_are_seeded():
    for workload in WORKLOADS:
        assert tiny_round(workload, 5) == tiny_round(workload, 5)
        assert tiny_round(workload, 5) != tiny_round(workload, 6)


def _simulate_outputs(tmp_path):
    job = next(j for j in tiny_round("field-export") if j.mode == "simulate")
    out = tmp_path / "out"
    code, _, _ = run.Runner(cli, tmp_path).call(job, out)
    assert code == 0
    return job, out


def test_check_catches_corrupted_grid(tmp_path):
    job, out = _simulate_outputs(tmp_path)
    csv = out / "grid.csv"
    assert grid_problems(csv, job.config["data"], job.config["grid"]) == []

    lines = csv.read_text().split("\n")
    cells = lines[1].split(",")  # row 0 is always in the subsample
    cells[2] = repr(float(cells[2]) + 1e-6)  # one changed digit
    lines[1] = ",".join(cells)
    csv.write_text("\n".join(lines))
    problems = grid_problems(csv, job.config["data"], job.config["grid"])
    assert problems and "closed form" in problems[0]

    csv.write_text("\n".join(lines[:-2] + [""]))
    assert "rows" in grid_problems(csv, job.config["data"], job.config["grid"])[0]


def test_check_accepts_ill_conditioned_halfline_data(tmp_path):
    # a full-size mirror job whose Gram matrix lost 1.7e-9 in a double-precision solve
    job = next(j for j in make_round("field-export", 426891606, 0)
               if j.label == "mirror N=4 n=2 robin")
    out = tmp_path / "out"
    code, _, _ = run.Runner(cli, tmp_path).call(job, out)
    assert code == 0
    assert job_problems(job, code, out) == []


def test_check_catches_report_exit_mismatch_and_replay_change(tmp_path):
    job, out = _simulate_outputs(tmp_path)
    assert report_problems(0, out) == []
    assert report_problems(2, out) != []
    assert report_problems(1, out) == ["exit code 1"]

    other = tmp_path / "other"
    shutil.copytree(out, other)
    assert replay_problems(out, other) == []
    (other / "grid.csv").write_text((out / "grid.csv").read_text() + "\n")
    assert replay_problems(out, other) == ["replay changed grid.csv"]


def test_only_known_defects_may_fail_a_check(tmp_path):
    (tmp_path / "report.json").write_text(json.dumps({"passed": False, "resamples": 0}))
    for suite, expected in (("mirror-constraint", True), ("ybe", False), ("pde", False)):
        job = Job("verify", {"suite": {"name": suite, "seed": 1}}, suite)
        assert (job_problems(job, 2, tmp_path) == []) is expected


@pytest.mark.parametrize("workload", ["field-export", "certify-maps"])
def test_traced_run_reports_declared_metrics(workload, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    main_before = cli.main
    runner = run.Runner(cli, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(tiny_round(workload))
    finally:
        tracer.uninstall()
    assert cli.main is main_before
    metrics = run.per_layer(runner, [traced], [traced], tracer)
    assert {k: u for k, (_, u) in metrics.items()} == declared
    if workload == "field-export":
        assert metrics["cli.export_grid.calls"][0] > 0
        assert metrics["dressing.field_pt_sol"][0] > 0
    else:
        assert all(v == 0 for k, (v, _) in metrics.items()
                   if k.startswith("dressing.") and k.endswith("calls"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-maps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
