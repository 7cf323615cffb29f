#!/usr/bin/env python3
"""vsolitons benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload field-export --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Jobs are generated from ``--seed`` and fed,
one at a time, to ``vsolitons.cli.main`` in this process: a closed loop with
one client and no extra threads.  Every job's output is checked (see
checks.py).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` makes a fixed number of passes over the workload's job list,
one per ``PASS_SECONDS`` of ``--seconds``, and reports the end-to-end metrics.
``--trace 1`` makes four passes, untraced and traced in turn, and reports the
per-layer metrics, so that counts repeat exactly and the tracing overhead
shows.
"""

import os

# One BLAS thread, pinned before numpy loads; the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from checks import job_problems, replay_problems
from jobs import WORKLOADS, make_round
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Rounds in each workload's fixed job list: one pass over it takes 5-6 s on a
#: 2-vCPU Xeon.
ROUNDS = {"field-export": 2, "certify-chain": 6, "certify-maps": 10}

#: A timed run makes one pass over the job list per PASS_SECONDS of --seconds,
#: and at least MIN_PASSES.  The count depends on --seconds alone, never on how
#: fast the program runs, so both sides of a comparison make the same passes.
PASS_SECONDS = 6.0
MIN_PASSES = 3

#: Pairs of fresh interpreters timed for setup_s before each pass of a timed run.
SETUP_PROBES = 1

#: Fastest wall time of ``calibrate()`` seen on a 2-vCPU Xeon (Sapphire
#: Rapids, 2.1 GHz): reported job times are scaled to this machine speed.
CALIBRATION_REF_S = 8.3e-3

#: Median wall time of a fresh interpreter importing numpy on the same
#: machine: setup_s is scaled to it.
NUMPY_IMPORT_REF_S = 0.164


def calibrate() -> float:
    """Wall time of fixed interpreter, small-array and large-array numpy work,
    the three kinds of work the jobs do.

    It shares no code with vsolitons.  Run after every job, its fastest pass
    per job slot tracks how fast the shared machine ran at that point.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(10000):
            total += len(repr(i * 1.1))
        a = np.arange(64, dtype=np.complex128)
        for _ in range(200):
            a = np.exp(1j * a.real) * 0.5 + a.conj()
        b = np.linspace(0.0, 1.0, 100_000) * (1 + 1j)
        b = np.exp(1j * b.real) * b
        return time.perf_counter() - t0
    finally:
        gc.enable()


def setup_probes(count: int) -> list:
    """(numpy import, ``vsolitons.cli`` import) wall times from fresh
    interpreters, for each of ``count`` pairs.

    Starting an interpreter and loading modules speeds up and slows down with
    the shared machine differently from ``calibrate()``.  A fresh interpreter
    importing numpy, which ``vsolitons`` imports too, tracks it: over ten
    groups of 18 pairs the median ratio of the two times varied by 1%, the
    median ``vsolitons.cli`` time by 3%, and its ratio to ``calibrate()`` by
    11% (quartile spreads).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def probe(module: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT, env=env, check=True)
        return time.perf_counter() - t0

    return [(probe("numpy"), probe("vsolitons.cli")) for _ in range(count)]


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


class Runner:
    """Feeds jobs to ``cli.main`` in this process and checks each output."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.resamples = 0
        self.problems = []

    def call(self, job, outdir: Path):
        """(exit code, seconds inside cli.main, captured stderr)."""
        config = self.work / "config.json"
        config.write_text(json.dumps(job.config), encoding="utf-8")
        argv = [job.mode, "--config", str(config), "--out", str(outdir)]
        err = io.StringIO()
        with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed job, not a failed benchmark
                code = -1
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - t0
        return code, elapsed, err.getvalue()

    def run(self, job, keep: Path = None):
        """Run and check one job; returns (latency, calibration time right after).

        ``keep`` saves its outputs."""
        outdir = self.work / "job"
        code, elapsed, err = self.call(job, outdir)
        calibration = calibrate()
        problems = job_problems(job, code, outdir)
        self.attempted += 1
        if code != 0 or problems:
            self.failed += 1
        if problems:
            self.problems.append(f"{job.label}: {'; '.join(problems)} {err.strip()}")
        elif code in (0, 2):
            report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
            self.resamples += int(report["resamples"])
        if keep is not None:
            shutil.copytree(outdir, keep)
        shutil.rmtree(outdir, ignore_errors=True)
        return elapsed, calibration

    def run_pass(self, jobs, keep=(None, None), on_job=None) -> list:
        """(latency, calibration) per job of one pass; keep = (job index, output dir)."""
        out = []
        for i, job in enumerate(jobs):
            if on_job is not None:
                on_job()
            out.append(self.run(job, keep[1] if i == keep[0] else None))
        return out

    def replay(self, label: str) -> None:
        """Compare the artifacts kept from two passes over the same job."""
        mismatch = replay_problems(self.work / "replay-0", self.work / "replay-1")
        if mismatch:
            self.failed += 1
            self.problems += [f"replay of {label}: {p}" for p in mismatch]


def reference_latencies(passes):
    """Per-job latencies at the reference machine speed, and the speed factor.

    Each job keeps its fastest pass, which drops short slow phases of the
    shared machine.  Slower drifts over minutes remain; they slow the
    calibration kernel's fastest pass in each job slot alike, so the best
    latencies are divided by factor = mean best calibration / CALIBRATION_REF_S.
    """
    slots = list(zip(*passes))
    best = [min(lat for lat, _ in slot) for slot in slots]
    factor = statistics.fmean(min(cal for _, cal in slot) for slot in slots) / CALIBRATION_REF_S
    return [b / factor for b in best], factor


def environment() -> dict:
    """Hardware and software the numbers were measured on."""
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": "",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    with contextlib.suppress(OSError):
        for index in sorted(cache.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = (index / "size").read_text().strip()
    with contextlib.suppress(TypeError, KeyError):  # differs across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    return env


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of quantile q: a mean of all order statistics,
    weighted by the Beta(q (n + 1), (1 - q) (n + 1)) mass of each 1/n slice.

    Suite jobs form tight clusters of similar cost, and a plain percentile then
    falls between two clusters and jumps between runs.  The Beta mass is
    integrated numerically (trapezoid rule, 64 points per slice), so the
    benchmark needs numpy only.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 64
    t = np.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    density = np.concatenate(([0.0], np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t)), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(density[1:] + density[:-1])))
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ x)


def end_to_end(runner: Runner, best: list, setup: list) -> dict:
    lat_ms = [t * 1e3 for t in best]
    return {
        "setup_s": (statistics.median(cli / np_ for np_, cli in setup) * NUMPY_IMPORT_REF_S, "s"),
        "jobs_per_s": (len(best) / sum(best), "1/s"),
        "job_ms_p50": (hd_quantile(lat_ms, 0.5), "ms"),
        "job_ms_p90": (hd_quantile(lat_ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "jobs_ok_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }


def per_layer(runner: Runner, untraced, traced, tracer: Tracer) -> dict:
    """Layer metrics of the first traced pass plus run-level sampling and
    tracing figures; ``untraced`` and ``traced`` are lists of passes."""
    m = tracer.layer_metrics()
    draws = tracer.calls("sampling.random_soliton_data") + tracer.calls(
        "sampling.random_map_parameters")
    resamples = runner.resamples // (len(untraced) + len(traced))
    m["sampling.resamples"] = (resamples, "count")
    m["sampling.accept_ratio"] = (draws / (draws + resamples) if draws else 1.0, "ratio")
    m["trace.job_s"] = (sum(lat for lat, _ in traced[0]), "s")
    plain, _ = reference_latencies(untraced)
    wrapped, _ = reference_latencies(traced)
    m["trace.untraced_jobs_per_s"] = (len(plain) / sum(plain), "1/s")
    m["trace.jobs_per_s"] = (len(wrapped) / sum(wrapped), "1/s")
    m["trace.overhead_pct"] = (100.0 * (1.0 - sum(plain) / sum(wrapped)), "%")
    return m


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setup_probes(1)  # fills the bytecode cache; untimed
    sys.path.insert(0, str(SRC))
    import vsolitons.cli as cli

    runner = Runner(cli, work)
    jobs = [j for r in range(ROUNDS[workload]) for j in make_round(workload, seed, r)]
    warm = work / "warmup"
    runner.call(jobs[0], warm)  # uncounted warm-up: caches and lazy imports
    shutil.rmtree(warm, ignore_errors=True)
    index = seed % len(jobs)  # the job replayed: its artifacts from two passes must match
    keeps = [(index, work / f"replay-{p}") for p in (0, 1)]

    if trace:
        untraced, traced, tracers = [], [], []
        for p in range(2):  # alternate untraced and traced passes
            untraced.append(runner.run_pass(jobs, keeps[p]))
            tracer = Tracer()
            tracers.append(tracer)
            job_ids = iter(range(len(jobs)))
            tracer.install()
            try:
                traced.append(runner.run_pass(
                    jobs, on_job=lambda: setattr(tracer, "job_id", next(job_ids))))
            finally:
                tracer.uninstall()
        tracers[0].save(WORK / f"trace-{workload}.npz")
        runner.replay(jobs[index].label)
        metrics = per_layer(runner, untraced, traced, tracers[0])
    else:
        # set-up probes are spread over the run, like the passes, so that both
        # see the same machine
        setup, passes = [], []
        for p in range(max(MIN_PASSES, round(seconds / PASS_SECONDS))):
            setup += setup_probes(SETUP_PROBES)
            passes.append(runner.run_pass(jobs, keeps[p] if p < 2 else (None, None)))
        runner.replay(jobs[index].label)
        best, factor = reference_latencies(passes)
        print(f"speed factor {factor:.4f} over {len(passes)} passes; unscaled "
              f"jobs_per_s {len(best) / sum(best) / factor:.6g}, "
              f"setup_s {statistics.median(cli for _, cli in setup):.6g}")
        metrics = end_to_end(runner, best, setup)

    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": runner.problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "vsolitons" / "cli.py").is_file():
        print(f"error: no vsolitons sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    for problem in result.pop("problems"):
        print("problem " + problem, file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
