#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread across seeds.

    python3 bench/spread.py --workload certify-chain --seeds 1-10
    python3 bench/spread.py --workload field-export --seeds 1,2 --trace 1

Runs ``bench/run.py`` in a fresh process per seed, one after another, with
the ``run_seconds`` of BENCHMARK.json.  For each metric it prints the value
per seed, the median, and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, beside the metric's bound.  The summary is also written to
``.bench_work/spread-<workload>-trace<0|1>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '1,2,5'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    runs = []
    for seed in seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        bound = bounds.get(name)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
            "median": statistics.median(values),
            "spread": spread(values),
            "bound": bound,
        }
        flag = ""
        if bound is not None:
            flag = "ok" if summary[name]["spread"] < bound / 3 else "WIDE"
        print(f"{name:44s} median {summary[name]['median']:<12.6g} spread "
              f"{summary[name]['spread']:7.2%} bound {bound if bound is not None else '-':<5} {flag}")
        print("    " + " ".join(f"{v:.6g}" for v in values))
    doc = {"workload": args.workload, "seeds": seeds, "trace": args.trace,
           "correct": [r["correct"] for r in runs], "failed": [r["failed"] for r in runs],
           "attempted": [r["attempted"] for r in runs], "metrics": summary}
    out_path = ROOT / ".bench_work" / f"spread-{args.workload}-trace{args.trace}.json"
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
