"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --first-seed 1

It runs every workload of BENCHMARK.json on ten seeds from
``--first-seed`` on, for BENCHMARK.json's ``run_seconds``. For every
workload and end-to-end metric it prints the median of the runs and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json. ``--traced`` adds one traced run
per workload. ``--json PATH`` writes every run and the summary; that is
how baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900, check=True)
    elapsed = perf_counter() - start
    out = json.loads(res.stdout.splitlines()[-1])
    detail = json.loads(
        (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "elapsed_s": elapsed, "correct": out["correct"],
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()},
            "wall": {**{k: v[0] for k, v in detail["wall"].items()},
                     "setup_raw_s": detail["setup_raw_s"]},
            "checks": detail["checks"]}


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            run = run_once(workload, seed, seconds, 0)
            runs.append(run)
            values = {k: round(v, 4) for k, v in run["metrics"].items()}
            print(f"{workload} seed {seed}: {run['elapsed_s']:.1f} s, "
                  f"correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']} {values}",
                  flush=True)
        entry = {"end_to_end": {}, "wall": {}, "runs": runs}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name] for r in runs])
            entry["end_to_end"][name] = dict(stats, unit=metric["unit"])
            print(f"  {workload:<18} {name:<12} median {stats['median']:.4f} "
                  f"{metric['unit']:<6} spread {stats['spread']:.4f}  "
                  f"bound {metric['bound']}", flush=True)
        for name in runs[0]["wall"]:
            entry["wall"][name] = summarize([r["wall"][name] for r in runs])
        if args.traced:
            traced = run_once(workload, args.first_seed, seconds, 1)
            entry["per_layer"] = traced["metrics"]
            print(f"  {workload} traced: {traced['metrics']}", flush=True)
        summary["workloads"][workload] = entry
    if args.json is not None:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
