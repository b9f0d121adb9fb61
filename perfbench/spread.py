"""Spread report: the evidence the bounds in ``BENCHMARK.json`` rest on.

Runs the benchmark repeatedly on one workload, each run with its own
seed, and prints for every end-to-end metric the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound.  Also prints the
failed share of every run, which must be identical across runs.

    python3 perfbench/spread.py --workload serve-zipf --runs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        doc = run_once(args.workload, seed, args.seconds, 0)
        results.append(doc)
        values = " ".join(f"{k}={v['value']:.5g}"
                          for k, v in doc["metrics"].items())
        print(f"seed {seed}: correct={doc['correct']} "
              f"failed={doc['failed']}/{doc['attempted']} {values}",
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s")
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}  ok")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med
        bound = metric["bound"]
        ok = ("n/a" if metric["name"] == "setup_s"
              else "yes" if share <= bound / 3 else
              "within bound" if share <= bound else "NO")
        print(f"{metric['name']:<18}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{share:>9.4f}{bound:>8.3f}  {ok}")
    shares = {(r["failed"], r["attempted"]) for r in results}
    ratios = {f / a for f, a in shares}
    print(f"failed share per run: {sorted(ratios)} "
          f"({'identical' if len(ratios) == 1 else 'DIFFERS'})")
    correct = all(r["correct"] for r in results)
    print(f"all runs correct: {correct}")
    return 0 if correct and len(ratios) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
