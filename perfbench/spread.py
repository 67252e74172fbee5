"""Run the benchmark over several seeds and summarize the spread of each metric.

    python3 perfbench/spread.py --seeds 0-9 --out perfbench/runs/set-a.json
    python3 perfbench/spread.py --compare perfbench/runs/set-a.json perfbench/runs/set-b.json

The first form runs ``run.py`` once per seed and workload, one run at a
time, with the command and run length of BENCHMARK.json, and prints for
each end-to-end metric the median, the quartiles (``statistics.quantiles``,
n=4) and the interquartile range as a share of the median.  The second
form compares two such sets: the second median against the first, as a
share of the first, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def run_set(workloads: list[str], seeds: list[int]) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for workload in workloads:
        for seed in seeds:
            cmd = SPEC["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
            print(workload, seed, json.dumps(result), flush=True)
    return runs


def report(runs: dict) -> dict:
    summary = {}
    for workload, results in runs.items():
        summary[workload] = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results])
            for m in SPEC["end_to_end"]
        }
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={correct}, failed shares {sorted(shares)}")
        for name, s in summary[workload].items():
            print(f"  {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
                  f"  iqr/median {s['iqr_share']:.4f}")
    return summary


def compare(path_a: str, path_b: str) -> None:
    a = json.loads(Path(path_a).read_text())["summary"]
    b = json.loads(Path(path_b).read_text())["summary"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload in a:
        for name, bound in bounds.items():
            ma, mb = a[workload][name]["median"], b[workload][name]["median"]
            print(f"{workload:16s} {name:12s} {ma:.4f} -> {mb:.4f}  change {(mb - ma) / ma:+.4f}"
                  f"  bound {bound}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="SET")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    runs = run_set(args.workloads.split(","), parse_seeds(args.seeds))
    summary = report(runs)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
