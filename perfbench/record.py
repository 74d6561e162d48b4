"""Repeat benchmark runs and record their medians and spreads.

    python3 perfbench/record.py --label baseline

For every workload in BENCHMARK.json it runs the BENCHMARK.json command
from the checkout root once per seed in SEEDS with ``--trace 0``, then
once with ``--trace 1`` on the first seed.  For every end-to-end metric
it prints the median of the runs and their spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as
a share of the median, next to a third of the metric's bound.  The runs, the environment and the traced
run's per-layer numbers go to ``perfbench/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
SEEDS = list(range(1, 11))


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    center = statistics.median(values)
    return {"median": center, "q1": q1, "q3": q3, "spread": (q3 - q1) / center}


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    seconds = declared["run_seconds"]

    record = {"label": args.label, "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        runs = [run_once(declared["command"], workload, seed, seconds, 0) for seed in SEEDS]
        info, traced = run_once(declared["command"], workload, SEEDS[0], seconds, 1)
        record["environment"] = info["environment"]
        end_to_end = {}
        for metric in declared["end_to_end"]:
            values = [result["metrics"][metric["name"]]["value"] for _, result in runs]
            stats = spread(values)
            end_to_end[metric["name"]] = {"unit": metric["unit"], **stats, "values": values}
            print(
                f"{workload:14} {metric['name']:12} median {stats['median']:12.5g} {metric['unit']:4} "
                f"spread {stats['spread']:7.2%} (a third of the bound: {metric['bound'] / 3:.2%})"
            )
        results = [result for _, result in runs] + [traced]
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "uncalibrated": [run_info.get("uncalibrated") for run_info, _ in runs],
            "per_layer": traced["metrics"],
            "spans": info["spans"],
        }
        print(f"{workload:14} correct {record['workloads'][workload]['correct']}, failed {record['workloads'][workload]['failed']}")
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
