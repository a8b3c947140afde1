#!/usr/bin/env python3
"""Run-to-run spread of the e2e benchmark's metrics.

Runs `e2ebench/run.py` once per (workload, seed) and reports, for each
metric, the median over the seeds and the spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median. Workloads, bounds and the default run length come from
`BENCHMARK.json`. With `--against FILE` (an earlier `--out` document) it
also reports how far each median moved, signed so that positive is worse.
A spread or a move past the metric's bound is marked `OVER`; `setup_s`'s
spread is reported but not marked. Run from the repository root:

    python3 e2ebench/spread.py --seeds 1-10 [--workload web-scan ...]
        [--seconds N] [--trace 0|1] [--out FILE] [--against FILE]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workload", action="append", choices=workloads)
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()
    before = {}
    if args.against:
        with open(args.against) as f:
            before = json.load(f)["workloads"]

    doc = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    failed = False
    for workload in args.workload or workloads:
        values, walls = {}, []
        for seed in args.seeds:
            cmd = ["python3", "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            start = time.time()
            run = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - start)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if run.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
                failed = True
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        metrics = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
            spread = (q3 - q1) / abs(median) if median else 0.0
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            line = f"{workload:15s} {name:32s} median {median:<12.6g} spread {spread:.4f}"
            bound = declared.get(name, {}).get("bound")
            if bound is not None and name != "setup_s" and spread > bound:
                line += " OVER"
            old = before.get(workload, {}).get("metrics", {}).get(name)
            if old and old["median"]:
                moved = median / old["median"] - 1
                if declared.get(name, {}).get("better") == "higher":
                    moved = -moved
                line += f"  moved {moved:+.4f}"
                if bound is not None and moved > bound:
                    line += " OVER"
            print(line)
        doc["workloads"][workload] = {"wall_s": walls, "metrics": metrics}
        print(f"{workload:15s} wall per run: max {max(walls):.1f} s, mean {statistics.mean(walls):.1f} s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
