#!/usr/bin/env python3
"""Run every workload and print every metric (run from the checkout root).

    python3 bench/suite.py --runs 5 --out results.json

Each run is a fresh ``bench/run.py`` process, one after another.  Seeds
``--seed``, ``--seed`` + 1, ... are used for the untraced runs of every
workload, then one traced run per workload on the first seed.  The table
shows each end-to-end metric's median and quartiles, failures by cause, and
the tracing overhead (traced run against the untraced median).  The results
file is the input of ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("# detail "):]) for line in lines
                  if line.startswith("# detail "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "detail": detail}


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def values(runs, workload, trace, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and r["result"]["metrics"][metric]["value"] is not None]


def report(runs: list[dict], bench: dict) -> None:
    for workload in [w["name"] for w in bench["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        print(f"\n{workload}: {len(mine)} runs, "
              f"{statistics.median(r['result']['attempted'] for r in mine):.0f} instances "
              f"per run (median), correct in {sum(r['result']['correct'] for r in mine)}")
        for m in bench["end_to_end"]:
            med, q1, q3 = spread(values(runs, workload, 0, m["name"]))
            iqr = (q3 - q1) / med if med else float("nan")
            print(f"  {m['name']:18} {med:12.5g} {m['unit']:6} "
                  f"[{q1:.5g} .. {q3:.5g}]  spread {iqr:6.1%}  bound {m['bound']:.0%}")
        causes: dict[str, int] = {}
        for r in mine:
            for cause, n in r["detail"]["failures_by_cause"].items():
                causes[cause] = causes.get(cause, 0) + n
        print(f"  failures by cause over all runs: {causes or 'none'}; "
              f"samples beyond p90 per run: "
              f"{sorted({r['detail']['p90_samples_beyond'] for r in mine})}")
        traced = [r for r in runs if r["workload"] == workload and r["trace"] == 1]
        for r in traced:
            shown = []
            for name in ("throughput_per_s", "latency_p50_ms", "latency_p90_ms"):
                base = statistics.median(values(runs, workload, 0, name))
                value = r["result"]["metrics"]["traced." + name]["value"]
                shown.append(f"{name} {value / base - 1:+.1%}")
            print(f"  tracing overhead (seed {r['seed']}): " + ", ".join(shown))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write all runs to this JSON file")
    args = parser.parse_args(argv)

    bench = benchmark()
    seconds = bench["run_seconds"]
    runs = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for i in range(args.runs):
            runs.append(one_run(workload, args.seed + i, seconds, 0))
            print(f"{workload} seed {args.seed + i}: done", file=sys.stderr)
        runs.append(one_run(workload, args.seed, seconds, 1))
    report(runs, bench)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"seconds": seconds, "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
