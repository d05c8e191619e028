#!/usr/bin/env python3
"""Diff two result files of bench/suite.py, workload by workload.

    python3 bench/compare.py before.json after.json

For every end-to-end metric: each side's median and quartiles, the change
of the median, and a mark where the change passes the metric's bound from
BENCHMARK.json ("WORSE" or "better").  Per-layer metrics of the traced runs
follow, without bounds.  Exits 1 when any metric is marked WORSE.
"""

from __future__ import annotations

import json
import sys

from suite import benchmark, spread, values


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return json.load(f)["runs"]


def fmt(vals) -> str:
    if not vals:
        return f"{'-':>30}"
    med, q1, q3 = spread(vals)
    return f"{med:10.5g} [{q1:.4g} .. {q3:.4g}]".rjust(30)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    bench = benchmark()
    worse = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"\n{workload}{'':14}{'before: median [q1 .. q3]':>30} {'after':>30}  change")
        sections = [(0, bench["end_to_end"]), (1, bench["per_layer"])]
        for trace, metrics in sections:
            for m in metrics:
                a = values(old, workload, trace, m["name"])
                b = values(new, workload, trace, m["name"])
                line = f"  {m['name']:26}{fmt(a)} {fmt(b)}"
                if a and b and spread(a)[0]:
                    change = spread(b)[0] / spread(a)[0] - 1
                    line += f"  {change:+7.1%}"
                    if "bound" in m:
                        loss = -change if m["better"] == "higher" else change
                        if loss > m["bound"]:
                            line += "  WORSE"
                            worse += 1
                        elif -loss > m["bound"]:
                            line += "  better"
                print(line + f"  {m['unit']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
