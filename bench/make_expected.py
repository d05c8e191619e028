#!/usr/bin/env python3
"""Write the committed expected answers (run from the checkout root).

    python3 bench/make_expected.py sweep       # expected/sweep_pool.hex
    python3 bench/make_expected.py costs       # expected/sweep_costs.json
    python3 bench/make_expected.py seed        # expected/seed0.json

sweep: draws the pool pairs as ``delbisim sweep`` does and records the
oracle's verdicts; the cached recursive checker must agree wherever it
finishes within CHECKER_SECONDS.

seed: for every instance of the first rounds of the default seed, the
oracle (guards raised for the long modal cycles) and the cached recursive
checker must agree, and must equal the answer known by construction where
there is one.  The frontier instance is the exception: the recursive
checker cannot decide it, so the oracle and the construction must agree.

Either mode stops with an error, writing nothing, on any disagreement.
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import expected  # noqa: E402
import families  # noqa: E402
from delbisim.bisim import check, random_model  # noqa: E402
from delbisim.model import load_model  # noqa: E402
from delbisim.oracle import oracle_bisimilar  # noqa: E402

SEED_ROUNDS = {"check": 8, "charcheck": 1500}
# A sweep line the cached checker has not decided in this time is left to
# the oracle alone (about one pair in a thousand).
CHECKER_SECONDS = 2.0
# Per-line limit while measuring the sweep's line costs.
SCAN_SECONDS = 2.0


class _Timeout(BaseException):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def make_sweep_pool() -> None:
    """Verdicts of the pairs `delbisim sweep` draws, as the CLI draws them."""
    signal.signal(signal.SIGALRM, _on_alarm)
    worlds, edges = families.SWEEP_SIZE
    props = tuple(families.SWEEP_PROPS.split(","))
    digits = []
    for j in range(families.SWEEP_POOL):
        a = random_model(2 * j, worlds, edges, props)
        b = random_model(2 * j + 1, worlds, edges, props)
        mask = 0
        for kind in families.SWEEP_KINDS.split(","):
            answer = oracle_bisimilar(kind, a, b).answer
            signal.setitimer(signal.ITIMER_REAL, CHECKER_SECONDS)
            try:
                if check(kind, a, b, use_cache=True).answer != answer:
                    sys.exit(f"pair {j} kind {kind}: checker and oracle disagree")
            except _Timeout:
                print(f"pair {j} kind {kind}: checker undecided, oracle says {answer}",
                      file=sys.stderr)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            mask |= expected.KIND_BITS[kind] if answer else 0
        digits.append(f"{mask:x}")
        if (j + 1) % 4096 == 0:
            print(f"sweep pool: {j + 1}/{families.SWEEP_POOL}", file=sys.stderr)
    text = "".join(digits)
    with open(expected.POOL_FILE, "w", encoding="ascii") as f:
        for i in range(0, len(text), 64):
            f.write(text[i:i + 64] + "\n")


def make_sweep_costs() -> None:
    """Classify pool pairs by the slowest sweep line of each, as the run sees it.

    Every pool pair goes through `delbisim sweep` in the workload's chunks,
    with a per-line limit of SCAN_SECONDS.  A pair whose slowest line took
    over a quarter of the workload's limit but finished within SCAN_SECONDS
    is ``near``: a timeout there would depend on the machine's speed of the
    moment, so the workload leaves those pairs out.  A pair with a line
    unfinished after SCAN_SECONDS (8x the limit) is ``stalled``: the
    workload keeps it, and it times out in every run on that line, unless
    an earlier line of the pair is ``near`` too (then the pair is left out,
    as the run could stop on either line).
    """
    import run

    signal.signal(signal.SIGALRM, run._on_alarm)
    cli = run.import_cli()
    kinds = families.SWEEP_KINDS.split(",")
    near: dict[int, float] = {}
    stalled: list[int] = []
    start = 0
    while start < families.SWEEP_POOL:
        count, argv = families.sweep_chunk(start, families.SWEEP_CHUNK)
        clock = run.LineClock(SCAN_SECONDS, None, 0)
        t0 = run.perf()
        _, code, cause, err = run.call(cli.main, argv, SCAN_SECONDS, clock)
        prev, last = t0, None
        for t, line in clock.lines:
            if '"pair"' not in line:
                continue
            last = json.loads(line)
            pair = start + last["pair"]
            if t - prev > families.SWEEP_LIMIT / 4:
                near[pair] = max(near.get(pair, 0.0), round(t - prev, 4))
            prev = t
        if cause is None and code in (0, 1):
            start += count
            continue
        if cause != "timeout":
            sys.exit(f"sweep from pair {start}: {cause or f'exit {code}'} {err}")
        pair = start if last is None else start + last["pair"] + (last["kind"] == kinds[-1])
        stalled.append(pair)
        print(f"pair {pair}: a line unfinished after {SCAN_SECONDS} s", file=sys.stderr)
        start = pair + 1
    doc = {"scan_seconds": SCAN_SECONDS, "limit_seconds": families.SWEEP_LIMIT,
           "stalled": stalled,
           "near": {str(p): s for p, s in sorted(near.items())}}
    with open(expected.COSTS_FILE, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=0)
        f.write("\n")
    print(f"sweep costs: {len(stalled)} stalled, {len(near)} near", file=sys.stderr)


def agreed_answer(inst: families.Instance, known: dict) -> bool:
    key = (inst.kind, families.to_json(inst.a), families.to_json(inst.b))
    if key in known:
        return known[key]
    a, b = load_model(key[1]), load_model(key[2])
    guard = max(len(a.model.worlds), len(b.model.worlds), len(a.model.edges),
                len(b.model.edges), 6)
    answers = {oracle_bisimilar(inst.kind, a, b, max_worlds=guard, max_edges=guard).answer}
    if inst.family != "frontier":
        answers.add(check(inst.kind, a, b, use_cache=True).answer)
    if inst.answer is not None:
        answers.add(inst.answer)
    if len(answers) != 1:
        sys.exit(f"{inst.id}: oracle, checker and construction disagree")
    known[key] = answers.pop()
    return known[key]


def make_seed_answers() -> None:
    doc = {}
    for workload, rounds in SEED_ROUNDS.items():
        make_round = getattr(families, f"{workload}_round")
        known: dict = {}
        entries = []
        for index in range(rounds):
            batch = make_round(families.DEFAULT_SEED, index)
            answers = "".join("y" if agreed_answer(i, known) else "n" for i in batch)
            entries.append([expected.round_digest(batch), answers])
            print(f"{workload}: round {index + 1}/{rounds}", file=sys.stderr)
        doc[workload] = entries
    with open(expected.SEED_FILE, "w", encoding="utf-8") as f:
        f.write("{\n")
        for n, (workload, entries) in enumerate(doc.items()):
            rows = ",\n".join(json.dumps(e) for e in entries)
            f.write(f'"{workload}": [\n{rows}\n]{"," if n + 1 < len(doc) else ""}\n')
        f.write("}\n")


if __name__ == "__main__":
    modes = {"sweep": make_sweep_pool, "costs": make_sweep_costs,
             "seed": make_seed_answers}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        sys.exit(__doc__)
    modes[sys.argv[1]]()
