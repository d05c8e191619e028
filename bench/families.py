"""Seeded instance families of the three workloads.

Models are built here as plain dicts in the CLI's JSON model format, so
generating inputs does not depend on the package being measured.  Every
round of a workload is a pure function of (workload, seed, round index).

An instance's ``answer`` is True/False when it is known by construction
(identity pairs, relabelled copies, marked cycles) and None when it has to
be computed (see ``expected.py``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
DELETION_KINDS = ("s", "d", "g", "r")


@dataclass(frozen=True)
class Instance:
    id: str
    family: str
    kind: str
    a: dict
    b: dict
    answer: bool | None


def model(worlds, edges, p_worlds, point) -> dict:
    return {
        "worlds": list(worlds),
        "edges": [list(e) for e in edges],
        "propositions": ["p"],
        "valuation": {"p": sorted(p_worlds)},
        "point": point,
    }


def to_json(m: dict) -> str:
    return json.dumps(m, separators=(",", ":"))


def cycle(n: int, point: int = 0, prefix: str = "w") -> dict:
    """Directed n-cycle with p true at world 0 only."""
    ws = [f"{prefix}{i}" for i in range(n)]
    return model(ws, [(ws[i], ws[(i + 1) % n]) for i in range(n)], ws[:1], ws[point])


def complete(n: int) -> dict:
    """Complete digraph (self-loops included) with p true at w0 only."""
    ws = [f"w{i}" for i in range(n)]
    return model(ws, [(u, v) for u in ws for v in ws], ws[:1], ws[0])


def random_model(rng: random.Random, n: int, k: int, p_worlds=None) -> dict:
    """n worlds, exactly k distinct edges, random valuation unless given."""
    ws = [f"w{i}" for i in range(n)]
    edges = rng.sample([(u, v) for u in ws for v in ws], k)
    if p_worlds is None:
        p_worlds = [w for w in ws if rng.random() < 0.5]
    return model(ws, edges, p_worlds, rng.choice(ws))


def relabel(rng: random.Random, m: dict) -> dict:
    """An isomorphic copy under a random bijection onto fresh names.

    The checkers iterate worlds in sorted name order, so the copy is
    searched in a different order from the original.
    """
    names = [f"v{i}" for i in range(len(m["worlds"]))]
    rng.shuffle(names)
    to = dict(zip(m["worlds"], names))
    return model(
        sorted(names),
        sorted((to[u], to[v]) for u, v in m["edges"]),
        [to[w] for w in m["valuation"]["p"]],
        to[m["point"]],
    )


def retarget(rng: random.Random, m: dict) -> dict:
    """Move one edge's target, keeping world and edge counts (a near miss).

    There is always a move when the edge count is not a multiple of the
    world count (3 worlds, 4 edges here).
    """
    edges = [tuple(e) for e in m["edges"]]
    moves = [
        (i, (u, t))
        for i, (u, v) in enumerate(edges)
        for t in m["worlds"]
        if t != v and (u, t) not in edges
    ]
    i, edge = rng.choice(moves)
    edges[i] = edge
    return model(m["worlds"], edges, m["valuation"]["p"], m["point"])


# -- check -------------------------------------------------------------------

# One round has 371 instances.  Family sizes are fixed so that each
# percentile falls in the middle of a cluster of like instances: above the
# 90th lie C5, C4 and K2 under g and about half of the 68 modal cycles; the
# median falls among the 288 small random pairs, drawn in equal numbers per
# size.  The modal cycles have 50-57 worlds, so that their costs spread over
# a range (1x-1.5x) rather than sit at one value: a percentile inside one
# value's cluster jumps with the machine's speed of the moment.
MODAL_SIZES = range(50, 58)
MODAL_PAIRS = 68
RANDOM_MODELS = 48


def check_round(seed: int, index: int) -> list[Instance]:
    rng = random.Random(f"check/{seed}/{index}")
    out = []
    for name, m in (("C3", cycle(3)), ("C4", cycle(4)), ("K2", complete(2))):
        for kind in DELETION_KINDS:
            out.append(Instance(f"identity-{name}-{kind}", "identity", kind, m, m, True))
    # Beyond the seed commit's reach: stopped at the per-instance limit.
    out.append(Instance("frontier-C5-g", "frontier", "g", cycle(5), cycle(5), True))
    for i in range(MODAL_PAIRS):
        # (C_n, w0) and (C_n, w_j) with one marked world agree iff j == 0.
        n = MODAL_SIZES[i % len(MODAL_SIZES)]
        j = 0 if rng.random() < 0.5 else rng.randrange(1, n)
        out.append(Instance(f"modal-{i}-C{n}-{j}", "modal", "modal",
                            cycle(n), cycle(n, j, "v"), j == 0))
    # Relabelled complete 2-world digraphs under g.  With p true nowhere
    # the cost depends on the labelling (0.32M-0.69M recursive calls at the
    # seed commit), so that pair is fixed; with p true at one world it
    # costs about 3k calls and is drawn.
    a = model(["w0", "w1"], [(u, v) for u in ("w0", "w1") for v in ("w0", "w1")], [], "w1")
    b = model(["v0", "v1"], [(u, v) for u in ("v0", "v1") for v in ("v0", "v1")], [], "v0")
    out.append(Instance("relabelled-K2-uniform-g", "relabelled", "g", a, b, True))
    a = random_model(rng, 2, 4, [rng.choice(["w0", "w1"])])
    out.append(Instance("relabelled-K2-mixed-g", "relabelled", "g", a, relabel(rng, a), True))
    # Random 4-edge pairs leave out g: at the seed commit about 15% of the
    # 3-world ones run past any affordable limit.
    for i in range(RANDOM_MODELS):
        a = random_model(rng, 2 + i % 2, 4)
        b = relabel(rng, a)
        for kind in ("s", "d", "r"):
            out.append(Instance(f"relabelled-{i}-{kind}", "relabelled", kind, a, b, True))
    for i in range(RANDOM_MODELS):
        a = random_model(rng, 3, 4)
        b = retarget(rng, a)
        for kind in ("s", "d", "r"):
            out.append(Instance(f"near-miss-{i}-{kind}", "near-miss", kind, a, b, None))
    rng.shuffle(out)
    return out


# -- charcheck ---------------------------------------------------------------

# (worlds, edges) per kind, at or below the characteristic-formula guard
# (3 edges for s/g, 3 worlds for d/r).  At the seed commit one instance
# costs 1-50 ms here; r with 3 worlds, g with 2 edges or s with 3 edges
# have tails of 1-10 s per instance (see NOTES.md), which would make one
# run's throughput depend on a handful of draws.
CHAR_SIZES = {"s": (3, 2), "d": (3, 4), "g": (3, 1), "r": (2, 4)}


def charcheck_round(seed: int, index: int) -> list[Instance]:
    rng = random.Random(f"charcheck/{seed}/{index}")
    out = []
    for kind in DELETION_KINDS:
        n, k = CHAR_SIZES[kind]
        a, b = random_model(rng, n, k), random_model(rng, n, k)
        out.append(Instance(f"independent-{kind}", "independent", kind, a, b, None))
        a = random_model(rng, n, k)
        out.append(Instance(f"relabelled-{kind}", "relabelled", kind, a, relabel(rng, a), True))
    rng.shuffle(out)
    return out


# -- sweep -------------------------------------------------------------------

# `delbisim sweep --seed S` checks pairs (random_model(S + 2i),
# random_model(S + 2i + 1)).  With even S = 2j that is pair j + i of one
# global sequence; expected verdicts for its first SWEEP_POOL pairs are
# committed in expected/sweep_pool.hex.
SWEEP_POOL = 32768
SWEEP_CHUNK = 50
SWEEP_ROUND_PAIRS = 500
SWEEP_KINDS = "s,d,g,r"
SWEEP_PROPS = "p"  # the CLI's default --props
SWEEP_SIZE = (5, 6)  # the oracle's default size guard
# Per-line limit.  A line takes about 1 ms; the pairs with a line between a
# quarter of the limit and 8x the limit are left out of the workload (see
# expected/sweep_costs.json), so every timeout is one in every run.
SWEEP_LIMIT = 0.25


def sweep_start(seed: int) -> int:
    return (seed * 6151) % SWEEP_POOL


def sweep_chunk(start: int, count: int) -> tuple[int, list[str]]:
    """(pair count, CLI argv) of up to ``count`` pool pairs from ``start``."""
    count = min(count, SWEEP_POOL - start)
    worlds, edges = SWEEP_SIZE
    return count, [
        "sweep", "--kinds", SWEEP_KINDS, "--cache",
        "--worlds", str(worlds), "--edges", str(edges),
        "--seed", str(2 * start), "--count", str(count),
    ]
