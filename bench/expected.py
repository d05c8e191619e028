"""Expected answers, kept apart from the code being timed.

* Instances with an answer by construction carry it (``Instance.answer``).
* The sweep's verdicts for pool pairs 0..SWEEP_POOL-1 are committed in
  ``expected/sweep_pool.hex``: one hex digit per pair, bit i set when kind
  ``"sdgr"[i]`` is bisimilar.
* ``expected/sweep_costs.json`` holds the sweep's slow pool pairs: those
  ``stalled`` past 8x the per-line limit, and those ``near`` it, which the
  workload leaves out.
* For the first check and charcheck rounds of the default seed, every
  answer is committed in ``expected/seed0.json``: per round a digest of
  its inputs and one "y"/"n" per instance.
* Any other instance gets the verdict of ``oracle_bisimilar``, computed
  before its round is timed.

``make_expected.py`` writes both files; there the oracle and the cached
recursive checker must agree on every instance.
"""

from __future__ import annotations

import hashlib
import json
import os

from families import DEFAULT_SEED, SWEEP_POOL, Instance, to_json

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_FILE = os.path.join(HERE, "expected", "sweep_pool.hex")
SEED_FILE = os.path.join(HERE, "expected", "seed0.json")
COSTS_FILE = os.path.join(HERE, "expected", "sweep_costs.json")
KIND_BITS = {"s": 1, "d": 2, "g": 4, "r": 8}


class StaleExpectedAnswers(RuntimeError):
    """A committed round no longer matches what the generator produces."""


def round_digest(batch: list[Instance]) -> str:
    doc = [[i.id, i.kind, to_json(i.a), to_json(i.b)] for i in batch]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def load_sweep_pool() -> str:
    with open(POOL_FILE, encoding="ascii") as f:
        pool = "".join(f.read().split())
    if len(pool) != SWEEP_POOL:
        raise StaleExpectedAnswers(f"{POOL_FILE}: {len(pool)} pairs, want {SWEEP_POOL}")
    return pool


def load_sweep_costs() -> dict:
    """expected/sweep_costs.json, with pair numbers as ints."""
    with open(COSTS_FILE, encoding="utf-8") as f:
        doc = json.load(f)
    doc["near"] = {int(p): s for p, s in doc["near"].items()}
    return doc


def sweep_answer(pool: str, pair: int, kind: str) -> bool:
    return bool(int(pool[pair], 16) & KIND_BITS[kind])


class Answers:
    """Expected answers for the rounds of one check or charcheck run."""

    def __init__(self, workload: str, seed: int):
        self.committed = []
        if seed == DEFAULT_SEED:
            with open(SEED_FILE, encoding="utf-8") as f:
                self.committed = json.load(f)[workload]

    def for_round(self, index: int, batch: list[Instance]) -> list[bool]:
        if index < len(self.committed):
            digest, answers = self.committed[index]
            if digest != round_digest(batch):
                raise StaleExpectedAnswers(
                    f"round {index}: inputs differ from {SEED_FILE}; rerun make_expected.py"
                )
            return [c == "y" for c in answers]
        return [oracle_answer(i) if i.answer is None else i.answer for i in batch]


def oracle_answer(inst: Instance) -> bool:
    from delbisim.model import load_model
    from delbisim.oracle import oracle_bisimilar

    a, b = load_model(to_json(inst.a)), load_model(to_json(inst.b))
    return oracle_bisimilar(inst.kind, a, b).answer
