"""Acceptance suite: every criterion prints one pass/fail line.

The sample sizes, bounds, and tolerances are fixed here; all randomness is
seed-derived, so every run checks the identical instances.
"""

import time
from pathlib import Path

import pytest

from delbisim import (
    KINDS,
    LanguageFragment,
    char_check,
    check,
    correspondence_report,
    evaluate,
    oracle_bisimilar,
    random_formula,
    random_model,
    render_report,
    translate_F,
    translate_G,
)
from delbisim.formula import (
    Box,
    Dia,
    GRem,
    GRemBox,
    GSab,
    GSabBox,
    Not,
    Rem,
    RemBox,
    Sab,
    SabBox,
    Top,
)

BASE_SEED = 20260810
SAMPLE_SIZE = 500
RECURSIVE = ("s", "d", "g", "r")

FRAGMENT_OF = {
    "s": LanguageFragment.SML,
    "g": LanguageFragment.GSML,
    "d": LanguageFragment.PSL,
    "r": LanguageFragment.MLSR,
}

REPORT_PATH = Path(__file__).resolve().parent.parent / "reports" / "translation_correspondence.md"
REPORT_SEED = 11
REPORT_COUNT = 60


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}: {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sample():
    pairs = []
    for i in range(SAMPLE_SIZE):
        a = random_model(BASE_SEED + 2 * i, 3, 4, ("p",))
        b = random_model(BASE_SEED + 2 * i + 1, 3, 4, ("p",))
        pairs.append((a, b))
    return pairs


@pytest.fixture(scope="module")
def verdicts(sample):
    """Checker and oracle verdicts for every pair and kind, computed once."""
    started = time.monotonic()
    table = {}
    for i, (a, b) in enumerate(sample):
        for kind in RECURSIVE:
            table[(kind, i)] = (
                check(kind, a, b),
                oracle_bisimilar(kind, a, b),
            )
        table[("modal", i)] = (check("modal", a, b), oracle_bisimilar("modal", a, b))
    return table, time.monotonic() - started


def test_criterion_1_oracle_equivalence(sample, verdicts):
    table, elapsed = verdicts
    mismatches = []
    for i, (a, b) in enumerate(sample):
        for kind in RECURSIVE:
            verdict, reference = table[(kind, i)]
            if verdict.answer != reference.answer:
                mismatches.append(
                    {
                        "pair": i,
                        "kind": kind,
                        "checker": verdict.answer,
                        "oracle": reference.answer,
                        "a": a,
                        "b": b,
                    }
                )
    if mismatches:
        smallest = min(
            mismatches,
            key=lambda mm: len(mm["a"].model.worlds)
            + len(mm["b"].model.worlds)
            + len(mm["a"].model.edges)
            + len(mm["b"].model.edges),
        )
        print("minimal counterexample:", smallest)
    _report(
        "criterion 1: checker/oracle agreement on "
        f"{SAMPLE_SIZE} pairs x {len(RECURSIVE)} kinds",
        not mismatches and elapsed < 300,
        f"{len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_count_gates(sample, verdicts):
    table, _ = verdicts
    violations = 0
    for i, (a, b) in enumerate(sample):
        for kind in ("s", "g"):
            if table[(kind, i)][0].answer and len(a.model.edges) != len(b.model.edges):
                violations += 1
        for kind in ("d", "r"):
            if table[(kind, i)][0].answer and len(a.model.worlds) != len(b.model.worlds):
                violations += 1
    _report(
        "criterion 2: edge/world count gates on every yes",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_3_logical_invariance(sample, verdicts):
    table, _ = verdicts
    violations = 0
    bisimilar_pairs = 0
    for i, (a, b) in enumerate(sample):
        for kind in RECURSIVE:
            if not table[(kind, i)][0].answer:
                continue
            bisimilar_pairs += 1
            for j in range(200):
                f = random_formula(
                    BASE_SEED + 1_000_000 + 400 * i + j, FRAGMENT_OF[kind], 4, ("p",)
                )
                if evaluate(a, f) != evaluate(b, f):
                    violations += 1
    _report(
        "criterion 3: bisimilar pairs agree on 200 fragment formulas each",
        violations == 0 and bisimilar_pairs > 0,
        f"{bisimilar_pairs} bisimilar verdicts, {violations} violations",
    )


def test_criterion_4_characteristic_formulas():
    started = time.monotonic()
    mismatches = 0
    checked = 0
    for kind in RECURSIVE:
        edges = 3 if kind in ("s", "g") else 4
        for i in range(100):
            a = random_model(BASE_SEED + 3_000_000 + 2 * i, 3, edges, ("p",))
            b = random_model(BASE_SEED + 3_000_000 + 2 * i + 1, 3, edges, ("p",))
            checked += 1
            if char_check(kind, a, b) != check(kind, a, b).answer:
                mismatches += 1
                print("char mismatch:", kind, i)
    elapsed = time.monotonic() - started
    _report(
        "criterion 4: characteristic-formula biconditional on 100 pairs per kind",
        mismatches == 0 and elapsed < 600,
        f"{checked} checks, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_5_depth_bounds(sample, verdicts):
    table, _ = verdicts
    violations = 0
    for i, (a, b) in enumerate(sample):
        s_bound = len(a.model.edges) * len(a.model.worlds) * len(b.model.worlds)
        if table[("s", i)][0].max_depth > s_bound:
            violations += 1
        d_bound = len(a.model.worlds) ** 2 * len(b.model.worlds)
        if table[("d", i)][0].max_depth > d_bound:
            violations += 1
    _report(
        "criterion 5: recursion depth bounds and termination",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_6_refinement_lattice(sample, verdicts):
    table, _ = verdicts
    violations = 0
    for i in range(len(sample)):
        answers = {kind: table[(kind, i)][0].answer for kind in KINDS}
        if answers["g"] and not answers["s"]:
            violations += 1
        if answers["r"] and not answers["d"]:
            violations += 1
        if any(answers[kind] for kind in RECURSIVE) and not answers["modal"]:
            violations += 1
    _report(
        "criterion 6: refinement lattice (g=>s, r=>d, deletion=>modal)",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_7_golden_example(golden_a, golden_b):
    expected = {"modal": True, "s": False, "d": False, "g": False, "r": False}
    actual = {kind: check(kind, golden_a, golden_b).answer for kind in KINDS}
    _report(
        "criterion 7: golden pair separates modal from all deletion kinds",
        actual == expected,
        f"{actual}",
    )


def test_criterion_8_semantic_identities():
    violations = 0
    for i in range(1000):
        pm = random_model(BASE_SEED + 5_000_000 + i, 3, 4, ("p", "q"))
        body = random_formula(BASE_SEED + 6_000_000 + i, LanguageFragment.MODAL, 2, ("p", "q"))
        guard = random_formula(BASE_SEED + 7_000_000 + i, LanguageFragment.MODAL, 2, ("p", "q"))
        checks = [
            evaluate(pm, Box(body)) == evaluate(pm, Not(Dia(Not(body)))),
            evaluate(pm, SabBox(body)) == evaluate(pm, Not(Sab(Not(body)))),
            evaluate(pm, RemBox(body)) == evaluate(pm, Not(Rem(Not(body)))),
            evaluate(pm, GSabBox(guard, guard, body))
            == evaluate(pm, Not(GSab(guard, guard, Not(body)))),
            evaluate(pm, GRemBox(guard, body))
            == evaluate(pm, Not(GRem(guard, Not(body)))),
            evaluate(pm, Sab(body)) == evaluate(pm, GSab(Top(), Top(), body)),
            evaluate(pm, Rem(body)) == evaluate(pm, GRem(Top(), body)),
        ]
        violations += checks.count(False)
    _report(
        "criterion 8: dualities and top-guard identities on 1000 samples",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_9_translation_laws_and_report():
    violations = 0
    for i in range(200):
        m = random_model(BASE_SEED + 8_000_000 + i, 4, 5, ("p",)).model
        f = translate_F(m)
        if len(f.worlds) != len(m.worlds) + len(m.edges):
            violations += 1
        if len(f.edges) != 2 * len(m.edges):
            violations += 1
        g = translate_G(m, "intent")
        if len(g.worlds) != len(m.worlds) + 1:
            violations += 1
    regenerated = render_report(correspondence_report(REPORT_SEED, REPORT_COUNT)) + "\n"
    committed = REPORT_PATH.read_text() if REPORT_PATH.exists() else None
    _report(
        "criterion 9: translation size laws and committed correspondence report",
        violations == 0 and committed == regenerated,
        f"{violations} size-law violations, report "
        + ("matches" if committed == regenerated else "stale or missing"),
    )
