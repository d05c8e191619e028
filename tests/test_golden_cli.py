"""Golden CLI corpus: exact stdout bytes and exit codes of recorded commands.

``golden_cli.json`` holds the models, and for every command below the exit
code and stdout it produced when the corpus was recorded; it also holds
``filtered_check(...).to_json()`` for restricted-deletion checks on
translated and hand-made pairs.  Any change to a verdict, a witness, a call
count or a printed formula shows up here as a byte difference.

Regenerate (only when an output change is intended) with:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import tempfile

from delbisim import (
    KripkeModel,
    PointedModel,
    filtered_check,
    format_formula,
    load_model,
    parse_formula,
    random_model,
    save_model,
    translate_F,
    translate_G,
)
from delbisim.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

# Random-model seed pairs (seed, seed + 1) at 3 worlds / 4 edges whose
# verdicts cover every witness step: ``endpoint`` (g, r), ``del`` and
# ``move``, and the ``world-count`` and ``zag-del`` conditions.
RANDOM_SEEDS = (34, 80, 92, 152, 226, 236, 250, 282, 388)

CHECK_PAIRS = (
    ("loop", "loop"),
    ("loop", "cycle2"),
    ("golden_a", "golden_b"),
    *((f"r{s}", f"r{s + 1}") for s in RANDOM_SEEDS),
)

# Every deletion modality, guarded and unguarded, next to dia and box.
EVAL_FORMULAS = (
    "dia p",
    "box dia p",
    "sab dia p",
    "sbox sab true",
    "sab{p|p} box p",
    "sbox{~p|p} dia p",
    "rem dia p",
    "rbox dia true",
    "rem{~p} dia p",
    "rbox{p} dia p",
    "sab sab{true|p} ~dia true",
    "rem{dia p} sbox{p|true} (dia p -> box p)",
    "sbox rbox{~p} box false",
)

CASES = (
    *(
        ("check", "--stats", "--oracle", "--kind", kind, f"@{a}", f"@{b}")
        for a, b in CHECK_PAIRS
        for kind in ("modal", "s", "d", "g", "r")
    ),
    *(
        ("check", "--cache", "--stats", "--kind", kind, f"@{a}", f"@{b}")
        for a, b in (("cycle3", "cycle3"), ("golden_a", "golden_b"), ("r92", "r93"))
        for kind in ("s", "d", "g", "r")
    ),
    *(
        ("charform", "--kind", kind, f"@{m}")
        for m in ("edgeless", "golden_a", "three")
        for kind in ("s", "d", "g", "r")
    ),
    *(
        ("charcheck", "--kind", kind, f"@{a}", f"@{b}")
        for a, b in (("loop", "loop"), ("loop", "cycle2"), ("golden_a", "golden_b"))
        for kind in ("s", "d", "g", "r")
    ),
    # char_check answers false on a model paired with itself when two of
    # its worlds are bisimilar: exit 2 with a disagreement diagnostic.
    ("charcheck", "--kind", "s", "@twins", "@twins"),
    ("sweep", "--kinds", "s,d,g,r", "--seed", "7", "--count", "20", "--cache"),
    *(("eval", f"@{m}", formula) for formula in EVAL_FORMULAS
      for m in ("loop", "cycle2", "golden_a", "three")),
    # Malformed guards, a truncated formula and an undeclared atom: exit 2.
    ("eval", "@loop", "sab{p} q"),
    ("eval", "@loop", "rem{p|q} r"),
    ("eval", "@cycle2", "(dia p &"),
    ("eval", "@three", "dia q"),
    # Modal fixpoints that last several rounds: witnesses with 6- to 8-deep
    # ``cause`` chains, and a yes answer.  Not through CHECK_PAIRS: past 5
    # worlds the oracle refuses, and ``g`` stalls on a 9-cycle.
    *(("check", "--stats", "--kind", "modal", f"@{a}", f"@{b}")
      for a, b in (("c9w1", "c9v2"), ("c9w1", "c6v1"), ("c6v1", "c9w1"),
                   ("c9p01w2", "c9p02v3"), ("c9w1", "c9v1"))),
)

# (kind, a, b, translation, restriction): deletions restricted to items
# whose target world satisfies the proposition.
FILTERED = (
    *(("r", f"r{s}", f"r{s + 1}", "F", "i") for s in (226, 282)),
    *(("g", f"r{s}", f"r{s + 1}", "G", "j") for s in (226, 282)),
    ("r", "golden_a", "golden_b", "F", "i"),
    ("g", "golden_a", "golden_b", "G", "j"),
    ("s", "golden_a", "golden_b", "G", "j"),
    ("d", "golden_a", "golden_b", "F", "i"),
    # The restricted world-count gate counts deletable worlds, and the
    # current world is never deletable.  q holds at the left current world
    # and not at the right one, so counting every q-world instead would
    # change the failing condition (atom against world-count).
    ("d", "qa", "qb", None, "q"),
    ("d", "qa", "qc", None, "q"),
    ("r", "qa", "qc", None, "q"),
)


def _models() -> dict:
    """The corpus models, built from the recorded JSON."""
    with open(DATA, encoding="utf-8") as f:
        return {name: load_model(text) for name, text in json.load(f)["models"].items()}


def _run(argv, paths):
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _translated(pm, translation):
    if translation is None:
        return pm
    if translation == "F":
        return PointedModel.make(translate_F(pm.model), pm.point)
    return PointedModel.make(translate_G(pm.model, "intent"), pm.point)


def _filtered(models, case):
    kind, a, b, translation, restriction = case
    return filtered_check(
        kind,
        _translated(models[a], translation),
        _translated(models[b], translation),
        restriction,
    ).to_json()


def _write_models(models, directory):
    paths = {}
    for name, pm in models.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(save_model(pm))
        paths[name] = path
    return paths


def test_cli_outputs_match_corpus(tmp_path):
    with open(DATA, encoding="utf-8") as f:
        recorded = json.load(f)
    paths = _write_models(_models(), str(tmp_path))
    assert len(recorded["cases"]) == len(CASES)
    for argv, expected in zip(CASES, recorded["cases"]):
        assert list(argv) == expected["argv"]
        code, out = _run(argv, paths)
        assert (code, out) == (expected["code"], expected["stdout"]), argv


def test_printed_characteristic_formulas_parse():
    with open(DATA, encoding="utf-8") as f:
        recorded = json.load(f)["cases"]
    printed = [case["stdout"] for case in recorded if case["argv"][0] == "charform"]
    assert printed
    for out in printed:
        (line,) = out.splitlines()
        assert format_formula(parse_formula(line)) == line


def test_filtered_checks_match_corpus():
    with open(DATA, encoding="utf-8") as f:
        recorded = json.load(f)["filtered"]
    models = _models()
    assert len(recorded) == len(FILTERED)
    for case, expected in zip(FILTERED, recorded):
        assert _filtered(models, case) == expected, case


def _source_models() -> dict:
    def pm(worlds, edges, props, val, point):
        return PointedModel.make(KripkeModel.make(worlds, edges, props, val), point)

    models = {
        "loop": pm(["w"], [("w", "w")], ["p"], {"p": ["w"]}, "w"),
        "cycle2": pm(["u", "v"], [("u", "v"), ("v", "u")], ["p"], {"p": ["u", "v"]}, "u"),
        "cycle3": pm(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")],
                     ["p"], {"p": ["a"]}, "a"),
        "golden_a": pm(["x", "y"], [("x", "y"), ("y", "y")], ["p"], {"p": ["x", "y"]}, "x"),
        "golden_b": pm(["z", "u"], [("z", "z"), ("u", "u")], ["p"], {"p": ["z", "u"]}, "z"),
        "edgeless": pm(["a", "b"], [], ["p"], {"p": ["b"]}, "a"),
        "three": pm(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "c")],
                    ["p"], {"p": ["b"]}, "a"),
        "twins": pm(["w0", "w1", "w2"], [("w1", "w2"), ("w2", "w1")],
                    ["p"], {"p": ["w0"]}, "w1"),
        "qa": pm(["a", "b", "c"], [("a", "b")], ["q"], {"q": ["a", "b"]}, "a"),
        "qb": pm(["d", "e", "f"], [("d", "e")], ["q"], {"q": ["e"]}, "d"),
        "qc": pm(["d", "e", "f"], [("d", "e")], ["q"], {"q": ["e", "f"]}, "d"),
    }
    for seed in RANDOM_SEEDS:
        models[f"r{seed}"] = random_model(seed, 3, 4)
        models[f"r{seed + 1}"] = random_model(seed + 1, 3, 4)

    def cycle(n, prefix, marked, point):
        ws = [f"{prefix}{i}" for i in range(n)]
        edges = [(ws[i], ws[(i + 1) % n]) for i in range(n)]
        return pm(ws, edges, ["p"], {"p": [ws[i] for i in marked]}, ws[point])

    models["c9w1"] = cycle(9, "w", [0], 1)
    models["c9v1"] = cycle(9, "v", [0], 1)
    models["c9v2"] = cycle(9, "v", [0], 2)
    models["c6v1"] = cycle(6, "v", [0], 1)
    models["c9p01w2"] = cycle(9, "w", [0, 1], 2)
    models["c9p02v3"] = cycle(9, "v", [0, 2], 3)
    return models


def regenerate() -> None:
    """Record the corpus from the code on the import path."""
    models = _source_models()
    with tempfile.TemporaryDirectory() as directory:
        paths = _write_models(models, directory)
        cases = []
        for argv in CASES:
            code, out = _run(argv, paths)
            cases.append({"argv": list(argv), "code": code, "stdout": out})
    doc = {
        "models": {name: save_model(pm) for name, pm in models.items()},
        "cases": cases,
        "filtered": [_filtered(models, case) for case in FILTERED],
    }
    with open(DATA, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, ensure_ascii=False)
        f.write("\n")


if __name__ == "__main__":
    regenerate()
