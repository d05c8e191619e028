"""Command-line front end.

Structured output is line-oriented JSON on stdout; errors go to stderr.
Exit codes: 0 bisimilar/true, 1 not bisimilar/false, 2 usage or validation
error or any unexpected error, 3 size guard exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bisim import DELETION_KINDS, KINDS, check, random_model
from .charform import build_char, char_check
from .formula import format_formula, parse_formula
from .model import ModelError, PointedModel, SizeGuardError, load_model, save_model
from .oracle import DEFAULT_MAX_EDGES, DEFAULT_MAX_WORLDS, oracle_bisimilar
from .semantics import evaluate
from .translate import correspondence_report, render_report, translate_F, translate_G

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_GUARD = 3


def _load(path: str) -> PointedModel:
    try:
        with open(path, encoding="utf-8") as f:
            return load_model(f.read())
    except OSError as exc:
        raise ModelError(f"{path}: {exc}") from exc


def _emit(payload) -> None:
    """Print ``json.dumps(payload, separators=(",", ":"))``, encoding a
    witness one ``cause`` level at a time: ``json.dumps`` recurses once per
    level, and a modal witness can be thousands of levels deep."""
    heads, tails, key = [], [], "witness"
    while isinstance(payload, dict) and isinstance(payload.get(key), dict):
        # The level's one dict is the payload itself, and quotes inside
        # strings are escaped, so the placeholder is found exactly once.
        level = json.dumps({**payload, key: 0}, separators=(",", ":"))
        head, _, tail = level.partition(f'"{key}":0')
        heads.append(f'{head}"{key}":')
        tails.append(tail)
        payload, key = payload[key], "cause"
    tails.reverse()
    print("".join(heads) + json.dumps(payload, separators=(",", ":")) + "".join(tails))


def _cmd_check(args) -> int:
    a, b = _load(args.model_a), _load(args.model_b)
    # the oracle first: its size guard refuses at once a pair that the
    # checker could search for minutes
    reference = oracle_bisimilar(args.kind, a, b) if args.oracle else None
    verdict = check(args.kind, a, b)
    out = verdict.to_json()
    if not args.stats:
        del out["max_depth"], out["calls"]
    if reference is not None:
        out["oracle"] = "yes" if reference.answer else "no"
        out["match"] = reference.answer == verdict.answer
    _emit(out)
    return EXIT_YES if verdict.answer else EXIT_NO


def _cmd_eval(args) -> int:
    pm = _load(args.model)
    value = evaluate(pm, parse_formula(args.formula))
    _emit(value)
    return EXIT_YES if value else EXIT_NO


def _cmd_charform(args) -> int:
    pm = _load(args.model)
    print(format_formula(build_char(args.kind, pm)))
    return EXIT_YES


def _cmd_charcheck(args) -> int:
    a, b = _load(args.model_a), _load(args.model_b)
    formula_verdict = char_check(args.kind, a, b)
    checker_verdict = check(args.kind, a, b).answer
    out = {
        "char_check": formula_verdict,
        "check": "yes" if checker_verdict else "no",
        "match": formula_verdict == checker_verdict,
    }
    _emit(out)
    if formula_verdict != checker_verdict:
        print(
            json.dumps({"error": "characteristic formula disagrees with checker"}),
            file=sys.stderr,
        )
        return EXIT_ERROR
    return EXIT_YES if formula_verdict else EXIT_NO


def _cmd_translate(args) -> int:
    pm = _load(args.model)
    if args.dir == "f":
        model = translate_F(pm.model)
    else:
        model = translate_G(pm.model, args.edges_to_sink)
    print(save_model(PointedModel.make(model, pm.point)))
    return EXIT_YES


def _cmd_random(args) -> int:
    pm = random_model(args.seed, args.worlds, args.edges, tuple(args.props.split(",")))
    print(save_model(pm))
    return EXIT_YES


def _cmd_sweep(args) -> int:
    kinds = args.kinds.split(",")
    for kind in kinds:
        if kind not in DELETION_KINDS:
            raise ModelError(f"sweep: unknown kind {kind!r}")
    if args.count < 0:
        raise ValueError("sweep: count must be at least 0")
    # random_model draws up to --worlds worlds and min(--edges, worlds^2) edges
    worlds, edges = args.worlds, args.edges
    if worlds > DEFAULT_MAX_WORLDS or min(edges, worlds ** 2) > DEFAULT_MAX_EDGES:
        raise SizeGuardError(f"sweep: --worlds {worlds} --edges {edges} exceed the oracle "
                             f"guard (limits {DEFAULT_MAX_WORLDS}/{DEFAULT_MAX_EDGES})")
    props = tuple(args.props.split(","))
    mismatches = 0
    for index in range(args.count):
        a = random_model(args.seed + 2 * index, args.worlds, args.edges, props)
        b = random_model(args.seed + 2 * index + 1, args.worlds, args.edges, props)
        for kind in kinds:
            verdict = check(kind, a, b)
            reference = oracle_bisimilar(kind, a, b)
            match = verdict.answer == reference.answer
            line = {
                "pair": index,
                "kind": kind,
                "answer": "yes" if verdict.answer else "no",
                "oracle": "yes" if reference.answer else "no",
                "match": match,
            }
            if not match:
                mismatches += 1
                line["a"] = save_model(a)
                line["b"] = save_model(b)
            _emit(line)
    _emit(
        {
            "pairs": args.count,
            "kinds": kinds,
            "checks": args.count * len(kinds),
            "mismatches": mismatches,
        }
    )
    return EXIT_YES if mismatches == 0 else EXIT_NO


def _cmd_translate_report(args) -> int:
    print(render_report(correspondence_report(args.seed, args.count)))
    return EXIT_YES


@functools.cache  # built on the first call, not at import; parsing leaves it as it is
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delbisim",
        description="Bisimilarity checking for modal logics of link and point deletion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="compare two pointed models")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--oracle", action="store_true", help="also run the fixpoint oracle")
    p.add_argument("--stats", action="store_true", help="include recursion statistics")
    p.add_argument("--cache", action="store_true", help="no longer needed: checks always cache")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("eval", help="evaluate a formula in a pointed model")
    p.add_argument("model")
    p.add_argument("formula")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("charform", help="print a characteristic formula")
    p.add_argument("--kind", choices=DELETION_KINDS, required=True)
    p.add_argument("model")
    p.set_defaults(run=_cmd_charform)

    p = sub.add_parser("charcheck", help="characteristic-formula bisimilarity check")
    p.add_argument("--kind", choices=DELETION_KINDS, required=True)
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.set_defaults(run=_cmd_charcheck)

    p = sub.add_parser("translate", help="translate a model between deletion styles")
    p.add_argument("--dir", choices=("f", "g"), required=True)
    p.add_argument("--edges-to-sink", choices=("literal", "intent"), default="literal")
    p.add_argument("model")
    p.set_defaults(run=_cmd_translate)

    p = sub.add_parser("random", help="generate a seeded random model")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--worlds", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--props", default="p")
    p.set_defaults(run=_cmd_random)

    p = sub.add_parser("sweep", help="oracle-agreement sweep over random pairs")
    p.add_argument("--kinds", required=True, help="comma-separated subset of s,d,g,r")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--worlds", type=int, default=3)
    p.add_argument("--edges", type=int, default=4)
    p.add_argument("--props", default="p")
    p.add_argument("--cache", action="store_true", help="no longer needed: checks always cache")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser(
        "translate-report",
        help="print the translation correspondence report (markdown)",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(run=_cmd_translate_report)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except SizeGuardError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # A crash (RecursionError, MemoryError, a bug) is not a verdict:
        # never let it reach exit 1, which means "not bisimilar".
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
