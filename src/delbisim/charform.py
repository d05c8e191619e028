"""Characteristic formulas and the formula-based bisimilarity check.

Every world ``x`` of the source model gets a reserved tag atom ``@x``.  The
description formula conjoins, for each world, an implication from its tag to
its literal profile and to its successor environment.  ``build_char`` conjoins
that description, one conjunct per deletion-sequence length and a last clause
forbidding one deletion too many.  A length's conjunct lists an existential
clause for every sequence of pairwise-distinct items deletable at the point,
in canonical order, then the universal clauses: one for all sequences, or one
per sequence for the guarded kinds.

The four deletion kinds differ only in their deletion domain
(``bisim.DOMAINS``: which items a sequence deletes and the pair of
modalities that delete them) and in whether those modalities are guarded
(``g``/``r``); one ``_chain`` function nests the modalities for all of them.

Sub-formulas for a given deleted item set are shared, so the result is a
DAG; printing it materializes the tree and can be large.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import permutations

from .bisim import DOMAINS, GENERALIZED, check
from .formula import (
    _GUARDS,
    _MODAL,
    And,
    Atom,
    Bot,
    Box,
    Dia,
    Formula,
    Imp,
    Not,
    Or,
    Top,
)
from .model import (
    EDGE,
    KripkeModel,
    ModelError,
    PointedModel,
    SizeGuardError,
    delete_edge,
    delete_point,
)
from .oracle import DEFAULT_MAX_EDGES, DEFAULT_MAX_WORLDS, guard_size
from .semantics import evaluate

FRESH_PREFIX = "@"

GUARD = 3  # most edges (s/g) or worlds (d/r) a formula's model may have


def fresh_atom(world: str) -> str:
    return FRESH_PREFIX + world


def big_and(parts: list[Formula]) -> Formula:
    if not parts:
        return Top()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def big_or(parts: list[Formula]) -> Formula:
    if not parts:
        return Bot()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


def build_E(m: KripkeModel) -> Formula:
    """The world-description formula: tag -> literal profile and environment."""
    conjuncts = []
    for x in m.worlds:
        literals = [
            Atom(p) if m.true_at(p, x) else Not(Atom(p)) for p in m.propositions
        ]
        succ = m.successors(x)
        env = And(
            big_and([Dia(Atom(fresh_atom(y))) for y in succ]),
            Box(big_or([Atom(fresh_atom(y)) for y in succ])),
        )
        conjuncts.append(Imp(Atom(fresh_atom(x)), And(big_and(literals), env)))
    return big_and(conjuncts)


def _chain(op, guards, seq, body: Formula) -> Formula:
    """``op`` once per item of ``seq``, the first item outermost."""
    for item in reversed(seq):
        body = op(*guards(item), body)
    return body


def _tags(m: KripkeModel, declared) -> set[str]:
    """The tag atoms of ``m``'s worlds, refused if one is declared."""
    tags = {fresh_atom(x) for x in m.worlds}
    clash = sorted(tags & set(declared))
    if clash:
        raise ModelError(f"tag atoms collide with declared propositions: {clash}")
    return tags


def _guard_check(kind, m) -> int:
    """The number of ``m``'s items of the kind's domain, refused past ``GUARD``."""
    if kind not in DOMAINS:
        raise ValueError(f"no characteristic formula for kind {kind!r}")
    domain = DOMAINS[kind]
    size = len(domain.every(m))
    name = "R" if domain is EDGE else "W"
    if size > GUARD:
        raise SizeGuardError(
            f"characteristic formula guard exceeded: |{name}|={size} > {GUARD}"
        )
    return size


def build_char(kind: str, pm: PointedModel) -> Formula:
    """The kind's characteristic formula of ``pm`` (a shared-subterm DAG);
    ``GUARD`` bounds its edges (``s``/``g``) or worlds (``d``/``r``).  A
    ``d``/``r`` formula depends on the point, which no deletion removes."""
    _guard_check(kind, pm.model)
    _tags(pm.model, pm.model.propositions)
    domain, m = DOMAINS[kind], pm.model
    delete = delete_edge if domain is EDGE else delete_point
    # the generalized modalities guard a deletion with one formula per
    # endpoint of the deleted item
    guards = _GUARDS[domain.dia] if kind in GENERALIZED else 0
    existential_op = _MODAL[domain.dia, guards]
    universal_op = _MODAL[domain.box, guards]
    items = domain.items(m, pm.point)

    # the model a sequence reaches depends only on its item set
    @cache
    def e_of(deleted: frozenset) -> Formula:
        return build_E(reduce(delete, deleted, m))

    def tags(item) -> list[Formula]:
        if not guards:
            return []
        return [Atom(fresh_atom(x)) for x in domain.ends(item)]

    parts = [e_of(frozenset())]
    for k in range(1, len(items) + 1):
        seqs = list(permutations(items, k))
        clauses = [_chain(existential_op, tags, seq, e_of(frozenset(seq))) for seq in seqs]
        disjunction = big_or([e_of(frozenset(seq)) for seq in seqs])
        if guards:
            # Guarded universal chains mention the sequence's own tags, so
            # one clause is needed per sequence.
            clauses += [_chain(universal_op, tags, seq, disjunction) for seq in seqs]
        else:
            clauses.append(_chain(universal_op, tags, seqs[0], disjunction))
        parts.append(big_and(clauses))
    # one deletion too many: any guards will do
    parts.append(Not(_chain(existential_op, lambda _: [Top()] * guards,
                            range(len(items) + 1), Top())))
    return big_and(parts)


def canonical_expansion(kind: str, m: PointedModel, n: PointedModel) -> PointedModel:
    """Expand ``n`` with tags: ``@x`` holds at u iff (m,x) is kind-bisimilar
    to (n,u).

    Initial-language propositions of ``m`` that ``n`` does not declare are
    declared false everywhere, mirroring the checkers' atom convention.
    """
    guard_size("expansion", (m, n), DEFAULT_MAX_WORLDS, DEFAULT_MAX_EDGES)
    declared = set(m.model.propositions) | set(n.model.propositions)
    fresh = _tags(m.model, declared)
    valuation = {p: ws for p, ws in n.model.valuation}
    for x in m.model.worlds:
        valuation[fresh_atom(x)] = [
            u
            for u in n.model.worlds
            if check(kind, PointedModel(m.model, x), PointedModel(n.model, u)).answer
        ]
    model = KripkeModel.make(
        n.model.worlds,
        n.model.edges,
        sorted(declared | fresh),
        valuation,
    )
    return PointedModel.make(model, n.point)


def char_check(kind: str, m: PointedModel, n: PointedModel) -> bool:
    """Truth of (characteristic formula of m) and m's point tag on the
    canonically expanded n; equivalent to the kind's bisimilarity verdict.

    A size mismatch (edge count for s/g, world count for d/r) short-circuits
    to false, which the terminal clause would enforce in one direction only.
    """
    if _guard_check(kind, m.model) != _guard_check(kind, n.model):
        return False
    char = build_char(kind, m)
    expanded = canonical_expansion(kind, m, n)
    goal = And(char, Atom(fresh_atom(m.point)))
    return evaluate(expanded, goal, cache={})
