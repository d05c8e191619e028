"""Brute-force greatest-fixpoint oracle over configuration space.

A configuration is a submodel reachable by deletions from the kind's
deletion domain (``bisim.DOMAINS``: edges for ``s``/``g``, worlds for
``d``/``r``) together with a current world.  The oracle computes, for
pairs of submodels reached with the same number of deletions on both
sides, the largest relation on world pairs closed under the kind's
conditions: atom agreement, modal zig/zag, deletion zig/zag, and (for the
generalized kinds) the endpoint conditions evaluated at the pre-deletion
submodels.

Deletion clauses only reference submodel pairs one deletion further on, so
a pair's relation is computed once, when a shallower pair first asks for
it, and only pairs reachable from the initial one are visited; within a
pair the operator is monotone and iterated to a fixpoint.  ``modal``
deletes nothing.  The answer is membership of the initial configuration pair.
"""

from __future__ import annotations

from functools import cache

from .bisim import DOMAINS, GENERALIZED, KINDS, Verdict
from .model import PointedModel, SizeGuardError

DEFAULT_MAX_WORLDS = 5
DEFAULT_MAX_EDGES = 6


def guard_size(what: str, pms, max_worlds: int, max_edges: int) -> None:
    """Raise SizeGuardError when a pointed model has too many worlds or edges."""
    for pm in pms:
        if len(pm.model.worlds) > max_worlds or len(pm.model.edges) > max_edges:
            raise SizeGuardError(
                f"{what} guard exceeded: |W|={len(pm.model.worlds)} "
                f"|R|={len(pm.model.edges)} (limits {max_worlds}/{max_edges})"
            )


def oracle_bisimilar(
    kind: str,
    a: PointedModel,
    b: PointedModel,
    max_worlds: int = DEFAULT_MAX_WORLDS,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> Verdict:
    guard_size("oracle", (a, b), max_worlds, max_edges)
    if kind not in KINDS:
        raise ValueError(f"unknown bisimilarity kind {kind!r}")
    # modal deletes nothing, so only the initial pair exists
    every = DOMAINS[kind].every if kind in DOMAINS else lambda m: ()
    ends = DOMAINS[kind].ends if kind in GENERALIZED else None
    m1, m2 = a.model, b.model
    # Two worlds agree on atoms when the same propositions hold at both; a
    # proposition a model does not declare is false throughout it.
    true1, true2 = ({w: {p for p, ws in m.valuation if w in ws} for w in m.worlds}
                    for m in (m1, m2))
    atoms_ok = {(x, y): true1[x] == true2[y] for x in m1.worlds for y in m2.worlds}
    at1 = _submodels(m1, every(m1))
    at2 = _submodels(m2, every(m2))
    checks = 0

    @cache
    def related(gone1: frozenset, gone2: frozenset) -> set:
        nonlocal checks
        sub1, sub2 = at1(gone1), at2(gone2)
        live = {(x, y) for x in sub1 for y in sub2 if atoms_ok[(x, y)]}

        def modal(u, v):
            return (u, v) in live

        def deletion(i1, i2):
            return (
                ends is None or live.issuperset(zip(ends(i1), ends(i2)))
            ) and (x, y) in related(gone1 | {i1}, gone2 | {i2})

        changed = True
        while changed:
            changed = False
            for x, y in sorted(live):
                checks += 1
                (succ1, del1), (succ2, del2) = sub1[x], sub2[y]
                if not (
                    _zigzag(succ1, succ2, modal) and _zigzag(del1, del2, deletion)
                ):
                    live.discard((x, y))
                    changed = True
        return live

    answer = (a.point, b.point) in related(frozenset(), frozenset())
    del related  # the memo refers to itself; free it now, not at the next collection
    return Verdict(answer, 0, checks, None)


def _submodels(m, items):
    """A memoised function from a deleted set of ``items`` to each remaining
    world's successors and the items deletable there.

    Deleting a world also deletes its edges, and the current world is never
    deletable; an edge never equals a world, so this serves both domains.
    """

    @cache
    def at(gone: frozenset) -> dict:
        succ = {w: [] for w in m.worlds if w not in gone}
        for u, v in m.edges:
            if u in succ and v in succ and (u, v) not in gone:
                succ[u].append(v)
        left = [i for i in items if i not in gone]
        return {w: (vs, [i for i in left if i != w]) for w, vs in succ.items()}

    return at


def _zigzag(left, right, match):
    """Every candidate on each side has a match on the other."""
    for u in left:
        if not any(match(u, v) for v in right):
            return False
    for v in right:
        if not any(match(u, v) for u in left):
            return False
    return True
