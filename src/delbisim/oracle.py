"""Brute-force greatest-fixpoint oracle over configuration space.

A configuration is a submodel reachable by deletions from the kind's
deletion domain (``bisim.DOMAINS``: edges for ``s``/``g``, worlds for
``d``/``r``) together with a current world.  The oracle computes, for every
pair of submodels reachable with the same number of deletions on both
sides, the largest relation on world pairs closed under the kind's
conditions: atom agreement, modal zig/zag, deletion zig/zag, and (for the
generalized kinds) the endpoint conditions evaluated at the pre-deletion
submodels.

Deletion clauses only reference submodels one deletion further on, so
levels are computed from the most deletions down; within a level the
operator is monotone and iterated to a fixpoint.  ``modal`` deletes
nothing, so its relation is the zero-deletion level alone.  The answer is
membership of the initial configuration pair.
"""

from __future__ import annotations

from itertools import combinations

from .bisim import DOMAINS, GENERALIZED, KINDS, Verdict, _atom_mismatch
from .model import Domain, PointedModel, SizeGuardError

DEFAULT_MAX_WORLDS = 5
DEFAULT_MAX_EDGES = 6

# modal bisimilarity: nothing is deletable, so only level zero exists
_NO_DELETION = Domain(None, 0, lambda m: (), None, None, None)


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
    domain = DOMAINS.get(kind, _NO_DELETION)
    ends = domain.ends if kind in GENERALIZED else None
    m1, m2 = a.model, b.model
    props = sorted(set(m1.propositions) | set(m2.propositions))
    atoms_ok = {
        (x, y): _atom_mismatch(m1, x, m2, y, props) is None
        for x in m1.worlds
        for y in m2.worlds
    }
    items1, items2 = domain.every(m1), domain.every(m2)
    levels = min(len(items1), len(items2)) - domain.keep
    subs1 = _submodels(m1, items1, levels)
    subs2 = _submodels(m2, items2, levels)
    checks = 0
    table: dict[tuple[frozenset, frozenset], set] = {}
    for level in range(levels, -1, -1):
        for gone1, at1, after1 in subs1[level]:
            for gone2, at2, after2 in subs2[level]:
                live = {(x, y) for x in at1 for y in at2 if atoms_ok[(x, y)]}
                changed = True
                while changed:
                    changed = False
                    for x, y in sorted(live):
                        checks += 1
                        (succ1, del1), (succ2, del2) = at1[x], at2[y]
                        ok = _modal_ok(succ1, succ2, live) and _del_ok(
                            ends, x, y, del1, del2, after1, after2, live, table
                        )
                        if not ok:
                            live.discard((x, y))
                            changed = True
                table[(gone1, gone2)] = live
    full = table[(frozenset(), frozenset())]
    return Verdict((a.point, b.point) in full, 0, checks, None)


def _submodels(m, items, levels):
    """Per deletion count up to ``levels``: each submodel as its deleted set,
    per world the world's successors and the items deletable there, and per
    remaining item the deleted set after deleting it too.

    Deleting a world also deletes its edges, and the current world is never
    deletable; an edge never equals a world, so this serves both domains.
    """
    out = []
    for count in range(levels + 1):
        row = []
        for gone in map(frozenset, combinations(items, count)):
            succ = {w: [] for w in m.worlds if w not in gone}
            for u, v in m.edges:
                if u in succ and v in succ and (u, v) not in gone:
                    succ[u].append(v)
            left = [i for i in items if i not in gone]
            at = {w: (vs, [i for i in left if i != w]) for w, vs in succ.items()}
            row.append((gone, at, {i: gone | {i} for i in left}))
        out.append(row)
    return out


def _modal_ok(succ_x, succ_y, live):
    for u in succ_x:
        if not any((u, v) in live for v in succ_y):
            return False
    for v in succ_y:
        if not any((u, v) in live for u in succ_x):
            return False
    return True


def _del_ok(ends, x, y, del1, del2, after1, after2, live, table):
    """Deletion zig/zag at (x, y): each deletable item has a partner."""

    def match(i1, i2):
        return (
            ends is None or live.issuperset(zip(ends(i1), ends(i2)))
        ) and (x, y) in table[(after1[i1], after2[i2])]

    for i1 in del1:
        if not any(match(i1, i2) for i2 in del2):
            return False
    for i2 in del2:
        if not any(match(i1, i2) for i1 in del1):
            return False
    return True
