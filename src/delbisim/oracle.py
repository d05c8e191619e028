"""Brute-force greatest-fixpoint oracle over integer-indexed submodels.

Worlds are indices 0..n-1, items index ``bisim.DOMAINS[kind].every(m)`` and
a submodel is the ``int`` mask of its deleted items.  For submodel pairs
reached by equally many deletions, each left world's mask of right partners
is refined by atoms and modal zig/zag alone, then also by deletion zig/zag
and (``g``/``r``) pre-deletion endpoints, to the greatest fixpoint; the pair
one deletion on is computed when first asked for, keyed ``gone1 << k | gone2``.

Count gate: no deletion kind relates models with different item counts.
Matched deletions keep the difference, so the same side, say the left, has
fewer items in every submodel pair.  By induction on its count: if nothing
is deletable at x, something is at y and zag fails for (x, y); otherwise
(x, y) needs a matched deletion into a pair that relates nothing.
"""

from __future__ import annotations

from functools import cache, lru_cache, reduce
from operator import or_

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


def oracle_bisimilar(kind: str, a: PointedModel, b: PointedModel,
                     max_worlds: int = DEFAULT_MAX_WORLDS,
                     max_edges: int = DEFAULT_MAX_EDGES) -> Verdict:
    if kind not in KINDS:
        raise ValueError(f"unknown bisimilarity kind {kind!r}")
    guard_size("oracle", (a, b), max_worlds, max_edges)
    items1, items2 = (DOMAINS[kind].every(pm.model) if kind in DOMAINS else ()
                      for pm in (a, b))  # modal deletes nothing
    if len(items1) != len(items2):
        return Verdict(False, 0, 0, None)  # the count gate
    k, generalized = len(items2), kind in GENERALIZED
    p1, true1, ends1, own1, at1 = _indexed(a, items1, kind)
    p2, true2, ends2, own2, at2 = _indexed(b, items2, kind)
    # the right worlds that agree with each left world on atoms
    atoms = [sum(1 << y for y, t in enumerate(true2) if t == t1) for t1 in true1]
    # to match an item, try first those whose endpoints agree with its own on atoms
    agree = [[all(atoms[u] >> v & 1 for u, v in zip(e1, e2)) for e2 in ends2] for e1 in ends1]
    prefer = ([sorted(range(k), key=lambda j: not row[j]) for row in agree],
              [sorted(range(k), key=lambda i: not agree[i][j]) for j in range(k)])
    memo, checks = {}, 0

    def related(gone1: int, gone2: int) -> list:
        nonlocal checks
        (live1, succ1, pred1), (live2, succ2, _) = at1(gone1), at2(gone2)
        left1, left2 = (_bits((1 << k) - 1 & ~gone) for gone in (gone1, gone2))
        rel = [atoms[x] & live2 if live1 >> x & 1 else 0 for x in range(len(true1))]

        def deletion(x, keep):
            """The partners in ``keep`` whose deletions match x's both ways."""
            for zig, outer, gone in ((True, left1, gone2), (False, left2, gone1)):
                for i in outer:
                    # x is never deleted, and y never answers its own deletion
                    acc = (keep if own1[i] >> x & 1 else 0) if zig else own2[i]
                    for j in prefer[not zig][i]:
                        if not keep & ~acc:
                            break
                        i1, i2 = (i, j) if zig else (j, i)
                        if gone >> j & 1 or own1[i1] >> x & 1 or generalized and not all(
                                rel[u] >> v & 1 for u, v in zip(ends1[i1], ends2[i2])):
                            continue
                        key = (gone1 | 1 << i1) << k | gone2 | 1 << i2
                        if key not in memo:
                            memo[key] = related(gone1 | 1 << i1, gone2 | 1 << i2)
                        acc |= memo[key][x]
                    keep &= acc
            return keep

        for full in (False, True):
            todo = live1
            while todo:
                x = (todo & -todo).bit_length() - 1
                todo ^= 1 << x
                after = [rel[u] for u in _bits(succ1[x])]
                cover = reduce(or_, after, 0)
                keep = rel[x]
                for y in _bits(keep):
                    checks += 1
                    # zag: every successor of y is some u's partner; zig: every u has one
                    if succ2[y] & ~cover or not all(r & succ2[y] for r in after):
                        keep ^= 1 << y
                if full and keep:
                    keep = deletion(x, keep)
                if keep != rel[x]:
                    rel[x] = keep
                    todo |= live1 if full and generalized else pred1[x]  # endpoints read any world
            if not k or not gone1 | gone2 and not rel[p1] >> p2 & 1:
                break  # nothing to delete, or the initial pair is already out
        return rel

    answer = bool(related(0, 0)[p1] >> p2 & 1)
    del related  # it refers to itself; free its memo now, not at the next collection
    return Verdict(answer, 0, checks, None)


def _indexed(pm, items, kind):
    """The point's index, atoms per world, end indices and world bit (0 for an edge) per
    item, and a memoised map from a deleted-item mask to live, successor, predecessor masks."""
    m = pm.model
    index = {w: i for i, w in enumerate(m.worlds)}

    @cache
    def at(gone: int):
        dead = {items[i] for i in _bits(gone)}
        succ, pred = [0] * len(m.worlds), [0] * len(m.worlds)
        for e in m.edges:
            if dead.isdisjoint((e, *e)):  # a deleted world takes its edges
                succ[index[e[0]]] |= 1 << index[e[1]]
                pred[index[e[1]]] |= 1 << index[e[0]]
        return sum(1 << i for i, w in enumerate(m.worlds) if w not in dead), succ, pred

    return (index[pm.point], [{p for p, ws in m.valuation if w in ws} for w in m.worlds],
            [tuple(index[w] for w in DOMAINS[kind].ends(i)) for i in items],
            [1 << index[i] if i in index else 0 for i in items], at)


@lru_cache(maxsize=1 << 12)
def _bits(mask: int) -> list:
    """The indices of the set bits of ``mask``, lowest first (do not mutate)."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]
