"""Recursive bisimilarity checkers for the four deletion logics.

Kinds:

* ``modal`` -- plain modal bisimilarity, computed as a greatest fixpoint.
* ``s`` -- edge deletion: matched edge deletions restart the visited list.
* ``d`` -- point deletion: matched deletions of non-current worlds.
* ``g`` -- as ``s`` but the matched edges' endpoints must themselves be
  bisimilar in the pre-deletion models.
* ``r`` -- as ``d`` but the deleted worlds must themselves be bisimilar in
  the pre-deletion models.

Edge and point deletion are one game over two deletion domains
(``model.EDGE`` and ``model.POINT``).  ``DOMAINS`` maps each deletion kind
to its domain; the checker here, the oracle and the characteristic formulas
all read it.

The recursive checker mirrors the pseudocode shape: a count gate (edges or
worlds) runs first, deletion recursion always starts from an empty visited
list, and modal recursion extends the visited list with the current pair
and skips candidate pairs already in it.

A configuration on the call stack maps to its depth, and a re-entry answers
yes, the usual coinductive discharge (checked against the fixpoint oracle).
Only ``g``/``r`` re-enter, through endpoint side-checks on the *same*
submodels with an empty visited list; ``s``/``d`` never do, as a modal move
skips every pair moved from since the last deletion; deletions shrink models.
The stack map and the memo key each side by its remaining items (the
domain's ``every``), which fix its model: in one run, each model on a side
is its root minus items of one domain, whichever ``filtered_check`` lets
go; an edge submodel keeps the root's worlds and valuation, and a point
submodel the root's edges and valuation among the worlds left.  As in
Tarjan's low-link, a call returns the least depth its answer assumed and
memoises only an answer that assumed none shallower than itself.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from .model import EDGE, POINT, KripkeModel, PointedModel, delete_edge, delete_point

DOMAINS = {"s": EDGE, "d": POINT, "g": EDGE, "r": POINT}
DELETION_KINDS = tuple(DOMAINS)
KINDS = ("modal", *DOMAINS)
# The matched items' endpoints must themselves be bisimilar.
GENERALIZED = ("g", "r")
_FREE = float("inf")  # the depth of a call that assumed nothing on the stack


@dataclass(frozen=True)
class Verdict:
    """Outcome of a bisimilarity check with recursion statistics.

    ``witness`` is ``None`` on yes; on no it is a nested dict describing the
    first violated condition in canonical order: the condition id, the item
    that could not be matched, the current pair of worlds, the action path
    from the root call, and (``cause``) the failure of the first candidate.

    ``calls`` counts recursive calls for ``s``/``d``/``g``/``r``.  For
    ``modal`` it counts pair checks: ``|W1|*|W2|`` for the atom table plus
    the live set's size at the start of every round, i.e. the pair checks
    of a round-by-round rescan, though ``modal_bisimilar`` checks no pair
    and counts them from its blocks' sizes.
    """

    answer: bool
    max_depth: int
    calls: int
    witness: dict | None

    def to_json(self) -> dict:
        return {
            "answer": "yes" if self.answer else "no",
            "max_depth": self.max_depth,
            "calls": self.calls,
            "witness": self.witness,
        }


def _atom_mismatch(m1, w1, m2, w2, props):
    for p in props:
        if m1.true_at(p, w1) != m2.true_at(p, w2):
            return p
    return None


class _Checker:
    """One bisimilarity run; holds kind, counters, and the recursion context.

    A witness node's ``cause`` is ``(step, witness)`` and its path is left
    out, so that a memoised witness fits every path that reaches it.
    """

    def __init__(self, kind, prop=None):
        if kind not in DOMAINS:
            raise ValueError(f"unknown bisimilarity kind {kind!r}")
        domain = self.domain = DOMAINS[kind]
        self.ends = domain.ends if kind in GENERALIZED else None
        # Resolved per run rather than stored in the table, so that
        # instrumentation replacing the module-level names sees every call.
        self.delete = delete_edge if domain is EDGE else delete_point
        self.prop = prop
        # restricted, keep an item iff prop holds at its target: an edge's v, a world
        self.items = domain.items if prop is None else (
            lambda m, w: [i for i in domain.items(m, w)
                          if m.true_at(prop, domain.ends(i)[-1])])
        self.calls = 0
        self.max_depth = 0
        self.memo = {}
        # the depth of each configuration on the call stack, by remaining items
        self.active = {}

    def run(self, a: PointedModel, b: PointedModel) -> Verdict:
        # deletions never change the proposition set, so the atom-check
        # domain is fixed for the whole run
        self.props = sorted(set(a.model.propositions) | set(b.model.propositions))
        ok, wit, _ = self._rec(a.model, a.point, b.model, b.point,
                               frozenset(), 0)
        return Verdict(ok, self.max_depth, self.calls, _with_paths(wit))

    def _rec(self, m1, w1, m2, w2, visited, depth):
        """``(ok, witness, low)``: ``low`` is the least depth of a stack
        configuration the answer assumed, else ``_FREE``; an answer that
        assumed none shallower than ``depth`` is memoised."""
        self.calls += 1
        if depth > self.max_depth:
            self.max_depth = depth
        key = (self.domain.every(m1), w1, self.domain.every(m2), w2)
        if key in self.active:
            return True, None, self.active[key]
        mkey = (key, visited)
        hit = self.memo.get(mkey)
        if hit is not None:
            return hit[0], hit[1], _FREE
        self.active[key] = depth
        ok, wit, low = self._body(m1, w1, m2, w2, visited, depth)
        del self.active[key]
        if low < depth:
            return ok, wit, low
        self.memo[mkey] = (ok, wit)
        return ok, wit, _FREE

    def _body(self, m1, w1, m2, w2, visited, depth):
        # The gate counts deletable items.  Unrestricted, that decides as
        # whole-model counts would, and the witness prints those counts.
        items1, items2 = self.items(m1, w1), self.items(m2, w2)
        if len(items1) != len(items2):
            domain = self.domain
            if self.prop is None:
                items1, items2 = domain.every(m1), domain.every(m2)
            return False, {"condition": f"{domain.seq}-count", "left": len(items1),
                           "right": len(items2), "at": [w1, w2], "path": None}, _FREE

        bad = _atom_mismatch(m1, w1, m2, w2, self.props)
        if bad is not None:
            return False, {"condition": "atom", "prop": bad,
                           "at": [w1, w2], "path": None}, _FREE

        ok, wit, low = self._zigzag(m1, w1, m2, w2, items1, items2, None, depth)
        if ok and (w1, w2) not in visited:
            ok, wit, low2 = self._zigzag(m1, w1, m2, w2, m1.successors(w1),
                                         m2.successors(w2),
                                         visited | {(w1, w2)}, depth)
            low = min(low, low2)
        return ok, wit, low

    def _zigzag(self, m1, w1, m2, w2, cands1, cands2, grown, depth):
        """Zig then zag: every candidate on one side is matched on the other.

        The candidates are deletable items when ``grown`` is None, else the
        successors of the current worlds, moved to with the grown visited
        list.
        """
        low = _FREE
        for forward in (True, False):
            outer, inner = (cands1, cands2) if forward else (cands2, cands1)
            for c_out in outer:
                first_cause = None
                for c_in in inner:
                    c1, c2 = (c_out, c_in) if forward else (c_in, c_out)
                    if grown is None:
                        ok, cause, low2 = self._match(m1, w1, m2, w2, c1, c2,
                                                      depth)
                    elif (c1, c2) in grown:
                        # Membership is tested against the grown list: a
                        # candidate equal to the current pair would only
                        # re-verify the deletion conditions this call just
                        # established and then skip its own modal section,
                        # so skipping it here returns the same answer
                        # without the redundant descent.
                        break
                    else:
                        ok, wit, low2 = self._rec(m1, c1, m2, c2, grown,
                                                  depth + 1)
                        cause = (["move", c1, c2], wit)
                    low = min(low, low2)
                    if ok:
                        break
                    if first_cause is None:
                        first_cause = cause
                else:
                    side = "zig" if forward else "zag"
                    if grown is None:
                        cond, item = f"{side}-del", self.domain.show(c_out)
                    else:
                        cond, item = f"{side}-dia", c_out
                    return False, {"condition": cond, "item": item,
                                   "at": [w1, w2], "path": None,
                                   "cause": first_cause}, low
        return True, None, low

    def _match(self, m1, w1, m2, w2, i1, i2, depth):
        """Delete ``i1`` and ``i2`` after the generalized endpoint checks."""
        low = _FREE
        if self.ends is not None:
            for u1, u2 in zip(self.ends(i1), self.ends(i2)):
                ok, wit, low2 = self._rec(m1, u1, m2, u2, frozenset(), depth + 1)
                low = min(low, low2)
                if not ok:
                    return False, (["endpoint", u1, u2], wit), low
        ok, wit, low2 = self._rec(self.delete(m1, i1), w1, self.delete(m2, i2),
                                  w2, frozenset(), depth + 1)
        step = ["del", self.domain.show(i1), self.domain.show(i2)]
        return ok, (step, wit), min(low, low2)


def _with_paths(wit):
    """A copy of a witness chain in which every node's path is its parent's
    path plus the step to it, from ``[]`` at the root."""
    if wit is None:
        return None
    root = node = dict(wit, path=[])
    while node.get("cause") is not None:
        step, child = node["cause"]
        node["cause"] = dict(child, path=node["path"] + [step])
        node = node["cause"]
    return root


def modal_bisimilar(a: PointedModel, b: PointedModel) -> Verdict:
    """Plain modal bisimilarity by signature refinement of the disjoint union.

    Level 0's blocks are the atom profiles; level k splits each block by its
    worlds' sets of successor blocks at level k-1 (Kanellakis & Smolka's
    naive refinement in Blom & Orzan's signature form), so a cross pair is
    live at the start of round k of the rescan ``Verdict.calls`` counts iff
    it shares a level-(k-1) block.  Round k re-signatures only predecessors
    of worlds that changed block in round k-1: the rest of a block keeps the
    old signature and the block's id, and a changed id is new, so no
    re-signatured world rejoins them.  The live count (over blocks, left
    times right worlds) is kept move by move, and the rounds stop when one
    leaves it unchanged.  Each world records the rounds its block id changed
    at, and the witness chain is read off them: a pair that fell in round
    r >= 1 fails the modal clause against the pairs live at level r - 1.
    """
    m1, m2 = a.model, b.model
    props = sorted(set(m1.propositions) | set(m2.propositions))
    n1 = len(m1.worlds)
    index = ({w: i for i, w in enumerate(m1.worlds)},
             {w: n1 + i for i, w in enumerate(m2.worlds)})
    succ = [[index[side][v] for v in m.successors(w)]
            for side, m in enumerate((m1, m2)) for w in m.worlds]
    pred: list[list[int]] = [[] for _ in succ]
    for u, vs in enumerate(succ):
        for v in vs:
            pred[v].append(u)
    profiles: dict[tuple, int] = {}
    block = [profiles.setdefault(tuple(m.true_at(p, w) for p in props), len(profiles))
             for m in (m1, m2) for w in m.worlds]
    count = [[0, 0] for _ in profiles]  # per block: left and right worlds
    for w, blk in enumerate(block):
        count[blk][w >= n1] += 1
    live = sum(left * right for left, right in count)
    history = [[(0, blk)] for blk in block]  # (round, new block id)
    calls = n1 * len(m2.worlds)
    dirty, k = range(len(block)), 0
    while True:
        k += 1
        calls += live
        parts: dict[int, dict[frozenset, list[int]]] = {}
        for w in dirty:
            sig = frozenset(block[s] for s in succ[w])
            parts.setdefault(block[w], {}).setdefault(sig, []).append(w)
        start, dirty = live, set()
        for blk, by_sig in parts.items():
            groups = list(by_sig.values())
            whole = sum(map(len, groups)) == sum(count[blk])
            keep = max(groups, key=len) if whole else None
            for group in groups:
                if group is keep:
                    continue
                new = len(count)
                count.append([0, 0])
                for w in group:
                    side = w >= n1
                    live += count[new][not side] - count[blk][not side]
                    count[blk][side] -= 1
                    count[new][side] += 1
                    block[w] = new
                    history[w].append((k, new))
                    dirty.update(pred[w])
        if live == start:
            break

    def same(x, y, level):
        h1, h2 = history[index[0][x]], history[index[1][y]]
        return (h1[bisect_left(h1, (level + 1,)) - 1][1]
                == h2[bisect_left(h2, (level + 1,)) - 1][1])

    def fell(x, y):
        """The first round without the pair: 0 for atoms, k + 1 for none."""
        return bisect_left(range(k + 1), True, key=lambda lv: not same(x, y, lv))

    x, y = a.point, b.point
    r = fell(x, y)
    witness = node = None if r > k else {}
    while node is not None:  # each node has at most one cause: walk the chain
        if r == 0:
            node.update(condition="atom", prop=_atom_mismatch(m1, x, m2, y, props),
                        at=[x, y])
            break
        # (x, y) fell in round r: the rescan's first failing clause, zig
        # before zag, has a successor with no partner at level r - 1
        for side, outer, inner, pair in (
                ("zig", m1.successors(x), m2.successors(y), lambda u, v: (u, v)),
                ("zag", m2.successors(y), m1.successors(x), lambda v, u: (u, v))):
            item = next((u for u in outer
                         if not any(same(*pair(u, v), r - 1) for v in inner)), None)
            if item is not None:
                break
        node.update(condition=f"{side}-dia", item=item, at=[x, y], cause=None)
        # the first candidate's reason, if the rescan had recorded it by then
        if inner:
            first = pair(item, inner[0])
            fell_first = fell(*first)
            if (fell_first, first) < (r, (x, y)):
                node["cause"] = {}
                r, (x, y) = fell_first, first
        node = node["cause"]
    return Verdict(witness is None, 0, calls, witness)


def check(kind: str, a: PointedModel, b: PointedModel, use_cache=True) -> Verdict:
    """Dispatch on the bisimilarity notion.  The recursive checker always
    memoises; ``use_cache`` is ignored, kept because bench/make_expected.py passes it."""
    if kind == "modal":
        return modal_bisimilar(a, b)
    return _Checker(kind).run(a, b)


def filtered_check(kind: str, a: PointedModel, b: PointedModel, prop: str) -> Verdict:
    """Checker variant with deletions restricted by a proposition.

    Only items whose target world satisfies ``prop`` may be deleted: edges
    into a ``prop`` world for edge kinds, ``prop`` worlds for point kinds.
    The count gate then compares deletable items instead of raw sizes.
    Used by the translation correspondence experiments.
    """
    return _Checker(kind, prop=prop).run(a, b)


def random_model(seed: int, max_worlds: int, max_edges: int,
                 prop_pool: tuple[str, ...] = ("p",)) -> PointedModel:
    """A deterministic random pointed model within the given bounds."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    if max_edges < 0:
        raise ValueError("max_edges must be at least 0")
    rng = random.Random(seed)
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    # sampling picks by length alone, so indices stand in for the n^2 pairs
    k = rng.randint(0, min(max_edges, n * n))
    edges = [(worlds[i // n], worlds[i % n]) for i in rng.sample(range(n * n), k)]
    valuation = {
        p: [w for w in worlds if rng.random() < 0.5] for p in prop_pool
    }
    point = rng.choice(worlds)
    model = KripkeModel.make(worlds, edges, prop_pool, valuation)
    return PointedModel.make(model, point)
