"""Finite pointed Kripke models: validation, deletion, JSON serialization.

Worlds are plain string identifiers.  All collections are kept in canonical
sorted order so that every iteration in the package is deterministic.

What one deletion removes is named once, in the deletion domains ``EDGE``
and ``POINT``; the checker, the oracle, the characteristic formulas and the
formula semantics read it from there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Mapping, NamedTuple


class ModelError(ValueError):
    """A model, or an operation on one, is malformed."""


class SizeGuardError(RuntimeError):
    """An input exceeds the configured size guard of an expensive operation."""


Edge = tuple[str, str]

_JSON_KEYS = ("worlds", "edges", "propositions", "valuation", "point")


@dataclass(frozen=True)
class KripkeModel:
    """A finite directed graph with a valuation.

    Construct through :meth:`make`, which canonicalizes and validates; the
    raw constructor performs no checks (``validate`` reports on raw values).
    """

    worlds: tuple[str, ...]
    edges: tuple[Edge, ...]
    propositions: tuple[str, ...]
    valuation: tuple[tuple[str, tuple[str, ...]], ...]

    @classmethod
    def make(
        cls,
        worlds: Iterable[str],
        edges: Iterable[Edge] = (),
        propositions: Iterable[str] = (),
        valuation: Mapping[str, Iterable[str]] | None = None,
    ) -> "KripkeModel":
        val = valuation or {}
        model = cls(
            worlds=tuple(sorted(set(worlds))),
            edges=tuple(sorted(tuple(e) for e in edges)),
            propositions=tuple(sorted(set(propositions))),
            valuation=tuple(
                (p, tuple(sorted(set(ws)))) for p, ws in sorted(val.items())
            ),
        )
        problems = model.violations()
        if problems:
            raise ModelError("; ".join(problems))
        return model

    def violations(self) -> list[str]:
        """All invariant violations, each naming the field and offending item."""
        out = []
        if not self.worlds:
            out.append("worlds: must be non-empty")
        for name, items in (("world", self.worlds), ("edge", self.edges)):
            seen = set()
            for x in items:
                if x in seen:
                    out.append(f"{name}s: duplicate {name} {x!r}")
                seen.add(x)
        declared = set(self.worlds)
        for u, v in self.edges:
            if u not in declared:
                out.append(f"edges: undeclared world {u!r} in edge {(u, v)!r}")
            if v not in declared:
                out.append(f"edges: undeclared world {v!r} in edge {(u, v)!r}")
        props = set(self.propositions)
        for p, ws in self.valuation:
            if p not in props:
                out.append(f"valuation: undeclared proposition {p!r}")
            for w in ws:
                if w not in declared:
                    out.append(f"valuation: undeclared world {w!r} under {p!r}")
        for w in self.worlds:
            if not w:
                out.append("worlds: empty identifier")
        if "" in self.propositions:
            out.append("propositions: empty name")
        return out

    @cached_property
    def _val(self) -> dict[str, frozenset[str]]:
        d = {p: frozenset() for p in self.propositions}
        d.update({p: frozenset(ws) for p, ws in self.valuation})
        return d

    @cached_property
    def _succ(self) -> dict[str, tuple[str, ...]]:
        d: dict[str, list[str]] = {w: [] for w in self.worlds}
        for u, v in self.edges:
            d[u].append(v)
        return {w: tuple(vs) for w, vs in d.items()}

    def successors(self, w: str) -> tuple[str, ...]:
        return self._succ[w]

    def true_at(self, prop: str, w: str) -> bool:
        """Truth of a declared proposition; undeclared propositions are false."""
        return w in self._val.get(prop, frozenset())

    def val(self, prop: str) -> frozenset[str]:
        return self._val.get(prop, frozenset())


@dataclass(frozen=True)
class PointedModel:
    model: KripkeModel
    point: str

    @classmethod
    def make(cls, model: KripkeModel, point: str) -> "PointedModel":
        pm = cls(model, point)
        problems = validate(pm)
        if problems:
            raise ModelError("; ".join(problems))
        return pm


def validate(pm: PointedModel) -> list[str]:
    """Every invariant violation of the pointed model (empty list iff valid)."""
    out = pm.model.violations()
    if pm.point not in pm.model.worlds:
        out.append(f"point: {pm.point!r} is not a declared world")
    return out


def delete_edge(m: KripkeModel, e: Edge) -> KripkeModel:
    """The model with edge ``e`` removed; everything else unchanged."""
    e = tuple(e)
    if e not in m.edges:
        raise ModelError(f"delete_edge: edge {e!r} not present")
    return KripkeModel(
        worlds=m.worlds,
        edges=tuple(x for x in m.edges if x != e),
        propositions=m.propositions,
        valuation=m.valuation,
    )


def delete_point(m: KripkeModel, v: str) -> KripkeModel:
    """Remove world ``v``, its incident edges, and its valuation entries."""
    if v not in m.worlds:
        raise ModelError(f"delete_point: world {v!r} not present")
    if len(m.worlds) < 2:
        raise ModelError("delete_point: refusing to delete the last world")
    return KripkeModel(
        worlds=tuple(w for w in m.worlds if w != v),
        edges=tuple((a, b) for a, b in m.edges if a != v and b != v),
        propositions=m.propositions,
        valuation=tuple(
            (p, tuple(w for w in ws if w != v)) for p, ws in m.valuation
        ),
    )


class Domain(NamedTuple):
    """What one deletion removes: an edge, or a world other than the current one.

    ``every(m)`` are all items of ``m``; ``items(m, w)`` lists those
    deletable at current world ``w``.  ``ends(item)`` are the worlds an
    item touches: ``(u, v)`` for an edge, ``(v,)`` for a world.
    ``show(item)`` is an item's witness form.  ``seq`` names the count
    condition (``edge-count``, ``world-count``).  ``dia`` and ``box`` are
    the keywords of the modalities that delete its items.
    """

    seq: str
    every: Callable
    items: Callable
    ends: Callable
    show: Callable
    dia: str
    box: str


def _edges(m: KripkeModel, w):
    return m.edges


def _worlds(m: KripkeModel, w):
    return [u for u in m.worlds if u != w]


def _same(x):
    return x


def _alone(v):
    return (v,)


EDGE = Domain("edge", attrgetter("edges"), _edges, _same, list, "sab", "sbox")
POINT = Domain("world", attrgetter("worlds"), _worlds, _alone, _same, "rem", "rbox")


def load_model(text: str) -> PointedModel:
    """Parse the JSON model format into a validated pointed model."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # also an integer too long to convert, or nesting too deep to decode
        raise ModelError(f"parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ModelError("parse error: top level must be a JSON object")
    unknown = set(raw) - set(_JSON_KEYS)
    if unknown:
        raise ModelError(f"unknown keys: {sorted(unknown)}")
    missing = [k for k in _JSON_KEYS if k not in raw]
    if missing:
        raise ModelError(f"missing keys: {missing}")
    worlds, edges, props, val, point = (raw[k] for k in _JSON_KEYS)
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise ModelError("worlds: must be an array of strings")
    if len(set(worlds)) != len(worlds):
        raise ModelError("worlds: duplicate world id")
    if not isinstance(edges, list):
        raise ModelError("edges: must be an array")
    edge_pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise ModelError(f"edges: each edge must be a 2-element string array, got {e!r}")
        edge_pairs.append((e[0], e[1]))
    if not isinstance(props, list) or not all(isinstance(p, str) for p in props):
        raise ModelError("propositions: must be an array of strings")
    if not isinstance(val, dict):
        raise ModelError("valuation: must be an object")
    for p, ws in val.items():
        if not isinstance(ws, list) or not all(isinstance(w, str) for w in ws):
            raise ModelError(f"valuation: entry for {p!r} must be an array of strings")
    if not isinstance(point, str):
        raise ModelError("point: must be a string")
    model = KripkeModel.make(worlds, edge_pairs, props, val)
    return PointedModel.make(model, point)


def save_model(pm: PointedModel) -> str:
    """Canonical single-line JSON; stable under a load/save round trip."""
    doc = {
        "worlds": list(pm.model.worlds),
        "edges": [list(e) for e in pm.model.edges],
        "propositions": list(pm.model.propositions),
        "valuation": {p: list(ws) for p, ws in pm.model.valuation},
        "point": pm.point,
    }
    return json.dumps(doc, separators=(",", ":"))
