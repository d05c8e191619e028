"""Truth evaluation of formulas in pointed models.

Existential modalities pick witnesses in canonical model order and stop at
the first success.  One clause serves the eight deletion modalities.
Guards are evaluated in the model as it is *before* the deletion, at the
worlds the deleted item touches (an item whose guards fail satisfies a box
and refutes a diamond); the deletion then produces the model in which the
body is evaluated.
"""

from __future__ import annotations

from dataclasses import fields

from .formula import _KEYWORD, And, Atom, Bot, Box, Dia, Formula, Imp, Not, Or, Top
from .model import EDGE, POINT, KripkeModel, PointedModel, delete_edge, delete_point

# deletion keyword -> (domain, quantifier over its items); a guarded modality
# shares its unguarded twin's keyword, and so its entry
_DELETION = {
    "sab": (EDGE, any),
    "sbox": (EDGE, all),
    "rem": (POINT, any),
    "rbox": (POINT, all),
}
# deletion modality class -> (domain, quantifier, its guard fields)
_DELETIONS = {
    cls: (*_DELETION[kw], [x.name for x in fields(cls)][:-1])
    for cls, kw in _KEYWORD.items() if kw in _DELETION
}


class UndeclaredAtomError(ValueError):
    """The formula mentions a proposition the model does not declare."""


def evaluate(pm: PointedModel, f: Formula, cache: dict | None = None) -> bool:
    """Truth of ``f`` at the pointed model.

    ``cache`` may be a dict reused across calls on the same formula object;
    it is keyed by (model, world, subformula identity) and never changes the
    result.  The formula object must stay alive while the cache is in use.
    """
    return _ev(pm.model, pm.point, f, cache)


def _ev(m: KripkeModel, w: str, f: Formula, cache: dict | None) -> bool:
    if cache is not None:
        key = (m, w, id(f))
        hit = cache.get(key)
        if hit is not None:
            return hit
    result = _clause(m, w, f, cache)
    if cache is not None:
        cache[key] = result
    return result


def _clause(m: KripkeModel, w: str, f: Formula, cache) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Atom):
        if f.name not in m.propositions:
            raise UndeclaredAtomError(f"atom {f.name!r} is not declared in the model")
        return m.true_at(f.name, w)
    if isinstance(f, Not):
        return not _ev(m, w, f.body, cache)
    if isinstance(f, And):
        return _ev(m, w, f.left, cache) and _ev(m, w, f.right, cache)
    if isinstance(f, Or):
        return _ev(m, w, f.left, cache) or _ev(m, w, f.right, cache)
    if isinstance(f, Imp):
        return (not _ev(m, w, f.left, cache)) or _ev(m, w, f.right, cache)
    if isinstance(f, Dia):
        return any(_ev(m, v, f.body, cache) for v in m.successors(w))
    if isinstance(f, Box):
        return all(_ev(m, v, f.body, cache) for v in m.successors(w))
    if type(f) in _DELETIONS:
        return _deletion(m, w, f, cache)
    raise TypeError(f"not a formula node: {f!r}")


def _deletion(m: KripkeModel, w: str, f: Formula, cache) -> bool:
    """``any``/``all`` over the deletable items, stopping once decided."""
    domain, quantifier, guard_fields = _DELETIONS[type(f)]
    # looked up per call, so that instrumentation replacing them sees it
    delete = delete_edge if domain is EDGE else delete_point
    box = quantifier is all
    for item in domain.items(m, w, None):
        for u, guard in zip(domain.ends(item), guard_fields):
            if not _ev(m, u, getattr(f, guard), cache):
                holds = box
                break
        else:
            holds = _ev(delete(m, item), w, f.body, cache)
        if holds != box:
            return holds
    return box
