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

# deletion modality class -> (domain, whether a box, its guard fields); the
# box flag is a bool because an empty quantifier returns it as the value
_DELETIONS = {
    cls: (domain, kw == domain.box, [x.name for x in fields(cls)][:-1])
    for cls, kw in _KEYWORD.items()
    for domain in (EDGE, POINT) if kw in (domain.dia, domain.box)
}


class UndeclaredAtomError(ValueError):
    """The formula mentions a proposition the model does not declare."""


def evaluate(pm: PointedModel, f: Formula, cache: dict | None = None) -> bool:
    """Truth of ``f`` at the pointed model.

    ``cache`` may be a dict reused across calls on the same formula object;
    it is keyed by (model, world, subformula identity) and never changes the
    result.  The formula object must stay alive while the cache is in use.
    Without one, the call memoises in a fresh dict.
    """
    return _ev(pm.model, pm.point, f, {} if cache is None else cache)


def _ev(m: KripkeModel, w: str, f: Formula, cache: dict) -> bool:
    """One Python frame per formula level: quantifiers are explicit loops."""
    key = (m, w, id(f))
    result = cache.get(key)
    if result is not None:
        return result
    if isinstance(f, Top):
        result = True
    elif isinstance(f, Bot):
        result = False
    elif isinstance(f, Atom):
        if f.name not in m.propositions:
            raise UndeclaredAtomError(f"atom {f.name!r} is not declared in the model")
        result = m.true_at(f.name, w)
    elif isinstance(f, Not):
        result = not _ev(m, w, f.body, cache)
    elif isinstance(f, And):
        result = _ev(m, w, f.left, cache) and _ev(m, w, f.right, cache)
    elif isinstance(f, Or):
        result = _ev(m, w, f.left, cache) or _ev(m, w, f.right, cache)
    elif isinstance(f, Imp):
        result = (not _ev(m, w, f.left, cache)) or _ev(m, w, f.right, cache)
    elif isinstance(f, (Dia, Box)):
        result = box = isinstance(f, Box)
        for v in m.successors(w):
            if _ev(m, v, f.body, cache) != box:
                result = not box
                break
    elif type(f) in _DELETIONS:
        domain, box, guard_fields = _DELETIONS[type(f)]
        # looked up per call, so that instrumentation replacing them sees it
        delete = delete_edge if domain is EDGE else delete_point
        result = box
        for item in domain.items(m, w):
            for u, guard in zip(domain.ends(item), guard_fields):
                if not _ev(m, u, getattr(f, guard), cache):
                    break  # failed guards satisfy a box and refute a diamond
            else:
                if _ev(delete(m, item), w, f.body, cache) != box:
                    result = not box
                    break
    else:
        raise TypeError(f"not a formula node: {f!r}")
    cache[key] = result
    return result
