"""Formula language shared by all supported logics.

One AST covers basic modal operators plus the four deletion modalities:
edge deletion (``sab``/``sbox``), guarded edge deletion (``sab{psi|chi}``),
point removal (``rem``/``rbox``) and guarded point removal (``rem{psi}``).
Box-family operators are primitive, not abbreviations, so printed formulas
keep their dual shape.

Node classes of one field layout subclass one frozen dataclass for it;
dataclass equality compares the class, so ``Dia(p) != Box(p)``.  A modal
node has zero or more guard fields and then its body; ``_KEYWORD`` maps each
modal node class to its keyword for the printer and the parser.

Grammar (binary operators always need explicit parentheses)::

    formula ::= "true" | "false" | ident
              | "~" formula
              | "(" formula ("&" | "|" | "->") formula ")"
              | ("dia" | "box" | "sab" | "sbox" | "rem" | "rbox") formula
              | ("sab" | "sbox") "{" formula "|" formula "}" formula
              | ("rem" | "rbox") "{" formula "}" formula

Identifiers match ``[A-Za-z_@][A-Za-z0-9_@]*``; names starting with ``@``
are reserved for the world-tag atoms emitted by characteristic formulas.
"""

from __future__ import annotations

import enum
import random
import re
from dataclasses import dataclass, fields


class Formula:
    """Base class of all AST nodes."""


@dataclass(frozen=True)
class _Nullary(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class _Unary(Formula):
    body: Formula


@dataclass(frozen=True)
class _Binary(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class _PointGuarded(Formula):
    guard: Formula
    body: Formula


@dataclass(frozen=True)
class _EdgeGuarded(Formula):
    source: Formula
    target: Formula
    body: Formula


class Top(_Nullary):
    pass


class Bot(_Nullary):
    pass


class Not(_Unary):
    pass


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Imp(_Binary):
    pass


class Dia(_Unary):
    pass


class Box(_Unary):
    pass


class Sab(_Unary):
    """Some edge can be deleted so that the body holds at the same point."""


class SabBox(_Unary):
    pass


class GSab(_EdgeGuarded):
    """Edge deletion guarded by formulas at the edge's source and target."""


class GSabBox(_EdgeGuarded):
    pass


class Rem(_Unary):
    """Some world other than the current one can be removed."""


class RemBox(_Unary):
    pass


class GRem(_PointGuarded):
    """Point removal guarded by a formula at the removed world."""


class GRemBox(_PointGuarded):
    pass


# Modal node class -> keyword; a guarded class shares its twin's keyword.
_KEYWORD = {
    Dia: "dia",
    Box: "box",
    Sab: "sab",
    SabBox: "sbox",
    GSab: "sab",
    GSabBox: "sbox",
    Rem: "rem",
    RemBox: "rbox",
    GRem: "rem",
    GRemBox: "rbox",
}


class LanguageFragment(enum.Enum):
    MODAL = "modal"
    SML = "sml"
    GSML = "gsml"
    PSL = "psl"
    MLSR = "mlsr"


_BASE_NODES = (Top, Bot, Atom, Not, And, Or, Imp, Dia, Box)
_FRAGMENT_NODES = {
    LanguageFragment.MODAL: _BASE_NODES,
    LanguageFragment.SML: _BASE_NODES + (Sab, SabBox),
    LanguageFragment.GSML: _BASE_NODES + (Sab, SabBox, GSab, GSabBox),
    LanguageFragment.PSL: _BASE_NODES + (Rem, RemBox),
    LanguageFragment.MLSR: _BASE_NODES + (Rem, RemBox, GRem, GRemBox),
}


def in_fragment(f: Formula, fragment: LanguageFragment) -> bool:
    """Decide whether every constructor of ``f`` is allowed by the fragment."""
    allowed = _FRAGMENT_NODES[fragment]
    return all(isinstance(g, allowed) for g in walk(f))


def walk(f: Formula):
    """Yield every node of the formula tree, parents before children."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Atom):
        return ()
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula node: {f!r}")
    return tuple(getattr(f, field.name) for field in fields(f))


def modal_depth(f: Formula) -> int:
    """Deepest nesting of modal/deletion operators (guards included)."""
    depths = []  # read in reverse, the pre-order puts a node's children on top
    for g in reversed(list(walk(f))):
        depths.append(max([depths.pop() for _ in _children(g)], default=0) + (type(g) in _KEYWORD))
    return depths[0]


# --- printer ---------------------------------------------------------------

_CONSTANT_TEXT = {Top: "true", Bot: "false"}
_BINOP_TEXT = {And: "&", Or: "|", Imp: "->"}
_IDENT = re.compile(r"[A-Za-z_@][A-Za-z0-9_@]*")


def format_formula(f: Formula) -> str:
    """Canonical text form, which ``parse_formula`` inverts exactly up to its
    nesting limit (about 1,000 levels); raises ``ValueError`` for an atom whose
    name would not parse back as that atom."""
    texts = []  # as in ``modal_depth``: children first, in a loop
    for g in reversed(list(walk(f))):
        parts = [texts.pop() for _ in _children(g)]
        if type(g) in _CONSTANT_TEXT:
            texts.append(_CONSTANT_TEXT[type(g)])
        elif isinstance(g, Atom):
            if not _is_atom_name(g.name):
                raise ValueError(f"atom {g.name!r} would not parse back as an atom")
            texts.append(g.name)
        elif isinstance(g, Not):
            texts.append(f"~{parts[0]}")
        elif isinstance(g, (And, Or, Imp)):
            texts.append(f"({parts[0]} {_BINOP_TEXT[type(g)]} {parts[1]})")
        elif type(g) in _KEYWORD:
            *guards, body = parts
            braces = "{" + "|".join(guards) + "}" if guards else ""
            texts.append(f"{_KEYWORD[type(g)]}{braces} {body}")
        else:
            raise TypeError(f"not a formula node: {g!r}")
    return texts[0]


def _is_atom_name(name: str) -> bool:
    """Whether ``name`` parses back as an atom: an identifier, no constant, no keyword."""
    return bool(_IDENT.fullmatch(name)) and name not in _CONSTANT and name not in _GUARDS


# --- parser ----------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(rf"{_IDENT.pattern}|->|[~&|(){{}}]|\S")
_CONSTANT = {text: cls for cls, text in _CONSTANT_TEXT.items()}
_BINOP = {text: cls for cls, text in _BINOP_TEXT.items()}
# (keyword, guard count) -> class; keyword -> its largest guard count.
_MODAL = {(kw, len(fields(cls)) - 1): cls for cls, kw in _KEYWORD.items()}
_GUARDS = {kw: max(n for k, n in _MODAL if k == kw) for kw in _KEYWORD.values()}


class _Parser:
    def __init__(self, text: str):
        lines = text.splitlines() or [""]
        self.tokens: list[tuple[str, int, int]] = []
        for lineno, line in enumerate(lines, start=1):
            for m in _TOKEN_RE.finditer(line):
                self.tokens.append((m.group(), lineno, m.start() + 1))
        self.end = (len(lines), len(lines[-1]) + 1)
        self.pos = 0

    def error(self, message: str):
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
        else:
            line, col = self.end
        raise ParseError(message, line, col)

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of input" + (f", expected {expected!r}" if expected else ""))
        if expected is not None and tok != expected:
            self.error(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def formula(self) -> Formula:
        tok = self.take()
        if tok in _CONSTANT:
            return _CONSTANT[tok]()
        if tok == "~":
            return Not(self.formula())
        if tok == "(":
            left = self.formula()
            op = self.take()
            if op not in _BINOP:
                self.pos -= 1
                self.error(f"expected a binary operator, found {op!r}")
            right = self.formula()
            self.take(")")
            return _BINOP[op](left, right)
        if tok in _GUARDS:
            guards = []
            if _GUARDS[tok] and self.peek() == "{":
                for i in range(_GUARDS[tok]):
                    self.take("|" if i else "{")
                    guards.append(self.formula())
                self.take("}")
            return _MODAL[tok, len(guards)](*guards, self.formula())
        if _IDENT.fullmatch(tok):
            return Atom(tok)
        self.pos -= 1
        self.error(f"unknown token {tok!r}")


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    try:
        f = parser.formula()
    except RecursionError:
        parser.error("formula nested too deeply")
    if parser.peek() is not None:
        parser.error(f"trailing input {parser.peek()!r}")
    return f


# --- random generation -----------------------------------------------------


def random_formula(
    seed: int,
    fragment: LanguageFragment,
    max_depth: int,
    prop_pool: tuple[str, ...],
) -> Formula:
    """A deterministic random formula inside the fragment, depth-bounded.

    Never emits reserved ``@`` atoms: a pool name that is reserved or no atom is a ``ValueError``.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    if not prop_pool:
        raise ValueError("prop_pool must be non-empty")
    if any(not _is_atom_name(name) or name.startswith("@") for name in prop_pool):
        raise ValueError(f"prop_pool must hold unreserved atom names, got {prop_pool!r}")
    return _gen(random.Random(seed), fragment, max_depth, tuple(prop_pool))


def _gen(rng: random.Random, fragment: LanguageFragment, budget: int, pool) -> Formula:
    if budget <= 1:
        roll = rng.random()
        if roll < 0.1:
            return Top() if rng.random() < 0.5 else Bot()
        atom = Atom(rng.choice(pool))
        return Not(atom) if roll < 0.4 else atom
    # every node class but the leaves Top, Bot and Atom
    kind = rng.choice(["leaf", *_FRAGMENT_NODES[fragment][3:]])
    if kind == "leaf":
        return _gen(rng, fragment, 1, pool)
    return kind(*[_gen(rng, fragment, budget - 1, pool) for _ in fields(kind)])
