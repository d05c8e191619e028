"""Bisimilarity checking for modal logics of link and point deletion."""

from .bisim import (
    KINDS,
    Verdict,
    check,
    filtered_check,
    modal_bisimilar,
    random_model,
)
from .charform import build_char, build_E, canonical_expansion, char_check, fresh_atom
from .formula import (
    Formula,
    LanguageFragment,
    ParseError,
    format_formula,
    parse_formula,
    random_formula,
)
from .model import (
    KripkeModel,
    ModelError,
    PointedModel,
    SizeGuardError,
    delete_edge,
    delete_point,
    load_model,
    save_model,
    validate,
)
from .oracle import oracle_bisimilar
from .semantics import UndeclaredAtomError, evaluate
from .translate import correspondence_report, render_report, translate_F, translate_G

__all__ = [
    "KINDS",
    "Verdict",
    "check",
    "filtered_check",
    "modal_bisimilar",
    "random_model",
    "build_char",
    "build_E",
    "canonical_expansion",
    "char_check",
    "fresh_atom",
    "Formula",
    "LanguageFragment",
    "ParseError",
    "format_formula",
    "parse_formula",
    "random_formula",
    "KripkeModel",
    "ModelError",
    "PointedModel",
    "SizeGuardError",
    "delete_edge",
    "delete_point",
    "load_model",
    "save_model",
    "validate",
    "oracle_bisimilar",
    "UndeclaredAtomError",
    "evaluate",
    "correspondence_report",
    "render_report",
    "translate_F",
    "translate_G",
]
