import math
import random
from itertools import takewhile

import pytest
from hypothesis import given, settings, strategies as st

from delbisim import (
    KripkeModel,
    LanguageFragment,
    PointedModel,
    build_E,
    build_char,
    canonical_expansion,
    char_check,
    check,
    oracle_bisimilar,
    parse_formula,
    random_model,
)
from delbisim.charform import big_and, big_or
from delbisim.formula import And, Atom, Not, Sab, Top, in_fragment, walk
from delbisim.model import ModelError, SizeGuardError

CHAR_KINDS = ("s", "d", "g", "r")

CHAR_FRAGMENT = {
    "s": LanguageFragment.SML,
    "g": LanguageFragment.GSML,
    "d": LanguageFragment.PSL,
    "r": LanguageFragment.MLSR,
}


def test_build_E_self_loop(loop):
    expected = parse_formula("(@w -> (p & (dia @w & box @w)))")
    assert build_E(loop.model) == expected


def test_build_E_edgeless_without_p():
    m = KripkeModel.make(["w"], [], ["p"], {})
    expected = parse_formula("(@w -> (~p & (true & box false)))")
    assert build_E(m) == expected


def test_build_E_two_chain_mentions_only_successor_tags():
    m = KripkeModel.make(["a", "b"], [("a", "b")])
    e = build_E(m)
    expected = parse_formula(
        "((@a -> (true & (dia @b & box @b))) & (@b -> (true & (true & box false))))"
    )
    assert e == expected


def conjuncts(f):
    """The conjuncts of a right-nested ``And`` spine."""
    out = []
    while isinstance(f, And):
        out.append(f.left)
        f = f.right
    return out + [f]


def char_layers(kind, pm):
    """``build_char``'s base, per-length (existential, universal) clauses and
    terminal clause; in each length the existential clauses come first."""
    base, *lengths, last = conjuncts(build_char(kind, pm))
    layers = []
    for clauses in map(conjuncts, lengths):
        existential = list(takewhile(lambda c: type(c) is type(clauses[0]), clauses))
        universal = clauses[len(existential):]
        assert all(type(c) is not type(clauses[0]) for c in universal)
        layers.append((existential, universal))
    return base, layers, last


def test_char_self_loop_structure(loop):
    base, layers, last = char_layers("s", loop)
    assert base == build_E(loop.model)
    assert len(layers) == 1
    existential, universal = layers[0]
    assert len(existential) == 1
    assert len(universal) == 1
    deleted = build_E(KripkeModel.make(["w"], [], ["p"], {"p": ["w"]}))
    assert existential[0] == Sab(deleted)
    assert last == Not(Sab(Sab(Top())))


def test_char_two_world_point_kind_terminal():
    m = PointedModel.make(KripkeModel.make(["a", "b"], [("a", "b")]), "a")
    base, layers, last = char_layers("d", m)
    assert len(layers) == 1  # only length-1 sequences; length 2 is the terminal
    assert last == parse_formula("~rem rem true")


def test_char_two_cycle_sequence_counts(cycle2):
    _, layers, _ = char_layers("s", cycle2)
    assert [len(ex) for ex, _ in layers] == [2, 2]
    # plain-deletion universal clause is shared across sequences
    assert [len(un) for _, un in layers] == [1, 1]


def test_guarded_universal_clauses_are_per_sequence(cycle2):
    _, layers, _ = char_layers("g", cycle2)
    assert [len(un) for _, un in layers] == [2, 2]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_existential_conjunct_counts(seed):
    pm = random_model(seed, 3, 3, ("p",))
    n = len(pm.model.edges)
    _, layers, _ = char_layers("s", pm)
    for k, (existential, _) in enumerate(layers, start=1):
        assert len(existential) == math.perm(n, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(CHAR_KINDS))
def test_char_formula_stays_in_fragment(seed, kind):
    pm = random_model(seed, 3, 3, ("p",))
    f = build_char(kind, pm)
    assert in_fragment(f, CHAR_FRAGMENT[kind])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(CHAR_KINDS))
def test_char_formula_atoms_are_tags_or_declared(seed, kind):
    pm = random_model(seed, 3, 3, ("p",))
    f = build_char(kind, pm)
    declared = set(pm.model.propositions)
    for node in walk(f):
        if isinstance(node, Atom):
            assert node.name in declared or node.name.startswith("@")


def test_build_char_guards():
    crowded = KripkeModel.make(
        ["a", "b"], [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    )
    with pytest.raises(SizeGuardError):
        build_char("s", PointedModel.make(crowded, "a"))
    wide = KripkeModel.make(["a", "b", "c", "d"])
    with pytest.raises(SizeGuardError):
        build_char("d", PointedModel.make(wide, "a"))


def test_build_char_refuses_a_kind_without_deletions(loop):
    with pytest.raises(ValueError, match="no characteristic formula for kind 'modal'"):
        build_char("modal", loop)


def test_big_and_empty_is_top():
    assert big_and([]) == Top()
    assert big_or([]) == parse_formula("false")


def test_canonical_expansion_identity(loop):
    expanded = canonical_expansion("s", loop, loop)
    assert expanded.model.propositions == ("@w", "p")
    assert expanded.model.val("@w") == {"w"}
    # base valuation is untouched on initial-language atoms
    assert expanded.model.val("p") == loop.model.val("p")


def test_canonical_expansion_atom_mismatch(loop):
    other = PointedModel.make(
        KripkeModel.make(["w"], [("w", "w")], ["p"], {}), "w"
    )
    expanded = canonical_expansion("s", loop, other)
    assert expanded.model.val("@w") == frozenset()


def test_canonical_expansion_golden(golden_a, golden_b):
    expanded = canonical_expansion("s", golden_a, golden_b)
    assert "z" not in expanded.model.val("@x")


def test_canonical_expansion_declares_missing_props(loop):
    bare = PointedModel.make(KripkeModel.make(["v"], [("v", "v")]), "v")
    expanded = canonical_expansion("s", loop, bare)
    assert "p" in expanded.model.propositions
    assert expanded.model.val("p") == frozenset()


def test_canonical_expansion_rejects_tag_collision(loop):
    weird = PointedModel.make(
        KripkeModel.make(["w"], [("w", "w")], ["@w"], {"@w": ["w"]}), "w"
    )
    with pytest.raises(ModelError, match="collide"):
        canonical_expansion("s", loop, weird)


def test_char_check_identity(loop):
    assert char_check("s", loop, loop) is True


def test_char_check_renamed_world():
    a = PointedModel.make(
        KripkeModel.make(["w"], [("w", "w")], ["p"], {"p": ["w"]}), "w"
    )
    b = PointedModel.make(
        KripkeModel.make(["v"], [("v", "v")], ["p"], {"p": ["v"]}), "v"
    )
    for kind in CHAR_KINDS:
        assert char_check(kind, a, b) is True


def test_char_check_count_gate(loop, cycle2):
    assert char_check("s", loop, cycle2) is False


def test_char_check_golden(golden_a, golden_b):
    assert char_check("s", golden_a, golden_b) is False


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(CHAR_KINDS))
def test_char_check_matches_checker(seed, kind):
    edges = 3 if kind in ("s", "g") else 4
    a = random_model(seed, 3, edges, ("p",))
    b = random_model(seed + 1, 3, edges, ("p",))
    assert char_check(kind, a, b) == check(kind, a, b).answer


# canonical_expansion tags a world with every world kind-bisimilar to it; a
# world with two tags must satisfy both worlds' descriptions, which it
# cannot once a deletion tells those worlds apart.
TWO_TAGS = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="two-tag defect of canonical_expansion")


@pytest.mark.parametrize("kind", ["d", "r", pytest.param("s", marks=TWO_TAGS),
                                  pytest.param("g", marks=TWO_TAGS)])
def test_char_check_on_bisimilar_pairs(kind, relabelled):
    # Self-pairs and relabelled copies are bisimilar by construction; the
    # independent pairs of criterion 4 are mostly not, so they miss the
    # defects that only bisimilar pairs show.
    edges = 3 if kind in ("s", "g") else 4
    rng = random.Random(kind)
    for seed in range(40):
        a = random_model(seed, 3, edges, ("p",))
        for b in (a, relabelled(rng, a)):
            assert char_check(kind, a, b) == oracle_bisimilar(kind, a, b).answer, (seed, b)
