import pytest
from hypothesis import given, settings, strategies as st

from delbisim import (
    KripkeModel,
    LanguageFragment,
    PointedModel,
    UndeclaredAtomError,
    evaluate,
    parse_formula,
    random_formula,
    random_model,
)
from delbisim.formula import (
    Box,
    Dia,
    GRem,
    GRemBox,
    GSab,
    GSabBox,
    Not,
    Rem,
    RemBox,
    Sab,
    SabBox,
    Top,
)

DELETION_FRAGMENTS = [
    LanguageFragment.SML,
    LanguageFragment.GSML,
    LanguageFragment.PSL,
    LanguageFragment.MLSR,
]


def test_dia_on_self_loop(loop):
    assert evaluate(loop, parse_formula("dia p")) is True


def test_nested_sab_needs_two_edges(loop):
    assert evaluate(loop, parse_formula("sab sab true")) is False


def test_rem_isolates_point_on_two_cycle(cycle2):
    # the only deletable world is v, and removing it leaves u with no edges
    assert evaluate(cycle2, parse_formula("rem dia true")) is False


def test_guards_read_pre_deletion_model():
    # q holds only at the target of the single edge; after deletion q-truth
    # is unchanged but the edge is gone, so the body sees the smaller model
    pm = PointedModel.make(
        KripkeModel.make(["a", "b"], [("a", "b")], ["q"], {"q": ["b"]}), "a"
    )
    assert evaluate(pm, parse_formula("sab{true|q} box false")) is True
    assert evaluate(pm, parse_formula("sab{q|true} box false")) is False


def test_grem_guard_at_removed_world():
    pm = PointedModel.make(
        KripkeModel.make(["a", "b", "c"], [("a", "b")], ["q"], {"q": ["c"]}), "a"
    )
    # only c satisfies q, and removing c keeps the edge to b
    assert evaluate(pm, parse_formula("rem{q} dia true")) is True
    # removing the q-world cannot kill the edge
    assert evaluate(pm, parse_formula("rem{q} box false")) is False


@pytest.mark.parametrize("prefix", ["~", "dia ", "box "])
def test_deep_formula_evaluates(loop, prefix):
    # one Python frame per formula level: 900 levels stay below the
    # interpreter's recursion limit, as they do in the parser
    f = parse_formula(prefix * 900 + "p")
    assert evaluate(loop, f) is True
    assert evaluate(loop, f, {}) is True


def test_undeclared_atom_raises(loop):
    with pytest.raises(UndeclaredAtomError):
        evaluate(loop, parse_formula("nope"))


def _random_pair(seed, fragment):
    pm = random_model(seed, 3, 4, ("p", "q"))
    f = random_formula(seed + 1, fragment, 3, ("p", "q"))
    return pm, f


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_dualities(seed):
    pm, _ = _random_pair(seed, LanguageFragment.MODAL)
    body = random_formula(seed, LanguageFragment.MODAL, 2, ("p", "q"))
    for pos, neg in [
        (Box(body), Not(Dia(Not(body)))),
        (SabBox(body), Not(Sab(Not(body)))),
        (GSabBox(Top(), body, body), Not(GSab(Top(), body, Not(body)))),
        (RemBox(body), Not(Rem(Not(body)))),
        (GRemBox(body, body), Not(GRem(body, Not(body)))),
    ]:
        assert evaluate(pm, pos) == evaluate(pm, neg)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_plain_deletion_equals_top_guards(seed):
    pm, _ = _random_pair(seed, LanguageFragment.MODAL)
    body = random_formula(seed, LanguageFragment.MODAL, 2, ("p", "q"))
    assert evaluate(pm, Sab(body)) == evaluate(pm, GSab(Top(), Top(), body))
    assert evaluate(pm, Rem(body)) == evaluate(pm, GRem(Top(), body))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(
        [LanguageFragment.MODAL, LanguageFragment.SML, LanguageFragment.GSML]
    ),
)
def test_isolated_world_is_invisible_without_removal(seed, fragment):
    pm, f = _random_pair(seed, fragment)
    extra = KripkeModel.make(
        pm.model.worlds + ("zzz_isolated",),
        pm.model.edges,
        pm.model.propositions,
        dict(pm.model.valuation),
    )
    bigger = PointedModel.make(extra, pm.point)
    assert evaluate(pm, f) == evaluate(bigger, f)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(DELETION_FRAGMENTS))
def test_cache_does_not_change_results(seed, fragment):
    pm, f = _random_pair(seed, fragment)
    assert evaluate(pm, f) == evaluate(pm, f, cache={})
