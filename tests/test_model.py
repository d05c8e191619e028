import json
import random
import re

import pytest
from hypothesis import given, strategies as st

from delbisim import (
    KripkeModel,
    ModelError,
    PointedModel,
    delete_edge,
    delete_point,
    load_model,
    random_model,
    save_model,
    validate,
)
from delbisim.model import EDGE, POINT

LOOP_JSON = '{"worlds":["w"],"edges":[["w","w"]],"propositions":["p"],"valuation":{"p":["w"]},"point":"w"}'


def test_delete_edge_keeps_rest():
    m = KripkeModel.make(["u", "v"], [("u", "v"), ("v", "u")], ["p"], {"p": ["u", "v"]})
    out = delete_edge(m, ("u", "v"))
    assert out.edges == (("v", "u"),)
    assert out.worlds == m.worlds
    assert out.valuation == m.valuation
    # input untouched
    assert ("u", "v") in m.edges


def test_delete_edge_self_loop():
    m = KripkeModel.make(["w"], [("w", "w")])
    out = delete_edge(m, ("w", "w"))
    assert out.edges == ()
    assert out.worlds == ("w",)


def test_delete_edge_missing_is_error():
    m = KripkeModel.make(["w"])
    with pytest.raises(ModelError):
        delete_edge(m, ("w", "w"))


def test_delete_point_strips_valuation_and_edges():
    m = KripkeModel.make(["u", "v"], [("u", "v"), ("v", "u")], ["p"], {"p": ["u", "v"]})
    out = delete_point(m, "v")
    assert out.worlds == ("u",)
    assert out.edges == ()
    assert out.val("p") == {"u"}


def test_delete_point_removes_incident_edges():
    m = KripkeModel.make(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    out = delete_point(m, "b")
    assert out.worlds == ("a", "c")
    assert out.edges == (("c", "a"),)


def test_delete_point_refuses_last_world():
    m = KripkeModel.make(["w"])
    with pytest.raises(ModelError):
        delete_point(m, "w")


def test_delete_point_missing_world():
    m = KripkeModel.make(["u", "v"])
    with pytest.raises(ModelError):
        delete_point(m, "x")


def test_load_self_loop():
    pm = load_model(LOOP_JSON)
    assert pm.model.worlds == ("w",)
    assert pm.model.edges == (("w", "w"),)
    assert pm.model.val("p") == {"w"}
    assert pm.point == "w"


def test_load_rejects_undeclared_edge_world():
    bad = '{"worlds":["w"],"edges":[["w","x"]],"propositions":[],"valuation":{},"point":"w"}'
    with pytest.raises(ModelError, match="undeclared"):
        load_model(bad)


def test_load_rejects_duplicate_edge():
    bad = '{"worlds":["w"],"edges":[["w","w"],["w","w"]],"propositions":[],"valuation":{},"point":"w"}'
    with pytest.raises(ModelError, match="duplicate"):
        load_model(bad)


def test_load_rejects_unknown_keys():
    bad = '{"worlds":["w"],"edges":[],"propositions":[],"valuation":{},"point":"w","extra":1}'
    with pytest.raises(ModelError, match="unknown keys"):
        load_model(bad)


def test_load_rejects_missing_point():
    bad = '{"worlds":["w"],"edges":[],"propositions":[],"valuation":{}}'
    with pytest.raises(ModelError, match="missing keys"):
        load_model(bad)


def test_load_rejects_undeclared_point():
    bad = '{"worlds":["w"],"edges":[],"propositions":[],"valuation":{},"point":"x"}'
    with pytest.raises(ModelError, match="point"):
        load_model(bad)


def test_load_rejects_undeclared_valuation_prop():
    bad = '{"worlds":["w"],"edges":[],"propositions":["p"],"valuation":{"q":["w"]},"point":"w"}'
    with pytest.raises(ModelError, match="undeclared proposition"):
        load_model(bad)


def test_empty_proposition_name_is_refused():
    # no formula can name an empty atom
    with pytest.raises(ModelError, match="propositions: empty name"):
        KripkeModel.make(["w"], [], ["", "p"])
    bad = '{"worlds":["w"],"edges":[],"propositions":[""],"valuation":{"":["w"]},"point":"w"}'
    with pytest.raises(ModelError, match="propositions"):
        load_model(bad)


def test_load_rejects_bad_json():
    with pytest.raises(ModelError, match="parse error"):
        load_model("{nope")


def test_validate_reports_point_and_valuation():
    model = KripkeModel(
        worlds=("w",),
        edges=(),
        propositions=("p",),
        valuation=(("q", ("w",)),),
    )
    raw = PointedModel(model, "x")
    problems = validate(raw)
    assert any("point" in p for p in problems)
    assert any("undeclared proposition 'q'" in p for p in problems)


def test_validate_and_make_reject_repeated_edges_and_worlds():
    # The raw constructor keeps repeats; a repeated edge would count twice
    # at the count gate, and one delete_edge would remove both copies.
    for model, problem in (
        (KripkeModel(("a",), (("a", "a"), ("a", "a")), (), ()),
         "edges: duplicate edge ('a', 'a')"),
        (KripkeModel(("a", "a"), (), (), ()), "worlds: duplicate world 'a'"),
    ):
        assert validate(PointedModel(model, "a")) == [problem]
        with pytest.raises(ModelError, match=re.escape(problem)):
            PointedModel.make(model, "a")
    # make refuses a repeated edge but merges repeated worlds and propositions
    with pytest.raises(ModelError, match=re.escape("edges: duplicate edge ('a', 'a')")):
        KripkeModel.make(["a"], [("a", "a"), ["a", "a"]])
    merged = KripkeModel.make(["a", "a"], [("a", "a")], ["p", "p"])
    assert (merged.worlds, merged.propositions) == (("a",), ("p",))


@pytest.mark.parametrize("domain, delete", [(EDGE, delete_edge), (POINT, delete_point)],
                         ids=["edge", "point"])
def test_a_deletion_set_gives_one_submodel_whatever_the_order(domain, delete):
    # The recursive checker keys a side by its remaining items.  That is exact
    # if deleting one set of items gives one model in every order, whose
    # items are the root's minus that set, in the root's order.
    rng = random.Random(0)
    for seed in range(300):
        root = random_model(seed, 4, 6, ("p", "q")).model
        every = domain.every(root)
        # a point model keeps at least one world
        gone = rng.sample(every, rng.randint(0, len(every) - (domain is POINT)))
        results = set()
        for order in (gone, gone[::-1], rng.sample(gone, len(gone))):
            m = root
            for item in order:
                m = delete(m, item)
            results.add(m)
        assert len(results) == 1, seed
        assert domain.every(results.pop()) == tuple(i for i in every if i not in gone), seed


def test_validate_ok_on_wellformed(loop):
    assert validate(loop) == []


def test_save_load_round_trip():
    text = save_model(load_model(LOOP_JSON))
    assert text == LOOP_JSON
    assert save_model(load_model(text)) == text


def test_save_canonicalizes_order():
    messy = '{"worlds":["b","a"],"edges":[["b","a"],["a","b"]],"propositions":["q","p"],"valuation":{"q":["b","a"],"p":[]},"point":"a"}'
    text = save_model(load_model(messy))
    doc = json.loads(text)
    assert doc["worlds"] == ["a", "b"]
    assert doc["edges"] == [["a", "b"], ["b", "a"]]
    assert doc["propositions"] == ["p", "q"]
    assert doc["valuation"] == {"p": [], "q": ["a", "b"]}


@given(st.integers(0, 10**6))
def test_delete_edge_counts_and_reinsertion(seed):
    pm = random_model(seed, 4, 5)
    m = pm.model
    for e in m.edges:
        out = delete_edge(m, e)
        assert len(out.edges) == len(m.edges) - 1
        back = KripkeModel.make(
            out.worlds, out.edges + (e,), out.propositions, dict(out.valuation)
        )
        assert back == m


@given(st.integers(0, 10**6))
def test_delete_point_postconditions(seed):
    pm = random_model(seed, 4, 5)
    m = pm.model
    if len(m.worlds) < 2:
        return
    for v in m.worlds:
        out = delete_point(m, v)
        assert set(out.worlds) | {v} == set(m.worlds)
        assert len(out.worlds) == len(m.worlds) - 1
        assert all(v not in e for e in out.edges)
        assert all(v not in out.val(p) for p in out.propositions)


@given(st.integers(0, 10**6))
def test_random_model_round_trips(seed):
    pm = random_model(seed, 3, 4, ("p", "q"))
    assert validate(pm) == []
    assert load_model(save_model(pm)) == pm


def test_load_refuses_nesting_too_deep_to_decode():
    for text in ("[" * 100000, '{"worlds":' + "[" * 100000 + "]" * 100000 + "}"):
        with pytest.raises(ModelError, match="parse error"):
            load_model(text)


def _loads_or_refuses(text):
    try:
        pm = load_model(text)
    except ModelError:
        return
    assert validate(pm) == []


@given(st.text())
def test_load_any_text_loads_or_is_refused(text):
    _loads_or_refuses(text)


_NAMES = st.sampled_from(["w", "v"]) | st.text(max_size=2)
_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_NAMES, inner, max_size=3),
    max_leaves=12,
)
_NAME_LISTS = st.lists(_NAMES, max_size=3)


@given(st.fixed_dictionaries({
    "worlds": _ANY | _NAME_LISTS,
    "edges": _ANY | st.lists(st.lists(_NAMES, min_size=2, max_size=2), max_size=3),
    "propositions": _ANY | _NAME_LISTS,
    "valuation": _ANY | st.dictionaries(_NAMES, _NAME_LISTS, max_size=2),
    "point": _ANY | _NAMES,
}))
def test_load_any_json_under_the_keys_loads_or_is_refused(doc):
    _loads_or_refuses(json.dumps(doc))
