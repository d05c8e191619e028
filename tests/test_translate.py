import pytest
from hypothesis import given, settings, strategies as st

from delbisim import (
    KripkeModel,
    correspondence_report,
    random_model,
    render_report,
    translate_F,
    translate_G,
)
from delbisim.model import ModelError


def test_F_self_loop():
    m = KripkeModel.make(["w"], [("w", "w")], ["p"], {"p": ["w"]})
    out = translate_F(m)
    mid = "w·w·i"
    assert set(out.worlds) == {"w", mid}
    assert set(out.edges) == {("w", mid), (mid, "w")}
    assert out.val("i") == {mid}
    assert out.val("p") == {"w"}


def test_F_edgeless():
    m = KripkeModel.make(["a", "b"], [], ["p"], {"p": ["a"]})
    out = translate_F(m)
    assert out.worlds == m.worlds
    assert out.edges == ()
    assert out.val("i") == frozenset()


def test_F_two_chain_size_law():
    m = KripkeModel.make(["a", "b"], [("a", "b")])
    out = translate_F(m)
    assert len(out.worlds) == 3
    assert len(out.edges) == 2


def test_F_rejects_declared_i():
    m = KripkeModel.make(["w"], [], ["i"], {})
    with pytest.raises(ModelError, match="'i'"):
        translate_F(m)


def test_F_rejects_world_collision():
    m = KripkeModel.make(["a", "b", "a·b·i"], [("a", "b")])
    with pytest.raises(ModelError, match="collides"):
        translate_F(m)


def test_G_literal_self_loop():
    m = KripkeModel.make(["w"], [("w", "w")])
    out = translate_G(m, "literal")
    assert set(out.worlds) == {"w", "w_j"}
    assert set(out.edges) == {("w", "w")}
    assert out.val("j") == {"w_j"}


def test_G_intent_self_loop():
    m = KripkeModel.make(["w"], [("w", "w")])
    out = translate_G(m, "intent")
    assert set(out.edges) == {("w", "w"), ("w", "w_j")}


def test_G_intent_edgeless():
    m = KripkeModel.make(["w"])
    out = translate_G(m, "intent")
    assert set(out.edges) == {("w", "w_j")}


def test_G_rejects_declared_j():
    m = KripkeModel.make(["w"], [], ["j"], {})
    with pytest.raises(ModelError, match="'j'"):
        translate_G(m)


def test_G_rejects_sink_collision():
    m = KripkeModel.make(["w_j"])
    with pytest.raises(ModelError, match="w_j"):
        translate_G(m)


def test_G_unknown_mode():
    with pytest.raises(ValueError):
        translate_G(KripkeModel.make(["w"]), "other")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_size_laws(seed):
    m = random_model(seed, 4, 5, ("p",)).model
    f = translate_F(m)
    assert len(f.worlds) == len(m.worlds) + len(m.edges)
    assert len(f.edges) == 2 * len(m.edges)
    g = translate_G(m, "intent")
    assert len(g.worlds) == len(m.worlds) + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_marker_freshness(seed):
    m = random_model(seed, 4, 4, ("p",)).model
    f = translate_F(m)
    new_worlds = set(f.worlds) - set(m.worlds)
    assert f.val("i") == frozenset(new_worlds)
    for p in m.propositions:
        assert f.val(p) == m.val(p)
    g = translate_G(m, "intent")
    assert g.val("j") == {"w_j"}
    for p in m.propositions:
        assert g.val(p) == m.val(p)


def test_report_is_deterministic():
    a = correspondence_report(11, 12)
    b = correspondence_report(11, 12)
    assert a == b
    assert render_report(a) == render_report(b)


@pytest.mark.parametrize("seed, count", [(3, 10), (0, 600)])
def test_report_counts_are_consistent(seed, count):
    stats = correspondence_report(seed, count)
    for key in ("edge_to_point", "point_to_edge"):
        body = stats[key]
        assert body["agree"] + body["mismatch_count"] == body["pairs"] == count
        # at most ten disagreements keep their models, the first ones in pair order
        kept = [mm["index"] for mm in body["mismatches"]]
        assert len(kept) == min(10, body["mismatch_count"])
        assert kept == sorted(set(kept))
    text = render_report(stats)
    assert "Translation correspondence report" in text
