import pytest
from hypothesis import given, strategies as st

from delbisim import LanguageFragment, ParseError, format_formula, parse_formula, random_formula
from delbisim.formula import (
    And,
    Atom,
    Bot,
    Dia,
    GRem,
    GSab,
    Not,
    RemBox,
    Sab,
    Top,
    in_fragment,
    modal_depth,
    walk,
)

FRAGMENTS = list(LanguageFragment)


def test_parse_dia():
    assert parse_formula("dia p") == Dia(Atom("p"))


def test_parse_guarded_sab():
    assert parse_formula("sab{p|q} r") == GSab(Atom("p"), Atom("q"), Atom("r"))


def test_parse_guarded_rem():
    assert parse_formula("rem{p} dia q") == GRem(Atom("p"), Dia(Atom("q")))


def test_parse_accepts_reserved_atoms():
    assert parse_formula("@w0") == Atom("@w0")


def test_print_sab_top():
    assert format_formula(Sab(Top())) == "sab true"


def test_print_binary():
    assert format_formula(And(Atom("p"), Not(Atom("q")))) == "(p & ~q)"


def test_print_rbox_bot():
    assert format_formula(RemBox(Bot())) == "rbox false"


# keywords, a name with a character outside the grammar, the empty name and
# names that would split into several tokens
@pytest.mark.parametrize("name", ["true", "false", "dia", "box", "sab", "sbox",
                                  "rem", "rbox", "@a\u00b7b\u00b7i", "", "1p",
                                  "p q", "p&q"])
def test_print_refuses_atoms_it_cannot_read_back(name):
    with pytest.raises(ValueError, match="would not parse back"):
        format_formula(Not(Atom(name)))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_formula("(p &")
    assert err.value.line == 1
    assert "end of input" in str(err.value)


def test_parse_rejects_unknown_token():
    with pytest.raises(ParseError, match="unknown token"):
        parse_formula("dia $")


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError, match="trailing"):
        parse_formula("p q")


def test_parse_requires_parens_for_binary():
    with pytest.raises(ParseError):
        parse_formula("p & q")


def test_parse_rejects_double_operator():
    with pytest.raises(ParseError, match="unknown token"):
        parse_formula("(p & & q)")


@pytest.mark.parametrize("prefix, last", [("~", "p"), ("dia ", "p"), ("(", "p")])
def test_deep_nesting_is_a_parse_error(prefix, last):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula(prefix * 5000 + last)


GRAMMAR_TOKENS = ("true", "false", "p", "@w", "~", "(", ")", "&", "|", "->",
                  "{", "}", "dia", "box", "sab", "sbox", "rem", "rbox")


@given(st.lists(st.tuples(st.sampled_from(GRAMMAR_TOKENS),
                          st.sampled_from(("", " ", "\n"))), max_size=40))
def test_token_soup_parses_and_round_trips_or_refuses(soup):
    text = "".join(token + gap for token, gap in soup)
    try:
        f = parse_formula(text)
    except ParseError:
        return
    assert parse_formula(format_formula(f)) == f


@given(st.integers(0, 10**6), st.sampled_from(FRAGMENTS), st.integers(1, 5))
def test_round_trip(seed, fragment, depth):
    f = random_formula(seed, fragment, depth, ("p", "q", "r"))
    assert parse_formula(format_formula(f)) == f


@given(st.integers(0, 10**6), st.sampled_from(FRAGMENTS), st.integers(1, 5))
def test_fragment_soundness(seed, fragment, depth):
    f = random_formula(seed, fragment, depth, ("p", "q"))
    assert in_fragment(f, fragment)


@given(st.integers(0, 10**6), st.sampled_from(FRAGMENTS), st.integers(1, 5))
def test_modal_depth_bounded(seed, fragment, depth):
    f = random_formula(seed, fragment, depth, ("p", "q"))
    assert modal_depth(f) <= depth


@given(st.integers(0, 10**6), st.sampled_from(FRAGMENTS))
def test_no_reserved_atoms_generated(seed, fragment):
    f = random_formula(seed, fragment, 4, ("p", "q"))
    assert not any(
        isinstance(g, Atom) and g.name.startswith("@") for g in walk(f)
    )


def test_depth_one_is_a_literal():
    f = random_formula(1, LanguageFragment.MODAL, 1, ("p",))
    assert modal_depth(f) == 0


def test_same_seed_same_formula():
    a = random_formula(7, LanguageFragment.MLSR, 4, ("p", "q"))
    b = random_formula(7, LanguageFragment.MLSR, 4, ("p", "q"))
    assert a == b


def test_sml_has_no_removal_ops():
    hit_sab = False
    for seed in range(200):
        f = random_formula(seed, LanguageFragment.SML, 4, ("p",))
        assert in_fragment(f, LanguageFragment.SML)
        hit_sab = hit_sab or any(isinstance(g, Sab) for g in walk(f))
    assert hit_sab  # the generator does reach the fragment-specific operators


def test_random_formula_validates_arguments():
    with pytest.raises(ValueError):
        random_formula(0, LanguageFragment.MODAL, 0, ("p",))
    with pytest.raises(ValueError):
        random_formula(0, LanguageFragment.MODAL, 2, ())


@pytest.mark.parametrize("prefix, suffix", [
    ("~", ""), ("dia ", ""), ("sab{p|p} ", ""), ("rem{p} ", ""), ("(p & ", ")"),
])
def test_deep_formula_prints_back(prefix, suffix):
    # Compared as text: dataclass == on a tree this deep hits the
    # recursion limit.
    text = prefix * 900 + "p" + suffix * 900
    assert format_formula(parse_formula(text)) == text


@pytest.mark.parametrize("prefix, suffix, depth", [
    ("~", "", 0), ("dia ", "", 900), ("sab{p|p} ", "", 900), ("rem{p} ", "", 900),
    ("(p & ", ")", 0),
])
def test_deep_formula_modal_depth(prefix, suffix, depth):
    text = prefix * 900 + "p" + suffix * 900
    assert modal_depth(parse_formula(text)) == depth


@pytest.mark.parametrize("leaf, depth", [(Atom("p"), 0), (Dia(Atom("p")), 1)])
def test_long_conjunction_spine_prints_and_has_its_depth(leaf, depth):
    # A right-nested conjunction as build_E makes, one link per world: a
    # frame per link would exhaust the recursion limit.  It is too deep for
    # the parser to read back, so the text is checked directly.
    spine = leaf
    for _ in range(2000):
        spine = And(leaf, spine)
    text = format_formula(spine)
    leaf_text = format_formula(leaf)
    assert text == f"({leaf_text} & " * 2000 + leaf_text + ")" * 2000
    assert modal_depth(spine) == depth
