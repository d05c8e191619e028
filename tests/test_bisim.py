import ast
import inspect
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from delbisim import (
    KINDS,
    KripkeModel,
    LanguageFragment,
    PointedModel,
    check,
    evaluate,
    load_model,
    modal_bisimilar,
    oracle_bisimilar,
    random_formula,
    random_model,
    save_model,
    validate,
)
from delbisim import bisim, oracle
from delbisim.model import SizeGuardError

RECURSIVE = ("s", "d", "g", "r")

FRAGMENT_OF = {
    "s": LanguageFragment.SML,
    "g": LanguageFragment.GSML,
    "d": LanguageFragment.PSL,
    "r": LanguageFragment.MLSR,
}


def _pair(seed, worlds=3, edges=4):
    return (
        random_model(seed, worlds, edges, ("p",)),
        random_model(seed + 1, worlds, edges, ("p",)),
    )


@pytest.mark.parametrize("kind", KINDS)
def test_identity_is_bisimilar(kind, loop):
    # the complete 2-world digraph is the hardest small identity instance
    for pm in (loop, _complete(2)):
        assert check(kind, pm, pm).answer


def test_edge_count_gate(loop, cycle2):
    verdict = check("s", loop, cycle2)
    assert not verdict.answer
    assert verdict.witness["condition"] == "edge-count"
    assert verdict.witness["left"] == 1
    assert verdict.witness["right"] == 2


def test_world_count_gate(loop, cycle2):
    verdict = check("d", loop, cycle2)
    assert not verdict.answer
    assert verdict.witness["condition"] == "world-count"


def _chain(witness):
    """The nodes along a witness's ``cause`` chain."""
    out = []
    while witness is not None:
        out.append(witness)
        witness = witness.get("cause")
    return out


def test_count_gate_fires_only_at_the_root_unless_restricted():
    # Unrestricted, a count gate that passes at the root passes everywhere
    # below it (the oracle's docstring argues this for its root gate).
    for seed in range(0, 600, 2):
        a, b = _pair(seed)
        for kind in RECURSIVE:
            for node in _chain(check(kind, a, b).witness):
                if node["condition"].endswith("-count"):
                    assert node["path"] == [], (seed, kind, node)
    # Restricted, it counts deletable items, which the current world decides.
    a, b = _pair(8)
    for kind in ("d", "r"):
        verdict = bisim.filtered_check(kind, a, b, "p")
        gates = [n for n in _chain(verdict.witness) if n["condition"] == "world-count"]
        assert [(n["path"], n["left"], n["right"]) for n in gates] == [
            ([["move", "w0", "w0"]], 0, 1)]


def test_atom_clause():
    a = PointedModel.make(KripkeModel.make(["w"], [], ["p"], {"p": ["w"]}), "w")
    b = PointedModel.make(KripkeModel.make(["v"], [], ["p"], {}), "v")
    for kind in KINDS:
        verdict = check(kind, a, b)
        assert not verdict.answer
        assert verdict.witness["condition"] == "atom"
        assert verdict.witness["prop"] == "p"


def test_atom_clause_over_union_of_propositions():
    # q is only declared on one side; undeclared counts as false, in every
    # checker and in the oracle's own atom table alike
    a = PointedModel.make(KripkeModel.make(["w"], [], ["p", "q"], {"q": ["w"]}), "w")
    b = PointedModel.make(KripkeModel.make(["v"], [], ["p"], {}), "v")
    a2 = PointedModel.make(KripkeModel.make(["w"], [], ["p", "q"], {}), "w")
    for kind in KINDS:
        for x, y, expected in ((a, b, False), (b, a, False), (a2, b, True), (b, a2, True)):
            assert check(kind, x, y).answer is expected, kind
            assert oracle_bisimilar(kind, x, y).answer is expected, kind


@pytest.mark.parametrize("kind", KINDS)
def test_golden_pair(kind, golden_a, golden_b):
    # modal equivalence holds but every deletion-aware notion separates them
    expected = kind == "modal"
    assert check(kind, golden_a, golden_b).answer is expected
    assert oracle_bisimilar(kind, golden_a, golden_b).answer is expected


def test_golden_pair_witnesses(golden_a, golden_b):
    verdict = check("s", golden_a, golden_b)
    assert verdict.witness["condition"] in (
        "zig-del",
        "zag-del",
        "zig-dia",
        "zag-dia",
    )
    # the trace is serializable and bottoms out
    import json

    json.dumps(verdict.to_json())


def test_modal_fixpoint_example(golden_a, golden_b):
    verdict = modal_bisimilar(golden_a, golden_b)
    assert verdict.answer
    assert verdict.witness is None


def test_modal_atom_witness():
    a = PointedModel.make(KripkeModel.make(["w"], [], ["p"], {"p": ["w"]}), "w")
    b = PointedModel.make(KripkeModel.make(["v"], [], ["p"], {}), "v")
    verdict = modal_bisimilar(a, b)
    assert not verdict.answer
    assert verdict.witness["condition"] == "atom"


def test_verdict_json_shape(loop, cycle2):
    doc = check("s", loop, cycle2).to_json()
    assert doc["answer"] == "no"
    assert set(doc) == {"answer", "max_depth", "calls", "witness"}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(RECURSIVE))
def test_reflexivity(seed, kind):
    a = random_model(seed, 3, 3, ("p",))
    same = PointedModel.make(a.model, a.point)
    assert check(kind, a, same).answer


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(RECURSIVE))
def test_symmetry(seed, kind):
    a, b = _pair(seed, 3, 3)
    assert (
        check(kind, a, b).answer
        == check(kind, b, a).answer
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_oracle_agreement_sample(seed):
    a, b = _pair(seed, 3, 3)
    for kind in KINDS:
        assert (
            check(kind, a, b).answer
            == oracle_bisimilar(kind, a, b).answer
        )


def _assert_paths_extend(verdict):
    """Every ``cause`` is one step further than its parent, from the root."""
    node = verdict.witness
    assert node["path"] == []
    while node.get("cause") is not None:
        child = node["cause"]
        assert child["path"][:-1] == node["path"]
        assert child["path"][-1][0] in ("move", "del", "endpoint")
        node = child
    assert len(node["path"]) <= verdict.max_depth


def _near_miss(seed, worlds):
    """A random model and a copy with one edge retargeted and the point moved."""
    a = random_model(seed, worlds, 3)
    rng = random.Random(seed)
    m = a.model
    edges = list(m.edges)
    if edges:
        i = rng.randrange(len(edges))
        free = [(edges[i][0], v) for v in m.worlds if (edges[i][0], v) not in edges]
        if free:
            edges[i] = rng.choice(free)
    b = KripkeModel.make(m.worlds, edges, m.propositions, dict(m.valuation))
    return a, PointedModel.make(b, rng.choice(m.worlds))


# The witnesses the checker printed when these tests were pinned: every
# cause's path is its parent's path plus one step.
_S1 = [["move", "w0", "w0"]]
_S2 = _S1 + [["del", ["w2", "w0"], ["w0", "w1"]]]
_S3 = _S2 + [["del", ["w1", "w0"], ["w1", "w2"]]]
_D1 = [["del", "w3", "w0"]]
_D2 = _D1 + [["del", "w1", "w1"]]
MEMO_HIT_WITNESS = {
    "s": {"condition": "zig-dia", "item": "w0", "at": ["w2", "w2"], "path": [], "cause":
          {"condition": "zig-del", "item": ["w2", "w0"], "at": ["w0", "w0"], "path": _S1, "cause":
           {"condition": "zig-del", "item": ["w1", "w0"], "at": ["w0", "w0"], "path": _S2, "cause":
            {"condition": "zig-dia", "item": "w1", "at": ["w0", "w0"], "path": _S3,
             "cause": None}}}},
    "d": {"condition": "zig-del", "item": "w3", "at": ["w2", "w2"], "path": [], "cause":
          {"condition": "zig-del", "item": "w1", "at": ["w2", "w2"], "path": _D1, "cause":
           {"condition": "zig-dia", "item": "w0", "at": ["w2", "w2"], "path": _D2,
            "cause": None}}},
}


@pytest.mark.parametrize("kind", ("s", "d"))
def test_memo_hit_witness_has_its_own_path(kind):
    # A memo hit used to return the witness of the call that first computed
    # it, with that call's paths: under ``[["del","w3","w0"]]`` the ``d``
    # witness printed a cause at ``[["del","w1","w0"],["del","w3","w1"]]``.
    ws = ["w0", "w1", "w2", "w3"]
    a, b = (
        PointedModel.make(KripkeModel.make(ws, edges, ["p"], {"p": ["w0"]}), "w2")
        for edges in ([("w0", "w1"), ("w1", "w0"), ("w2", "w0")],
                      [("w0", "w1"), ("w1", "w2"), ("w2", "w0")])
    )
    verdict = check(kind, a, b)
    assert (verdict.answer, verdict.witness) == (False, MEMO_HIT_WITNESS[kind])
    _assert_paths_extend(verdict)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(RECURSIVE))
# seeds whose cached witnesses had stale paths
@example(21, "s")
@example(177, "g")
@example(793, "r")
def test_cached_witness_paths_extend_their_parents(seed, kind):
    # r on four worlds can search for 20 s, so it gets three.
    a, b = _near_miss(seed, 3 if kind == "r" else 4)
    verdict = check(kind, a, b)
    if not verdict.answer:
        _assert_paths_extend(verdict)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_count_gates_on_yes(seed):
    a, b = _pair(seed)
    if check("s", a, b).answer:
        assert len(a.model.edges) == len(b.model.edges)
    if check("d", a, b).answer:
        assert len(a.model.worlds) == len(b.model.worlds)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_refinement_lattice(seed):
    a, b = _pair(seed, 3, 3)
    answers = {kind: check(kind, a, b).answer for kind in KINDS}
    if answers["g"]:
        assert answers["s"]
    if answers["r"]:
        assert answers["d"]
    for kind in RECURSIVE:
        if answers[kind]:
            assert answers["modal"]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_bisimilar_pairs_agree_on_fragment_formulas(seed):
    a, b = _pair(seed, 3, 3)
    for kind in RECURSIVE:
        if not check(kind, a, b).answer:
            continue
        for i in range(30):
            f = random_formula(seed + i, FRAGMENT_OF[kind], 3, ("p",))
            assert evaluate(a, f) == evaluate(b, f)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_depth_bounds(seed):
    a, b = _pair(seed)
    vs = check("s", a, b)
    assert vs.max_depth <= len(a.model.edges) * len(a.model.worlds) * len(
        b.model.worlds
    )
    vd = check("d", a, b)
    assert vd.max_depth <= len(a.model.worlds) ** 2 * len(b.model.worlds)


def test_oracle_size_guard(loop):
    big = random_model(0, 9, 12, ("p",))
    while len(big.model.worlds) <= 5:
        big = random_model(len(big.model.worlds), 9, 12, ("p",))
    with pytest.raises(SizeGuardError):
        oracle_bisimilar("s", big, big)


# one hex digit per pool pair j = (random_model(2j, 5, 6), random_model(2j + 1, 5, 6)),
# the pairs `delbisim sweep --seed 0 --worlds 5 --edges 6` draws; bit 1/2/4/8
# is set when s/d/g/r is bisimilar
SWEEP_POOL = Path(__file__).parent.parent / "bench" / "expected" / "sweep_pool.hex"


def test_oracle_at_size_guard_matches_committed_pool():
    pool = "".join(SWEEP_POOL.read_text(encoding="ascii").split())
    yes = [j for j, digit in enumerate(pool) if digit != "0"][:256]
    pairs = sorted(set(range(0, len(pool), 64)) | set(yes))
    assert len(pairs) == 762
    counts = dict.fromkeys((*RECURSIVE, "modal"), 0)
    for j in pairs:
        a = random_model(2 * j, 5, 6, ("p",))
        b = random_model(2 * j + 1, 5, 6, ("p",))
        for bit, kind in enumerate(RECURSIVE):
            answer = oracle_bisimilar(kind, a, b).answer
            assert answer == bool(int(pool[j], 16) >> bit & 1), (j, kind)
            counts[kind] += answer
        modal = oracle_bisimilar("modal", a, b).answer
        assert modal == modal_bisimilar(a, b).answer, j
        counts["modal"] += modal
    assert counts == {"s": 209, "d": 138, "g": 183, "r": 62, "modal": 330}


def _complete(n):
    """Complete digraph on n worlds, loops included, p at w0, pointed at w0."""
    ws = [f"w{i}" for i in range(n)]
    model = KripkeModel.make(ws, [(u, v) for u in ws for v in ws], ["p"], {"p": ["w0"]})
    return PointedModel.make(model, "w0")


def test_oracle_answers_known_by_construction(relabelled):
    # No checker is consulted: an isomorphic copy is bisimilar under every
    # notion, and on a directed cycle with one p-world the distance to it
    # tells every two worlds apart.
    rng = random.Random(11)
    for seed in range(100):
        a = random_model(seed, 5, 6, ("p",))
        b = relabelled(rng, a)
        for kind in KINDS:
            assert oracle_bisimilar(kind, a, b).answer, (seed, kind)
    for pm in [_cycle(n, "w", [0], 0) for n in range(3, 7)] + [_complete(2), _complete(3)]:
        n, edges = len(pm.model.worlds), len(pm.model.edges)
        for kind in KINDS:
            assert oracle_bisimilar(kind, pm, pm, n, edges).answer, (n, edges, kind)
    for marked in ([0], [2]):
        for j in range(1, 5):
            for kind in KINDS:
                a, b = _cycle(5, "w", marked, 0), _cycle(5, "v", marked, j)
                assert not oracle_bisimilar(kind, a, b).answer, (marked, j, kind)


def test_verdicts_do_not_depend_on_which_objects_the_models_are():
    # The checker keys its call stack and its memo by each side's remaining
    # items, not by the model objects, so a copy of either model gives the
    # same verdict, witness and counts, also where a self-pair becomes two
    # equal objects.
    def copy(pm):
        return load_model(save_model(pm))

    for seed in range(300):
        a, b = random_model(seed, 3, 3), random_model(seed + 7919, 3, 3)
        for kind in RECURSIVE:
            assert check(kind, a, b).to_json() == check(kind, a, copy(b)).to_json(), (seed, kind)
            assert check(kind, a, a).to_json() == check(kind, a, copy(a)).to_json(), (seed, kind)
    # The C4 identity pair's counts; CI pins g (762,057 calls, depth 16),
    # which is too slow for this suite.
    c4 = _cycle(4, "w", [0], 0)
    for kind, calls, depth in (("s", 1938, 8), ("d", 439, 7), ("r", 11673, 12)):
        verdict = check(kind, c4, c4)
        assert (verdict.answer, verdict.calls, verdict.max_depth) == (True, calls, depth), kind


def _everywhere(pm, prop):
    """``pm`` with ``prop`` declared and true at every world."""
    m = pm.model
    model = KripkeModel.make(m.worlds, m.edges, m.propositions + (prop,),
                             {**dict(m.valuation), prop: m.worlds})
    return PointedModel.make(model, pm.point)


def test_filtered_check_against_check_and_modal_bisimilar():
    # Restricted to a proposition true at every world, every item may go, so
    # the run is check's, call for call.  Restricted to an undeclared one,
    # nothing may go and only the modal clauses are left.  The sizes are
    # picked by their cost at 150 seeds, not by their outcomes: on a 2-CPU
    # machine 2/3 and 3/2 take about 0.9 s and 0.7 s, and 3/3 alone 1.3 s.
    for worlds, edges in ((2, 3), (3, 2)):
        for seed in range(150):
            a = random_model(seed, worlds, edges, ("p", "q"))
            b = random_model(seed + 7919, worlds, edges, ("p", "q"))
            for x, y in ((a, b), (a, a)):
                modal = modal_bisimilar(x, y).answer
                x_all, y_all = _everywhere(x, "all"), _everywhere(y, "all")
                for kind in RECURSIVE:
                    want = check(kind, x_all, y_all)
                    got = bisim.filtered_check(kind, x_all, y_all, "all")
                    assert (got.answer, got.calls, got.max_depth) == (
                        want.answer, want.calls, want.max_depth), (worlds, edges, seed, kind)
                    none = bisim.filtered_check(kind, x, y, "none")
                    assert none.answer == modal, (worlds, edges, seed, kind)


def test_oracle_borrows_only_tables_from_the_checker():
    # sweep and check --oracle compare the oracle with the checker: shared
    # code would compare _Checker or modal_bisimilar with itself
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom) and node.module in ("bisim", "delbisim.bisim"):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any(alias.name.split(".")[-1] == "bisim" for alias in node.names)
    assert imported == {"DOMAINS", "GENERALIZED", "KINDS", "Verdict"}
    borrowed = {name for name, value in vars(oracle).items()
                if callable(value) and getattr(value, "__module__", None) == bisim.__name__}
    assert borrowed == {"Verdict"}


def test_unknown_kind_rejected(loop):
    with pytest.raises(ValueError):
        check("x", loop, loop)
    # a validation error, not a refusal by the oracle's size guard
    for pm in (loop, _cycle(7, "w", [0], 0)):
        with pytest.raises(ValueError):
            oracle_bisimilar("x", pm, pm)


def test_random_model_is_deterministic_and_valid():
    a = random_model(42, 3, 4, ("p", "q"))
    b = random_model(42, 3, 4, ("p", "q"))
    assert a == b
    assert validate(a) == []


def test_random_model_edge_bound_zero():
    pm = random_model(5, 3, 0)
    assert pm.model.edges == ()


def test_random_model_requires_worlds():
    with pytest.raises(ValueError):
        random_model(0, 0, 0)


def _cycle(n, prefix, marked, point):
    """Directed n-cycle ``prefix0 -> prefix1 -> ...`` with p at ``marked``."""
    ws = [f"{prefix}{i}" for i in range(n)]
    edges = [(ws[i], ws[(i + 1) % n]) for i in range(n)]
    model = KripkeModel.make(ws, edges, ["p"], {"p": [ws[i] for i in marked]})
    return PointedModel.make(model, ws[point])


def test_modal_fixpoint_rechecks_only_what_can_fall():
    verdict = modal_bisimilar(_cycle(57, "w", [0], 0), _cycle(57, "v", [0], 3))
    assert not verdict.answer
    assert verdict.calls == 64961
    assert verdict.witness["condition"] == "atom"
    verdict = modal_bisimilar(_cycle(57, "w", [0], 1), _cycle(57, "v", [0], 3))
    chain = [node["condition"] for node in _chain(verdict.witness)]
    assert chain.count("atom") == 1
    assert len(chain) - 1 > 50


def _modal_rescan(a, b):
    """The full rescan that ``Verdict`` defines: each round checks every live
    pair, in sorted order, against the live set of the round's start, and
    records the reason of each pair that falls."""
    m1, m2 = a.model, b.model
    props = sorted(set(m1.propositions) | set(m2.propositions))
    live, reasons = set(), {}
    for x in m1.worlds:
        for y in m2.worlds:
            bad = [p for p in props if m1.true_at(p, x) != m2.true_at(p, y)]
            if bad:
                reasons[(x, y)] = {"condition": "atom", "prop": bad[0], "at": [x, y]}
            else:
                live.add((x, y))
    calls = len(m1.worlds) * len(m2.worlds)
    while True:
        calls += len(live)
        removed = []
        for x, y in sorted(live):
            for side, outer, inner in (("zig", m1.successors(x), m2.successors(y)),
                                       ("zag", m2.successors(y), m1.successors(x))):
                flip = (lambda u, v: (u, v)) if side == "zig" else (lambda u, v: (v, u))
                lost = [u for u in outer if not any(flip(u, v) in live for v in inner)]
                if lost:
                    cause = reasons.get(flip(lost[0], inner[0])) if inner else None
                    reasons[(x, y)] = {"condition": f"{side}-dia", "item": lost[0],
                                       "at": [x, y], "cause": cause}
                    removed.append((x, y))
                    break
        if not removed:
            break
        live.difference_update(removed)
    point = (a.point, b.point)
    return point in live, calls, None if point in live else reasons[point]


def _random_modal_pair(rng, i):
    """1-7 worlds, 0-14 edges, p or p and q; pair ``i`` is two points of one
    model when ``i`` is a multiple of 3."""
    def draw(prefix):
        ws = [f"{prefix}{i}" for i in range(rng.randint(1, 7))]
        edges = rng.sample([(u, v) for u in ws for v in ws], rng.randint(0, min(14, len(ws) ** 2)))
        props = rng.choice((["p"], ["p", "q"]))
        return KripkeModel.make(ws, edges, props, {p: [w for w in ws if rng.random() < 0.5]
                                                   for p in props})

    m1 = draw("w")
    m2 = m1 if i % 3 == 0 else draw(rng.choice("vw"))
    return (PointedModel.make(m1, rng.choice(m1.worlds)),
            PointedModel.make(m2, rng.choice(m2.worlds)))


def test_modal_fixpoint_is_the_rescan():
    rng = random.Random(2005)
    pairs = [_random_modal_pair(rng, i) for i in range(2000)]
    for n1 in range(3, 14):
        for n2 in (n1, n1 + 3, 2 * n1):
            marked = [0, n1] if n2 == 2 * n1 else [0]
            pairs += [(_cycle(n1, "w", [0], 0), _cycle(n2, "v", marked, j)) for j in range(n2)]
    longest = 0
    for a, b in pairs:
        verdict = modal_bisimilar(a, b)
        assert (verdict.answer, verdict.calls, verdict.witness) == _modal_rescan(a, b), (a, b)
        longest = max(longest, len(_chain(verdict.witness)))
    assert longest > 10  # the cycle families' chains reach 14 nodes


def test_modal_fixpoint_matches_oracle_over_many_rounds():
    # Fixpoints of up to 2 * 12 rounds; p at v0 (and at v_n1 on the
    # doubled cycle) makes some of the pairs bisimilar: v0 when n2 == n1,
    # v0 and v_n1 when n2 == 2 * n1 (twice for n1 == 3, where n1 + 3 is
    # 2 * n1 too).
    yes = 0
    for n1 in range(3, 13):
        a = _cycle(n1, "w", [0], 0)
        for n2 in (n1, n1 + 3, 2 * n1):
            marked = [0, n1] if n2 == 2 * n1 else [0]
            for j in range(n2):
                b = _cycle(n2, "v", marked, j)
                expected = oracle_bisimilar("modal", a, b, max_worlds=n2,
                                            max_edges=n2).answer
                assert modal_bisimilar(a, b).answer == expected, (n1, n2, j)
                yes += expected
    assert yes == 10 + 2 * 10 + 2
