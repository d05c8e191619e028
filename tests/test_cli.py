import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from delbisim import check, oracle_bisimilar, random_model, save_model
from delbisim.cli import main


@pytest.fixture
def model_file(tmp_path, loop):
    path = tmp_path / "loop.json"
    path.write_text(save_model(loop))
    return str(path)


@pytest.fixture
def cycle_file(tmp_path, cycle2):
    path = tmp_path / "cycle2.json"
    path.write_text(save_model(cycle2))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_identity(capsys, model_file):
    code, out, _ = run(capsys, "check", "--kind", "s", model_file, model_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "yes"
    assert doc["witness"] is None


def test_check_gate_exit_code(capsys, model_file, cycle_file):
    code, out, _ = run(capsys, "check", "--kind", "s", model_file, cycle_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["answer"] == "no"
    assert doc["witness"]["condition"] == "edge-count"


def test_check_oracle_and_stats(capsys, model_file, cycle_file):
    code, out, _ = run(
        capsys, "check", "--kind", "s", "--oracle", "--stats", model_file, cycle_file
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["oracle"] == "no"
    assert doc["match"] is True
    assert "max_depth" in doc and "calls" in doc


def test_flags_do_not_carry_over_between_main_calls(capsys, model_file):
    # One parser serves every call; each parse starts from the defaults.
    _, with_stats, _ = run(capsys, "check", "--kind", "s", "--stats", model_file, model_file)
    _, without, _ = run(capsys, "check", "--kind", "s", model_file, model_file)
    assert "calls" in json.loads(with_stats) and "calls" not in json.loads(without)


def test_check_oracle_refuses_past_its_guard_before_checking(capsys, monkeypatch, tmp_path):
    # The recursive s checker runs for minutes on a directed 6-cycle, which
    # the oracle refuses at once; a checker call here ends in exit 2.
    from delbisim import KripkeModel, PointedModel

    def checker(*args, **kwargs):
        raise AssertionError("checker called before the oracle guard")

    monkeypatch.setattr("delbisim.cli.check", checker)
    ws = [f"w{i}" for i in range(6)]
    cycle = KripkeModel.make(ws, [(ws[i], ws[(i + 1) % 6]) for i in range(6)])
    path = tmp_path / "c6.json"
    path.write_text(save_model(PointedModel.make(cycle, "w0")))
    code, out, err = run(capsys, "check", "--kind", "s", "--oracle", str(path), str(path))
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "oracle guard exceeded: |W|=6 |R|=6 (limits 5/6)"


def test_check_deterministic_stdout(capsys, model_file, cycle_file):
    _, first, _ = run(capsys, "check", "--kind", "g", model_file, cycle_file)
    _, second, _ = run(capsys, "check", "--kind", "g", model_file, cycle_file)
    assert first == second


def test_eval_true_false(capsys, model_file):
    code, out, _ = run(capsys, "eval", model_file, "dia p")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", model_file, "sab sab true")
    assert code == 1 and out.strip() == "false"


def test_eval_undeclared_atom(capsys, model_file):
    code, _, err = run(capsys, "eval", model_file, "q")
    assert code == 2
    assert "error" in json.loads(err)


def test_eval_bad_formula(capsys, model_file):
    code, _, err = run(capsys, "eval", model_file, "dia (")
    assert code == 2
    assert "error" in json.loads(err)


def test_charform_prints_formula(capsys, model_file):
    code, out, _ = run(capsys, "charform", "--kind", "s", model_file)
    assert code == 0
    assert "@w" in out and "sab" in out


def test_charform_refuses_an_atom_it_cannot_print(capsys, tmp_path):
    # printed, the proposition "true" would read back as the constant
    path = tmp_path / "true.json"
    path.write_text('{"worlds":["w"],"edges":[],"propositions":["true"],'
                    '"valuation":{},"point":"w"}')
    code, out, err = run(capsys, "charform", "--kind", "s", str(path))
    assert (code, out) == (2, "")
    assert "'true'" in json.loads(err)["error"]


def test_charform_refuses_tag_atoms_that_collide(capsys, tmp_path):
    # charform printed this formula with "@w1" read both as the declared
    # proposition and as w1's tag, while charcheck refused the model
    path = tmp_path / "tagged.json"
    path.write_text('{"worlds":["w0","w1"],"edges":[["w0","w1"]],"propositions":["@w1"],'
                    '"valuation":{"@w1":["w0"]},"point":"w0"}')
    refusal = json.dumps({"error": "tag atoms collide with declared propositions: ['@w1']"})
    for kind in ("s", "d", "g", "r"):
        assert run(capsys, "charform", "--kind", kind, str(path)) == (2, "", refusal + "\n")
    assert run(capsys, "charcheck", "--kind", "s", str(path), str(path)) == (2, "", refusal + "\n")


def test_charform_guard_exit(capsys, tmp_path):
    from delbisim import KripkeModel, PointedModel

    dense = PointedModel.make(
        KripkeModel.make(
            ["a", "b"], [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
        ),
        "a",
    )
    path = tmp_path / "dense.json"
    path.write_text(save_model(dense))
    code, _, err = run(capsys, "charform", "--kind", "s", str(path))
    assert code == 3
    assert "guard" in json.loads(err)["error"]


def test_charcheck_agreement(capsys, model_file, cycle_file):
    code, out, _ = run(capsys, "charcheck", "--kind", "s", model_file, model_file)
    assert code == 0
    assert json.loads(out)["match"] is True
    code, out, _ = run(capsys, "charcheck", "--kind", "s", model_file, cycle_file)
    assert code == 1
    assert json.loads(out)["char_check"] is False


def test_translate_directions(capsys, model_file):
    code, out, _ = run(capsys, "translate", "--dir", "f", model_file)
    assert code == 0
    doc = json.loads(out)
    assert "w·w·i" in doc["worlds"]
    code, out, _ = run(capsys, "translate", "--dir", "g", model_file)
    assert code == 0
    assert json.loads(out)["edges"] == [["w", "w"]]
    code, out, _ = run(
        capsys, "translate", "--dir", "g", "--edges-to-sink", "intent", model_file
    )
    assert json.loads(out)["edges"] == [["w", "w"], ["w", "w_j"]]


def test_random_is_deterministic(capsys):
    _, first, _ = run(capsys, "random", "--seed", "9", "--worlds", "3", "--edges", "4")
    _, second, _ = run(capsys, "random", "--seed", "9", "--worlds", "3", "--edges", "4")
    assert first == second
    doc = json.loads(first)
    assert len(doc["worlds"]) <= 3
    assert len(doc["edges"]) <= 4


def test_sweep_summary(capsys):
    code, out, _ = run(
        capsys, "sweep", "--kinds", "s,d", "--seed", "7", "--count", "5"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["pairs"] == 5
    assert summary["mismatches"] == 0
    assert len(lines) == 5 * 2 + 1
    assert all(line["match"] for line in lines[:-1])


def test_sweep_always_uses_the_checker_memo(capsys):
    # seed 1057 draws a g pair that a checker without its memo does not finish
    code, out, _ = run(
        capsys, "sweep", "--kinds", "s,d,g,r", "--seed", "1057", "--count", "2"
    )
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["mismatches"] == 0


@pytest.mark.parametrize("seed", (1057, 1243))
def test_check_answers_g_pairs_that_stall_without_the_memo(tmp_path, seed):
    # Without its memo the g checker ran past 100 s on these pairs; a
    # subprocess with a timeout makes a stall fail instead of hang.
    pair = [random_model(seed + i, 3, 4) for i in (0, 1)]
    paths = [tmp_path / f"{i}.json" for i in (0, 1)]
    for path, pm in zip(paths, pair):
        path.write_text(save_model(pm))
    proc = subprocess.run([sys.executable, "-m", "delbisim.cli", "check", "--kind", "g", *paths],
                          capture_output=True, text=True, timeout=60, env=_env())
    expected = oracle_bisimilar("g", *pair).answer
    assert proc.returncode == (0 if expected else 1), proc.stderr
    assert json.loads(proc.stdout)["answer"] == ("yes" if expected else "no")


def _env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))


def test_random_draws_edges_without_listing_every_pair():
    # Seed 3 draws 7,798 worlds and no edge; listing all n^2 candidate
    # edges first took over 1 GB and failed with MemoryError under this cap.
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "delbisim.cli", "random", "--seed", "3",
                           "--worlds", "20000", "--edges", "0"], capture_output=True,
                          text=True, timeout=60, env=_env(), preexec_fn=cap)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["worlds"]) == 7798 and doc["edges"] == []


def test_sweep_rejects_unknown_kind(capsys):
    code, _, err = run(capsys, "sweep", "--kinds", "zz", "--seed", "1", "--count", "1")
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize("argv, parameter", [
    (("sweep", "--kinds", "s", "--seed", "1", "--count", "-3"), "count"),
    (("translate-report", "--seed", "1", "--count", "-1"), "count"),
    (("random", "--seed", "1", "--worlds", "3", "--edges", "-1"), "max_edges"),
])
def test_negative_count_or_edge_bound_is_refused(capsys, argv, parameter):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert parameter in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ("random", "--seed", "1", "--worlds", "1", "--edges", "0", "--props", ","),
    ("sweep", "--kinds", "s", "--seed", "1", "--count", "2", "--props", ","),
])
def test_empty_proposition_name_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "propositions" in json.loads(err)["error"]


def test_model_with_empty_proposition_name_is_refused(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"worlds":["w"],"edges":[],"propositions":[""],"valuation":{},"point":"w"}')
    code, out, err = run(capsys, "check", "--kind", "s", str(path), str(path))
    assert (code, out) == (2, "")
    assert "propositions" in json.loads(err)["error"]


@pytest.mark.parametrize("worlds, edges", [("9", "2"), ("3", "7")])
def test_sweep_refuses_bounds_past_the_oracle_guard(capsys, worlds, edges):
    # before any pair is drawn, so no pair line precedes the refusal
    code, out, err = run(capsys, "sweep", "--kinds", "s", "--seed", "1",
                         "--count", "5", "--worlds", worlds, "--edges", edges)
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert "--worlds" in error and "--edges" in error and "5/6" in error


@pytest.mark.parametrize("worlds, edges", [("2", "7"), ("5", "6")])
def test_sweep_runs_within_the_oracle_guard(capsys, worlds, edges):
    # 2 worlds have at most 4 edges, whatever --edges says
    code, out, _ = run(capsys, "sweep", "--kinds", "s", "--seed", "1",
                       "--count", "3", "--worlds", worlds, "--edges", edges)
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["pairs"] == 3


def test_zero_count_is_valid(capsys):
    code, out, _ = run(capsys, "sweep", "--kinds", "s", "--seed", "1", "--count", "0")
    assert code == 0
    assert json.loads(out)["pairs"] == 0


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--kind", "s", "/nope/a.json", "/nope/b.json")
    assert code == 2
    assert "error" in json.loads(err)


def test_bad_model_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"worlds":["w"],"edges":[["w","x"]],"propositions":[],"valuation":{},"point":"w"}')
    code, _, err = run(capsys, "check", "--kind", "s", str(path), str(path))
    assert code == 2
    assert "undeclared" in json.loads(err)["error"]


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_translate_report_runs(capsys):
    code, out, _ = run(capsys, "translate-report", "--seed", "5", "--count", "4")
    assert code == 0
    assert "Translation correspondence report" in out


def test_crash_is_exit_2_not_a_verdict(capsys, tmp_path):
    # Point deletion on 300 edgeless worlds recurses past Python's stack
    # limit; that must not read as exit 1, "not bisimilar".
    from delbisim import KripkeModel, PointedModel

    worlds = [f"w{i:03d}" for i in range(300)]
    path = tmp_path / "edgeless.json"
    path.write_text(save_model(PointedModel.make(KripkeModel.make(worlds), "w000")))
    code, out, err = run(capsys, "check", "--kind", "d", str(path), str(path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "RecursionError" in json.loads(err)["error"]


def test_deep_witness_prints(capsys, tmp_path):
    # The witness of a 1000-cycle against a self-loop nests 999 ``cause``
    # levels, deeper than json.dumps recurses by default.
    import sys

    from delbisim import KripkeModel, PointedModel

    ws = [f"w{i}" for i in range(1000)]
    cycle = KripkeModel.make(ws, [(ws[i], ws[(i + 1) % 1000]) for i in range(1000)],
                             ["p"], {"p": ["w0"]})
    pair = (PointedModel.make(cycle, "w1"),
            PointedModel.make(KripkeModel.make(["v"], [("v", "v")]), "v"))
    for name, pm in zip("ab", pair):
        (tmp_path / f"{name}.json").write_text(save_model(pm))
    code, out, err = run(capsys, "check", "--kind", "modal",
                         str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert (code, err) == (1, "")
    doc = check("modal", *pair).to_json()
    del doc["max_depth"], doc["calls"]
    assert out.count('"cause":{') == 999
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        expected = json.dumps(doc, separators=(",", ":"))
    finally:
        sys.setrecursionlimit(limit)
    assert out == expected + "\n"


_TEXT = st.sampled_from(['"cause":0', '"witness":0', '\\', '"', "é"]) | st.text(max_size=4)


@given(st.lists(st.tuples(_TEXT, st.lists(_TEXT, max_size=2)), max_size=4),
       st.booleans(), st.booleans())
def test_witness_output_is_json_dumps(levels, leaf_cause, oracle):
    from delbisim.cli import _emit

    witness = {"condition": "atom", "prop": "p", "at": ["w", "v"], "path": []}
    if leaf_cause:
        witness["cause"] = None
    for item, path in levels:
        witness = {"condition": "zig-dia", "item": item, "at": path,
                   "path": [path], "cause": witness}
    payload = {"answer": "no", "witness": witness}
    if oracle:
        payload.update(oracle="no", match=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload)
    assert out.getvalue() == json.dumps(payload, separators=(",", ":")) + "\n"


def test_charform_prints_a_description_of_many_worlds(capsys, tmp_path):
    # build_E conjoins one description per world and the s guard bounds
    # only edges, so the printer must not spend a frame per world.
    from delbisim import KripkeModel, PointedModel

    worlds = [f"w{i}" for i in range(1200)]
    path = tmp_path / "edgeless.json"
    path.write_text(save_model(PointedModel.make(KripkeModel.make(worlds, (), ["p"]), "w0")))
    code, out, err = run(capsys, "charform", "--kind", "s", str(path))
    assert (code, err) == (0, "")
    assert len(out) == 49300
    assert out.startswith("(((@w0 -> (~p & (true & box false))) & ((@w1 -> ")
