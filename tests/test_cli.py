import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cycflats import from_json_dict, tutte_polynomial, uniform
from cycflats.catalog import get, three_lines_tree
from cycflats.cli import main

from oracles import cycle_pair

BASE = [sys.executable, "-m", "cycflats"]


def run_cli(*args):
    proc = subprocess.run(BASE + list(args), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args, want=0):
    code, out, err = run_cli(*args)
    assert code == want, (args, code, out, err)
    return json.loads(out)


@pytest.fixture()
def u24_file(tmp_path):
    path = tmp_path / "u24.json"
    path.write_text(json.dumps(uniform(2, 4).to_json_dict()))
    return str(path)


def test_validate_catalog_and_round_trip():
    d = run_json("validate", "--catalog", "fig2_N")
    assert d["valid"] is True
    assert from_json_dict(d["matroid"]).equals(get("fig2_N"))
    assert d["matroid"] == get("fig2_N").to_json_dict()


def test_validate_rejects_bad_lattice(tmp_path):
    bad = {"elements": ["1", "2"],
           "cyclic_flats": [{"set": [], "rank": 0},
                            {"set": ["1", "2"], "rank": 2}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli("validate", "--input", str(path))
    assert code == 2
    d = json.loads(out)
    assert d["valid"] is False
    assert "rank gap 2 over 2 new elements" in d["violation"]


def test_missing_input_file_is_a_usage_error():
    code, out, err = run_cli("validate", "--input", "/nonexistent/m.json")
    assert code == 64
    assert "cannot read" in err
    code2, _, _ = run_cli("tau", "--input", "missing.json")
    assert code2 == 64


def test_unparsable_input_is_a_computation_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    code, _, _ = run_cli("validate", "--input", str(path))
    assert code == 1


def test_unreadable_positional_file_is_a_usage_error(tmp_path):
    # a directory exists but cannot be read, as with --input
    for args in (("tau", str(tmp_path)),
                 ("config", "compare", "fig1_M", str(tmp_path)),
                 ("union", str(tmp_path), "fig1_M")):
        code, out, err = run_cli(*args)
        assert (code, out) == (64, ""), args
        assert "cannot read" in err
    path = tmp_path / "m.json"
    path.write_text("{not json")
    code, _, _ = run_cli("tau", str(path))
    assert code == 1


def test_malformed_json_shapes_exit_1_with_one_line(tmp_path, u24_file):
    deco = tmp_path / "t.json"
    deco.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d", "x"],
        "edges": [["a", "x"], ["b", "x"], ["c", "x"], ["d", "x"]],
        "leaf_labels": ["a", "b", "c", "d"]}))
    matroid = tmp_path / "m.json"
    matroid.write_text(json.dumps({"elements": 4, "cyclic_flats": []}))
    # a string where a list is due would be split into its characters
    strings = []
    for k, doc in enumerate((
            {"elements": "abc",
             "cyclic_flats": [{"set": [], "rank": 0},
                              {"set": ["a", "b", "c"], "rank": 2}]},
            {"elements": ["a", "b", "c"],
             "cyclic_flats": [{"set": [], "rank": 0},
                              {"set": "abc", "rank": 2}]},
            {"elements": ["a", "b", "c"], "cyclic_flats": "abc"},
            # a rank that is not a JSON integer would pass through int()
            *({"elements": ["a", "b", "c"],
               "cyclic_flats": [{"set": [], "rank": 0},
                                {"set": ["a", "b", "c"], "rank": rank}]}
              for rank in (2.7, "2", False)))):
        strings.append(tmp_path / ("s%d.json" % k))
        strings[-1].write_text(json.dumps(doc))
    for args, kind in (
            (("bw", "--certify", u24_file, "--upper", str(deco),
              "--lower", "rank-lt:1:2"), "MalformedTree"),
            (("tau", "--input", str(matroid)), "ValueError"),
            *((("validate", "--input", str(path)), "ValueError")
              for path in strings)):
        code, out, err = run_cli(*args)
        assert (code, out) == (1, ""), args
        assert len(err.splitlines()) == 1, err
        assert err.startswith("cycflats: %s:" % kind), err


def test_unknown_catalog_is_a_usage_error():
    code, _, err = run_cli("rank", "--catalog", "nosuch", "--set", "1")
    assert code == 64
    assert "unknown catalog" in err


def test_unknown_command_is_a_usage_error():
    code, _, _ = run_cli("frobnicate")
    assert code == 64


def test_rank_command():
    d = run_json("rank", "--catalog", "fig1_N", "--set", "4,5,6")
    assert d["rank"] == 3
    assert run_json("rank", "--catalog", "fig1_N", "--set", "")["rank"] == 0
    assert run_json("rank", "--catalog", "fig1_N", "--set",
                    "1,4,5")["rank"] == 2


def test_rank_rejects_foreign_labels_as_usage_error():
    code, _, err = run_cli("rank", "--catalog", "fig1_N", "--set", "9")
    assert code == 64
    assert "unknown element" in err
    code2, _, _ = run_cli("rank", "--catalog", "fig1_N", "--set", "4,5,99")
    assert code2 == 64


def test_tutte_command_matches_library():
    d = run_json("tutte", "--catalog", "fig1_M")
    expect = tutte_polynomial(get("fig1_M")).to_json_dict()
    assert d == expect
    d2 = run_json("tutte", "--catalog", "fig1_N")
    assert d2 == expect  # the paired example shares the polynomial


def test_config_and_compare():
    d = run_json("config", "fig2_N")
    assert len(d["nodes"]) == 5
    cmp_ok = run_json("config", "compare", "fig1_M", "fig1_N")
    assert cmp_ok["isomorphic"] is True
    assert cmp_ok["witness"]
    code, out, _ = run_cli("config", "compare", "fig1_M", "fig2_M")
    assert code == 2
    assert json.loads(out)["isomorphic"] is False


def test_config_reads_its_matroid_from_either_flag(tmp_path, capsys):
    path = tmp_path / "n.json"
    path.write_text(json.dumps(get("fig2_N").to_json_dict()))
    outs = []
    for argv in (["fig2_N"], ["--catalog", "fig2_N"],
                 ["--input", str(path)]):
        assert main(["config"] + argv) == 0, argv
        outs.append(capsys.readouterr().out)
    assert outs[1:] == outs[:1] * 2
    assert len(json.loads(outs[0])["nodes"]) == 5


@pytest.mark.parametrize("argv, named", [
    (["tau", "fig1_N", "--catalog", "fig2_N"],
     ["'fig1_N'", "--catalog fig2_N"]),
    (["config", "fig1_N", "--catalog", "fig1_N"],
     ["'fig1_N'", "--catalog fig1_N"]),
    (["rank", "FILE", "--input", "FILE", "--set", "1"],
     ["'FILE'", "--input FILE"]),
    (["tutte", "--input", "FILE", "--catalog", "fig2_N"],
     ["--input FILE", "--catalog fig2_N"]),
    (["verify", "--theorem", "tau-scaling", "--matroid", "fig1_N",
      "--catalog", "fig1_N"], ["'fig1_N'", "--catalog fig1_N"]),
])
def test_two_sources_for_one_matroid_are_a_usage_error(argv, named,
                                                       u24_file, capsys):
    assert main([u24_file if a == "FILE" else a for a in argv]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert "two sources for one matroid: %s and %s" % tuple(
        n.replace("FILE", u24_file) for n in named) in err


@pytest.mark.parametrize("argv", [
    ["union", "fig1_N", "fig3_M", "--catalog", "fig2_N"],
    ["union", "fig1_N", "--input", "FILE"],
    ["config", "compare", "fig1_M", "fig2_N", "--catalog", "fig1_N"],
    ["config", "compare", "fig1_M", "fig1_N", "--input", "FILE"],
])
def test_commands_of_several_matroids_refuse_the_flags(argv, u24_file,
                                                       capsys):
    # --input and --catalog once overrode every operand: union gave
    # fig2_N with itself and compare called fig1_M and fig2_N isomorphic
    argv = [u24_file if a == "FILE" else a for a in argv]
    assert main(argv) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert "takes its matroids as operands" in err


@pytest.fixture()
def cycle_files(tmp_path):
    """The graph families of one 12-cycle and of two 6-cycles of planes,
    as two matroid files."""
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path, obj in zip(paths, cycle_pair(12)):
        path.write_text(json.dumps(obj))
    return [str(p) for p in paths]


def test_compare_decides_the_cycle_pair(cycle_files):
    # every node has the same decoration and numbers of nodes below and
    # above it in both; a search that orders by those alone did not
    # finish in 600 s here
    proc = subprocess.run(BASE + ["config", "compare"] + cycle_files,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {"isomorphic": False, "witness": None}


def test_compare_refuses_past_the_search_budget(cycle_files, monkeypatch,
                                                capsys):
    monkeypatch.setattr("cycflats.invariants.ISO_BUDGET", 100)
    assert main(["config", "compare"] + cycle_files) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("cycflats: BudgetExceeded: ")
    assert len(err.splitlines()) == 1


def test_expand_deflate_round_trip(tmp_path):
    d = run_json("expand", "--catalog", "fig1_N", "--t", "2")
    assert len(d["matroid"]["elements"]) == 12
    assert d["map"]["blocks"]["1"] == ["1", "1#1"]
    path = tmp_path / "n2.json"
    path.write_text(json.dumps(d["matroid"]))
    back = run_json("deflate", "--input", str(path), "--t", "2")
    assert len(back["matroid"]["elements"]) == 6
    ranks = sorted(cf["rank"] for cf in back["matroid"]["cyclic_flats"])
    assert ranks == [0, 2, 2, 3]


def test_deflate_failure_is_a_computation_error():
    code, _, err = run_cli("deflate", "--catalog", "fig1_M", "--t", "2")
    assert code == 1
    assert "clonal class" in err


def test_union_command(tmp_path):
    a = {"elements": ["1", "2", "3", "4", "5", "6"],
         "cyclic_flats": [{"set": ["4", "5", "6"], "rank": 0},
                          {"set": ["1", "2", "3", "4", "5", "6"],
                           "rank": 1}]}
    b = {"elements": ["1", "2", "3", "4", "5", "6"],
         "cyclic_flats": [{"set": ["1", "2", "3"], "rank": 0},
                          {"set": ["1", "2", "3", "4", "5", "6"],
                           "rank": 1}]}
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    d = run_json("union", str(pa), str(pb))
    ranks = sorted(cf["rank"] for cf in d["cyclic_flats"])
    assert ranks == [0, 1, 1, 2]


def test_tau_kappa_commands(u24_file):
    assert run_json("tau", "fig1_N")["value"] == 3
    assert run_json("tau", "--input", u24_file)["value"] == "infinite"
    d = run_json("kappa", "fig3_N")
    assert d["value"] == 3
    assert run_json("kappa", "fig1_M")["witness"]


def test_flats_cover_command():
    d = run_json("flats-cover", "fig3_M", "--count", "2", "--slack", "1")
    assert d["found"] is True
    assert sorted(map(sorted, d["flats"])) == [["1", "2", "3"],
                                               ["1", "4", "5"]]
    d2 = run_json("flats-cover", "fig3_N", "--count", "2", "--slack", "1")
    assert d2 == {"found": False, "flats": None}


def test_bw_exact_and_budget():
    assert run_json("bw", "--exact", "fig2_N")["value"] == 4
    assert run_json("bw", "fig2_M")["value"] == 3
    code, _, _ = run_cli("bw", "--exact", "fig2_M", "--budget", "exact:bogus")
    assert code == 64
    code2, _, err2 = run_cli("bw", "--exact", "fig2_M", "--budget", "exact:4")
    assert code2 == 1  # nine elements exceed the lowered cap
    assert "budget" in err2.lower()


def test_bw_exact_on_the_sixfold_expansion(tmp_path):
    # fig2_N^6 has 1.2e9 worst-case split pairs, past the default budget,
    # but the tangle-first path examines few of them
    path = tmp_path / "n6.json"
    doc = run_json("expand", "fig2_N", "--t", "6")
    path.write_text(json.dumps(doc["matroid"]))
    assert run_json("bw", "--exact", "--input", str(path))["value"] == 15


def test_bw_certify(tmp_path):
    deco = tmp_path / "tree.json"
    deco.write_text(json.dumps(three_lines_tree().to_json_dict()))
    d = run_json("bw", "--certify", "fig2_M", "--upper", str(deco),
                 "--lower", "rank-lt:2:3")
    assert d["exact"] is True
    assert d["value"] == 3
    assert d["bounds"] == [3, 3]
    code, out, _ = run_cli("bw", "--certify", "fig2_M", "--upper", str(deco),
                           "--lower", "rank-lt:3:4")
    assert code == 2
    assert json.loads(out)["certified"] is False


def test_bw_certify_rejects_a_non_tree(tmp_path, u24_file):
    # one edge fewer than vertices, but a 4-cycle beside a detached edge
    deco = tmp_path / "cycle.json"
    deco.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d", "e", "f", "g", "h", "x", "y"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"],
                  ["a", "e"], ["b", "f"], ["c", "g"], ["d", "h"],
                  ["x", "y"]],
        "leaf_labels": {"1": "e", "2": "f", "3": "g", "4": "h"}}))
    code, out, err = run_cli("bw", "--certify", u24_file, "--upper",
                             str(deco), "--lower", "rank-lt:1:2")
    assert (code, out) == (1, "")
    assert "not connected" in err


@pytest.mark.parametrize("strings", [("vertices",), ("edges",),
                                     ("vertices", "edges")])
def test_bw_certify_rejects_strings_for_lists(tmp_path, strings):
    # the three-lines tree with one-letter vertex ids, so "ABC..." would
    # read as the vertex list and "AB" as an edge
    tree = three_lines_tree().to_json_dict()
    letter = {v: chr(ord("A") + i) for i, v in enumerate(tree["vertices"])}
    doc = {"vertices": [letter[v] for v in tree["vertices"]],
           "edges": [[letter[a], letter[b]] for a, b in tree["edges"]],
           "leaf_labels": {k: letter[v]
                           for k, v in tree["leaf_labels"].items()}}
    if "vertices" in strings:
        doc["vertices"] = "".join(doc["vertices"])
    if "edges" in strings:
        doc["edges"] = ["".join(e) for e in doc["edges"]]
    deco = tmp_path / "letters.json"
    deco.write_text(json.dumps(doc))
    code, out, err = run_cli("bw", "--certify", "fig2_M", "--upper",
                             str(deco), "--lower", "rank-lt:2:3")
    assert (code, out) == (1, "")
    assert "malformed decomposition JSON" in err


def test_tangle_verify_command():
    d = run_json("tangle", "verify", "fig2_M", "--family", "rank-lt:2",
                 "--order", "3")
    assert d["valid"] is True
    code, out, _ = run_cli("tangle", "verify", "fig2_M", "--family",
                           "rank-lt:3", "--order", "4")
    assert code == 2
    w = json.loads(out)
    assert w["valid"] is False
    assert w["witness"]["axiom"] == "T3"


def test_positroid_commands(tmp_path):
    code, out, _ = run_cli("positroid-check", "fig1_N", "--order",
                           "1,2,3,4,5,6")
    assert code == 2
    d = json.loads(out)
    assert d["positroid_order"] is False
    assert d["witness"]["flat"] == ["1", "4", "5"]
    ok = run_json("positroid-check", "fig1_N", "--order", "2,3,1,4,5,6")
    assert ok["positroid_order"] is True
    found = run_json("positroid-search", "fig1_N")
    assert found["order"]
    assert found["classes_checked"] >= 1
    code2, _, _ = run_cli("positroid-check", "fig1_N", "--order", "1,2")
    assert code2 == 64
    # ten elements are past the order-search budget: one error line
    path = tmp_path / "u3_10.json"
    path.write_text(json.dumps(uniform(3, 10).to_json_dict()))
    code3, out3, err3 = run_cli("positroid-search", "--input", str(path))
    assert code3 == 1
    assert out3 == ""
    assert err3.startswith("cycflats: BudgetExceeded: ")
    assert len(err3.splitlines()) == 1


def test_presentation_verify_command():
    d = run_json("presentation-verify", "fig1_M", "--sets",
                 "1,2,3|4,5,6|1,2,3,4,5,6")
    assert d["presents"] is True
    code, out, _ = run_cli("presentation-verify", "fig1_M", "--sets",
                           "1,2,3|4,5,6")
    assert code == 2
    assert json.loads(out)["presents"] is False


def test_presentation_verify_rejects_foreign_labels():
    code, _, err = run_cli("presentation-verify", "fig1_M", "--sets",
                           "1,2,99")
    assert code == 64
    assert "unknown element" in err


def test_verify_theorem_and_suite():
    d = run_json("verify", "--theorem", "tau-scaling", "--matroid",
                 "fig1_N", "--t", "2")
    assert d["passed"] is True
    checks = {c["id"]: c for c in d["checks"]}
    assert any(c["expected"] == 5 for c in checks.values())

    s = run_json("verify", "--suite", "figures")
    assert s["passed"] is True
    assert len(s["checks"]) == 11

    code, out, _ = run_cli("verify", "--suite", "figures", "--pretty")
    assert code == 0
    assert "PASS" in out

    code2, _, _ = run_cli("verify")
    assert code2 == 64
    code3, _, _ = run_cli("verify", "--suite", "nosuch")
    assert code3 == 64


def test_verify_refuses_zero_or_negative_trials():
    for suite, trials in (("equivalences", "0"), ("expansion-lemmas", "0"),
                          ("equivalences", "-3")):
        code, out, err = run_cli("verify", "--suite", suite, "--trials",
                                 trials)
        assert code == 64, (suite, trials, out)
        assert "--trials" in err


def test_global_flags_work_in_both_positions():
    a = run_json("--catalog", "fig1_N", "tau")
    b = run_json("tau", "--catalog", "fig1_N")
    assert a == b


def test_randomized_suite_is_deterministic():
    runs = []
    for _ in range(2):
        d = run_json("verify", "--suite", "classes", "--seed", "5")
        runs.append([(c["id"], c["instance"], str(c["expected"]),
                      str(c["computed"]), c["passed"]) for c in d["checks"]])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", [("tau", "fig1_N"),
                                     ("bw", "--exact", "fig2_N")])
def test_ignored_flags_leave_output_unchanged(command):
    command = list(command)
    code, out, _ = run_cli(*command)
    assert code == 0 and out
    for args in (["--threads", "4"] + command, command + ["--threads", "4"],
                 ["--budget", "certify"] + command,
                 command + ["--budget", "certify"]):
        assert run_cli(*args)[:2] == (code, out), args


@pytest.mark.parametrize("command", [("tau", "fig1_N"),
                                     ("validate", "fig1_N"),
                                     ("bw", "fig2_M")])
def test_bad_budget_is_a_usage_error_for_every_command(command):
    command = list(command)
    bad = ["--budget", "exact:bogus"]
    for args in (bad + command, command + bad):
        code, out, err = run_cli(*args)
        assert (code, out) == (64, ""), args
        assert "--budget" in err


@pytest.mark.parametrize("args", [
    ("expand", "fig1_N", "--t", "0"),
    ("deflate", "fig1_N", "--t", "0"),
    ("verify", "--theorem", "tau-scaling", "--matroid", "fig1_N",
     "--t", "0"),
    ("flats-cover", "fig1_N", "--count", "0"),
    ("flats-cover", "fig1_N", "--count", "2", "--slack", "-1"),
    ("bw", "fig1_N", "--budget", "exact:-3"),
    ("bw", "fig1_N", "--budget", "exact:0"),
    ("verify", "--suite", "bw", "--trials", "x"),
    ("tangle", "verify", "fig1_N", "--family", "rank-lt:99", "--order", "3"),
    ("tangle", "verify", "fig1_N", "--family", "rank-lt:0", "--order", "3"),
    ("tangle", "verify", "fig1_N", "--family", "rank-lt:2", "--order", "0"),
    ("tangle", "verify", "fig1_N", "--family", "rank-lt:2", "--order", "-4"),
    ("bw", "--certify", "fig2_M", "--upper", "TREE", "--lower",
     "rank-lt:0:3"),
    ("bw", "--certify", "fig2_M", "--upper", "TREE", "--lower",
     "rank-lt:2:0"),
    ("bw", "--certify", "fig2_M", "--upper", "TREE", "--lower",
     "rank-lt:99:3"),
])
def test_bad_numeric_flags_are_usage_errors(args, tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(three_lines_tree().to_json_dict()))
    code, out, _ = run_cli(*[str(tree) if a == "TREE" else a for a in args])
    assert (code, out) == (64, ""), args


def _readme_examples():
    """The `cycflats ...` lines of the README's command-line block."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("cycflats ")]


_FILE_FREE = [argv for argv in _readme_examples()
              if not any(a.endswith(".json") for a in argv)]


def test_readme_block_has_file_free_examples():
    assert len(_FILE_FREE) >= 15


@pytest.mark.parametrize("argv", _FILE_FREE, ids=" ".join)
def test_readme_example_runs(argv, capsys):
    assert main(argv) == 0
    assert isinstance(json.loads(capsys.readouterr().out), dict)
