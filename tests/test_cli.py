"""CLI verbs: text output, JSON payloads against the shipped schema, exit codes."""

import io
import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from hornkeys import cli

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "cli_output.schema.json").read_text()
)

CHAIN_HG = "hg 4 3\nnames a b c d\n1 2\n2 3\n3 4\n"
STAR_HG = "hg 4 4\n1 2\n1 3\n1 4\n2 3 4\n"
PATH_GRAPH = "hg 3 2\n1 2\n2 3\n"
FIG_CNF = "cnf 4 3\n1 2 -3\n-1 -2 4\n-2 -3 -4\n"
WHEEL_TSS = (
    "tss 5 7\nnames a b c d e\n"
    "e 1 2\ne 1 4\ne 1 5\ne 2 3\ne 3 4\ne 3 5\ne 4 5\n"
    "t 1 1\nt 2 1\nt 3 1\nt 4 1\nt 5 2\n"
)
PHI_HORN = (
    "horn 4 6\n"
    "1 2 -> 3\n1 2 -> 4\n2 3 -> 1\n2 3 -> 4\n3 4 -> 1\n3 4 -> 2\n"
)
BIG_T_TSS = "tss 5 4\ne 1 2\ne 1 3\ne 1 4\ne 1 5\nt 1 4\nt 2 1\nt 3 1\nt 4 1\nt 5 1\n"


@pytest.fixture()
def run(capsys):
    def _run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def _file(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _json_ok(out):
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_keys_text(run, tmp_path):
    f = _file(tmp_path, "phi.horn", PHI_HORN)
    code, out, _ = run(["keys", f])
    assert code == 0
    assert out.splitlines() == ["3 4", "2 3", "1 2"]


def test_keys_stats_line(run, tmp_path):
    f = _file(tmp_path, "phi.horn", PHI_HORN)
    code, out, _ = run(["keys", f, "--stats"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["3 4", "2 3", "1 2"]
    assert lines[3].startswith("# keys=3 closures=")
    assert " max_delay_closures=" in lines[3]


def test_keys_limit_and_names(run, tmp_path):
    f = _file(tmp_path, "phi.horn", "horn 4 6\nnames a b c d\n" + PHI_HORN.split("\n", 1)[1])
    code, out, _ = run(["keys", f, "--limit", "1", "--names"])
    assert code == 0
    assert out.splitlines() == ["c d"]


UNNAMED_WHEEL_TSS = WHEEL_TSS.replace("names a b c d e\n", "")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["keys"], PHI_HORN),
        (["key-min", "--set", "1,2,3"], PHI_HORN),
        (["tss-enum"], UNNAMED_WHEEL_TSS),
        (["tss-activate", "--seed-set", "5"], UNNAMED_WHEEL_TSS),
        (["tss-min"], UNNAMED_WHEEL_TSS),
    ],
    ids=["keys", "key-min", "tss-enum", "tss-activate", "tss-min"],
)
def test_names_on_a_file_without_labels_prints_ids(run, tmp_path, argv, text):
    # The schema's vertex is an integer id unless the file carries names;
    # --names once turned those ids into strings in JSON.
    argv = [argv[0], _file(tmp_path, "in", text), *argv[1:]]
    code, out, _ = run([*argv, "--json", "--names"])
    assert code == 0
    assert '"1"' not in out and '"2"' not in out
    assert (code, out) == run([*argv, "--json"])[:2]
    _json_ok(out)
    assert run([*argv, "--names"]) == run(argv)


def test_keys_json(run, tmp_path):
    f = _file(tmp_path, "phi.horn", PHI_HORN)
    code, out, _ = run(["keys", f, "--json"])
    assert code == 0
    payload = _json_ok(out)
    assert payload["command"] == "keys"
    assert payload["result"] == [[3, 4], [2, 3], [1, 2]]
    assert payload["stats"]["keys"] == 3


def test_keys_from_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(PHI_HORN))
    code = cli.main(["keys", "-"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["3 4", "2 3", "1 2"]


def test_key_min(run, tmp_path):
    f = _file(tmp_path, "phi.horn", PHI_HORN)
    code, out, _ = run(["key-min", f, "--set", "1,2,3"])
    assert (code, out.strip()) == (0, "2 3")
    code, _, err = run(["key-min", f, "--set", "1"])
    assert code == 2 and "error" in err


def test_key_min_names_a_non_key_in_the_users_ids(run, tmp_path):
    f = _file(tmp_path, "eight.horn", "horn 8 1\nnames a b c d e f g h\n1 -> 2\n")
    misses = "is not a key; its closure misses"
    assert run(["key-min", f, "--set", "1"]) == (
        2, "", f"error: set [1] {misses} [3, 4, 5, 6, 7] and 1 more\n"
    )
    assert run(["key-min", f, "--set", "a,d", "--names"]) == (
        2, "", f"error: set [a, d] {misses} [c, e, f, g, h]\n"
    )


def test_key_min_on_a_huge_universe_writes_a_short_error(run, tmp_path):
    f = _file(tmp_path, "huge.horn", "horn 200000 0\n")
    assert run(["key-min", f, "--set", "1"]) == (
        2, "", "error: set [1] is not a key; its closure misses [2, 3, 4, 5, 6] and 199994 more\n"
    )


def test_key_min_reads_many_labels_in_linear_time(run, tmp_path):
    # Each label used to be found by a scan of all labels: 1.96 s here.
    n = 20_000
    labels = [f"v{v}" for v in range(n)]
    f = _file(tmp_path, "labels.horn", f"horn {n} 0\nnames {' '.join(labels)}\n")
    start = time.perf_counter()
    code, out, err = run(["key-min", f, "--set", ",".join(labels), "--names"])
    assert time.perf_counter() - start < 0.5
    assert (code, out.split(), err) == (0, labels, "")
    assert run(["key-min", f, "--set", "v0,w0"]) == (2, "", "error: unknown variable label 'w0'\n")


def test_a_negative_limit_exits_2(run, tmp_path):
    f = _file(tmp_path, "phi.horn", PHI_HORN)
    assert run(["keys", f, "--limit", "-3"]) == (
        2, "", "error: limit must be nonnegative, got -3\n"
    )
    t = _file(tmp_path, "wheel.tss", WHEEL_TSS)
    assert run(["tss-enum", t, "--limit", "-1"])[:2] == (2, "")
    assert run(["keys", f, "--limit", "0"]) == (0, "", "")


def test_unique_hg(run, tmp_path):
    star = _file(tmp_path, "star.hg", STAR_HG)
    code, out, _ = run(["unique-hg", star])
    assert (code, out.strip()) == (0, "unique")

    chain = _file(tmp_path, "chain.hg", CHAIN_HG)
    code, out, _ = run(["unique-hg", chain])
    assert code == 1
    assert out.splitlines() == ["not unique", "T: a c", "v: d"]

    code, out, _ = run(["unique-hg", chain, "--json"])
    assert code == 1
    payload = _json_ok(out)
    assert payload["result"] is False
    assert payload["witness"] == {
        "kind": "transversal-pair-missing",
        "T": ["a", "c"],
        "v": "d",
    }


def test_unique_graph(run, tmp_path):
    path_graph = _file(tmp_path, "path.hg", PATH_GRAPH)
    code, out, _ = run(["unique-graph", path_graph])
    assert code == 1
    assert out.splitlines() == ["not unique", "I: 1 3", "v: 1"]
    matching = _file(tmp_path, "m.hg", "hg 4 2\n1 2\n3 4\n")
    code, out, _ = run(["unique-graph", matching])
    assert (code, out.strip()) == (0, "unique")


def test_unique_verbs_refuse_an_edgeless_input(run, tmp_path):
    # unique-graph used to answer `not unique` with exit 1 where unique-hg exits 2
    empty = _file(tmp_path, "empty.hg", "hg 3 0\n")
    for verb, what in [("unique-hg", "hypergraph"), ("unique-graph", "graph")]:
        code, out, err = run([verb, empty])
        assert (code, out) == (2, ""), verb
        assert f"recognizer requires a {what} with at least one edge" in err


def test_dual(run, tmp_path):
    chain = _file(tmp_path, "chain.hg", CHAIN_HG)
    code, out, _ = run(["dual", chain])
    assert code == 0
    assert out.splitlines() == ["hg 4 3", "names a b c d", "1 3", "2 3", "2 4"]
    code, out, _ = run(["dual", chain, "--json"])
    payload = _json_ok(out)
    assert (code, payload["result"]) == (0, [[1, 3], [2, 3], [2, 4]])


def test_phi_b_round_trip(run, tmp_path):
    chain = _file(tmp_path, "chain.hg", "hg 4 3\n1 2\n2 3\n3 4\n")
    code, out, _ = run(["phi-b", chain])
    assert code == 0
    assert out == PHI_HORN


def test_sat2graph_then_unique_graph(run, tmp_path):
    cnf = _file(tmp_path, "phi.cnf", FIG_CNF)
    gpath = str(tmp_path / "gadget.hg")
    code, out, _ = run(["sat2graph", cnf, "-o", gpath])
    assert code == 0 and out == ""
    text = Path(gpath).read_text()
    assert text.splitlines()[0] == "hg 16 27"

    code, out, _ = run(["unique-graph", gpath])
    assert code == 1  # satisfiable formula ⇒ not unique key
    lines = out.splitlines()
    assert lines[0] == "not unique"
    assert lines[2] == "v: z"
    assert "z" in lines[1]


def test_unsatisfiable_gadget_is_unique(run, tmp_path):
    cnf = _file(tmp_path, "u.cnf", "cnf 1 2\n1\n-1\n")
    gpath = str(tmp_path / "u.hg")
    assert run(["sat2graph", cnf, "-o", gpath])[0] == 0
    code, out, _ = run(["unique-graph", gpath])
    assert (code, out.strip()) == (0, "unique")


def test_tss2horn(run, tmp_path):
    wheel = _file(tmp_path, "wheel.tss", WHEEL_TSS)
    code, out, _ = run(["tss2horn", wheel])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "horn 5 14"
    assert lines[1] == "names a b c d e"
    assert lines[2] == "2 -> 1"
    assert lines[-1] == "3 4 -> 5"


def test_tss2horn_guard(run, tmp_path):
    big = _file(tmp_path, "big.tss", BIG_T_TSS)
    code, _, err = run(["tss2horn", big])
    assert code == 3 and "resource guard" in err
    code, out, _ = run(["tss2horn", big, "--max-threshold", "4"])
    assert code == 0 and out.splitlines()[0] == "horn 5 5"


def test_out_of_memory_exits_3(run, tmp_path, monkeypatch):
    # Exit 1 would read as a recognizer's "no", so running out of memory
    # exits 3, like a tripped guard, with one line and no traceback.
    def exhausted(hg):
        raise MemoryError

    monkeypatch.setattr(cli, "minimal_transversals", exhausted)
    code, out, err = run(["dual", _file(tmp_path, "star.hg", STAR_HG)])
    assert (code, out, err) == (3, "", "resource guard: out of memory\n")


def test_horn2tss(run, tmp_path):
    f = _file(tmp_path, "phi.horn", PHI_HORN)
    out_path = str(tmp_path / "gadget.tss")
    code, _, _ = run(["horn2tss", f, "-o", out_path])
    assert code == 0
    assert Path(out_path).read_text().splitlines()[0] == "tss 82 108"
    roles = Path(out_path + ".roles").read_text()
    assert roles.splitlines()[0] == "roles 4 82"

    # without --output the sidecar has nowhere to go
    code, _, err = run(["horn2tss", f])
    assert code == 2 and "error" in err

    code, out, _ = run(["horn2tss", f, "--json"])
    payload = _json_ok(out)
    assert code == 0
    assert payload["result"]["tss"].splitlines()[0] == "tss 82 108"
    assert payload["result"]["roles"].splitlines()[0] == "roles 4 82"


def test_tss_activate(run, tmp_path):
    wheel = _file(tmp_path, "wheel.tss", WHEEL_TSS)
    code, out, _ = run(["tss-activate", wheel, "--seed-set", "b", "--names"])
    assert (code, out.strip()) == (0, "a b c d e")
    code, out, _ = run(["tss-activate", wheel, "--seed-set", "5"])
    assert (code, out.strip()) == (0, "1 2 3 4 5")
    code, out, _ = run(["tss-activate", wheel, "--seed-set", "", "--json"])
    payload = _json_ok(out)
    assert payload["result"] == {"active": [], "is_target_set": False}


def test_tss_min_and_enum(run, tmp_path):
    wheel = _file(tmp_path, "wheel.tss", WHEEL_TSS)
    code, out, _ = run(["tss-min", wheel, "--names"])
    assert (code, out.strip()) == (0, "a")
    code, out, _ = run(["tss-enum", wheel, "--names", "--stats"])
    assert code == 0
    lines = out.splitlines()
    assert sorted(lines[:5]) == ["a", "b", "c", "d", "e"]
    assert lines[5].startswith("# keys=5 ")


def test_gen_is_deterministic(run, tmp_path):
    args = ["gen", "horn", "--seed", "7", "--n", "5", "--m", "6"]
    out1 = run(args)[1]
    out2 = run(args)[1]
    assert out1 == out2 and out1.splitlines()[0] == "horn 5 6"
    for kind, magic in [
        ("sperner", "hg"),
        ("graph", "hg"),
        ("bipartite", "hg"),
        ("tss", "tss"),
        ("cnf", "cnf"),
    ]:
        out = run(["gen", kind, "--seed", "3"])[1]
        assert out.splitlines()[0].startswith(magic + " ")


def test_gen_to_file_feeds_other_verbs(run, tmp_path):
    f = str(tmp_path / "r.horn")
    assert run(["gen", "horn", "--seed", "11", "--n", "5", "--m", "6", "-o", f])[0] == 0
    code, keys_out, _ = run(["keys", f])
    assert code == 0
    code, oracle_out, _ = run(["oracle", "minimal-keys", f])
    assert code == 0
    assert sorted(keys_out.splitlines()) == sorted(oracle_out.splitlines())


def test_oracle_unique_key_exit_codes(run, tmp_path):
    star = _file(tmp_path, "star.hg", STAR_HG)
    chain = _file(tmp_path, "chain.hg", CHAIN_HG)
    assert run(["oracle", "unique-key", star])[:1] == (0,)
    code, out, _ = run(["oracle", "unique-key", chain])
    assert (code, out.strip()) == (1, "not unique")


def test_oracle_sat(run, tmp_path):
    sat = _file(tmp_path, "sat.cnf", FIG_CNF)
    code, out, _ = run(["oracle", "sat", sat])
    assert code == 0
    model = [int(t) for t in out.split()]
    assert sorted(abs(v) for v in model) == [1, 2, 3, 4]
    unsat = _file(tmp_path, "unsat.cnf", "cnf 1 2\n1\n-1\n")
    code, out, _ = run(["oracle", "sat", unsat])
    assert (code, out.strip()) == (1, "unsatisfiable")


def test_oracle_misc(run, tmp_path):
    wheel = _file(tmp_path, "wheel.tss", WHEEL_TSS)
    assert run(["oracle", "min-tss", wheel])[1].strip() == "1"
    assert sorted(run(["oracle", "minimal-tss", wheel])[1].splitlines()) == [
        "1", "2", "3", "4", "5",
    ]
    triangle = _file(tmp_path, "k3.hg", "hg 3 3\n1 2\n1 3\n2 3\n")
    cuts = run(["oracle", "cuts", triangle])[1]
    assert cuts.splitlines()[0] == "hg 3 3"
    assert run(["oracle", "mis", triangle])[1].splitlines() == ["1", "2", "3"]
    phi = _file(tmp_path, "phi.horn", PHI_HORN)
    assert run(["oracle", "closure", phi, "--set", "1,2"])[1].strip() == "1 2 3 4"
    chain = _file(tmp_path, "chain.hg", CHAIN_HG)
    dual_out = run(["dual", chain])[1]
    assert run(["oracle", "transversals", chain])[1] == dual_out


def test_exit_code_2_on_bad_input(run, tmp_path):
    bad = _file(tmp_path, "bad.horn", "horn 3 1\n1 -> 9\n")
    code, _, err = run(["keys", bad])
    assert code == 2 and "error" in err
    assert run(["keys", str(tmp_path / "missing.horn")])[0] == 2
    # hypergraph with an empty-edge cannot even be written, so feed {∅} + dual
    empty_edge = _file(tmp_path, "degenerate.hg", "hg 3 1\n\n")
    assert run(["dual", empty_edge])[0] == 2


NAMED_PHI_HORN = "horn 4 6\nnames a b c d\n" + PHI_HORN.split("\n", 1)[1]


# main() reuses one parser within the process; no call may see another's options.
def test_parser_reuse_keeps_no_limit(run, tmp_path):
    f = _file(tmp_path, "phi.horn", PHI_HORN)
    assert run(["keys", f, "--limit", "1"]) == (0, "3 4\n", "")
    assert run(["keys", f]) == (0, "3 4\n2 3\n1 2\n", "")


def test_parser_reuse_keeps_no_output_flags(run, tmp_path):
    f = _file(tmp_path, "phi.horn", NAMED_PHI_HORN)
    code, out, _ = run(["keys", f, "--json", "--names"])
    assert code == 0 and _json_ok(out)["result"] == [["c", "d"], ["b", "c"], ["a", "b"]]
    assert run(["keys", f]) == (0, "3 4\n2 3\n1 2\n", "")
    assert run(["key-min", f, "--set", "1,2,3", "--names", "--json"])[0] == 0
    assert run(["key-min", f, "--set", "1,2,3"]) == (0, "2 3\n", "")


def test_parser_reuse_after_usage_error(run, tmp_path, capsys):
    f = _file(tmp_path, "phi.horn", PHI_HORN)
    for argv in (["key-min", f], ["keys", f, "--limit", "x"], ["no-such-verb"]):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        assert "usage: hornkeys" in capsys.readouterr().err
    assert run(["key-min", f, "--set", "1,2,3"]) == (0, "2 3\n", "")
    assert run(["keys", f]) == (0, "3 4\n2 3\n1 2\n", "")


@pytest.mark.parametrize("argv", [["--help"], ["keys", "--help"], ["oracle", "--help"]])
def test_parser_reuse_gives_the_same_help(capsys, argv):
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith("usage: hornkeys")


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()


GOLDEN_INPUTS = {
    "phi.horn": PHI_HORN,
    "wheel.tss": WHEEL_TSS,
    "path.hg": PATH_GRAPH,
    "k3.hg": "hg 3 3\n1 2\n1 3\n2 3\n",
    "chain.hg": CHAIN_HG,
    "fig.cnf": FIG_CNF,
    "small.horn": "horn 3 2\nnames a b c\n1 -> 2\n1 3 -> 2\n",
    "tiny.horn": "horn 2 1\n1 -> 2\n",
}

# Texts that the transformation verbs write, recorded byte for byte.
SMALL_TSS = (
    "tss 25 30\n"
    "names a b c p^C1 x^C1_a y^C1_a z^C1_a w^C1_a x^C1_b y^C1_b z^C1_b w^C1_b "
    "p^C2 x^C2_a y^C2_a z^C2_a w^C2_a x^C2_c y^C2_c z^C2_c w^C2_c "
    "x^C2_b y^C2_b z^C2_b w^C2_b\n"
    "e 1 5\ne 1 14\ne 2 12\ne 2 25\ne 3 18\ne 4 8\ne 4 9\ne 5 6\ne 5 7\ne 6 8\n"
    "e 7 8\ne 9 10\ne 9 11\ne 10 12\ne 11 12\ne 13 17\ne 13 21\ne 13 22\ne 14 15\n"
    "e 14 16\ne 15 17\ne 16 17\ne 18 19\ne 18 20\ne 19 21\ne 20 21\ne 22 23\n"
    "e 22 24\ne 23 25\ne 24 25\n"
    "t 1 1\nt 2 1\nt 3 1\nt 4 1\nt 5 1\nt 6 1\nt 7 1\nt 8 2\nt 9 1\nt 10 1\n"
    "t 11 1\nt 12 2\nt 13 2\nt 14 1\nt 15 1\nt 16 1\nt 17 2\nt 18 1\nt 19 1\n"
    "t 20 1\nt 21 2\nt 22 1\nt 23 1\nt 24 1\nt 25 2\n"
)
SMALL_ROLES = (
    "roles 3 25\n"
    "4 1 p 2\n5 1 x 1\n6 1 y 1\n7 1 z 1\n8 1 w 1\n9 1 xh 2\n10 1 yh 2\n11 1 zh 2\n"
    "12 1 wh 2\n13 2 p 2\n14 2 x 1\n15 2 y 1\n16 2 z 1\n17 2 w 1\n18 2 x 3\n"
    "19 2 y 3\n20 2 z 3\n21 2 w 3\n22 2 xh 2\n23 2 yh 2\n24 2 zh 2\n25 2 wh 2\n"
)
TINY_TSS = (
    "tss 11 12\n"
    "names 1 2 p^C1 x^C1_1 y^C1_1 z^C1_1 w^C1_1 x^C1_2 y^C1_2 z^C1_2 w^C1_2\n"
    "e 1 4\ne 2 11\ne 3 7\ne 3 8\ne 4 5\ne 4 6\ne 5 7\ne 6 7\ne 8 9\ne 8 10\n"
    "e 9 11\ne 10 11\n"
    "t 1 1\nt 2 1\nt 3 1\nt 4 1\nt 5 1\nt 6 1\nt 7 2\nt 8 1\nt 9 1\nt 10 1\n"
    "t 11 2\n"
)
TINY_ROLES = (
    "roles 2 11\n"
    "3 1 p 2\n4 1 x 1\n5 1 y 1\n6 1 z 1\n7 1 w 1\n8 1 xh 2\n9 1 yh 2\n10 1 zh 2\n"
    "11 1 wh 2\n"
)
FIG_GRAPH = (
    "hg 16 27\n"
    "names x1 nx1 y1 x2 nx2 y2 x3 nx3 y3 x4 nx4 y4 C1 C2 C3 z\n"
    "1 2\n1 3\n1 13\n2 3\n2 14\n4 5\n4 6\n4 13\n5 6\n5 14\n5 15\n7 8\n7 9\n"
    "8 9\n8 13\n8 15\n10 11\n10 12\n10 14\n11 12\n11 15\n13 14\n13 15\n13 16\n"
    "14 15\n14 16\n15 16\n"
)
WHEEL_PSI = (
    "horn 5 14\nnames a b c d e\n"
    "2 -> 1\n4 -> 1\n5 -> 1\n1 -> 2\n3 -> 2\n2 -> 3\n4 -> 3\n5 -> 3\n1 -> 4\n"
    "3 -> 4\n5 -> 4\n1 3 -> 5\n1 4 -> 5\n3 4 -> 5\n"
)
CHAIN_PHI = (
    "horn 4 6\nnames a b c d\n"
    "1 2 -> 3\n1 2 -> 4\n2 3 -> 1\n2 3 -> 4\n3 4 -> 1\n3 4 -> 2\n"
)


def _text_json(command, text):
    """The exact --json line of a verb whose result is one text."""
    return f'{{"command": "{command}", "result": {json.dumps(text)}, "witness": null, "stats": null}}\n'


def _horn2tss_json(tss, roles):
    return (
        f'{{"command": "horn2tss", "result": {{"tss": {json.dumps(tss)}, '
        f'"roles": {json.dumps(roles)}}}, "witness": null, "stats": null}}\n'
    )


# Exact stdout and exit code of verbs whose text and --json renderings
# share helpers, so any drift in either shape shows up byte for byte.
GOLDEN = [
    (
        ["unique-graph", "path.hg", "--json"],
        1,
        '{"command": "unique-graph", "result": false, "witness": '
        '{"kind": "no-individual-neighbor", "I": [1, 3], "v": 1}, "stats": null}\n',
    ),
    (
        ["unique-graph", "gadget.hg", "--json"],
        1,
        '{"command": "unique-graph", "result": false, "witness": '
        '{"kind": "no-individual-neighbor", "I": ["x1", "x2", "nx3", "x4", "z"], '
        '"v": "z"}, "stats": null}\n',
    ),
    (["unique-graph", "gadget.hg"], 1, "not unique\nI: x1 x2 nx3 x4 z\nv: z\n"),
    (
        ["unique-hg", "chain.hg", "--json"],
        1,
        '{"command": "unique-hg", "result": false, "witness": '
        '{"kind": "transversal-pair-missing", "T": ["a", "c"], "v": "d"}, "stats": null}\n',
    ),
    (["unique-hg", "chain.hg"], 1, "not unique\nT: a c\nv: d\n"),
    (
        ["keys", "phi.horn", "--json"],
        0,
        '{"command": "keys", "result": [[3, 4], [2, 3], [1, 2]], "witness": null, '
        '"stats": {"keys": 3, "candidates": 8, "closures": 24, '
        '"startup_closures": 12, "max_delay_closures": 8}}\n',
    ),
    (
        ["tss-enum", "wheel.tss", "--json", "--names"],
        0,
        '{"command": "tss-enum", "result": [["e"], ["d"], ["a"], ["b"], ["c"]], '
        '"witness": null, "stats": {"keys": 5, "candidates": 14, "closures": 22, '
        '"startup_closures": 11, "max_delay_closures": 3}}\n',
    ),
    (
        ["key-min", "phi.horn", "--set", "1,2,3", "--json"],
        0,
        '{"command": "key-min", "result": [2, 3], "witness": null, "stats": null}\n',
    ),
    (
        ["tss-min", "wheel.tss", "--json", "--names"],
        0,
        '{"command": "tss-min", "result": ["a"], "witness": null, "stats": null}\n',
    ),
    (["tss-min", "wheel.tss"], 0, "1\n"),
    (
        ["oracle", "minimal-keys", "phi.horn", "--json"],
        0,
        '{"command": "oracle", "result": [[1, 2], [2, 3], [3, 4]], "witness": null, '
        '"stats": null}\n',
    ),
    (["oracle", "minimal-keys", "phi.horn"], 0, "1 2\n2 3\n3 4\n"),
    (
        ["oracle", "minimal-tss", "wheel.tss", "--json"],
        0,
        '{"command": "oracle", "result": [[1], [2], [3], [4], [5]], "witness": null, '
        '"stats": null}\n',
    ),
    (
        ["oracle", "mis", "k3.hg", "--json"],
        0,
        '{"command": "oracle", "result": [[1], [2], [3]], "witness": null, "stats": null}\n',
    ),
    (
        ["oracle", "min-tss", "wheel.tss", "--json"],
        0,
        '{"command": "oracle", "result": [1], "witness": null, "stats": null}\n',
    ),
    (
        ["oracle", "closure", "phi.horn", "--set", "1,2", "--json"],
        0,
        '{"command": "oracle", "result": [1, 2, 3, 4], "witness": null, "stats": null}\n',
    ),
    (
        ["oracle", "unique-key", "chain.hg", "--json"],
        1,
        '{"command": "oracle", "result": false, "witness": null, "stats": null}\n',
    ),
    (["horn2tss", "small.horn", "--json"], 0, _horn2tss_json(SMALL_TSS, SMALL_ROLES)),
    (["horn2tss", "tiny.horn", "--json"], 0, _horn2tss_json(TINY_TSS, TINY_ROLES)),
    (["sat2graph", "fig.cnf"], 0, FIG_GRAPH),
    (["sat2graph", "fig.cnf", "--json"], 0, _text_json("sat2graph", FIG_GRAPH)),
    (["tss2horn", "wheel.tss"], 0, WHEEL_PSI),
    (["tss2horn", "wheel.tss", "--json"], 0, _text_json("tss2horn", WHEEL_PSI)),
    (["phi-b", "chain.hg"], 0, CHAIN_PHI),
    (["phi-b", "chain.hg", "--json"], 0, _text_json("phi-b", CHAIN_PHI)),
    (["dual", "chain.hg"], 0, "hg 4 3\nnames a b c d\n1 3\n2 3\n2 4\n"),
    (
        ["dual", "chain.hg", "--json"],
        0,
        '{"command": "dual", "result": [[1, 3], [2, 3], [2, 4]], "witness": null, "stats": null}\n',
    ),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(run, tmp_path, monkeypatch, argv, code, stdout):
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN_INPUTS.items():
        _file(tmp_path, name, text)
    assert run(["sat2graph", "fig.cnf", "-o", "gadget.hg"])[0] == 0
    got_code, out, _ = run(argv)
    assert (got_code, out) == (code, stdout)
    if "--json" in argv:
        _json_ok(out)


def test_golden_horn2tss_files(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _file(tmp_path, "small.horn", GOLDEN_INPUTS["small.horn"])
    assert run(["horn2tss", "small.horn", "-o", "g.tss"]) == (0, "", "")
    assert Path("g.tss").read_text() == SMALL_TSS
    assert Path("g.tss.roles").read_text() == SMALL_ROLES


def test_readme_example_session(tmp_path, monkeypatch, capsys):
    # Replays README's "Example session" through cli.main, one pipeline
    # stage at a time, and compares the transcript with the block.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Example session\n\n```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    _file(tmp_path, "chain.hg", CHAIN_HG)
    transcript, codes = "", []
    for command in (line[2:] for line in block.splitlines() if line.startswith("$ ")):
        transcript += f"$ {command}\n"
        out = ""
        for stage in command.split(" | "):
            argv = stage.split()
            if argv[0] == "cat":
                out = Path(argv[1]).read_text()
                continue
            assert argv[0] == "hornkeys", stage
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            codes.append(cli.main(argv[1:]))
            out, err = capsys.readouterr()
            assert err == "", stage
        transcript += out
    assert codes == [1, 0, 0]
    assert transcript == block


def test_installed_entry_point(tmp_path):
    f = tmp_path / "phi.horn"
    f.write_text(PHI_HORN)
    proc = subprocess.run(
        ["hornkeys", "keys", str(f), "--stats"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["3 4", "2 3", "1 2"]
    assert lines[3].startswith("# keys=3 ")
