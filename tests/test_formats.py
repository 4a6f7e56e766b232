"""Text formats: round trips and line-numbered rejection of malformed input."""

import hashlib
import random
import time

import pytest

import hornkeys as hk
from hornkeys.errors import InputError
from hornkeys.formats import (
    parse_general_cnf,
    parse_graph,
    parse_horn,
    parse_hypergraph,
    parse_roles,
    parse_tss,
    serialize_general_cnf,
    serialize_graph,
    serialize_horn,
    serialize_hypergraph,
    serialize_roles,
    serialize_tss,
)
from hornkeys.oracles import (
    random_general_cnf,
    random_horn_cnf,
    random_sperner,
    random_threshold_graph,
)


def test_horn_round_trip(intro_cnf):
    text = serialize_horn(intro_cnf)
    lines = text.splitlines()
    assert lines[0] == "horn 5 4"
    assert lines[1] == "names a b c d e"
    assert lines[2] == "1 -> 2"
    assert parse_horn(text) == intro_cnf
    # serialization is a fixed point
    assert serialize_horn(parse_horn(text)) == text


# sha256 of serialize_horn(random_horn_cnf(seed, n, m, max_body)), recorded
# before the serializer and the generator were rewritten for speed: both
# must keep every byte, and the generator every draw.  The cases include
# n = 0, n = 1 (whose only clause body is empty), m = 0 and max_body = 1.
HORN_TEXT_DIGESTS = {
    (0, 0, 0, 3): "e9eb77c654def6ec94265d3ae34642260b942479d09bff0175b45550ba23f7dd",
    (1, 1, 3, 3): "cea54f04c7d72b60c3e789a54a6f3e8196c5b3e46cc6672e8bdb39945078b940",
    (2, 5, 0, 3): "11fc87091c5dcec8a85b9d330403bb491e634502209fcacd6d1397ff88eced3a",
    (3, 8, 12, 1): "de2784da919c0757d6eea01eaf84924cd213c25c326007184b84aed11a73043e",
    (4, 16, 40, 3): "445a75a75f915741a81811df62755bfcbe6486df4cd53fa19b18b04a269a6672",
    (5, 36, 108, 3): "6c5eff2344ca79df4786d888cc43276d96751b9ecc1fed99b39b6ab779955968",
    (6, 12, 30, 6): "01ed5819df73f28d59207ac6d326b77444cdf187942356fb8232efb5652a27ab",
}


@pytest.mark.parametrize("case", list(HORN_TEXT_DIGESTS), ids=lambda case: "-".join(map(str, case)))
def test_generated_horn_text_is_unchanged(case):
    text = serialize_horn(random_horn_cnf(*case))
    assert hashlib.sha256(text.encode()).hexdigest() == HORN_TEXT_DIGESTS[case]


def test_horn_text_with_names_and_a_unit_clause():
    cnf = hk.horn_cnf(
        5,
        [({0}, 1), ({1}, 0), ({0, 2}, 3), ({0, 2}, 4), (set(), 2)],
        labels=("a", "b", "c", "d", "e"),
    )
    assert serialize_horn(cnf) == (
        "horn 5 5\nnames a b c d e\n1 -> 2\n2 -> 1\n1 3 -> 4\n1 3 -> 5\n-> 3\n"
    )


def test_horn_without_names():
    cnf = hk.horn_cnf(3, [({0, 1}, 2), (set(), 0)])
    text = serialize_horn(cnf)
    assert "names" not in text
    assert "-> 1" in text.splitlines()[-1] or "-> 1" in text  # empty body line
    assert parse_horn(text) == cnf


def test_horn_comments_and_blanks():
    text = """
    # a comment
    horn 3 2   # trailing comment

    1 2 -> 3
    -> 1
    """
    cnf = parse_horn(text)
    assert len(cnf.clauses) == 2
    assert cnf.clauses[1].body == frozenset()


@pytest.mark.parametrize(
    "bad",
    [
        "",  # no header
        "horn 3",  # short header
        "hg 3 1\n1 2",  # wrong magic
        "horn 3 1\n1 -> 2 -> 3",  # two arrows
        "horn 3 1\n1 -> 2 3",  # two heads
        "horn 3 1\n1 ->",  # no head
        "horn 3 1\n1 2 -> 2",  # head in body
        "horn 3 1\n1 -> 4",  # head out of range
        "horn 3 1\n0 -> 1",  # ids are 1-based
        "horn 3 2\n1 -> 2",  # count mismatch
        "horn 3 1\nnames a b\n1 -> 2",  # wrong name count
        "horn 3 1\nx -> 2",  # not an integer
    ],
)
def test_horn_rejects_malformed(bad):
    with pytest.raises(InputError):
        parse_horn(bad)


def test_horn_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 3"):
        parse_horn("horn 3 2\n1 -> 2\n1 -> 9")


def test_hypergraph_round_trip(chain_family, star_family):
    text = serialize_hypergraph(chain_family)
    assert text.splitlines()[0] == "hg 4 3"
    assert parse_hypergraph(text) == chain_family
    assert parse_hypergraph(serialize_hypergraph(star_family)) == star_family


def test_hypergraph_rejects_bad_input():
    with pytest.raises(InputError, match="line 3"):
        parse_hypergraph("hg 3 2\n1 2\n1 2 3")  # not an antichain
    with pytest.raises(InputError):
        parse_hypergraph("hg 3 2\n1 2\n1 2")  # duplicate edge
    with pytest.raises(InputError):
        parse_hypergraph("hg 3 1\n1 1")  # repeated vertex
    with pytest.raises(InputError):
        serialize_hypergraph(hk.sperner(3, [set()]))  # ∅ has no text form


@pytest.mark.parametrize(
    "text, message",
    [
        ("hg 3 2\n1 2\n1 2 3", "line 2: edge is contained in the edge at line 3 (not an antichain)"),
        # Line 4 lies in lines 2 and 5, and line 6 in lines 3 and 5.
        (
            "hg 4 5\n1 2 3\n3 4\n1 2\n1 2 4\n4\n",
            "line 4: edge is contained in the edge at line 2 (not an antichain)",
        ),
        # The antichain error comes before the one for the repeated label.
        (
            "hg 3 2\nnames a b a\n2\n2 3\n",
            "line 3: edge is contained in the edge at line 4 (not an antichain)",
        ),
        ("hg 3 2\nnames a b a\n1\n2 3\n", "labels must be pairwise distinct"),
    ],
)
def test_hypergraph_errors_name_the_first_fault(text, message):
    with pytest.raises(InputError) as e:
        parse_hypergraph(text)
    assert str(e.value) == message


@pytest.mark.parametrize("parse", [parse_hypergraph, parse_graph])
def test_duplicate_edge_names_its_first_line(parse):
    text = "hg 6 5\n1 2\n3 4\n5 6\n2 3\n2 1\n"  # line 6 repeats line 2 reversed
    with pytest.raises(InputError) as e:
        parse(text)
    assert str(e.value) == "line 6: duplicate of edge at line 2"


def test_graph_round_trip():
    g = hk.graph(4, [(0, 1), (2, 3)], labels=("p", "q", "r", "s"))
    text = serialize_graph(g)
    assert text.splitlines()[0] == "hg 4 2"
    assert text.splitlines()[1] == "names p q r s"
    assert parse_graph(text) == g
    with pytest.raises(InputError):
        parse_graph("hg 3 1\n1 2 3")  # arity 3 is not a graph edge


def test_tss_round_trip(wheel_tss):
    text = serialize_tss(wheel_tss)
    lines = text.splitlines()
    assert lines[0] == "tss 5 7"
    assert lines[1] == "names a b c d e"
    assert lines[2].startswith("e ") and lines[-1] == "t 5 2"
    assert parse_tss(text) == wheel_tss


def test_tss_accepts_interleaved_lines():
    text = "tss 2 1\nt 1 1\ne 1 2\nt 2 1"
    tg = parse_tss(text)
    assert tg.thresholds == (1, 1)
    assert tg.graph.edges == ((0, 1),)


@pytest.mark.parametrize(
    "bad",
    [
        "tss 2 1\ne 1 1\nt 1 1\nt 2 1",  # self loop
        "tss 2 2\ne 1 2\ne 2 1\nt 1 1\nt 2 1",  # parallel edge
        "tss 2 1\ne 1 2\nt 1 1",  # missing threshold
        "tss 2 1\ne 1 2\nt 1 1\nt 1 1\nt 2 1",  # doubled threshold
        "tss 2 1\ne 1 2\nt 1 0\nt 2 1",  # threshold 0
        "tss 2 0\nq 1 2",  # unknown line kind
        "tss 2 2\ne 1 2\nt 1 1\nt 2 1",  # edge count mismatch
    ],
)
def test_tss_rejects_malformed(bad):
    with pytest.raises(InputError):
        parse_tss(bad)


def test_general_cnf_round_trip(sat_cnf):
    text = serialize_general_cnf(sat_cnf)
    assert text.splitlines()[0] == "cnf 4 3"
    assert text.splitlines()[1] == "1 2 -3"
    assert parse_general_cnf(text) == sat_cnf
    for seed in range(20):
        cnf = random_general_cnf(seed, 1 + seed % 6, seed % 9, 4)
        assert parse_general_cnf(serialize_general_cnf(cnf)) == cnf
    with pytest.raises(InputError):
        parse_general_cnf("cnf 2 1\n1 3")
    with pytest.raises(InputError):
        parse_general_cnf("cnf 2 1\n1 0")
    with pytest.raises(InputError):
        serialize_general_cnf(hk.GeneralCNF(2, ((),)))


@pytest.mark.parametrize("lit", [True, False, 1.0, "1", None])
def test_general_cnf_literals_must_be_ints(lit):
    # a bool used to build, serialize as `True` and then fail to parse
    with pytest.raises(InputError, match=r"^clause 2: literal must be an int, got "):
        hk.GeneralCNF(2, ((1,), (lit, -2)))


def test_roles_round_trip(intro_cnf):
    tg, roles = hk.horn_to_tss(intro_cnf)
    text = serialize_roles(roles)
    assert text.splitlines()[0] == f"roles {roles.n_original} {roles.n_total}"
    back = parse_roles(text)
    assert back == roles
    # lifting through the parsed copy behaves identically
    full = frozenset(range(tg.n))
    assert hk.lift_target_set_to_key(intro_cnf, back, full, tg=tg) == hk.lift_target_set_to_key(
        intro_cnf, roles, full, tg=tg
    )


def test_roles_rejects_malformed():
    with pytest.raises(InputError, match="^line 2: unknown role 'q'$"):
        parse_roles("roles 2 4\n3 1 q 1\n4 1 p 1")
    with pytest.raises(InputError, match=r"^missing role entries for vertices \[4\]$"):
        parse_roles("roles 2 4\n3 1 p 1")
    with pytest.raises(InputError, match=r"^missing role entries for vertices \[2, 3\]$"):
        parse_roles("roles 1 3\n")
    with pytest.raises(InputError, match="^line 3: duplicate entry for vertex 3$"):
        parse_roles("roles 2 4\n3 1 p 1\n3 1 p 1\n4 1 p 1")
    with pytest.raises(InputError, match="^line 2: vertex 2 outside the gadget range$"):
        parse_roles("roles 2 3\n2 1 p 1")  # vertex 2 is an original one
    with pytest.raises(InputError, match="^line 2: vertex 4 outside the gadget range$"):
        parse_roles("roles 2 3\n4 1 p 1")
    with pytest.raises(InputError, match="^line 2: clause index 0 "):
        parse_roles("roles 2 3\n3 0 p 2")  # clause ids start at 1
    with pytest.raises(InputError, match="^line 2: variable id 0 "):
        parse_roles("roles 2 3\n3 1 p 0")  # variable ids start at 1
    with pytest.raises(InputError, match="^line 3: variable id 3 "):
        parse_roles("roles 2 4\n3 1 p 1\n4 1 x 3")  # only 2 original variables


def test_roles_header_refuses_fewer_vertices_than_originals():
    # used to build a role map with an empty gadget range, which no
    # horn_to_tss output can have
    with pytest.raises(InputError, match=r"^roles header: n_total 1 is below n_original 3$"):
        parse_roles("roles 3 1\n")
    assert parse_roles("roles 3 3\n") == hk.RoleMap(3, ())


@pytest.mark.parametrize(
    "parse, magic",
    [
        (parse_horn, "horn"),
        (parse_hypergraph, "hg"),
        (parse_tss, "tss"),
        (parse_general_cnf, "cnf"),
        (parse_roles, "roles"),
    ],
)
@pytest.mark.parametrize("counts", ["-1 0", "2 -1"])
def test_a_negative_header_count_is_refused(parse, magic, counts):
    # `horn 2 -1` used to read as "expected -1 clause lines, found 0", and
    # `roles -1 0` named a missing entry for vertex 0, which cannot exist.
    with pytest.raises(InputError) as err:
        parse(f"# comment\n{magic} {counts}\n")
    assert str(err.value) == "line 2: header count must be nonnegative, got -1"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_tss, "tss 2000000 0\n", "missing threshold for vertices [1, 2, 3, 4, 5] and 1999995 more"),
        (parse_roles, "roles 0 2000000\n", "missing role entries for vertices [1, 2, 3, 4, 5] and 1999995 more"),
        (parse_tss, "tss 7 0\nt 3 1\nt 5 1\n", "missing threshold for vertices [1, 2, 4, 6, 7]"),
        (parse_roles, "roles 1 9\n3 1 p 1\n", "missing role entries for vertices [2, 4, 5, 6, 7] and 2 more"),
    ],
    ids=["tss-2000000", "roles-2000000", "tss-five-missing", "roles-seven-missing"],
)
def test_header_counts_cause_no_work_of_their_own(parse, text, message):
    # A header declaring 2,000,000 vertices and no records used to build a
    # per-vertex list and a 16.9 MB message listing every missing id.
    with pytest.raises(InputError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_horn, "horn 10000000 0\n"),
        (parse_horn, "horn 10000000 1\n1 -> 2\n"),
        (parse_hypergraph, "hg 10000000 0\n"),
        (parse_horn, "horn 1000000 0\n#" + "x" * 1_000_000 + "\n"),
    ],
    ids=["horn-no-clauses", "horn-one-clause", "hg-no-edges", "horn-long-comment"],
)
def test_a_huge_header_count_alone_is_cheap(parse, text):
    # parse_horn reads ids through a table of the n id strings; a table of
    # millions of entries would take seconds, so it is built only when there
    # are at least n clause lines, and these lines take the checked path.
    start = time.perf_counter()
    value = parse(text)
    assert time.perf_counter() - start < 0.05
    assert value.n == int(text.split()[1])


@pytest.mark.parametrize(
    "line, body, head",
    [
        ("01 -> 2", {0}, 1),
        ("+2 -> 1", {1}, 0),
        ("\u0661 -> 2", {0}, 1),  # ARABIC-INDIC DIGIT ONE
        ("1 -> 03", {0}, 2),
        ("1 3 -> 002", {0, 2}, 1),
        ("3 1_0 -> 1", {2, 9}, 0),
    ],
)
def test_numerals_off_the_id_table_read_as_int_reads_them(line, body, head):
    text = f"horn 12 2\n1 -> 2\n{line}\n"
    assert parse_horn(text) == hk.horn_cnf(12, [({0}, 1), (body, head)])


# The messages of the parser before ids were read through a table.
@pytest.mark.parametrize(
    "text, message",
    [
        ("horn 3 1\n1 2 3", "line 2: clause needs exactly one `->`"),
        ("horn 3 1\n1 -> 2 -> 3", "line 2: clause needs exactly one `->`"),
        ("horn 3 1\n-> -> 1", "line 2: clause needs exactly one `->`"),
        ("horn 3 1\n1 -> 2 3", "line 2: exactly one head id must follow `->`"),
        ("horn 3 1\n1 ->", "line 2: exactly one head id must follow `->`"),
        ("horn 3 1\n->", "line 2: exactly one head id must follow `->`"),
        ("horn 3 1\n0 -> 1", "line 2: vertex id 0 outside 1..3"),
        ("horn 3 1\n1 -> 4", "line 2: vertex id 4 outside 1..3"),
        ("horn 3 1\n-1 -> 2", "line 2: vertex id -1 outside 1..3"),
        ("horn 3 1\nx -> 2", "line 2: expected a vertex id, got 'x'"),
        ("horn 3 1\n1 -> x", "line 2: expected a vertex id, got 'x'"),
        ("horn 3 1\n1.5 -> 2", "line 2: expected a vertex id, got '1.5'"),
        ("horn 3 1\n1 2 -> 2", "line 2: head occurs in the body (tautology)"),
        ("horn 3 1\n02 -> 2", "line 2: head occurs in the body (tautology)"),
        ("horn 3 2\n1 -> 2", "expected 2 clause lines, found 1"),
        ("horn 3 2\n1 -> 2\n1 -> 2 ->", "line 3: clause needs exactly one `->`"),
    ],
)
def test_horn_messages_are_unchanged_by_the_id_table(text, message):
    with pytest.raises(InputError) as err:
        parse_horn(text)
    assert str(err.value) == message


def test_random_round_trips():
    rng = random.Random(61)
    for _ in range(60):
        seed = rng.randrange(2**32)
        cnf = random_horn_cnf(seed, rng.randint(1, 9), rng.randint(0, 10))
        assert parse_horn(serialize_horn(cnf)) == cnf
        h = random_sperner(seed, rng.randint(1, 9), rng.randint(1, 5))
        if all(h.edges):
            assert parse_hypergraph(serialize_hypergraph(h)) == h
        tg = random_threshold_graph(seed, rng.randint(1, 8), rng.random(), tmax=3)
        assert parse_tss(serialize_tss(tg)) == tg


def test_labels_must_be_writable():
    cnf = hk.horn_cnf(2, [({0}, 1)], labels=("a b", "c"))  # space inside a label
    with pytest.raises(InputError):
        serialize_horn(cnf)


@pytest.mark.parametrize("label", ["", " ", "a b", "\t", "a\u00a0", "\x1c", "\u2028", "#", "a#b"])
def test_the_first_unwritable_label_is_named(label):
    # "ok" is writable and "x y" is not, so the error must name ``label``
    message = f"label {label!r} cannot be written to a text format"
    for labels in [("ok", label), ("ok", label, "x y")]:
        g = hk.graph(len(labels), [(0, 1)], labels=labels)
        with pytest.raises(InputError) as exc:
            serialize_graph(g)
        assert str(exc.value) == message
        with pytest.raises(InputError) as exc:
            serialize_tss(hk.ThresholdGraph(g, [1] * len(labels)))
        assert str(exc.value) == message
