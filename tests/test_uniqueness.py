"""Unique-key recognizers, witnesses, addable clauses, and the SAT gadget."""

import hashlib
import random

import pytest

import hornkeys as hk
from hornkeys.errors import ContractError, InputError
from hornkeys.oracles import (
    bf_satisfiable,
    bf_unique_key,
    graphic_matroid_cuts,
    random_general_cnf,
    random_graph,
    random_bipartite_graph,
    random_sperner,
)

A, B, C, D = range(4)


def test_chain_family_has_a_missing_pair(chain_family):
    ok, w = hk.is_unique_key_hypergraph(chain_family)
    assert not ok
    assert w.kind == "transversal-pair-missing"
    assert w.data == (frozenset({A, C}), D)
    assert hk.verify_witness(w, chain_family)


def test_star_family_is_unique_key(star_family):
    ok, w = hk.is_unique_key_hypergraph(star_family)
    assert ok and w is None


@pytest.mark.parametrize("k", [6, 7, 9])
def test_perfect_matchings_are_unique_key(k):
    matching = hk.sperner(2 * k, [{2 * i, 2 * i + 1} for i in range(k)])
    assert hk.is_unique_key_hypergraph(matching) == (True, None)


@pytest.mark.parametrize(
    "n, edges, witness",
    [
        # The path 0-1-2-3-4: only the last minimal transversal {1, 3} fails.
        (5, [{0, 1}, {1, 2}, {2, 3}, {3, 4}], ({1, 3}, 0)),
        # A matching plus {1, 2, 4}: {0, 2, 5} fails at 3, not at the lower 1.
        (6, [{0, 1}, {2, 3}, {4, 5}, {1, 2, 4}], ({0, 2, 5}, 3)),
    ],
)
def test_hypergraph_witness_is_the_first_failing_pair(n, edges, witness):
    b = hk.sperner(n, edges)
    ok, w = hk.is_unique_key_hypergraph(b)
    assert not ok
    assert w.data == (frozenset(witness[0]), witness[1])
    assert hk.verify_witness(w, b)


def test_tampered_witness_fails_verification(chain_family):
    bogus = hk.Witness("transversal-pair-missing", (frozenset({B, C}), D))
    assert not hk.verify_witness(bogus, chain_family)
    with pytest.raises(InputError):
        hk.Witness("nonsense-kind", ())


@pytest.mark.parametrize(
    "kind, data",
    [
        ("transversal-pair-missing", (frozenset({0, 2}), 99)),
        ("transversal-pair-missing", (frozenset({0, 2}), -1)),
        ("addable-clause", (frozenset({0}), 99)),
        ("addable-clause", (frozenset({0}), -1)),
        ("addable-clause", (frozenset({0, 9}), 1)),
        # Valid witnesses on the chain family with one id that is not a plain
        # int: ({1, 3}, 0) and ({0, 2}, 3) are missing pairs, and 1→3 and
        # 2→0 are addable clauses.
        ("transversal-pair-missing", (frozenset({1, 3}), False)),
        ("transversal-pair-missing", (frozenset({True, 3}), 0)),
        ("transversal-pair-missing", (frozenset({0, 2}), 3.0)),
        ("transversal-pair-missing", (frozenset({0, 2.0}), 3)),
        ("transversal-pair-missing", (frozenset({0, 2}), "3")),
        ("addable-clause", (frozenset({True}), 3)),
        ("addable-clause", (frozenset({2}), 0.0)),
        ("addable-clause", (frozenset({2}), "0")),
        # Data that is not a (vertex set, vertex) pair, for every kind.
        *(
            (kind, data)
            for kind in ("transversal-pair-missing", "no-individual-neighbor", "addable-clause")
            for data in [None, (), (frozenset({0, 2}),), (frozenset({0, 2}), 3, 0), [frozenset({0, 2}), 3]]
        ),
    ],
)
def test_witness_outside_the_universe_fails_verification(kind, data, chain_family):
    assert not hk.verify_witness(hk.Witness(kind, data), chain_family)


@pytest.mark.parametrize("container", [list, tuple])
def test_witness_vertex_set_must_be_a_set(container, chain_family):
    path = hk.graph(3, [(0, 1), (1, 2)])
    valid = [
        ("addable-clause", hk.addable_clauses(chain_family)[0], chain_family),
        ("no-individual-neighbor", ({0, 2}, 0), path),
    ]
    invalid = [
        ("addable-clause", ({0}, 2), hk.sperner(4, [{0, 1}, {2, 3}])),
        ("no-individual-neighbor", ({0, 2}, 0), hk.graph(4, [(0, 1), (2, 3)])),
    ]
    for kind, (s, v), obj in valid:
        assert hk.verify_witness(hk.Witness(kind, (frozenset(s), v)), obj)
    for kind, (s, v), obj in valid + invalid:
        assert not hk.verify_witness(hk.Witness(kind, (container(s), v)), obj)


def test_graph_witness_that_is_not_independent_fails_verification():
    # Maximal and without an individual neighbor for v, but holding an edge.
    triangle = hk.graph(3, [(0, 1), (0, 2), (1, 2)])
    assert not hk.verify_witness(hk.Witness("no-individual-neighbor", ({0, 1, 2}, 0)), triangle)
    path = hk.graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not hk.verify_witness(hk.Witness("no-individual-neighbor", ({0, 1, 3}, 0)), path)


def test_graph_witness_outside_the_universe_fails_verification():
    matching = hk.graph(4, [(0, 1), (2, 3)])
    for data in [(frozenset({0, 2, 7}), 7), (frozenset({0, 2, -1}), 0)]:
        assert not hk.verify_witness(hk.Witness("no-individual-neighbor", data), matching)
    path = hk.graph(3, [(0, 1), (1, 2)])
    assert hk.verify_witness(hk.Witness("no-individual-neighbor", (frozenset({0, 2}), 0)), path)
    # The same witness with an id that is not a plain int, or not as a pair.
    for data in [
        (frozenset({0, 2}), False),
        (frozenset({0, 2}), 0.0),
        (frozenset({0, 2}), "0"),
        (frozenset({0.0, 2}), 0),
        None,
        (frozenset({0, 2}),),
        (frozenset({0, 2}), 0, 0),
        [frozenset({0, 2}), 0],
    ]:
        assert not hk.verify_witness(hk.Witness("no-individual-neighbor", data), path)


def test_recognizer_rejects_degenerate_families():
    with pytest.raises(InputError):
        hk.is_unique_key_hypergraph(hk.sperner(3, []))
    with pytest.raises(InputError):
        hk.is_unique_key_hypergraph(hk.sperner(3, [set()]))
    with pytest.raises(InputError):
        hk.addable_clauses(hk.sperner(3, []))


def test_addable_clauses_worked_examples(chain_family, star_family):
    got = hk.addable_clauses(chain_family)
    assert got == [(frozenset({B}), D), (frozenset({C}), A)]
    assert hk.addable_clauses(star_family) == []


def test_addable_clauses_are_witnesses(chain_family):
    for a, v in hk.addable_clauses(chain_family):
        assert hk.verify_witness(hk.Witness("addable-clause", (a, v)), chain_family)


def test_adding_addable_clauses_preserves_keys(chain_family):
    phi = hk.key_horn_cnf(chain_family)
    addable = hk.addable_clauses(chain_family)
    for a, v in addable:
        bigger = hk.HornCNF(phi.universe, list(phi.clauses) + [hk.HornClause(a, v)])
        assert set(hk.iter_minimal_keys(bigger)) == set(chain_family.edges)
    both = hk.HornCNF(
        phi.universe,
        list(phi.clauses) + [hk.HornClause(a, v) for a, v in addable],
    )
    assert set(hk.iter_minimal_keys(both)) == set(chain_family.edges)


def test_non_addable_clause_changes_keys(chain_family):
    # d→a is neither implied nor addable; adding it must disturb the key set
    phi = hk.key_horn_cnf(chain_family)
    assert not hk.is_implicate(phi, {D}, A)
    assert (frozenset({D}), A) not in hk.addable_clauses(chain_family)
    bigger = hk.HornCNF(phi.universe, list(phi.clauses) + [hk.HornClause(frozenset({D}), A)])
    assert set(hk.iter_minimal_keys(bigger)) != set(chain_family.edges)


def test_recognizers_agree_on_random_families():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(2, 9)
        h = random_sperner(rng.randrange(2**32), n, rng.randint(1, 5))
        if not h.edges or not all(h.edges):
            continue
        ok, w = hk.is_unique_key_hypergraph(h)
        assert ok == (not hk.addable_clauses(h))
        assert ok == bf_unique_key(h)
        if w is not None:
            assert hk.verify_witness(w, h)


def test_graph_recognizer_worked_examples():
    matching = hk.graph(4, [(0, 1), (2, 3)])
    assert hk.is_unique_key_graph(matching) == (True, None)
    triangle = hk.graph(3, [(0, 1), (0, 2), (1, 2)])
    assert hk.is_unique_key_graph(triangle)[0]
    path = hk.graph(3, [(0, 1), (1, 2)])
    ok, w = hk.is_unique_key_graph(path)
    assert not ok
    assert w.kind == "no-individual-neighbor"
    assert w.data == (frozenset({0, 2}), 0)
    assert hk.verify_witness(w, path)


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("recognizer", [hk.is_unique_key_graph, hk.is_unique_key_bipartite])
def test_graph_recognizers_refuse_an_edgeless_graph(recognizer, n):
    # as is_unique_key_hypergraph and bf_unique_key do; graph(0, []) used to
    # answer (True, None) and graph(3, []) named the witness ({0, 1, 2}, 0)
    with pytest.raises(InputError, match="^recognizer requires a graph with at least one edge$"):
        recognizer(hk.graph(n, []))
    # the hypergraph recognizer keeps naming a hypergraph
    with pytest.raises(InputError, match="^recognizer requires a hypergraph with at least one"):
        hk.is_unique_key_hypergraph(hk.sperner(n, []))


@pytest.mark.parametrize("n", [2.5, True])
def test_general_cnf_size_must_be_an_int(n):
    with pytest.raises(InputError, match=r"^variable count must be an int, got "):
        hk.GeneralCNF(n, ((1,),))


def test_graph_recognizer_matches_hypergraph_recognizer():
    rng = random.Random(22)
    for _ in range(150):
        n = rng.randint(2, 8)
        g = random_graph(rng.randrange(2**32), n, rng.random())
        if not g.edges:
            continue
        assert hk.is_unique_key_graph(g)[0] == hk.is_unique_key_hypergraph(g.as_hypergraph())[0]


def test_bipartite_fast_path():
    assert hk.is_unique_key_bipartite(hk.graph(4, [(0, 1), (2, 3)]))
    assert not hk.is_unique_key_bipartite(hk.graph(3, [(0, 1), (1, 2)]))
    c4 = hk.graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not hk.is_unique_key_bipartite(c4)
    # non-bipartite input falls back to the general checker
    assert hk.is_unique_key_bipartite(hk.graph(3, [(0, 1), (0, 2), (1, 2)]))


def test_bipartite_matches_general_on_random_bipartite_graphs():
    rng = random.Random(23)
    for _ in range(120):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        g = random_bipartite_graph(rng.randrange(2**32), a, b, rng.random())
        assert hk.is_unique_key_bipartite(g) == hk.is_unique_key_graph(g)[0]


def test_sat_gadget_shape(sat_cnf):
    g = hk.build_sat_graph(sat_cnf)
    n, m = sat_cnf.n, sat_cnf.m
    assert g.n == 3 * n + m + 1
    assert len(g.edges) == 3 * n + (m + 1) * m // 2 + sum(len(c) for c in sat_cnf.clauses)
    labels = [g.universe.name(v) for v in range(g.n)]
    assert labels[:6] == ["x1", "nx1", "y1", "x2", "nx2", "y2"]
    assert labels[3 * n :] == [f"C{j}" for j in range(1, m + 1)] + ["z"]
    # C_j is adjacent to exactly its literal vertices plus the clique
    c1 = 3 * n
    lit_neighbors = sorted(g.neighbors(c1) - set(range(3 * n, g.n)))
    assert lit_neighbors == [0, 3, 7]  # x1, x2, nx3


def test_sat_gadget_decides_satisfiability(sat_cnf):
    g = hk.build_sat_graph(sat_cnf)
    ok, w = hk.is_unique_key_graph(g)
    assert not ok  # the formula is satisfiable
    i, v = w.data
    z = g.n - 1
    assert v == z and z in i
    assert hk.verify_witness(w, g)

    unsat = hk.GeneralCNF(1, ((1,), (-1,)))
    assert hk.is_unique_key_graph(hk.build_sat_graph(unsat)) == (True, None)


def test_sat_gadget_mis_all_have_size_n_plus_one(sat_cnf):
    g = hk.build_sat_graph(sat_cnf)
    for i in hk.maximal_independent_sets(g):
        assert len(i) == sat_cnf.n + 1


def test_sat_gadget_matches_brute_force_satisfiability():
    rng = random.Random(24)
    for _ in range(60):
        n = rng.randint(1, 4)
        cnf = random_general_cnf(rng.randrange(2**32), n, rng.randint(1, 4))
        g = hk.build_sat_graph(cnf)
        assert hk.is_unique_key_graph(g)[0] == (not bf_satisfiable(cnf))


def test_sat_gadget_rejects_empty_clause():
    with pytest.raises(InputError):
        hk.build_sat_graph(hk.GeneralCNF(2, ((1, -2), ())))


def test_bond_hypergraphs_are_unique_key():
    for edges in ([(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2), (2, 3)]):
        g = hk.graph(max(max(e) for e in edges) + 1, edges)
        bonds = graphic_matroid_cuts(g)
        ok, w = hk.is_unique_key_hypergraph(bonds)
        assert ok and w is None


# sha256 of the ordered MIS lists and the (verdict, witness) of is_unique_key_graph
# on each case below, recorded before the generator was rewritten on bitmasks.
# An edgeless graph, which the recognizer refuses, records (None, None); the
# four random digests were recomputed with that rule on the accepting code too.
MIS_DIGESTS = {
    ("random", 0.1): "ed4cba352fc40cdf3c6eddaf7e86819d02e2cc8603c8b9fff9b7fb35a6daee19",
    ("random", 0.3): "c58dd18de57e25e07ed1ece583504ef4a7ef8ae5f85cf0470f1be21bc4e2ae22",
    ("random", 0.5): "d32f9993404a65ca1505295dffeabf6effe76e54601885a650abd454b8a5bfac",
    ("random", 0.7): "246bfb1ddb5591a022f55e0c0d3f062a795f1974e9ad26ddeead52eae1d96956",
    ("gadget", 0): "f1eaf238eed94fb710e0b67aa437dd25da9466ddd9f71092485338f1f0c02167",
    ("gadget", 1): "ecbeadfba15443ca0cce1dcd0d8c6215249cba43dc36c7efee0e29b256082b41",
    ("gadget", 2): "fad63b667f5bbc334b574505c36cd2cc93e2b58ccf1c3659a4948f725da0ccc9",
    ("gadget", 3): "5e13db06724d0e6b7a7ca5e42b193e2208b1b369063fa67efc38dab430f247a9",
    ("k35_35", 0): "b8db0c7629bcf7fd188ef677a0b5671299d091db2bf547f6e511161c5f25a091",
}


def _mis_cases(kind, arg):
    if kind == "random":
        return [random_graph(seed, n, arg) for n in range(1, 17) for seed in range(3)]
    if kind == "gadget":
        # Satisfiable and unsatisfiable formulas, so both verdicts occur.
        return [hk.build_sat_graph(random_general_cnf(1000 + arg, 3, m)) for m in (4, 8, 12)]
    return [hk.graph(70, [(u, v) for u in range(35) for v in range(35, 70)])]


@pytest.mark.parametrize(
    "kind, arg", list(MIS_DIGESTS), ids=[f"{k}{a}" for k, a in MIS_DIGESTS]
)
def test_mis_order_and_graph_witnesses_are_unchanged(kind, arg):
    record = []
    for g in _mis_cases(kind, arg):
        if not g.edges:
            # The recognizer refuses an edgeless graph; its MIS still counts.
            with pytest.raises(InputError, match="at least one edge"):
                hk.is_unique_key_graph(g)
            ok, witness = None, None
        else:
            ok, w = hk.is_unique_key_graph(g)
            witness = None if w is None else (sorted(w.data[0]), w.data[1])
        record.append(([sorted(i) for i in hk.maximal_independent_sets(g)], ok, witness))
    assert hashlib.sha256(repr(record).encode()).hexdigest() == MIS_DIGESTS[kind, arg]
