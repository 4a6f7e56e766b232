"""Sperner families, dualization, graphs, maximal independent sets."""

import random

import pytest

import hornkeys as hk
from hornkeys.errors import InputError, ResourceGuardError
from hornkeys.oracles import (
    bf_maximal_independent_sets,
    bf_minimal_transversals,
    random_graph,
    random_sperner,
)

A, B, C, D = range(4)


def _edge_set(h):
    return {tuple(sorted(e)) for e in h.edges}


def test_sperner_validation():
    hk.sperner(3, [{0, 1}, {1, 2}])
    with pytest.raises(InputError):
        hk.sperner(3, [{0}, {0, 1}])  # comparable pair
    with pytest.raises(InputError):
        hk.sperner(2, [{0, 2}])
    # repeated edges collapse to one
    assert hk.sperner(3, [{0, 1}, {0, 1}]).edges == (frozenset({0, 1}),)
    assert hk.check_sperner([{0, 1}, {1, 2}, {2, 3}])
    assert not hk.check_sperner([{0, 1}, {0, 1, 2}])
    assert hk.check_sperner([])


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[-1]], "variable index must be a nonnegative int, got -1"),
        ([[0], [2, -3]], "variable index must be a nonnegative int, got -3"),
        ([["a"]], "variable index must be a nonnegative int, got 'a'"),
        ([[True]], "variable index must be a nonnegative int, got True"),
        ([[1.0]], "variable index must be a nonnegative int, got 1.0"),
    ],
)
def test_check_sperner_refuses_bad_ids(edges, message):
    # A negative id used to raise a raw ValueError, a string a raw TypeError.
    with pytest.raises(InputError) as info:
        hk.check_sperner(edges)
    assert str(info.value) == message


def test_check_sperner_takes_large_ids():
    # Ids get bits in order of appearance, so no mask is 10**30 bits long.
    assert hk.check_sperner([[10**30], [0, 5]])
    assert not hk.check_sperner([[10**30], [10**30, 1]])


@pytest.mark.parametrize(
    "edges, message",
    [
        ([{0, 1, 2}, {0}, {1, 2}, {1}, {3}], "edge [0] is contained in edge [0, 1, 2]"),
        ([{2, 3}, {1, 2, 3}, {0, 1, 2, 3}, {3}], "edge [1, 2, 3] is contained in edge [0, 1, 2, 3]"),
        ([{0, 4}, {1, 2}, {0, 1, 2, 4}, {4}], "edge [0, 4] is contained in edge [0, 1, 2, 4]"),
        ([{1, 3}, {0, 1, 2, 3}, {0, 1}, {3}], "edge [0, 1] is contained in edge [0, 1, 2, 3]"),
        ([set(), {0}], "edge [] is contained in edge [0]"),
        # [0, 1, 2] ⊃ [2] comes first, but [0, 3] is the first contained edge
        ([{0, 3}, {0, 3, 4}, {2}, {0, 1, 2}], "edge [0, 3] is contained in edge [0, 3, 4]"),
        ([{1, 3}, {1}, {0, 1, 2}], "edge [1] is contained in edge [0, 1, 2]"),
    ],
)
def test_antichain_error_names_the_first_contained_edge(edges, message):
    # the first edge in canonical order lying inside another, and the first such other
    with pytest.raises(InputError) as err:
        hk.sperner(5, edges)
    assert str(err.value) == "not an antichain: " + message


def test_empty_edge_and_empty_family_are_representable():
    assert hk.sperner(3, []).edges == ()
    assert hk.sperner(3, [set()]).edges == (frozenset(),)
    with pytest.raises(InputError):
        hk.sperner(3, [set(), {0}])  # ∅ absorbs everything else


def test_canonical_edge_order():
    h = hk.sperner(4, [{2, 3}, {0, 3}, {1}])
    assert [sorted(e) for e in h.edges] == [[0, 3], [1], [2, 3]]


def test_minimalize():
    h = hk.minimalize(4, [{0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 1}])
    assert _edge_set(h) == {(0, 1), (1, 2, 3)}
    assert _edge_set(hk.minimalize(3, [{0}, {0, 1}, {1}])) == {(0,), (1,)}
    assert hk.minimalize(3, []).edges == ()
    assert hk.minimalize(3, [{0, 1}, set()]).edges == (frozenset(),)
    # antichains are fixed points
    assert hk.minimalize(4, [{0, 1}, {1, 2}]) == hk.sperner(4, [{0, 1}, {1, 2}])


def test_restrict_and_project(chain_family):
    r = hk.restrict(chain_family, {A, B, C})
    assert _edge_set(r) == {(A, B), (B, C)}
    full = frozenset(range(4))
    assert hk.restrict(chain_family, full) == chain_family
    assert hk.project(chain_family, full) == chain_family
    # traces ab,bc,c minimalize to {ab, c}; bd hits every edge so its traces
    # are the singletons
    assert _edge_set(hk.project(chain_family, {A, B, C})) == {(A, B), (C,)}
    assert _edge_set(hk.project(chain_family, {B, D})) == {(B,), (D,)}
    # projecting onto a non-transversal gives the {∅} family
    assert hk.project(chain_family, {A}).edges == (frozenset(),)
    assert hk.project(chain_family, {A, D}).edges == (frozenset(),)
    assert hk.restrict(chain_family, {A, D}).edges == ()


def test_transversal_independent(chain_family):
    assert hk.is_transversal(chain_family, {B, C})
    assert hk.is_transversal(chain_family, {B, D})
    assert not hk.is_transversal(chain_family, {A, D})
    assert hk.is_independent(chain_family, {A, C})
    assert not hk.is_independent(chain_family, {A, B})


def test_support_union(chain_family):
    assert hk.support_union(chain_family) == {A, B, C, D}
    assert hk.support_union(hk.sperner(5, [{1}, {3}])) == {1, 3}


def test_dual_worked_examples(chain_family, star_family):
    assert _edge_set(hk.minimal_transversals(chain_family)) == {(A, C), (B, C), (B, D)}
    assert _edge_set(hk.minimal_transversals(star_family)) == _edge_set(star_family)
    full = hk.sperner(3, [{0, 1, 2}])
    assert _edge_set(hk.minimal_transversals(full)) == {(0,), (1,), (2,)}
    # the empty family is dualized by {∅}; {∅} itself is not dualizable here
    assert hk.minimal_transversals(hk.sperner(3, [])).edges == (frozenset(),)
    with pytest.raises(InputError):
        hk.minimal_transversals(hk.sperner(3, [set()]))


def test_dual_matches_brute_force():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 8)
        h = random_sperner(rng.randrange(2**32), n, rng.randint(1, 5))
        assert hk.minimal_transversals(h) == bf_minimal_transversals(h)


def test_double_dual_is_identity():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 9)
        h = random_sperner(rng.randrange(2**32), n, rng.randint(1, 5))
        assert hk.minimal_transversals(hk.minimal_transversals(h)) == h


def test_dual_restriction_projection_identities():
    # dual(B|S) == dual(B)^S and, when defined, dual(B^S) == dual(B)|S
    rng = random.Random(13)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 9)
        h = random_sperner(rng.randrange(2**32), n, rng.randint(1, 5))
        d = hk.minimal_transversals(h)
        s = frozenset(v for v in range(n) if rng.random() < 0.6)
        r = hk.restrict(h, s)
        if r.edges and all(r.edges):
            assert hk.minimal_transversals(r) == hk.project(d, s)
            checked += 1
        p = hk.project(h, s)
        if p.edges and all(p.edges):
            assert hk.minimal_transversals(p) == hk.restrict(d, s)
            checked += 1
    assert checked > 100


def test_dual_supports_match():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(2, 8)
        h = random_sperner(rng.randrange(2**32), n, rng.randint(2, 5))
        if not all(h.edges):
            continue
        d = hk.minimal_transversals(h)
        assert hk.support_union(h) == hk.support_union(d)


def test_dual_cap(monkeypatch, chain_family):
    monkeypatch.setenv("HORNKEYS_DUAL_CAP", "1")
    with pytest.raises(ResourceGuardError):
        hk.minimal_transversals(chain_family)


def test_dual_cap_counts_the_first_edge():
    full = hk.sperner(3, [{0, 1, 2}])
    message = "dualization guard: 3 partial transversals after edge 1 of 1 exceeds cap 1"
    with pytest.raises(ResourceGuardError) as exc:
        hk.minimal_transversals(full, cap=1)
    assert str(exc.value) == message
    with pytest.raises(ResourceGuardError) as exc:
        hk.is_unique_key_hypergraph(full, cap=1)
    assert str(exc.value) == message
    assert len(hk.minimal_transversals(full, cap=3).edges) == 3
    # The first edge is never refused beforehand, even past 8·cap vertices.
    with pytest.raises(ResourceGuardError) as exc:
        hk.minimal_transversals(hk.sperner(9, [range(9)]), cap=1)
    assert str(exc.value) == "dualization guard: 9 partial transversals after edge 1 of 1 exceeds cap 1"


def _matching(k, r):
    return hk.sperner(r * k, [set(range(r * i, r * i + r)) for i in range(k)])


@pytest.mark.parametrize("k", range(8, 13))
@pytest.mark.parametrize(
    "r, cap, message",
    [
        (2, 2, "4 partial transversals after edge 2 of {k} exceeds cap 2"),
        (2, 100, "128 partial transversals after edge 7 of {k} exceeds cap 100"),
        (2, 200, "256 partial transversals after edge 8 of {k} exceeds cap 200"),
        (9, 9, "9 partial transversals before edge 2 of {k} would expand past 72"),
        (9, 100, "729 partial transversals after edge 3 of {k} exceeds cap 100"),
        (9, 729, "729 partial transversals before edge 4 of {k} would expand past 5832"),
    ],
)
def test_dual_guard_messages_on_perfect_matchings(k, r, cap, message):
    # The recognizer runs the same Berge loop, so it trips the same guard.
    for call in (hk.minimal_transversals, hk.is_unique_key_hypergraph):
        with pytest.raises(ResourceGuardError) as exc:
            call(_matching(k, r), cap=cap)
        assert str(exc.value) == "dualization guard: " + message.format(k=k)


@pytest.mark.parametrize("extra", [{1, 3, 5}, {0, 9}, {1, 2}, {3, 4, 9}, {0, 2, 4, 6, 8}])
def test_dual_of_a_matching_plus_an_overlapping_edge(extra):
    # Edges that miss every earlier edge and edges that overlap one, in a
    # single family.
    b = hk.sperner(10, [*_matching(5, 2).edges, extra])
    assert hk.minimal_transversals(b) == bf_minimal_transversals(b)


def test_key_horn_cnf(chain_family):
    cnf = hk.key_horn_cnf(chain_family)
    got = [(tuple(sorted(c.body)), c.head) for c in cnf.clauses]
    assert got == [
        ((A, B), C),
        ((A, B), D),
        ((B, C), A),
        ((B, C), D),
        ((C, D), A),
        ((C, D), B),
    ]
    # B covering everything yields no clauses
    assert hk.key_horn_cnf(hk.sperner(3, [{0, 1, 2}])).clauses == ()


def test_key_horn_cnf_keys_recover_the_family():
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(2, 8)
        h = random_sperner(rng.randrange(2**32), n, rng.randint(1, 4))
        if not all(h.edges):
            continue
        keys = set(hk.iter_minimal_keys(hk.key_horn_cnf(h)))
        assert keys == set(h.edges)


def test_graph_validation():
    g = hk.graph(3, [(0, 1), (1, 2)])
    assert g.neighbors(1) == {0, 2}
    assert g.degree(1) == 2 and g.degree(0) == 1
    # -1 used to read vertex 2's neighbours, and 3 to raise a raw IndexError.
    for v, message in [
        (-1, "vertex -1 out of range 0..2"),
        (3, "vertex 3 out of range 0..2"),
        (True, "vertex must be an int, got True"),
        ("0", "vertex must be an int, got '0'"),
    ]:
        for call in (g.neighbors, g.degree):
            with pytest.raises(InputError) as info:
                call(v)
            assert str(info.value) == message
    with pytest.raises(InputError, match="^vertex 0 out of range: there are no ids$"):
        hk.graph(0, []).neighbors(0)
    assert hk.graph(3, [(0, 1), (1, 0)]).edges == ((0, 1),)  # same edge, one copy
    with pytest.raises(InputError):
        hk.graph(3, [(0, 0)])  # self-loop
    with pytest.raises(InputError):
        hk.graph(2, [(0, 2)])


@pytest.mark.parametrize("edge", [(0, 1, 1), [0, 1], {0, 1}, frozenset({0, 1}), (1, 0), (0, 1)])
def test_graph_accepts_every_spelling_of_an_edge(edge):
    assert hk.graph(3, [edge]).edges == ((0, 1),)
    assert hk.graph(3, [edge, (0, 1), edge]).edges == ((0, 1),)  # duplicates collapse


@pytest.mark.parametrize(
    "edge,message",
    [
        ((0, 0), "graph edge must have 2 distinct endpoints, got [0]"),
        ((0,), "graph edge must have 2 distinct endpoints, got [0]"),
        ((0, 1, 2), "graph edge must have 2 distinct endpoints, got [0, 1, 2]"),
        ((1, True), "graph edge must have 2 distinct endpoints, got [1]"),
        ((0, 5), "variable index 5 out of range 0..2"),
        ((-1, 0), "variable index -1 out of range 0..2"),
        ((True, 1), "variable index must be an int, got True"),
        ((0, True), "variable index must be an int, got True"),
        ((2, False), "variable index must be an int, got False"),
        ((0, 1.0), "variable index must be an int, got 1.0"),
    ],
)
def test_graph_rejects_bad_edges(edge, message):
    with pytest.raises(InputError) as exc:
        hk.graph(3, [(1, 2), edge])
    assert str(exc.value) == message


def test_mask_accessors_hand_out_tuples():
    # shared lists used to let a caller leave 3 masks beside 2 edges
    h = hk.sperner(4, [{0, 1}, {2, 3}])
    assert h.edge_masks() == (0b11, 0b1100)
    g = hk.graph(3, [(0, 1)])
    assert g.adj_masks() == (0b10, 0b1, 0)
    with pytest.raises(AttributeError):
        h.edge_masks().append(1)
    with pytest.raises(TypeError):
        g.adj_masks()[2] = 7
    assert h.edge_masks() == (0b11, 0b1100) and g.adj_masks() == (0b10, 0b1, 0)


def test_graph_adjacency_matches_its_edges():
    rng = random.Random(3)
    for n in range(8):
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
        g = hk.graph(n, [(u, v) for u, v in pairs if u != v])
        want = [{u for e in g.edges for u in e if v in e and u != v} for v in range(n)]
        assert [set(g.neighbors(v)) for v in range(n)] == want
        assert [g.degree(v) for v in range(n)] == [len(w) for w in want]
        assert g.adj_masks() == tuple(sum(1 << u for u in w) for w in want)
        assert g.adj is g.adj and all(isinstance(a, frozenset) for a in g.adj)
        assert list(g.edges) == sorted(g.edges) and all(u < v for u, v in g.edges)
        assert g == hk.graph(n, [(v, u) for u, v in reversed(g.edges)])
        assert hash(g) == hash(hk.graph(n, [(v, u) for u, v in g.edges]))


def test_graph_as_hypergraph_round_trip():
    g = hk.graph(4, [(2, 3), (0, 1)])
    h = g.as_hypergraph()
    assert _edge_set(h) == {(0, 1), (2, 3)}
    assert hk.as_graph(h).edges == g.edges
    with pytest.raises(InputError):
        hk.as_graph(hk.sperner(3, [{0, 1, 2}]))


def test_mis_worked_examples():
    triangle = hk.graph(3, [(0, 1), (0, 2), (1, 2)])
    assert [sorted(s) for s in hk.maximal_independent_sets(triangle)] == [[0], [2], [1]]
    matching = hk.graph(4, [(0, 1), (2, 3)])
    assert [sorted(s) for s in hk.maximal_independent_sets(matching)] == [
        [0, 2],
        [0, 3],
        [1, 2],
        [1, 3],
    ]
    path = hk.graph(3, [(0, 1), (1, 2)])
    assert [sorted(s) for s in hk.maximal_independent_sets(path)] == [[0, 2], [1]]
    edgeless = hk.graph(3, [])
    assert list(hk.maximal_independent_sets(edgeless)) == [frozenset({0, 1, 2})]
    assert list(hk.maximal_independent_sets(hk.graph(0, []))) == [frozenset()]


def test_mis_matches_brute_force():
    rng = random.Random(16)
    for _ in range(120):
        n = rng.randint(1, 9)
        g = random_graph(rng.randrange(2**32), n, rng.random())
        got = list(hk.maximal_independent_sets(g))
        assert len(got) == len(set(got))  # no repeats
        assert sorted(got, key=sorted) == bf_maximal_independent_sets(g)


def test_mis_complements_are_minimal_edge_transversals():
    # S is maximal independent iff V \ S is a minimal transversal of the edges.
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_graph(rng.randrange(2**32), n, rng.random())
        full = frozenset(range(n))
        mis = set(hk.maximal_independent_sets(g))
        if g.edges:
            dual = hk.minimal_transversals(g.as_hypergraph())
            assert mis == {full - t for t in dual.edges}
        else:
            assert mis == {full}
