"""Property tests: dualization, both recognizers, witness checks and chaining
layers against the brute-force oracles, on hypothesis-drawn inputs."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hornkeys as hk
from hornkeys._bitset import bits_of, mask_of
from hornkeys.errors import ResourceGuardError
from hornkeys.hypergraph import _minimal_masks
from hornkeys.oracles import (
    bf_forward_closure,
    bf_minimal_keys,
    bf_minimal_transversals,
    bf_unique_key,
)

_PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def _sperner(draw, max_n, min_edges=0):
    """minl of a drawn family of nonempty vertex sets on n <= max_n vertices."""
    n = draw(st.integers(1, max_n))
    edge = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 4))
    return hk.minimalize(n, draw(st.lists(edge, min_size=min_edges, max_size=8)))


@st.composite
def _graphs(draw):
    """Graphs on n <= 8 vertices with at least one edge."""
    n = draw(st.integers(2, 8))
    pair = st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)])
    return hk.graph(n, draw(st.lists(pair, min_size=1, max_size=12)))


@st.composite
def _horn_cnfs(draw):
    n = draw(st.integers(1, 8))
    clauses = []
    for head in draw(st.lists(st.integers(0, n - 1), max_size=12)):
        body = draw(st.sets(st.integers(0, n - 1).filter(lambda v: v != head), max_size=3))
        clauses.append((body, head))
    return hk.horn_cnf(n, clauses)


@_PROPERTY_SETTINGS
@given(b=_sperner(max_n=10))
def test_minimal_transversals_match_the_subset_scan(b):
    assert hk.minimal_transversals(b) == bf_minimal_transversals(b)


@_PROPERTY_SETTINGS
@given(data=st.data(), b=_sperner(max_n=9, min_edges=1))
def test_each_berge_step_is_the_minimal_product(data, b):
    """After edge i, the dual of the first i edges is minl{t ∪ {v}} over the
    previous family and v ∈ e_i, and a cap trips the guard that this
    sequence of families predicts, with its message."""
    masks = b.edge_masks()
    families = []
    cur = [0]
    for em in masks:
        cur = _minimal_masks(t | (1 << v) for t in cur for v in bits_of(em))
        families.append(cur)
    for i, family in enumerate(families, start=1):
        prefix = hk.sperner(b.n, b.edges[:i])
        assert sorted(hk.minimal_transversals(prefix).edge_masks()) == sorted(family)
    cap = data.draw(st.integers(masks[0].bit_count(), max(map(len, families))))
    expected = None
    for i, em in enumerate(masks, start=1):
        if i > 1 and len(families[i - 2]) * em.bit_count() > 8 * cap:
            expected = (
                f"dualization guard: {len(families[i - 2])} partial transversals "
                f"before edge {i} of {len(masks)} would expand past {8 * cap}"
            )
            break
        if len(families[i - 1]) > cap:
            expected = (
                f"dualization guard: {len(families[i - 1])} partial transversals "
                f"after edge {i} of {len(masks)} exceeds cap {cap}"
            )
            break
    try:
        hk.minimal_transversals(b, cap)
        message = None
    except ResourceGuardError as exc:
        message = str(exc)
    assert message == expected


@_PROPERTY_SETTINGS
@given(data=st.data(), b=_sperner(max_n=9))
def test_edge_masks_are_the_edges_in_order(data, b):
    """Each family built from masks without checks (by minimalize, which
    built b, and by the dual, restrict, project and as_hypergraph) equals the
    family that the checking public constructor builds from its edges, given
    in reverse order."""
    ids = st.integers(0, b.n - 1)
    s = data.draw(st.sets(ids))
    pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=12))
    g = hk.graph(b.n, [(u, v) for u, v in pairs if u != v])
    dual_of_none = hk.minimal_transversals(hk.sperner(b.n, []))
    no_edge_inside = hk.restrict(b, set())
    non_transversal = hk.project(b, set())
    assert dual_of_none.edges == (frozenset(),)
    assert no_edge_inside.edges == ()
    assert non_transversal.edges == ((frozenset(),) if b.edges else ())
    derived = (
        b,
        hk.minimal_transversals(b),
        dual_of_none,
        hk.restrict(b, s),
        no_edge_inside,
        hk.project(b, s),
        non_transversal,
        g.as_hypergraph(),
    )
    for h in derived:
        checked = hk.SpernerHypergraph(h.universe, reversed(h.edges))
        assert h.edges == checked.edges
        assert h.edge_masks() == checked.edge_masks() == tuple(mask_of(e) for e in h.edges)
        assert h == checked and hash(h) == hash(checked)


@_PROPERTY_SETTINGS
@given(masks=st.lists(st.integers(0, 255), max_size=30))
def test_minimal_masks_match_an_all_pairs_scan(masks):
    family = set(masks)
    minimal = [m for m in family if not any(k != m and k & m == k for k in family)]
    assert _minimal_masks(masks) == sorted(minimal, key=lambda m: (m.bit_count(), m))


@_PROPERTY_SETTINGS
@given(b=_sperner(max_n=7, min_edges=1))
def test_hypergraph_recognizer_matches_the_definition(b):
    ok, w = hk.is_unique_key_hypergraph(b)
    addable = hk.addable_clauses(b)
    assert ok == bf_unique_key(b) == (not addable)
    assert (w is None) == ok
    if w is not None:
        assert hk.verify_witness(w, b)
    for a, v in addable:
        assert hk.verify_witness(hk.Witness("addable-clause", (a, v)), b)


@_PROPERTY_SETTINGS
@given(b=_sperner(max_n=8, min_edges=1))
def test_hypergraph_recognizer_gives_the_first_failing_pair(b):
    """The witness is the first (T, v), T in canonical order and v ascending,
    such that no other minimal transversal lies inside T ∪ {v}."""
    dual = bf_minimal_transversals(b).edges
    failing = (
        (t, v)
        for t in dual
        for v in range(b.n)
        if v not in t and not any(t2 != t and t2 <= t | {v} for t2 in dual)
    )
    first = next(failing, None)
    ok, w = hk.is_unique_key_hypergraph(b)
    assert ok == (first is None)
    assert (w is None) if ok else (w.data == first and hk.verify_witness(w, b))


@_PROPERTY_SETTINGS
@given(data=st.data(), b=_sperner(max_n=8))
def test_transversal_pair_check_matches_the_dual(data, b):
    dual = bf_minimal_transversals(b).edges
    vertex = st.integers(0, b.n - 1)
    t = data.draw(st.sampled_from(dual) | st.frozensets(vertex))
    v = data.draw(vertex)
    container = data.draw(st.sampled_from([frozenset, set, list, tuple]))
    expected = (
        container in (frozenset, set)
        and t in dual
        and v not in t
        and not any(t2 != t and t2 <= t | {v} for t2 in dual)
    )
    w = hk.Witness("transversal-pair-missing", (container(t), v))
    assert hk.verify_witness(w, b) == expected


@_PROPERTY_SETTINGS
@given(data=st.data(), b=_sperner(max_n=6, min_edges=1))
def test_addable_clause_check_matches_the_definition(data, b):
    """A→v is addable when it is no implicate of Φ_B and Φ_B ∧ (A→v) keeps B's keys."""
    vertex = st.integers(0, b.n - 1)
    bodies = [a for a, _ in hk.addable_clauses(b)] or [frozenset()]
    a = data.draw(st.sampled_from(bodies) | st.frozensets(vertex))
    v = data.draw(vertex)
    container = data.draw(st.sampled_from([frozenset, set, list, tuple]))
    phi = hk.key_horn_cnf(b)
    expected = (
        container in (frozenset, set)
        and v not in a
        and v not in bf_forward_closure(phi, a)
        and bf_minimal_keys(hk.HornCNF(b.universe, phi.clauses + (hk.HornClause(a, v),)))
        == set(b.edges)
    )
    assert hk.verify_witness(hk.Witness("addable-clause", (container(a), v)), b) == expected


@_PROPERTY_SETTINGS
@given(g=_graphs())
def test_graph_recognizer_gives_the_first_witness_in_mis_order(g):
    lonely = (
        (i, v)
        for i in hk.maximal_independent_sets(g)
        for v in sorted(i)
        if not any(g.adj[u] & i == {v} for u in set(range(g.n)) - i)
    )
    first = next(lonely, None)
    ok, w = hk.is_unique_key_graph(g)
    assert ok == bf_unique_key(g.as_hypergraph()) == (first is None)
    assert (w is None) if ok else (w.data == first and hk.verify_witness(w, g))


@_PROPERTY_SETTINGS
@given(data=st.data(), cnf=_horn_cnfs())
def test_closure_layers_grow_by_one_chaining_step(data, cnf):
    s = data.draw(st.frozensets(st.integers(0, cnf.n - 1)))
    layers = hk.closure_layers(cnf, s)
    assert layers[0] == s
    derived = set()
    for i, layer in enumerate(layers):
        derived |= layer
        step = {
            h
            for h in range(cnf.n)
            if h not in derived and any(c.head == h and c.body <= derived for c in cnf.clauses)
        }
        assert step == (layers[i + 1] if i + 1 < len(layers) else set())
    assert derived == bf_forward_closure(cnf, s)
    assert sum(map(len, layers)) == len(derived)
