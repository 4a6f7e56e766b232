"""Minimal-key enumeration, the key graph, and the ρ progress measure."""

import random

import pytest

import hornkeys as hk
from hornkeys.errors import ContractError, ResourceGuardError
from hornkeys.oracles import bf_minimal_keys, random_horn_cnf

A, B, C, D = range(4)


@pytest.fixture(scope="module")
def phi_chain():
    return hk.key_horn_cnf(hk.sperner(4, [{0, 1}, {1, 2}, {2, 3}]))


def test_first_minimal_key(phi_chain, intro_cnf):
    assert hk.first_minimal_key(phi_chain) == {C, D}
    assert hk.first_minimal_key(intro_cnf) == {1, 2}  # {b,c}
    # no clauses: only V itself closes to V
    assert hk.first_minimal_key(hk.horn_cnf(3, [])) == {0, 1, 2}
    # unit clauses for everything: the empty set is the key
    assert hk.first_minimal_key(hk.horn_cnf(2, [(set(), 0), (set(), 1)])) == frozenset()


def test_neighbors_worked_example(phi_chain):
    got = hk.neighbors(phi_chain, {A, B})
    assert got == [frozenset({B, C}), frozenset({C, D})]
    # every neighbor is again a minimal key
    for k in got:
        assert hk.neighbors(phi_chain, k) is not None


def test_neighbors_rejects_bad_input(phi_chain, intro_cnf):
    with pytest.raises(ContractError):
        hk.neighbors(phi_chain, {A})  # not a key
    with pytest.raises(ContractError):
        hk.neighbors(intro_cnf, {0, 1, 2})  # a key but not minimal


def test_neighbor_count_bounded_by_clause_count():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 8)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(1, 10))
        key = hk.minimize_key(cnf, frozenset(range(n)))
        assert len(hk.neighbors(cnf, key)) <= len(cnf.clauses)


def test_enumeration_worked_examples(phi_chain, intro_cnf):
    assert list(hk.iter_minimal_keys(phi_chain)) == [
        frozenset({C, D}),
        frozenset({B, C}),
        frozenset({A, B}),
    ]
    assert set(hk.iter_minimal_keys(intro_cnf)) == {frozenset({0, 2}), frozenset({1, 2})}
    assert list(hk.iter_minimal_keys(hk.horn_cnf(3, []))) == [frozenset({0, 1, 2})]


def test_enumeration_limit(phi_chain):
    assert list(hk.iter_minimal_keys(phi_chain, limit=2)) == [
        frozenset({C, D}),
        frozenset({B, C}),
    ]
    assert list(hk.iter_minimal_keys(phi_chain, limit=0)) == []


def test_enumeration_matches_brute_force():
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randint(2, 9)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(0, 14))
        got = list(hk.iter_minimal_keys(cnf))
        assert len(got) == len(set(got))
        assert set(got) == bf_minimal_keys(cnf)


def test_enumeration_delay_bound():
    # between consecutive outputs: at most m(n+1)+1 closure computations
    rng = random.Random(33)
    for _ in range(120):
        n = rng.randint(2, 10)
        m = rng.randint(0, 16)
        cnf = random_horn_cnf(rng.randrange(2**32), n, m)
        stats = hk.KeyEnumerationStats()
        emitted = list(hk.iter_minimal_keys(cnf, stats=stats))
        bound = len(cnf.clauses) * (n + 1) + 1
        assert stats.max_delay_closures <= bound
        assert stats.startup_closures <= bound + n  # initial minimization too
        assert stats.keys == len(emitted)


def test_stats_counters_are_consistent(phi_chain):
    stats = hk.enumerate_minimal_keys(phi_chain, sink=lambda k: None)
    assert stats.keys == 3
    assert stats.closures >= stats.startup_closures
    # candidate pairs (v ∈ K, clause with head v): cd→3, bc→2, ab→3
    assert stats.candidates == 8


def test_key_graph(phi_chain):
    kg = hk.build_key_graph(phi_chain)
    assert set(kg.nodes) == {frozenset({A, B}), frozenset({B, C}), frozenset({C, D})}
    assert hk.is_strongly_connected(kg)
    single = hk.build_key_graph(hk.horn_cnf(3, []))
    assert len(single.nodes) == 1
    assert hk.is_strongly_connected(single)


def test_key_graph_follows_the_enumeration_walk(phi_chain):
    kg = hk.build_key_graph(phi_chain)
    # discovery order, which differs from the LIFO pop order cd, bc, ab
    assert kg.nodes == (frozenset({C, D}), frozenset({A, B}), frozenset({B, C}))
    rng = random.Random(36)
    for _ in range(50):
        n = rng.randint(2, 9)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(1, 14))
        kg = hk.build_key_graph(cnf)
        pop_order = list(hk.iter_minimal_keys(cnf))
        stats = hk.KeyEnumerationStats()
        assert list(hk.iter_minimal_keys(cnf, stats=stats)) == pop_order
        assert stats.keys == len(pop_order)
        # arcs: every popped key's out-neighbors, in pop order
        assert list(kg.arcs) == [(k, k2) for k in pop_order for k2 in hk.neighbors(cnf, k)]
        # nodes: the first key, then each out-neighbor when first seen
        discovered = [pop_order[0]]
        for k in pop_order:
            discovered += [k2 for k2 in hk.neighbors(cnf, k) if k2 not in discovered]
        assert list(kg.nodes) == discovered
        assert hk.build_key_graph(cnf, max_keys=len(discovered)) == kg
        if len(discovered) > 1:
            with pytest.raises(ResourceGuardError):
                hk.build_key_graph(cnf, max_keys=len(discovered) - 1)


def test_key_graph_is_always_strongly_connected():
    rng = random.Random(34)
    for _ in range(80):
        n = rng.randint(2, 8)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(1, 10))
        assert hk.is_strongly_connected(hk.build_key_graph(cnf))


def test_key_graph_guard(phi_chain):
    with pytest.raises(ResourceGuardError):
        hk.build_key_graph(phi_chain, max_keys=1)


def test_closure_layers(intro_cnf):
    layers = hk.closure_layers(intro_cnf, {0, 2})
    assert layers == [frozenset({0, 2}), frozenset({1, 3, 4})]
    assert hk.closure_layers(intro_cnf, {2}) == [frozenset({2})]
    # layers partition the closure
    rng = random.Random(35)
    for _ in range(40):
        n = rng.randint(1, 8)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(0, 10))
        s = frozenset(v for v in range(n) if rng.random() < 0.4)
        layers = hk.closure_layers(cnf, s)
        flat = [v for layer in layers for v in layer]
        assert len(flat) == len(set(flat))
        assert frozenset(flat) == hk.forward_closure(cnf, s)


def test_rho_measure(phi_chain):
    assert hk.rho_measure(phi_chain, {C, D}, {A, B}) == (0, 2)
    assert hk.rho_measure(phi_chain, {C, D}, {C, D}) == (2, 0)
    with pytest.raises(ContractError):
        hk.rho_measure(phi_chain, {A}, {A, B})


def test_rho_progress_toward_k2():
    # walking the key graph from K1 toward K2: some out-neighbor K3 of K1
    # strictly decreases ρ(·, K2) in reverse-lexicographic order
    rng = random.Random(36)
    checked = 0
    for _ in range(30):
        n = rng.randint(2, 7)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(1, 8))
        keys = list(hk.iter_minimal_keys(cnf))
        if len(keys) < 2:
            continue
        for k1 in keys[:4]:
            for k2 in keys[:4]:
                if k1 == k2:
                    continue
                base = hk.rho_measure(cnf, k1, k2)
                assert any(v for v in base[1:]), "distinct keys must differ past layer 0"
                better = False
                for k3 in hk.neighbors(cnf, k1):
                    cand = hk.rho_measure(cnf, k3, k2)
                    if cand[::-1] < base[::-1]:
                        better = True
                        break
                assert better, (sorted(k1), sorted(k2))
                checked += 1
    assert checked > 20
