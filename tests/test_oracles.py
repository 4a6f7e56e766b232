"""Brute-force oracles: self-consistency, guards, and the seeded generators."""

import random

import pytest

import hornkeys as hk
from hornkeys import formats
from hornkeys.errors import InputError, ResourceGuardError
from hornkeys.oracles import (
    _connected,
    bf_forward_closure,
    bf_maximal_independent_sets,
    bf_min_target_set,
    bf_minimal_keys,
    bf_minimal_target_sets,
    bf_minimal_transversals,
    bf_satisfiable,
    bf_satisfying_assignment,
    bf_spanning_trees,
    bf_target_sets,
    bf_unique_key,
    graphic_matroid_cuts,
    random_bipartite_graph,
    random_general_cnf,
    random_graph,
    random_horn_cnf,
    random_sperner,
    random_threshold_graph,
)


def test_bf_minimal_keys_self_validate():
    rng = random.Random(51)
    for _ in range(50):
        n = rng.randint(1, 7)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(0, 8))
        keys = bf_minimal_keys(cnf)
        for k in keys:
            assert hk.is_key(cnf, k)
            for v in k:
                assert not hk.is_key(cnf, k - {v})
        # every key contains a minimal one
        for mask in range(1 << n):
            s = frozenset(v for v in range(n) if (mask >> v) & 1)
            if hk.is_key(cnf, s):
                assert any(k <= s for k in keys)


def test_bf_minimal_keys_worked_examples(intro_cnf):
    chain = hk.sperner(4, [{0, 1}, {1, 2}, {2, 3}])
    assert bf_minimal_keys(hk.key_horn_cnf(chain)) == set(chain.edges)
    assert bf_minimal_keys(intro_cnf) == {frozenset({0, 2}), frozenset({1, 2})}
    assert bf_minimal_keys(hk.horn_cnf(3, [])) == {frozenset({0, 1, 2})}


def test_bf_transversals_self_validate():
    rng = random.Random(52)
    for _ in range(50):
        n = rng.randint(1, 7)
        h = random_sperner(rng.randrange(2**32), n, rng.randint(1, 4))
        if not all(h.edges):
            continue
        d = bf_minimal_transversals(h)
        for t in d.edges:
            assert hk.is_transversal(h, t)
            for v in t:
                assert not hk.is_transversal(h, t - {v})


def test_bf_unique_key_worked_examples(chain_family, star_family):
    assert not bf_unique_key(chain_family)
    assert bf_unique_key(star_family)


def test_bf_mis(chain_family):
    g = hk.graph(3, [(0, 1), (1, 2)])
    assert bf_maximal_independent_sets(g) == [frozenset({0, 2}), frozenset({1})]
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(rng.randrange(2**32), n, rng.random())
        assert sorted(hk.maximal_independent_sets(g), key=sorted) == (
            bf_maximal_independent_sets(g)
        )


def test_bf_sat(sat_cnf):
    assert bf_satisfiable(sat_cnf)
    model = bf_satisfying_assignment(sat_cnf)
    assert model is not None
    for clause in sat_cnf.clauses:
        assert any((lit > 0) == (abs(lit) in model) for lit in clause)
    assert not bf_satisfiable(hk.GeneralCNF(1, ((1,), (-1,))))
    assert bf_satisfying_assignment(hk.GeneralCNF(1, ((1,), (-1,)))) is None


def test_bf_closure_matches_library():
    rng = random.Random(54)
    for _ in range(30):
        n = rng.randint(1, 8)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(0, 10))
        s = frozenset(v for v in range(n) if rng.random() < 0.4)
        assert bf_forward_closure(cnf, s) == hk.forward_closure(cnf, s)


def test_bf_target_sets(wheel_tss):
    sets = bf_target_sets(wheel_tss)
    assert frozenset({1}) in sets
    for s in sets:
        assert hk.is_target_set(wheel_tss, s)
    minimal = bf_minimal_target_sets(wheel_tss)
    assert sorted(map(sorted, minimal)) == [[0], [1], [2], [3], [4]]
    assert bf_min_target_set(wheel_tss) == {0}


def test_bond_oracle():
    triangle = hk.graph(3, [(0, 1), (0, 2), (1, 2)])
    cuts = graphic_matroid_cuts(triangle)
    assert {tuple(sorted(e)) for e in cuts.edges} == {(0, 1), (0, 2), (1, 2)}
    assert [cuts.universe.name(i) for i in range(3)] == ["1-2", "1-3", "2-3"]
    path = hk.graph(3, [(0, 1), (1, 2)])
    assert {tuple(sorted(e)) for e in graphic_matroid_cuts(path).edges} == {(0,), (1,)}
    with pytest.raises(InputError):
        graphic_matroid_cuts(hk.graph(3, [(0, 1)]))  # disconnected


def test_bond_dual_is_spanning_trees():
    # minimal transversals of the bonds = complements... the spanning trees
    # themselves, as edge sets of size n-1
    rng = random.Random(55)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        g = random_graph(rng.randrange(2**32), n, 0.7)
        if not g.edges or not _connected(n, g.edges):
            continue
        cuts = graphic_matroid_cuts(g)
        trees = bf_spanning_trees(g)
        assert set(hk.minimal_transversals(cuts).edges) == trees
        checked += 1
    assert checked > 15


def test_bf_guard():
    cnf = random_horn_cnf(0, 17, 3)
    with pytest.raises(ResourceGuardError):
        bf_minimal_keys(cnf)
    assert bf_minimal_keys(cnf, max_vars=17) is not None
    with pytest.raises(ResourceGuardError):
        bf_unique_key(random_sperner(0, 17, 3), max_vars=16)


def test_generators_are_reproducible():
    for maker, args in [
        (random_horn_cnf, (99, 6, 8)),
        (random_sperner, (99, 6, 4)),
        (random_graph, (99, 6, 0.5)),
        (random_bipartite_graph, (99, 3, 4, 0.5)),
        (random_threshold_graph, (99, 6, 0.5)),
        (random_general_cnf, (99, 4, 5)),
    ]:
        assert maker(*args) == maker(*args)
    assert random_horn_cnf(1, 6, 8) != random_horn_cnf(2, 6, 8)


def test_generated_instances_are_well_formed():
    rng = random.Random(56)
    for _ in range(40):
        seed = rng.randrange(2**32)
        h = random_sperner(seed, rng.randint(1, 9), rng.randint(1, 6))
        assert hk.check_sperner(h.edges)
        g = random_bipartite_graph(seed, rng.randint(1, 5), rng.randint(1, 5), rng.random())
        assert all(g.degree(v) >= 1 for v in range(g.n))
        cnf = random_horn_cnf(seed, rng.randint(2, 9), rng.randint(1, 10))
        assert all(c.body for c in cnf.clauses)
        text = formats.serialize_horn(cnf)
        assert formats.parse_horn(text) == cnf
        tg = random_threshold_graph(seed, rng.randint(1, 8), rng.random())
        assert formats.parse_tss(formats.serialize_tss(tg)) == tg


# Each seeded generator with valid arguments; every one but seed and p is a size.
GENERATOR_ARGS = {
    random_horn_cnf: dict(seed=1, n=4, m=3, max_body=2),
    random_sperner: dict(seed=1, n=4, k=3, max_edge=2),
    random_graph: dict(seed=1, n=4, p=0.5),
    random_bipartite_graph: dict(seed=1, a=2, b=2, p=0.5),
    random_threshold_graph: dict(seed=1, n=4, p=0.5, tmax=2),
    random_general_cnf: dict(seed=1, n=4, m=3, width=2),
}
SIZES = [
    (f, size) for f, args in GENERATOR_ARGS.items() for size in args if size not in ("seed", "p")
]


@pytest.mark.parametrize("value", [2.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("maker, size", SIZES, ids=[f"{f.__name__}-{size}" for f, size in SIZES])
def test_a_size_that_is_no_int_is_refused(maker, size, value):
    # Some raised TypeError from range, and some were accepted, such as
    # random_threshold_graph(1, 4, 0.5, tmax=2.0) and random_horn_cnf(1, 4, True, 2).
    args = GENERATOR_ARGS[maker]
    maker(**args)
    with pytest.raises(InputError, match=f" must be an int, got {value}$"):
        maker(**{**args, size: value})


def test_minimalize_refuses_a_size_that_is_no_int():
    # 3.0 used to raise AttributeError: 'float' object has no attribute 'n'
    with pytest.raises(InputError, match=r"^universe size must be an int, got 3\.0$"):
        hk.minimalize(3.0, [[0]])

