"""Minimal-key enumeration, the key graph, and the ρ progress measure."""

import hashlib
import random
import tracemalloc

import pytest

import hornkeys as hk
from hornkeys import _closure_py, core, tss
from hornkeys.errors import ContractError, InputError, ResourceGuardError
from hornkeys.oracles import bf_minimal_keys, random_horn_cnf, random_sperner

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


def test_non_minimal_key_names_its_lowest_droppable_variable():
    # 1 and 8 can both be dropped; the error used to follow set iteration
    # order, so [8, 1, 0] named 8 where {0, 1, 8} named 1
    cnf = hk.horn_cnf(9, [({0}, 1), ({0}, 8)] + [({0}, v) for v in range(2, 8)])
    for spelling in [[8, 1, 0], {0, 1, 8}, (1, 8, 0), frozenset({8, 0, 1})]:
        with pytest.raises(ContractError, match=r"dropping 1 keeps it a key") as info:
            hk.neighbors(cnf, spelling)
        assert info.value.witness == frozenset({0, 8})


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


@pytest.mark.parametrize("bad", [2.5, 3.0, True, False, "3", [3]])
def test_limit_is_an_int_or_none(bad, wheel_tss, monkeypatch):
    # Refused when the call is made, before any work: no engine is built and
    # no Ψ_G is made.  A float once rounded up and a bool read as 0 or 1.
    cnf = hk.key_horn_cnf(hk.sperner(4, [{0, 1}, {1, 2}, {2, 3}]))
    with pytest.raises(InputError, match="limit must be an int"):
        hk.iter_minimal_keys(cnf, limit=bad)
    with pytest.raises(InputError, match="limit must be an int"):
        hk.enumerate_minimal_keys(cnf, lambda k: None, limit=bad)
    assert cnf._engine is None

    def no_work(*args):
        raise AssertionError("Ψ_G was built before the limit was checked")

    monkeypatch.setattr(tss, "tss_to_horn", no_work)
    with pytest.raises(InputError, match="limit must be an int"):
        hk.iter_minimal_target_sets(wheel_tss, limit=bad)
    with pytest.raises(InputError, match="limit must be an int"):
        hk.enumerate_minimal_target_sets(wheel_tss, lambda s: None, limit=bad)


def test_a_negative_limit_is_refused(wheel_tss):
    # Refused when the call is made, as a bad type is; a limit of 0 still
    # asks for no keys.
    cnf = hk.key_horn_cnf(hk.sperner(4, [{0, 1}, {1, 2}, {2, 3}]))
    for limit in (-1, -2):
        with pytest.raises(InputError, match=f"^limit must be nonnegative, got {limit}$"):
            hk.iter_minimal_keys(cnf, limit=limit)
        with pytest.raises(InputError, match="limit must be nonnegative"):
            hk.enumerate_minimal_keys(cnf, lambda k: None, limit=limit)
        with pytest.raises(InputError, match="limit must be nonnegative"):
            hk.iter_minimal_target_sets(wheel_tss, limit=limit)
        with pytest.raises(InputError, match="limit must be nonnegative"):
            hk.enumerate_minimal_target_sets(wheel_tss, lambda s: None, limit=limit)
        with pytest.raises(InputError, match=f"^max_keys must be nonnegative, got {limit}$"):
            hk.build_key_graph(cnf, max_keys=limit)
    assert cnf._engine is None
    assert list(hk.iter_minimal_target_sets(wheel_tss, limit=0)) == []


@pytest.mark.parametrize("bad", [0.5, 3.0, True, "3", None])
def test_max_keys_is_an_int(bad):
    cnf = hk.key_horn_cnf(hk.sperner(4, [{0, 1}, {1, 2}, {2, 3}]))
    with pytest.raises(InputError, match="max_keys must be an int"):
        hk.build_key_graph(cnf, max_keys=bad)
    assert cnf._engine is None


def test_interleaved_walks_on_one_cnf_keep_their_own_counters():
    checked = 0
    for seed in range(40):
        cnf = random_horn_cnf(seed, 12, 30, 3)
        alone = []
        for limit in (None, 3):
            stats = hk.KeyEnumerationStats()
            copy = hk.HornCNF(cnf.universe, cnf.clauses)
            alone.append((list(hk.iter_minimal_keys(copy, limit, stats)), stats))
        if len(alone[0][0]) < 4:
            continue
        checked += 1
        got = [([], hk.KeyEnumerationStats()) for _ in alone]
        walks = [hk.iter_minimal_keys(cnf, limit, got[i][1]) for i, limit in enumerate((None, 3))]
        while walks:  # one key from each live walk in turn
            for walk, (keys, _) in list(zip(walks, got)):
                key = next(walk, None)
                if key is None:
                    walks.remove(walk)
                else:
                    keys.append(key)
        assert got == alone
    assert checked > 20


@pytest.mark.parametrize("limit", [None, 1, 2])
def test_a_reused_stats_object_reads_as_a_fresh_one(intro_cnf, limit):
    fresh = hk.KeyEnumerationStats()
    keys = list(hk.iter_minimal_keys(intro_cnf, limit, fresh))
    reused = hk.KeyEnumerationStats()
    for run_limit in (None, limit):
        assert list(hk.iter_minimal_keys(intro_cnf, run_limit, reused))[: len(keys)] == keys
    assert reused == fresh
    if limit is None:
        assert (fresh.keys, fresh.candidates, fresh.closures) == (2, 2, 9)


def test_a_cnf_builds_one_clause_index(monkeypatch):
    builds = []

    def counting_engine(*args):
        builds.append(args)
        return engine_cls(*args)

    engine_cls = core.Engine
    monkeypatch.setattr(core, "Engine", counting_engine)
    cnf = random_horn_cnf(3, 12, 30, 3)
    keys = list(hk.iter_minimal_keys(cnf))
    assert hk.is_key(cnf, keys[0])
    assert list(hk.iter_minimal_keys(cnf, limit=2)) == keys[:2]
    assert hk.neighbors(cnf, keys[0])
    assert len(hk.build_key_graph(cnf).nodes) == len(keys)
    assert len(builds) == 1
    cnf.fresh_engine()  # still a build of its own
    assert len(builds) == 2


class _ExpandSpy:
    """An engine whose expanders record the key of each call."""

    def __init__(self, engine, calls):
        self._engine = engine
        self._calls = calls

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def expander(self):
        expand = self._engine.expander()

        def spy(key):
            self._calls.append(frozenset(key))
            return expand(key)

        return spy


class _ExpanderSpy(_ExpandSpy):
    """An engine that records each expander it hands out, with itself."""

    def expander(self):
        expand = self._engine.expander()
        self._calls.append((self._engine, expand))
        return expand


def test_a_compiled_walk_hands_on_none_and_matches_the_pure_walk(compiled, monkeypatch):
    # Each walk takes one expander.  The compiled one is the bound expand,
    # which hands nothing on between calls, and its walk gives the keys and
    # stats of the pure walk.
    cnf = random_horn_cnf(3, 12, 30, 3)
    runs = []
    for cls in (_closure_py.Engine, compiled.Engine):
        expanders = []
        monkeypatch.setattr(core, "Engine", lambda *args: _ExpanderSpy(cls(*args), expanders))
        stats = hk.KeyEnumerationStats()
        keys = list(hk.iter_minimal_keys(hk.HornCNF(cnf.universe, cnf.clauses), stats=stats))
        ((engine, expand),) = expanders
        runs.append((keys, stats, expand == engine.expand))
    keys, stats, _ = runs[0]
    assert len(keys) > 3
    assert runs == [(keys, stats, False), (keys, stats, True)]


@pytest.fixture
def backend(engine_cls, monkeypatch):
    """CNFs made in the test build their engine from ``engine_cls``."""
    monkeypatch.setattr(core, "Engine", engine_cls)
    return engine_cls


@pytest.fixture
def expand_calls(backend, monkeypatch):
    calls = []
    monkeypatch.setattr(core, "Engine", lambda *args: _ExpandSpy(backend(*args), calls))
    return calls


def test_a_key_is_emitted_before_it_is_expanded(expand_calls):
    cnf = random_horn_cnf(3, 12, 30, 3)
    walk = hk.iter_minimal_keys(cnf)
    first = next(walk)
    assert first == hk.first_minimal_key(cnf)
    assert expand_calls == []
    second = next(walk)
    assert expand_calls == [first]
    third = next(walk)
    assert expand_calls == [first, second]
    keys = [first, second, third, *walk]
    assert expand_calls == keys  # the last key too, once the walk runs out
    expand_calls.clear()
    assert list(hk.iter_minimal_keys(cnf, limit=3)) == keys[:3]
    assert expand_calls == keys[:2]


def _reference_walk(cnf, expansions):
    # The walk of ``keygen._walk`` run by hand on ``engine.expand`` and cut
    # after ``expansions`` expansions: the keys it pops, with its counters.
    eng = cnf.engine()
    first = tuple(eng.minimize(range(cnf.n)))
    stats = hk.KeyEnumerationStats(closures=cnf.n, startup_closures=cnf.n)
    pending, visited, keys = [first], {first}, []
    while pending:
        keys.append(pending.pop())
        if len(keys) > expansions:
            break
        out, tried, spent = eng.expand(keys[-1])
        stats.closures += spent
        stats.candidates += tried
        if len(keys) == 1:
            stats.startup_closures = stats.closures
        else:
            stats.max_delay_closures = max(stats.max_delay_closures, spent)
        new = [k for k in out if k not in visited]
        visited.update(new)
        pending += new
    stats.keys = len(keys)
    return list(map(frozenset, keys)), stats


def test_a_limit_of_k_runs_k_minus_1_expansions(backend):
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 12)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(n, 3 * n), 3)
        stats = hk.KeyEnumerationStats()
        everything = list(hk.iter_minimal_keys(cnf, stats=stats))
        assert (everything, stats) == _reference_walk(cnf, len(everything))
        for k in range(1, 7):
            stats = hk.KeyEnumerationStats()
            got = list(hk.iter_minimal_keys(cnf, k, stats))
            assert got == everything[:k]
            assert (got, stats) == _reference_walk(cnf, k - 1)


def test_a_limit_of_one_costs_the_first_minimization_alone(backend):
    for seed in range(20):
        cnf = random_horn_cnf(seed, 12, 30, 3)
        stats = hk.KeyEnumerationStats()
        assert list(hk.iter_minimal_keys(cnf, 1, stats)) == [hk.first_minimal_key(cnf)]
        assert stats == hk.KeyEnumerationStats(keys=1, closures=12, startup_closures=12)


def test_a_walk_closed_halfway_leaves_the_engine_as_it_was(backend):
    checked = 0
    for seed in range(20):
        cnf = random_horn_cnf(seed, 12, 30, 3)
        keys = list(hk.iter_minimal_keys(cnf))
        if len(keys) < 2:
            continue
        checked += 1
        walk = hk.iter_minimal_keys(cnf)
        assert [next(walk) for _ in keys[: len(keys) // 2]] == keys[: len(keys) // 2]
        walk.close()
        assert next(walk, None) is None
        assert list(hk.iter_minimal_keys(cnf)) == keys
    assert checked > 10


def test_a_walk_keeps_each_key_in_a_few_hundred_bytes(backend):
    # x_i -> y_i and y_i -> x_i for i < 10: 1,024 minimal keys, each of 10
    # variables, all held in ``visited`` until the walk ends.  As frozensets
    # they took about 780 B per key; as sorted tuples, under 200.
    k = 10
    cnf = hk.horn_cnf(2 * k, [({v ^ 1}, v) for v in range(2 * k)])
    cnf.engine()
    tracemalloc.start()
    try:
        stats = hk.enumerate_minimal_keys(cnf, lambda key: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.keys == 2**k
    assert peak / stats.keys < 400


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


@pytest.mark.parametrize("max_keys", [0, -1])
def test_key_graph_counts_the_first_key_before_any_expansion(max_keys, expand_calls):
    # One key or three: the first key alone exceeds a guard of 0, and it
    # trips before the walk expands anything; a negative guard is refused
    # before the walk starts.
    error, message = (
        (ResourceGuardError, "exceeds 0 minimal keys")
        if max_keys == 0
        else (InputError, f"max_keys must be nonnegative, got {max_keys}")
    )
    for cnf in (hk.horn_cnf(3, []), hk.key_horn_cnf(hk.sperner(4, [{0, 1}, {1, 2}, {2, 3}]))):
        with pytest.raises(error, match=message):
            hk.build_key_graph(cnf, max_keys=max_keys)
        assert expand_calls == []
    assert len(hk.build_key_graph(hk.horn_cnf(3, []), max_keys=1).nodes) == 1


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


# sha256 of (ordered keys, closures, candidates, startup_closures,
# max_delay_closures) for each case.  The full and units records date from
# before the kernel gained its goal-directed shortcuts and ``minimize``.  A
# limited run that reaches its fifth key stops there, and the walk emits a
# key before expanding it, so its record counts the expansions of the first
# four keys only: the record of a walk that expanded all five, less the
# fifth expansion.  A limited run with fewer keys runs to the end.  Kernel
# speed-ups must leave every one of these unchanged: the counters are part
# of the enumeration contract.  The phi records, full walks of key Horn
# CNFs, whose clauses share each body n - |e| times, date from before the
# kernel kept one counter per distinct body.
COUNTER_DIGESTS = {
    ("limited", 0): "a7b0fb3b940fee0b1af8e81a9d19f497a9e64015b5ba2a3d67b30f4fed2f8db6",
    ("limited", 1): "2780367504ec9caf8411e9ff5dd36a8ee495b3800421572106f37b8d0bf5ba92",
    ("limited", 2): "8df7f7086ebcd19e297d84a39b8e4de1b53a7a79a7731eacc009424a550dcbf0",
    ("limited", 3): "fcac848635df22ec770f9c700cf2b63fb60c3ca2e719edd26a840a77e8681dca",
    ("limited", 4): "7d380d201edc0706588f12fedff9347dd3d24bc95087b9e3702329942ee7df85",
    ("limited", 5): "f3bea394c55799b04a077653e3bf2006866b555f1dd16d4ce83226b889bf482e",
    ("limited", 6): "9e8df1abc490ae570e13b36b135734b4b4cecec7a7da8a63a5b1add0d636b4ab",
    ("limited", 7): "043163b8344d2d2524d44c4d20355f2aed929f8545eabf61f123bf6d62d184b0",
    ("limited", 8): "6d1ed19f742292d4041c45dc82cd155701f1adb92c7c6e8615c88895c91fa709",
    ("limited", 9): "adc626fda8d0ea19f4c154ec160c64f0f72b9c0d0debca88e6a0ab418580b169",
    ("limited", 10): "8960355cbdbf39d13800453f85d7d8ff2d214667af6ad78470ac62991e5edf8c",
    ("limited", 11): "f1f68bef254c38d5c2456bd0c4d5724313a3db9ad45e86b48b7ad95bafd3f2bf",
    ("limited", 12): "0b27b2c832a0f9391c972e409ee3c70492360e6713546f70faf740beed8ba1d4",
    ("limited", 13): "dfd0e55790f8c178f1f8c78f72591a1d484ea20e5f27dcc55d1aa139ddc9a894",
    ("limited", 14): "37a4b75ece34d44bfb3aa186bde89d0c91b0d0d06b1f0656b009d157e3678dd8",
    ("limited", 15): "bc7265057962d8ba88878208822ed81e8cc7fbc8d0b1e9a5600909aea8f33dc5",
    ("limited", 16): "124c80b5b48a0ce4baf8422e843854b885f639c9b881cfe4c3c804ed62f16442",
    ("limited", 17): "23a191dbe4d6fbf03355b54135a3c9f76d90f4dbf34934b0d6911b37f1c27c72",
    ("limited", 18): "886070cab15a05e2000ae849a42f3efbab3279568ec478b2427b00779cf2237e",
    ("limited", 19): "2c8ec4c857144208bc6f62f8981d4902e1d5a0f7722e8214cf47912d00ed953d",
    ("limited", 20): "7c44420b77530f18ac51bcfed96e6ca4c1534785d59df98879290d1f6284baab",
    ("limited", 21): "0cb6ba0c8f37ee516099a0b8a80e3fd42d045a9758d940860648075f5839fb1c",
    ("limited", 22): "79016082cd7875837c5dd841796bac3d334d4603a4d61a44a9d6bd09e398bc03",
    ("limited", 23): "37bc52485ef8ab68995467dfb920078e586c868c4635f32c5056d2eb8ff8f0a1",
    ("limited", 24): "a19b00de8c474ef6b8a836fb5229b3e2c85d7a90fb93608806f1cb4ae58c8959",
    ("limited", 25): "bd41475822d283d3f4ba2f55f7004e622c3db9da06b5c31e73a4d205715d768f",
    ("limited", 26): "7b300ae5462c51122eb145b7ef583e60c917af226de7a92884f391ec0ceb1657",
    ("limited", 27): "c7704e7df3e2bd681f4811e0737dc37caaede02cc6933332567869b3b0989e09",
    ("limited", 28): "b6f5b5a138d76efa7c1dde266889c2bcf97c43d5296d26fae3e05a0ec6c0bdf9",
    ("limited", 29): "57d1c6806c16329518758b6953698a965bcb3f8e8d8d54133819fc255b3e464c",
    ("limited", 30): "a6ed04a61cb15a773c56a2d4e797e69fcecf2d8e955063b33a174ba73f46599b",
    ("limited", 31): "afc33a79604a0c5f39af4fe9866abbb882ee499d2bad81ca76abe2f23bdfa12a",
    ("limited", 32): "9f79f43ea2dc783e18089385356b20c84c6a96772192a7e93035717dda5bb42f",
    ("limited", 33): "6dd86790b346b1ba06aecb141ca2fb82f6df85e6e2ac031ef3b328c919c0d013",
    ("limited", 34): "569b14930203eb7f5300e73cb755de59bcac9ada6fa2016b36a049a5aef89637",
    ("limited", 35): "2cde15bfaae23dfca53345cfa0da9fe69dfcdf0be61f278e36ba22470dc403aa",
    ("limited", 36): "6fd691c82499835105df6d7139fdd4134a34eba0e2bdd6c1863f38562ae33430",
    ("limited", 37): "96b1102acd6bc29ea7ca27e2ffb8e0f0bc4dfc2779ac837c54ae056fec678710",
    ("limited", 38): "ee0b8fe54bd609295212cba106c02d901421dd908df139c644800d6714f64a7a",
    ("limited", 39): "23eb5a5e316cf88522df6b7465756bfc0f2043e660938434ffc202d26c8f6534",
    ("full", 0): "cf9c1bc1381b2dca7970baa33870657cccdd184875d689cc90c08dbc56dd079d",
    ("full", 1): "d839f9873c5718fd959578d06fa9aaaa65853909ae07550854ef463777447d88",
    ("full", 2): "57806b01703cb24fb04aed3a8c7df0b2dbe4227058785973c031aa008cc3b556",
    ("full", 3): "ad04c8c6ba533514ba22f8ece7bb9b44aa15a67d0814b54d2d8e847b2c051477",
    ("units", 0): "309ea9b6f3ad446e83b96b5831b338b9d4acceeb4703ed75a4f23786518d907b",
    ("units", 1): "fab722d93a26f204881e5caa60f25c31068379f4c4b9c279fa38a934be4793a0",
    ("units", 2): "b211c0da35b197d3edd3d79d8c15c94590b870cf3d730938983429acf9d0df64",
    ("units", 3): "9b7c4c742840a14b3230b863188dbe4db4538a386827664a203dc1e4b16d4da8",
    ("phi", 0): "917c97eb3e0afd35ef4b67988d466ab28f68a693c1933f3e4639707d5bcfaa61",
    ("phi", 1): "41e6bb8409a27317f03f5f76160cbca33cf8b100e0523a0aa29a18dfb09bdf63",
    ("phi", 2): "30286377338c1da22917f09da8991bda15094af77278a2e50b25d26c0c8d6105",
    ("phi", 3): "b17908324ed604d7799b9817b9a0f47975737fbcd59d3fb8a2973539cdcf187c",
}


def _units_and_duplicates(seed):
    cnf = random_horn_cnf(seed, 10, 20, 3)
    clauses = [(c.body, c.head) for c in cnf.clauses]
    clauses += [(set(), seed % 10), clauses[0], clauses[5]]
    return hk.horn_cnf(10, clauses)


def _counter_case(kind, seed):
    if kind == "limited":
        return random_horn_cnf(seed, 36, 108, 3), 5
    if kind == "full":
        return random_horn_cnf(seed, 12, 30, 3), None
    if kind == "phi":
        return hk.key_horn_cnf(random_sperner(seed, 14, 20, 3)), None
    return _units_and_duplicates(seed), None


@pytest.mark.parametrize(
    "kind, seed", list(COUNTER_DIGESTS), ids=[f"{k}{s}" for k, s in COUNTER_DIGESTS]
)
def test_enumeration_counters_are_unchanged(kind, seed):
    cnf, limit = _counter_case(kind, seed)
    stats = hk.KeyEnumerationStats()
    keys = [sorted(k) for k in hk.iter_minimal_keys(cnf, limit=limit, stats=stats)]
    record = (
        keys,
        stats.closures,
        stats.candidates,
        stats.startup_closures,
        stats.max_delay_closures,
    )
    assert hashlib.sha256(repr(record).encode()).hexdigest() == COUNTER_DIGESTS[kind, seed]
