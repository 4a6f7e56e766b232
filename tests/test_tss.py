"""Target set selection: activation, both reductions, minimum problems."""

import dataclasses
import itertools
import math
import random

import pytest

import hornkeys as hk
from hornkeys.errors import ContractError, InputError, ResourceGuardError
from hornkeys.oracles import (
    bf_min_target_set,
    bf_minimal_keys,
    bf_minimal_target_sets,
    bf_target_sets,
    random_horn_cnf,
    random_threshold_graph,
)

A, B, C, D, E = range(5)


def test_activation_worked_examples(wheel_tss):
    assert hk.activate(wheel_tss, {B}) == {A, B, C, D, E}
    assert hk.activate(wheel_tss, set()) == frozenset()
    assert hk.activate(wheel_tss, {E}) == {A, B, C, D, E}
    assert hk.is_target_set(wheel_tss, {B})
    assert hk.is_target_set(wheel_tss, {A, B, C, D, E})


def test_activation_is_monotone_and_idempotent():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 9)
        tg = random_threshold_graph(rng.randrange(2**32), n, rng.random())
        s = frozenset(v for v in range(n) if rng.random() < 0.4)
        t = s | frozenset(v for v in range(n) if rng.random() < 0.3)
        fs, ft = hk.activate(tg, s), hk.activate(tg, t)
        assert s <= fs and fs <= ft
        assert hk.activate(tg, fs) == fs


def test_threshold_graph_validation():
    with pytest.raises(InputError):
        hk.threshold_graph(2, [(0, 1)], [1, 0])  # thresholds start at 1
    with pytest.raises(InputError):
        hk.threshold_graph(2, [(0, 1)], [1])  # one threshold per vertex


@pytest.mark.parametrize("bad", [1.7, 2.0, True, "2", None])
def test_threshold_graph_rejects_non_int_thresholds(bad):
    # used to be truncated by int(): 1.7 and True both read as 1, "2" as 2
    with pytest.raises(InputError, match="threshold of vertex 1 must be an int"):
        hk.threshold_graph(2, [(0, 1)], [1, bad])


def test_tss_to_horn_worked_example(wheel_tss):
    psi = hk.tss_to_horn(wheel_tss)
    got = [(tuple(sorted(c.body)), c.head) for c in psi.clauses]
    assert got == [
        ((B,), A), ((D,), A), ((E,), A),
        ((A,), B), ((C,), B),
        ((B,), C), ((D,), C), ((E,), C),
        ((A,), D), ((C,), D), ((E,), D),
        ((A, C), E), ((A, D), E), ((C, D), E),
    ]


def test_tss_to_horn_threshold_above_degree_contributes_nothing():
    # t(1) = 2 > deg(1) = 1: vertex 1 can never be activated from outside
    tg = hk.threshold_graph(3, [(0, 1), (0, 2)], [1, 2, 1])
    psi = hk.tss_to_horn(tg)
    assert all(c.head != 1 for c in psi.clauses)
    assert all(1 in s for s in bf_target_sets(tg))


def test_tss_to_horn_guard():
    star = hk.graph(6, [(0, v) for v in range(1, 6)])
    tg = hk.ThresholdGraph(star, [4, 1, 1, 1, 1, 1])
    with pytest.raises(ResourceGuardError):
        hk.tss_to_horn(tg)
    assert len(hk.tss_to_horn(tg, max_threshold=4).clauses) == 5 + 5


def test_activation_equals_closure_of_psi():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 8)
        tg = random_threshold_graph(rng.randrange(2**32), n, rng.random())
        psi = hk.tss_to_horn(tg)
        for mask in range(1 << n):
            s = frozenset(v for v in range(n) if (mask >> v) & 1)
            assert hk.activate(tg, s) == hk.forward_closure(psi, s)


def test_minimal_target_sets(wheel_tss):
    got = list(hk.iter_minimal_target_sets(wheel_tss))
    assert sorted(sorted(s) for s in got) == [[A], [B], [C], [D], [E]]
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(1, 8)
        tg = random_threshold_graph(rng.randrange(2**32), n, rng.random())
        assert set(hk.iter_minimal_target_sets(tg)) == set(bf_minimal_target_sets(tg))


def test_enumerate_minimal_target_sets_stats(wheel_tss):
    out = []
    stats = hk.enumerate_minimal_target_sets(wheel_tss, sink=out.append)
    assert stats.keys == len(out) == 5


def test_minimum_problems(wheel_tss, intro_cnf):
    assert hk.minimum_target_set(wheel_tss) == {A}
    assert hk.minimum_key(intro_cnf) == {A, C}
    assert hk.minimum_key(hk.horn_cnf(2, [(set(), 0), (set(), 1)])) == frozenset()
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randint(1, 7)
        tg = random_threshold_graph(rng.randrange(2**32), n, rng.random())
        assert len(hk.minimum_target_set(tg)) == len(bf_min_target_set(tg))


def test_minimum_key_budget_guard(intro_cnf):
    # c heads no clause, so the search examines only supersets of {c}:
    # {c}, then the optimum {a, c}.
    with pytest.raises(ResourceGuardError):
        hk.minimum_key(intro_cnf, budget=1)
    assert hk.minimum_key(intro_cnf, budget=2) == {A, C}


def test_minimum_target_set_budget_guard():
    # A star with center 0 of threshold 2; leaf 1 has threshold 2 and degree
    # 1, so it lies in every target set.  The search examines {1}, then the
    # optimum {0, 1}.
    tg = hk.ThresholdGraph(hk.graph(4, [(0, 1), (0, 2), (0, 3)]), [2, 2, 1, 1])
    with pytest.raises(ResourceGuardError):
        hk.minimum_target_set(tg, budget=1)
    assert hk.minimum_target_set(tg, budget=2) == {0, 1}


def test_minimum_searches_match_the_oracles():
    # The pruned searches must return the lexicographically first optimum
    # that a scan of all subsets finds.
    rng = random.Random(0x51DE)
    forced_keys = forced_sets = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(0, 2 * n))
        best = min(bf_minimal_keys(cnf), key=lambda k: (len(k), sorted(k)))
        assert hk.minimum_key(cnf) == best
        forced_keys += len({c.head for c in cnf.clauses}) < n
        tg = random_threshold_graph(rng.randrange(2**32), n, rng.random(), tmax=3)
        assert hk.minimum_target_set(tg) == bf_min_target_set(tg)
        forced_sets += any(t > tg.graph.degree(v) for v, t in enumerate(tg.thresholds))
    assert forced_keys > 100 and forced_sets > 100  # the pruning is exercised


def test_horn_to_tss_shape(intro_cnf):
    tg, roles = hk.horn_to_tss(intro_cnf)
    n = intro_cnf.n
    body_sizes = [len(c.body) for c in intro_cnf.clauses]
    assert tg.n == n + sum(4 * k + 5 for k in body_sizes)
    assert len(tg.graph.edges) == sum(6 * k + 6 for k in body_sizes)
    assert roles.n_original == n and roles.n_total == tg.n == n + len(roles.roles)
    # original vertices keep threshold 1; hubs carry the body size
    assert all(tg.thresholds[v] == 1 for v in range(n))
    hubs = [v for v, (ci, role, var) in enumerate(roles.roles, n) if role == "p"]
    assert sorted(tg.thresholds[h] for h in sorted(hubs)) == sorted(body_sizes)


def test_horn_to_tss_rejects_empty_bodies():
    with pytest.raises(InputError):
        hk.horn_to_tss(hk.horn_cnf(2, [(set(), 1)]))


def test_horn_to_tss_no_backward_activation(intro_cnf):
    # a gadget chain never activates its original variable "for free": seeding
    # all originals but one never activates the missing one unless it is a
    # consequence of the clauses
    tg, roles = hk.horn_to_tss(intro_cnf)
    n = intro_cnf.n
    for v in range(n):
        seed = frozenset(range(n)) - {v}
        active = hk.activate(tg, seed)
        should = hk.forward_closure(intro_cnf, seed)
        assert active & frozenset(range(n)) == should


def test_horn_to_tss_keys_are_target_sets_and_back():
    rng = random.Random(45)
    for _ in range(40):
        n = rng.randint(2, 6)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(1, 5))
        tg, roles = hk.horn_to_tss(cnf)
        # every key of the CNF is a target set of the gadget as-is
        for mask in range(1 << n):
            s = frozenset(v for v in range(n) if (mask >> v) & 1)
            if hk.is_key(cnf, s):
                assert hk.is_target_set(tg, s)
        # random target sets of the gadget lift back to keys of no larger size
        for _ in range(25):
            cand = frozenset(v for v in range(tg.n) if rng.random() < 0.55)
            if hk.is_target_set(tg, cand):
                k = hk.lift_target_set_to_key(cnf, roles, cand, tg=tg)
                assert hk.is_key(cnf, k) and len(k) <= len(cand)


def test_horn_to_tss_minimum_sizes_coincide():
    rng = random.Random(46)
    checked = 0
    for _ in range(12):
        n = rng.randint(2, 4)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(1, 3), max_body=2)
        tg, roles = hk.horn_to_tss(cnf)
        k_star = min(
            (
                frozenset(v for v in range(n) if (m >> v) & 1)
                for m in range(1 << n)
                if hk.is_key(cnf, frozenset(v for v in range(n) if (m >> v) & 1))
            ),
            key=len,
        )
        if sum(math.comb(tg.n, size) for size in range(len(k_star))) > 60_000:
            continue
        # no gadget target set can be smaller: check all subsets below |k*|
        for size in range(len(k_star)):
            for cand in itertools.combinations(range(tg.n), size):
                assert not hk.is_target_set(tg, frozenset(cand))
        assert hk.is_target_set(tg, k_star)
        checked += 1
    assert checked >= 6


def test_role_map_is_a_hashable_immutable_value():
    # The entries used to sit in a shared dict: the map could not be hashed,
    # and deleting an entry made lifting that vertex raise KeyError.
    cnf = hk.horn_cnf(2, [({0}, 1)])
    _, roles = hk.horn_to_tss(cnf)
    again = hk.RoleMap(2, list(roles.roles))
    assert again == roles and hash(again) == hash(roles) and len({roles, again}) == 1
    assert roles.n_total == 2 + len(roles.roles) == 11
    with pytest.raises(TypeError):
        del roles.roles[0]
    with pytest.raises(TypeError):
        roles.roles[0] = (0, "p", 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        roles.roles = ()
    assert hk.lift_target_set_to_key(cnf, roles, {10}) == {1}
    # An entry is one gadget vertex, so a map is complete by construction.
    assert hk.RoleMap(1, ()).n_total == 1


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, ((0, "p"),)), "role entry 1 is not a (clause, role, var) triple"),
        ((1, (None, (0, "p", 0))), "role entry 1 is not a (clause, role, var) triple"),
        ((1, ((0, "p", 0), [0, "p", 0])), "role entry 2 is not a (clause, role, var) triple"),
        ((1, ((0, "p", 0), (0, "q", 0))), "vertex 2: unknown gadget role 'q'"),
        ((1.0, ((0, "p", 0),)), "role map size must be an int, got 1.0"),
        ((True, ()), "role map size must be an int, got True"),
        ((-1, ()), "role map size must be nonnegative, got -1"),
    ],
)
def test_role_map_size_and_entries_are_checked(args, message):
    with pytest.raises(InputError) as info:
        hk.RoleMap(*args)
    assert str(info.value) == message


def test_lift_validates_input(intro_cnf):
    tg, roles = hk.horn_to_tss(intro_cnf)
    for s in [{tg.n}, {-1}, {1.7}, {"2"}, {True}]:
        with pytest.raises(InputError):
            hk.lift_target_set_to_key(intro_cnf, roles, s)
    with pytest.raises(ContractError):
        hk.lift_target_set_to_key(intro_cnf, roles, {0}, tg=tg)  # {a} not a target set
    # Role maps of other CNFs: fewer variables, a clause past the last one,
    # and a chain vertex attached to a variable the CNF does not have.
    _, fewer = hk.horn_to_tss(hk.horn_cnf(3, [({0}, 1), ({1}, 2)]))
    _, more = hk.horn_to_tss(
        hk.horn_cnf(5, [(c.body, c.head) for c in intro_cnf.clauses] + [({3}, 4)])
    )
    hub = next(v for v, (ci, role, _) in enumerate(more.roles, 5) if (ci, role) == (4, "p"))
    stray = hk.RoleMap(5, ((0, "x", 7),))
    for rm, s in [(fewer, {3, 4}), (fewer, {12}), (more, {hub}), (stray, {5})]:
        with pytest.raises(InputError):
            hk.lift_target_set_to_key(intro_cnf, rm, s)


def test_exhaustive_lift_on_one_small_gadget():
    # single clause ab→c: gadget is small enough to sweep every subset
    cnf = hk.horn_cnf(3, [({0, 1}, 2)])
    tg, roles = hk.horn_to_tss(cnf)
    assert tg.n == 3 + 13
    hits = 0
    for mask in range(1 << tg.n):
        s = frozenset(v for v in range(tg.n) if (mask >> v) & 1)
        if hk.activate(tg, s) == frozenset(range(tg.n)):
            k = hk.lift_target_set_to_key(cnf, roles, s, tg=tg)
            assert len(k) <= len(s)
            hits += 1
    assert hits > 0
