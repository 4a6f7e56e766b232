"""Closure, keys, minimization, equivalence."""

import copy
import dataclasses
import pickle
import random
import time

import pytest

import hornkeys as hk
from hornkeys.errors import ContractError, InputError
from hornkeys.formats import parse_horn, serialize_horn
from hornkeys.oracles import (
    bf_forward_closure,
    random_horn_cnf,
    random_sperner,
    random_threshold_graph,
)

A, B, C, D, E = range(5)


def test_closure_worked_examples(intro_cnf):
    assert hk.forward_closure(intro_cnf, set()) == frozenset()
    assert hk.forward_closure(intro_cnf, {A}) == {A, B}
    assert hk.forward_closure(intro_cnf, {C}) == {C}
    assert hk.forward_closure(intro_cnf, {A, C}) == {A, B, C, D, E}
    assert hk.forward_closure(intro_cnf, {B, C}) == {A, B, C, D, E}


def test_closure_matches_naive_oracle():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 8)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(0, 12))
        for mask in range(1 << n):
            s = frozenset(v for v in range(n) if (mask >> v) & 1)
            assert hk.forward_closure(cnf, s) == bf_forward_closure(cnf, s)


def test_closure_is_a_closure_operator():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.randint(1, 10)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(0, 15))
        s = frozenset(v for v in range(n) if rng.random() < 0.4)
        t = s | frozenset(v for v in range(n) if rng.random() < 0.3)
        fs, ft = hk.forward_closure(cnf, s), hk.forward_closure(cnf, t)
        assert s <= fs
        assert fs <= ft  # monotone
        assert hk.forward_closure(cnf, fs) == fs  # idempotent


def test_adding_a_clause_never_shrinks_closures():
    rng = random.Random(303)
    for _ in range(30):
        n = rng.randint(2, 8)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(1, 8))
        head = rng.randrange(n)
        body = frozenset(v for v in range(n) if v != head and rng.random() < 0.5) or frozenset(
            {(head + 1) % n}
        )
        bigger = hk.HornCNF(cnf.universe, list(cnf.clauses) + [hk.HornClause(body, head)])
        s = frozenset(v for v in range(n) if rng.random() < 0.4)
        assert hk.forward_closure(cnf, s) <= hk.forward_closure(bigger, s)


def test_is_implicate(intro_cnf):
    assert hk.is_implicate(intro_cnf, {A}, A)  # head in body: trivially entailed
    assert hk.is_implicate(intro_cnf, {A}, B)
    assert hk.is_implicate(intro_cnf, {B, C}, E)
    assert not hk.is_implicate(intro_cnf, {C}, D)


@pytest.mark.parametrize("head", [True, False, 1.0, 0.0, 1.5, "1", b"1", (1,), None, -1, 5, 2**70])
def test_is_implicate_rejects_bad_heads(intro_cnf, head):
    # a bool head is refused like a bool body variable, not read as 0 or 1
    with pytest.raises(InputError):
        hk.is_implicate(intro_cnf, {A}, head)


def test_is_key(intro_cnf):
    assert hk.is_key(intro_cnf, {A, B, C, D, E})
    assert hk.is_key(intro_cnf, {A, C})
    assert not hk.is_key(intro_cnf, {A, B})
    assert not hk.is_key(intro_cnf, set())


def test_keys_upward_closed():
    rng = random.Random(404)
    for _ in range(40):
        n = rng.randint(2, 9)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(1, 12))
        s = frozenset(v for v in range(n) if rng.random() < 0.5)
        if hk.is_key(cnf, s):
            assert hk.is_key(cnf, s | {rng.randrange(n)})


def test_minimize_key_drops_lowest_index_first(intro_cnf):
    # {a,b,c} is a key; scanning a,b,c in order drops a (bc still closes to V),
    # keeps b and c.
    assert hk.minimize_key(intro_cnf, {A, B, C}) == {B, C}
    assert hk.minimize_key(intro_cnf, {A, C}) == {A, C}
    assert hk.minimize_key(intro_cnf, {A, B, C, D, E}) == {B, C}


def test_minimize_key_rejects_non_keys(intro_cnf):
    with pytest.raises(ContractError) as exc:
        hk.minimize_key(intro_cnf, {A, B})
    assert exc.value.witness == {A, B}  # the closure, as evidence


def test_a_non_key_message_names_at_most_five_ids_per_list(intro_cnf):
    with pytest.raises(ContractError) as exc:
        hk.minimize_key(intro_cnf, {A, B})
    assert str(exc.value) == "set [0, 1] is not a key; its closure misses [2, 3, 4]"
    cnf = hk.horn_cnf(20, [({0}, 1)])
    with pytest.raises(ContractError) as exc:
        hk.minimize_key(cnf, range(0, 20, 2))
    assert str(exc.value) == (
        "set [0, 2, 4, 6, 8] and 5 more is not a key; "
        "its closure misses [3, 5, 7, 9, 11] and 4 more"
    )
    with pytest.raises(ContractError) as exc:
        hk.minimize_key(cnf, {0})
    assert str(exc.value) == (
        "set [0] is not a key; its closure misses [2, 3, 4, 5, 6] and 13 more"
    )


def test_minimize_key_randomized():
    rng = random.Random(505)
    for _ in range(50):
        n = rng.randint(2, 9)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(1, 12))
        full = frozenset(range(n))
        k = hk.minimize_key(cnf, full)
        assert k <= full and hk.is_key(cnf, k)
        for v in k:
            assert not hk.is_key(cnf, k - {v})


def test_equivalent(intro_cnf):
    psi = hk.horn_cnf(
        5,
        [({A}, B), ({B}, A), ({B, C}, D), ({B, C}, E)],
        labels=("a", "b", "c", "d", "e"),
    )
    assert hk.equivalent(intro_cnf, psi)
    assert hk.equivalent(intro_cnf, intro_cnf)
    plus = hk.HornCNF(
        intro_cnf.universe, list(intro_cnf.clauses) + [hk.HornClause(frozenset({C}), D)]
    )
    assert not hk.equivalent(intro_cnf, plus)


def test_equivalent_requires_same_universe(intro_cnf):
    other = hk.horn_cnf(4, [({A}, B)])
    with pytest.raises(InputError):
        hk.equivalent(intro_cnf, other)


def test_clause_validation():
    with pytest.raises(InputError):
        hk.HornClause(frozenset({0, 1}), 1)  # head may not appear in the body
    with pytest.raises(InputError):
        hk.horn_cnf(3, [({0}, 3)])
    with pytest.raises(InputError):
        hk.horn_cnf(3, [({-1}, 0)])
    with pytest.raises(InputError):
        hk.VariableUniverse(2, labels=("x", "x"))


@pytest.mark.parametrize(
    "labels, bad",
    [((1, 2), "1"), (("a", None), "None"), (("a", ["b"]), "['b']"), (("a", b"b"), "b'b'")],
)
def test_universe_labels_must_be_strings(labels, bad):
    # (1, 2) used to build, and serialize_horn then raised a raw TypeError;
    # an unhashable label raised one at once.
    with pytest.raises(InputError) as info:
        hk.VariableUniverse(2, labels)
    assert str(info.value) == f"labels must be strings, got {bad}"


def test_universe_labels_may_be_a_str_subclass():
    class Name(str):
        pass

    u = hk.VariableUniverse(2, (Name("a"), "b"))
    assert serialize_horn(hk.HornCNF(u, ())) == "horn 2 0\nnames a b\n"


@pytest.mark.parametrize("n", [3.0, True, "3", None])
def test_universe_size_must_be_an_int(n):
    # a float or bool size used to build and then fail in full_set()
    with pytest.raises(InputError, match=r"^universe size must be an int, got "):
        hk.VariableUniverse(n)


@pytest.mark.parametrize(
    "clause",
    [({True}, 2), ({False}, 2), ({0.0}, 1), ({"0"}, 1), ({0}, True), ({0}, 1.0), ({0}, "1"), ({0}, None)],
)
def test_clause_indices_must_be_ints(clause):
    # a bool used to read as 0 or 1, and a float head failed later in the kernel
    with pytest.raises(InputError, match=r"^clause 1: .* must be an int, got "):
        hk.horn_cnf(3, [({0}, 1), clause])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hk.horn_cnf(2, [({0}, [1])]), "head must be an int, got [1]"),
        (lambda: hk.horn_cnf(2, [([[0]], 1)]), "body variable must be an int, got [0]"),
        (lambda: hk.is_key(hk.horn_cnf(2, [({0}, 1)]), [[0]]), "variable index must be an int, got [0]"),
        # a one-shot iterator is spent by the failed frozenset, and 5 is no set at all
        (lambda: hk.horn_cnf(2, [(iter([[0]]), 1)]), "body variable must be an int, got an unhashable value"),
        (lambda: hk.sperner(3, [iter([[0]])]), "variable index must be an int, got an unhashable value"),
        (lambda: hk.is_key(hk.horn_cnf(2, [({0}, 1)]), 5), "variable index set must be an iterable of ids, got 5"),
    ],
    ids=["head", "body", "is_key", "body-iterator", "edge-iterator", "is_key-int"],
)
def test_unhashable_ids_are_input_errors(call, message):
    # these used to escape as TypeError: unhashable type: 'list'
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


def test_horn_clause_is_a_slotted_frozen_value():
    clause = hk.HornClause([2, 0], 1)
    assert not hasattr(clause, "__dict__")
    for twin in (pickle.loads(pickle.dumps(clause)), copy.deepcopy(clause), copy.copy(clause)):
        assert twin == clause and hash(twin) == hash(clause)
        assert (twin.body, twin.head) == (frozenset({0, 2}), 1)
    assert hash(clause) == hash(hk.HornClause({0, 2}, 1))
    assert dataclasses.replace(clause, head=3) == hk.HornClause({0, 2}, 3)
    with pytest.raises(InputError, match="tautology"):
        dataclasses.replace(clause, head=0)  # replace runs the same checks
    with pytest.raises(dataclasses.FrozenInstanceError):
        clause.head = 3
    with pytest.raises((AttributeError, TypeError)):
        clause.weight = 1  # slots leave no room for a new attribute


def _public_twin(value):
    """``value`` rebuilt through the public constructors, every check run."""
    if isinstance(value, hk.HornCNF):
        u = value.universe
        clauses = [hk.HornClause(set(c.body), c.head) for c in value.clauses]
        return hk.HornCNF(hk.VariableUniverse(u.n, u.labels), clauses)
    if isinstance(value, hk.ThresholdGraph):
        u = value.universe
        pairs = [(v, w) for w, v in reversed(value.graph.edges)]  # unsorted, reversed
        graph = hk.Graph(hk.VariableUniverse(u.n, u.labels), pairs)
        assert graph.edges == value.graph.edges
        return hk.ThresholdGraph(graph, list(value.thresholds))
    return hk.RoleMap(value.n_original, list(value.roles))


def _labelled(cnf):
    labels = [f"v{v}" for v in range(cnf.n)]
    return hk.HornCNF(hk.VariableUniverse(cnf.n, labels), cnf.clauses)


def _library_built_values(seed):
    """Values that parse_horn, key_horn_cnf, tss_to_horn and horn_to_tss build
    without running the public constructors' checks."""
    rng = random.Random(seed)
    cnf = random_horn_cnf(seed, rng.randint(1, 9), rng.randint(0, 12))
    yield parse_horn(serialize_horn(cnf))
    yield parse_horn(serialize_horn(_labelled(cnf)))
    yield hk.key_horn_cnf(random_sperner(seed, rng.randint(1, 9), rng.randint(1, 5)))
    tg = random_threshold_graph(seed, rng.randint(1, 8), rng.random(), tmax=3)
    yield hk.tss_to_horn(tg)
    if all(c.body for c in cnf.clauses):
        for source in (cnf, _labelled(cnf)):
            yield from hk.horn_to_tss(source)


@pytest.mark.parametrize("seed", range(40))
def test_values_built_without_checks_equal_their_public_rebuilds(seed):
    for value in _library_built_values(seed):
        twin = _public_twin(value)
        assert value == twin and hash(value) == hash(twin)
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value and hash(copied) == hash(value)
        if isinstance(value, hk.HornCNF):
            for c, t in zip(value.clauses, twin.clauses):
                assert type(c.body) is frozenset and type(c.head) is int
                assert c == t and hash(c) == hash(t)
                assert pickle.loads(pickle.dumps(c)) == c and copy.deepcopy(c) == c
                assert dataclasses.replace(c) == c
            assert bf_forward_closure(value, set()) == bf_forward_closure(twin, set())
            assert hk.forward_closure(value, set()) == hk.forward_closure(twin, set())
        elif isinstance(value, hk.ThresholdGraph):
            assert value.graph.adj_masks() == twin.graph.adj_masks()
            assert value.graph == twin.graph and hash(value.graph) == hash(twin.graph)
        else:
            assert dataclasses.replace(value) == value


def test_horn_to_tss_still_checks_that_gadget_labels_are_distinct():
    # A user label can collide with the label of a gadget vertex.
    cnf = hk.horn_cnf(2, [({0}, 1)], labels=("p^C1", "b"))
    with pytest.raises(InputError, match="^labels must be pairwise distinct$"):
        hk.horn_to_tss(cnf)


def test_label_lookups_leave_the_universe_value_unchanged():
    u = hk.VariableUniverse(3, ("a", "b", "c"))
    assert [u.index(lab) for lab in "cab"] == [2, 0, 1]
    fresh = hk.VariableUniverse(3, ("a", "b", "c"))
    for twin in (fresh, pickle.loads(pickle.dumps(u)), copy.deepcopy(u)):
        assert twin == u and hash(twin) == hash(u) and repr(twin) == repr(u)
    assert dataclasses.replace(u) == u
    for label in ("d", ["a"], 0):
        with pytest.raises(InputError, match="^unknown variable label "):
            u.index(label)
    with pytest.raises(InputError, match="^universe carries no labels$"):
        hk.VariableUniverse(3).index("a")


def test_label_lookups_take_constant_time_each():
    # Each lookup used to scan the label tuple: 20,000 of them on 20,000
    # labels took about 2 s.
    n = 20_000
    u = hk.VariableUniverse(n, [f"v{v}" for v in range(n)])
    start = time.perf_counter()
    assert [u.index(f"v{v}") for v in range(n)] == list(range(n))
    assert time.perf_counter() - start < 0.5


def test_empty_bodies_and_empty_cnf():
    cnf = hk.horn_cnf(3, [(set(), 0), (set(), 1)])
    assert hk.forward_closure(cnf, set()) == {0, 1}
    empty = hk.horn_cnf(3, [])
    assert hk.forward_closure(empty, {1}) == {1}
    assert hk.is_key(empty, {0, 1, 2})
    assert not hk.is_key(empty, {0, 1})


def test_lint_flags_duplicates(intro_cnf):
    assert hk.lint(intro_cnf) == []
    dup = hk.HornCNF(intro_cnf.universe, list(intro_cnf.clauses) * 2)
    warnings = hk.lint(dup)
    assert len(warnings) == 4 and all("duplicate" in w for w in warnings)
