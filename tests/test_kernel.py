"""The compiled closure kernel and its pure-Python twin must be interchangeable.

The compiled kernel is built from ``src/hornkeys/_fastclosure.c`` into a
temporary directory for these tests, so they run against the current source
whether or not the package was built in place.
"""

import random
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hornkeys as hk
from hornkeys import _closure_py
from hornkeys.oracles import random_horn_cnf

def test_backend_constant():
    assert hk.BACKEND in ("python", "c")


def test_engine_exposes_only_the_contract(engine_cls):
    eng = engine_cls(3, [[0], []], [1, 2])
    public = {name for name in dir(eng) if not name.startswith("_")}
    assert public == {"closure", "derives", "minimize", "expand", "expander", "n", "m"}


def _make(engine_cls, cnf):
    bodies = [sorted(c.body) for c in cnf.clauses]
    heads = [c.head for c in cnf.clauses]
    return engine_cls(cnf.universe.n, bodies, heads)


def _seeds(n, mask):
    return [v for v in range(n) if (mask >> v) & 1]


def test_backends_agree(compiled):
    rng = random.Random(0xBEEF)
    for _ in range(80):
        n = rng.randint(1, 12)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(0, 20))
        py, cy = _make(_closure_py.Engine, cnf), _make(compiled.Engine, cnf)
        for _ in range(32):
            seed = _seeds(n, rng.randrange(1 << n))
            target = rng.randrange(n)
            assert py.closure(seed) == cy.closure(seed)
            assert py.derives(seed, target) == cy.derives(seed, target)


def test_backends_agree_exhaustively_on_small_instances(compiled):
    rng = random.Random(0xFACE)
    for _ in range(20):
        n = rng.randint(1, 7)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(0, 10))
        py, cy = _make(_closure_py.Engine, cnf), _make(compiled.Engine, cnf)
        for mask in range(1 << n):
            seed = _seeds(n, mask)
            assert py.closure(seed) == cy.closure(seed)


def _random_clauses(rng, n, m):
    # Bodies of size 0..3, so unit clauses (empty bodies) occur.
    bodies, heads = [], []
    for _ in range(m):
        head = rng.randrange(n)
        others = [v for v in range(n) if v != head]
        bodies.append(rng.sample(others, rng.randint(0, min(3, len(others)))))
        heads.append(head)
    return bodies, heads


def test_derives_matches_closure_exhaustively(engine_cls):
    rng = random.Random(0xD0E5)
    for _ in range(40):
        n = rng.randint(1, 6)
        eng = engine_cls(n, *_random_clauses(rng, n, rng.randint(0, 9)))
        for mask in range(1 << n):
            seed = _seeds(n, mask)
            closed = eng.closure(seed)
            for target in range(n):
                assert eng.derives(seed, target) == (target in closed)


def test_engine_basics(engine_cls):
    eng = engine_cls(4, [[0], [1, 2]], [1, 3])
    assert eng.closure([0]) == [0, 1]
    assert eng.closure([0, 2]) == [0, 1, 2, 3]
    assert eng.closure([]) == []
    assert (eng.n, eng.m) == (4, 2)

    assert eng.derives([0, 2], 3) is True
    assert eng.derives([0], 3) is False
    assert eng.derives([2], 2) is True  # the target is in the seed
    assert eng.derives({0}, 1) is True

    with_units = engine_cls(3, [[], [0]], [0, 2])
    assert with_units.closure([]) == [0, 2]
    assert with_units.derives([], 2) is True
    assert with_units.derives([], 1) is False


def test_derives_shortcuts(engine_cls):
    # 0 -> 1, {} -> 2, {0, 3} -> 4, 1 -> 4; variables 0 and 3 head no clause
    eng = engine_cls(5, [[0], [], [0, 3], [1]], [1, 2, 4, 4])
    assert eng.derives([0, 1], 0) is True  # head-free, in the seed
    assert eng.derives([1, 2, 4], 0) is False  # head-free, out of the seed
    assert eng.derives([4], 3) is False
    assert eng.derives([], 2) is True  # its only clause has an empty body
    assert eng.derives([3], 2) is True
    assert eng.derives([0, 3], 4) is True  # one step: a body inside the seed
    assert eng.derives([1], 4) is True
    assert eng.derives([0], 4) is True  # two steps: 0 -> 1 -> 4
    assert eng.derives([3], 4) is False


def test_head_free_target_still_checks_the_seed(engine_cls):
    eng = engine_cls(3, [[0]], [1])
    with pytest.raises(ValueError):
        eng.derives([0, 3], 2)  # 2 heads no clause, but 3 is out of range
    with pytest.raises(ValueError):
        eng.derives([2, -1], 2)  # the target is in the seed, -1 is not a variable


def _reference_minimize(eng, seed):
    cur = set(seed)
    for v in sorted(cur):
        if eng.derives(cur - {v}, v):
            cur.discard(v)
    return sorted(cur)


def test_minimize_matches_a_loop_of_derives(engine_cls):
    rng = random.Random(0x3141)
    for _ in range(60):
        n = rng.randint(1, 9)
        eng = engine_cls(n, *_random_clauses(rng, n, rng.randint(0, 14)))
        for mask in rng.sample(range(1 << n), min(1 << n, 12)):
            seed = _seeds(n, mask) + _seeds(n, rng.randrange(1 << n))  # repeats too
            if len(eng.closure(seed)) != n:
                seed = list(range(n))  # minimize asks for a key
            assert eng.minimize(seed) == _reference_minimize(eng, seed)


def test_minimize_basics(engine_cls):
    # 0 <-> 1, {0, 2} -> 3, {} -> 4
    eng = engine_cls(5, [[1], [0], [0, 2], []], [0, 1, 3, 4])
    assert eng.minimize(range(5)) == [1, 2]
    assert eng.minimize({4, 3, 2, 1, 0}) == [1, 2]
    assert eng.minimize(iter([0, 2, 3])) == [0, 2]
    assert engine_cls(0, [], []).minimize([]) == []


def test_suffix_rule_drops_what_one_step_cannot_decide(engine_cls):
    # {4} -> 2, {2} -> 1, {1, 3} -> 0.  Dropping 1 from {1, 3, 4} takes two
    # steps, 4 -> 2 -> 1; 1 lies in the closure of {3, 4}, so the suffix
    # rule drops it.  3 and 4 head no clause and stay.
    eng = engine_cls(5, [[4], [2], [1, 3]], [2, 1, 0])
    assert eng.minimize([1, 3, 4]) == [3, 4]
    # {2} -> 0, {0} -> 1: one step drops 0; 1 then needs 2 -> 0 -> 1, and
    # the closure of {2} is all of V, which settles 1 with no test.
    eng = engine_cls(3, [[2], [0]], [0, 1])
    assert eng.minimize(range(3)) == [2]


def test_suffix_rule_that_decides_nothing(engine_cls):
    # {1} -> 0, {0} -> 1: one step drops 0; dropping 1 from {1, 2} is then
    # undecided by one step, and 1 lies outside the closure of {2}, so the
    # chain decides it and keeps it.
    eng = engine_cls(3, [[1], [0]], [0, 1])
    assert eng.minimize(range(3)) == [1, 2]


def test_suffix_rule_with_empty_bodies(engine_cls):
    # {} -> 3, {2, 3} -> 0, {0} -> 1: the suffix closure starts from {3}.
    eng = engine_cls(4, [[], [2, 3], [0]], [3, 0, 1])
    assert eng.minimize(range(4)) == [2]
    assert eng.minimize([1, 2, 3]) == [2]
    # {} -> 2, {3} -> 0, {0} -> 1: the pass settles 1 and the unit head 2
    eng = engine_cls(4, [[], [3], [0]], [2, 0, 1])
    assert eng.minimize(range(4)) == [3]


@pytest.mark.parametrize("extra", [0, 1], ids=["half", "over-half"])
def test_minimize_on_each_side_of_the_size_rule(engine_cls, extra):
    # Seeds of exactly n // 2 and n // 2 + 1 variables, so the suffix rule
    # is off for the first and on for the second.
    rng = random.Random(0x5EED + extra)
    tried = 0
    while tried < 40:
        n = rng.randint(2, 14)
        eng = engine_cls(n, *_random_clauses(rng, n, rng.randint(n, 3 * n)))
        seed = rng.sample(range(n), n // 2 + extra)
        if len(eng.closure(seed)) != n:
            continue
        tried += 1
        expected = _reference_minimize(eng, seed)
        assert eng.minimize(seed) == expected


def test_full_seed_minimize_on_an_enum_sized_cnf(engine_cls):
    for seed in range(4):
        eng = _make(engine_cls, random_horn_cnf(seed, 36, 108))
        expected = _reference_minimize(eng, range(36))
        assert eng.minimize(range(36)) == expected


@pytest.mark.parametrize("seed", [[0, 1, 5], [0, -1], [2**80], None])
def test_minimize_rejects_a_bad_seed(engine_cls, seed):
    eng = engine_cls(3, [[0], [1]], [1, 2])
    with pytest.raises((ValueError, TypeError)):
        eng.minimize(seed)
    assert eng.minimize(range(3)) == [0]


def _reference_expand(eng, bodies, heads, key):
    # The expansion built from ``minimize``: pairs (v, clause A -> v) by v
    # ascending, then clause order; a repeated result keeps its first place.
    # Each pair's minimize tries one drop per variable of its seed.
    out, tried, closures = [], 0, 0
    for v in sorted(set(key)):
        for body, head in zip(bodies, heads):
            if head == v:
                seed = (set(key) - {v}) | set(body)
                tried += 1
                closures += len(seed)
                k2 = frozenset(eng.minimize(seed))
                if k2 not in out:
                    out.append(k2)
    return out, tried, closures


def _few_units(rng, n, m):
    # Bodies of 1 to 3 variables, and an empty one in about one clause of
    # ten: with more, most minimal keys hold only head-free variables and
    # give no pair to expand.
    bodies, heads = [], []
    for _ in range(m):
        head = rng.randrange(n)
        others = [v for v in range(n) if v != head]
        size = 0 if rng.random() < 0.1 or not others else rng.randint(1, min(3, len(others)))
        bodies.append(rng.sample(others, size))
        heads.append(head)
    return bodies, heads


def test_expand_matches_a_loop_of_minimize(engine_cls):
    rng = random.Random(0xE8A4)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 10)
        bodies, heads = _few_units(rng, n, rng.randint(0, 3 * n))
        eng = engine_cls(n, bodies, heads)
        for _ in range(4):
            seed = _seeds(n, rng.randrange(1 << n))
            key = eng.minimize(seed + [v for v in range(n) if v not in eng.closure(seed)])
            expected = _reference_expand(eng, bodies, heads, key)
            assert eng.expand(key) == expected
            checked += bool(expected[1])
    assert checked > 200


def test_expand_basics(engine_cls):
    # 0 <-> 1, {0, 2} -> 3, {} -> 4: minimal keys {0, 2} and {1, 2}
    eng = engine_cls(5, [[1], [0], [0, 2], []], [0, 1, 3, 4])
    assert eng.expand([1, 2]) == ([frozenset({0, 2})], 1, 2)
    assert eng.expand(iter([2, 0])) == ([frozenset({1, 2})], 1, 2)
    # 1 -> 0 twice, 0 -> 1: both pairs give {1}, kept once, each seed {1}
    eng = engine_cls(2, [[1], [1], [0]], [0, 0, 1])
    assert eng.expand({0}) == ([frozenset({1})], 2, 2)
    # {1, 2} -> 0, 0 -> 1, 0 -> 2: from {1, 2} the seeds {0, 2} and {0, 1}
    eng = engine_cls(3, [[1, 2], [0], [0]], [0, 1, 2])
    assert eng.expand([0]) == ([frozenset({1, 2})], 1, 2)
    assert eng.expand([1, 2]) == ([frozenset({0})], 2, 4)
    assert engine_cls(0, [], []).expand([]) == ([], 0, 0)
    assert engine_cls(2, [], []).expand([0, 1]) == ([], 0, 0)


@pytest.mark.parametrize("key", [[0, 1, 5], [0, -1], [2**80], None, [1, 0.0], ["0"], 3])
def test_expand_rejects_a_bad_key(compiled, key):
    errors = []
    for cls in (_closure_py.Engine, compiled.Engine):
        eng = cls(3, [[0], [1]], [1, 2])
        for expand in (eng.expand, eng.expander()):
            with pytest.raises((ValueError, TypeError)) as info:
                expand(key)
            errors.append(info.type)
    assert len(set(errors)) == 1


def _twin_pairs(k):
    # 0 <-> 1, 2 <-> 3, ... for k pairs: the 2**k minimal keys take one of
    # each pair.
    return 2 * k, [[v ^ 1] for v in range(2 * k)], list(range(2 * k))


_TWINS = _twin_pairs(3)


def _clauses_of_a_cnf(seed, n, m):
    cnf = random_horn_cnf(seed, n, m)
    return [sorted(c.body) for c in cnf.clauses], [c.head for c in cnf.clauses]


def _walk(eng, expand, limit=None):
    # The walk of ``keygen._walk`` on the callable ``expand``, stopped after
    # ``limit`` expansions: the keys expanded in pop order, the pairs tried
    # and the closures spent, the first minimize's n included.
    first = frozenset(eng.minimize(range(eng.n)))
    pending, visited, order = [first], {first}, []
    tried = closures = 0
    while pending and len(order) != limit:
        key = pending.pop()
        out, pairs, spent = expand(key)
        tried += pairs
        closures += spent
        new = [k for k in out if k not in visited]
        visited.update(new)
        pending += new
        order.append(sorted(key))
    return order, tried, eng.n + closures


def test_walk_on_expand_matches_a_walk_on_minimize(engine_cls):
    for seed in range(12):
        n, m = (12, 30) if seed % 2 else (16, 40)
        bodies, heads = _clauses_of_a_cnf(seed, n, m)
        eng = engine_cls(n, bodies, heads)
        got = _walk(eng, eng.expander())
        expected = _walk(eng, lambda key: _reference_expand(eng, bodies, heads, key))
        assert got == expected


def _expansions(eng, expand, limit=None):
    # Every expansion of a walk on ``expand``, as (key, out, tried, closures).
    calls = []

    def record(key):
        result = expand(key)
        calls.append((sorted(key), *result))
        return result

    _walk(eng, record, limit)
    return calls


def _memo_entries(eng, hand_on, limit=None):
    # The entries of all the memos of a walk on the pure engine's
    # ``_expand``, one per chained drop test, each call given the memo of the
    # one before or none.
    entries = 0
    older = None

    def expand(key):
        nonlocal entries, older
        out, tried, closures, memo = eng._expand(key, older)
        entries += len(memo)
        older = memo if hand_on else None
        return out, tried, closures

    _walk(eng, expand, limit)
    return entries


def test_handing_on_verdicts_changes_no_expansion(engine_cls):
    # Sparse random CNFs, and CNFs with empty bodies, some with duplicate
    # clauses; n = 0 first.  A walk's expander gives what ``expand`` alone
    # gives; on the pure engine, the memo it hands on settles drop tests.
    rng = random.Random(0x7E4D)
    walks = chained = settled = 0
    for i in range(160):
        n = rng.randint(1, 14) if i else 0
        if i % 2:
            bodies, heads = _clauses_of_a_cnf(i, n, rng.randint(n, 3 * n))
        else:
            bodies, heads = _few_units(rng, n, rng.randint(n, 5 * n))
        if bodies and rng.random() < 0.5:
            for j in rng.sample(range(len(bodies)), min(3, len(bodies))):
                bodies.append(bodies[j])
                heads.append(heads[j])
        eng = engine_cls(n, bodies, heads)
        handed = _expansions(eng, eng.expander(), limit=60)
        assert handed == _expansions(eng, eng.expand, limit=60)
        walks += len(handed) > 1
        if engine_cls is _closure_py.Engine:
            entries = _memo_entries(eng, True, 60)
            chained += entries
            settled += _memo_entries(eng, False, 60) - entries
        else:
            assert eng.expander() == eng.expand  # the compiled kernel keeps no memo
    assert walks > 70
    if engine_cls is _closure_py.Engine:
        assert settled > chained // 10


def test_an_expander_hands_each_memo_to_its_next_call(monkeypatch):
    # Each call of an expander gets the memo of its call before; ``expand``
    # and a new expander start with none.
    calls = []
    expand_with = _closure_py.Engine._expand

    def spy(self, key, older):
        result = expand_with(self, key, older)
        calls.append((older, result[3]))
        return result

    monkeypatch.setattr(_closure_py.Engine, "_expand", spy)
    eng = _closure_py.Engine(*_TWINS)
    expand = eng.expander()
    expand([0, 2, 4])
    expand([1, 2, 4])
    eng.expand([0, 2, 4])
    expand([0, 3, 4])
    eng.expander()([0, 2, 4])
    olders = [older for older, _ in calls]
    assert olders[0] is None and olders[2] is None and olders[4] is None
    assert olders[1] is calls[0][1] and olders[3] is calls[1][1]


def test_verdicts_settle_repeated_drop_tests():
    # Every drop test here chains: one step never decides it, and seeds of
    # half the variables are too small for the suffix rule.  Expanding
    # {0, 2, 4} tests nine pairs; expanding {1, 2, 4} tests nine too, seven
    # of them already tested, so with the first call's memo it chains two.
    eng = _closure_py.Engine(*_TWINS)
    out, tried, closures, first = eng._expand([0, 2, 4], None)
    assert (tried, closures, len(first)) == (3, 9, 9)
    assert out == [frozenset({1, 2, 4}), frozenset({0, 3, 4}), frozenset({0, 2, 5})]
    fresh = eng._expand([1, 2, 4], None)
    handed = eng._expand([1, 2, 4], first)
    assert handed[:3] == fresh[:3] == eng.expand([1, 2, 4]) == (
        [frozenset({0, 2, 4}), frozenset({1, 3, 4}), frozenset({1, 2, 5})], 3, 9
    )
    assert (len(fresh[3]), len(handed[3])) == (9, 2)
    # The memo is this call's alone: the second call's two entries do not
    # hold the seven sets it read from the first call's.
    assert len(eng._expand([0, 2, 4], handed[3])[3]) == 9


def test_verdicts_stay_within_the_closure_count():
    """Each entry of a call's memo is one drop test that it chained, and a
    call chains at most one test per drop tried: len(memo) <= closures.
    A call runs at most m pairs on seeds of at most n variables, so
    closures <= m·n, and what an expansion consults, its own entries and
    those of the call before, is at most 2·m·n <= 2·(m(n+1)+1) entries:
    twice the delay bound.  The memory cap bounds it further (see the next
    test).
    """
    n, bodies, heads = _twin_pairs(8)
    eng = _closure_py.Engine(n, bodies, heads)
    counts = []
    older = None

    def expand(key):
        nonlocal older
        out, tried, closures, older = eng._expand(key, older)
        counts.append((len(older), closures))
        return out, tried, closures

    order, _, _ = _walk(eng, expand)
    assert len(order) == 256
    assert all(entries <= closures <= len(heads) * n for entries, closures in counts)
    assert any(entries for entries, _ in counts)


def test_verdicts_keep_within_a_memory_budget():
    """A call stores at most ``_MEMO_SIZES * (n + m + Σ|body|) // (n + 1)``
    entries, each at most n variables and n + 1 flags: its memory is linear
    in the engine's size.  On 80 twin pairs every one of the 6,400 drop
    tests of an expansion chains and fails, so with no cap each would keep
    its set and its n + 1 flags, about 13 MB, where the cap keeps 47.
    """
    n, bodies, heads = _twin_pairs(80)
    eng = _closure_py.Engine(n, bodies, heads)
    cap = _closure_py._MEMO_SIZES * (n + len(heads) + n) // (n + 1)
    budget = cap * (8 * (2 * n + 1) + 256)  # the entries' references, plus headers
    key = list(range(0, n, 2))
    first = eng._expand(key, None)[3]
    tracemalloc.start()
    try:
        out, _, closures, memo = eng._expand([1, *key[1:]], first)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert closures == 80 * 80 and len(first) == len(memo) == cap == 47
    # All variables are small ints, which take no memory of their own.
    out_bytes = sys.getsizeof(out) + sum(map(sys.getsizeof, out))
    assert peak - out_bytes <= 2 * budget  # the entries, and the scratch


@pytest.mark.parametrize(
    "n, bodies, heads",
    [
        (3, [[0]], [7]),
        (3, [[0]], [-1]),
        (3, [[5]], [1]),
        (3, [[-1]], [1]),
        (3, [[], [0, 3]], [1, 2]),
        (0, [[]], [0]),
        (-1, [], []),
        (3, [[0], [1]], [2]),
    ],
)
def test_engine_rejects_bad_clauses(engine_cls, n, bodies, heads):
    with pytest.raises(ValueError):
        engine_cls(n, bodies, heads)


@pytest.mark.parametrize(
    "n, bodies, heads",
    [
        (3, [[0]], [1.0]),
        (3, [[0]], [7.0]),
        (3, [[1.0]], [0]),
        (3, [[7.0]], [0]),
        (3, [[-1.0]], [0]),
        (3, [[0], [1]], [1.0, 7]),
        (3.0, [[0]], [1]),
        (-1.0, [], []),
    ],
)
def test_engine_rejects_non_integer_indices(engine_cls, n, bodies, heads):
    with pytest.raises(TypeError):
        engine_cls(n, bodies, heads)


def test_engine_checks_indices_in_order(engine_cls):
    # an out-of-range head before a float one is the error both backends report
    with pytest.raises(ValueError):
        engine_cls(3, [[0], [1]], [7, 1.0])


def test_engine_rejects_non_integer_target(engine_cls):
    eng = engine_cls(3, [[0]], [1])
    for target in (1.0, 7.0, -1.0, "1"):
        with pytest.raises(TypeError):
            eng.derives([0], target)
    assert eng.derives([0], 1) is True


def test_engine_rejects_out_of_range_seed(engine_cls):
    eng = engine_cls(3, [[0]], [1])
    with pytest.raises(ValueError):
        eng.closure([3])
    with pytest.raises(ValueError):
        eng.closure([-1])
    with pytest.raises(ValueError):
        eng.derives([0, 3], 1)
    with pytest.raises(ValueError):
        eng.derives([0], 3)
    with pytest.raises(ValueError):
        eng.derives([0], -1)
    with pytest.raises(ValueError):
        eng.derives([1], 2**80)


@pytest.mark.parametrize("bad", [0.0, 2.0, 7.0, -1.0, "0"])
def test_engine_rejects_non_integer_seed(engine_cls, bad):
    eng = engine_cls(3, [[0]], [1])
    with pytest.raises(TypeError):
        eng.closure([0, bad])
    with pytest.raises(TypeError):
        eng.derives([bad], 2)
    with pytest.raises(TypeError):
        eng.minimize([1, bad])


def test_engine_rejects_mismatched_lists():
    with pytest.raises(ValueError):
        _closure_py.Engine(3, [[0], [1]], [2])


@st.composite
def _cnfs(draw):
    """(n, bodies, heads) with n <= 12, empty bodies and duplicate clauses."""
    n = draw(st.integers(0, 12))
    clauses = []
    if n:
        for head in draw(st.lists(st.integers(0, n - 1), max_size=24)):
            others = [v for v in range(n) if v != head]
            body = draw(st.lists(st.sampled_from(others), max_size=4, unique=True)) if others else []
            clauses.append((body, head))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=4))
    return n, [b for b, _ in clauses], [h for _, h in clauses]


def _seed_lists(n):
    # out-of-range and non-integer entries included; repeats too
    entries = st.integers(-2, n + 1) | st.sampled_from([0.0, -1.0, float(n), 2**70])
    return st.lists(entries, max_size=n + 3)


def _outcome(call, *args):
    try:
        return call(*args)
    except (ValueError, TypeError) as e:
        return type(e)


_PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_PROPERTY_SETTINGS
@given(data=st.data(), cnf=_cnfs())
def test_backends_agree_on_random_input(compiled, data, cnf):
    py, cc = _closure_py.Engine(*cnf), compiled.Engine(*cnf)
    n = cnf[0]
    expanders = {py: py.expander(), cc: cc.expander()}  # one walk per engine

    def expand(eng, seed):
        return eng.expand(seed)

    def expand_a_key(eng, seed):
        # An expander is defined for a key argument only: the seed, checked,
        # is made one.
        key = eng.minimize(seed + [v for v in range(n) if v not in eng.closure(seed)])
        return expanders[eng](key)

    for _ in range(6):
        seed = data.draw(_seed_lists(n))
        target = data.draw(st.integers(-1, n))
        for method, args in [("closure", (seed,)), ("derives", (seed, target)), ("minimize", (seed,))]:
            assert _outcome(getattr(py, method), *args) == _outcome(getattr(cc, method), *args)
        for call in (expand, expand_a_key):
            assert _outcome(call, py, seed) == _outcome(call, cc, seed)


@_PROPERTY_SETTINGS
@given(data=st.data(), cnf=_cnfs(), backend=st.sampled_from(["python", "c"]))
def test_minimize_is_the_greedy_key_shrink(compiled, data, cnf, backend):
    n = cnf[0]
    eng = (_closure_py.Engine if backend == "python" else compiled.Engine)(*cnf)
    seed = set(data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n)))
    key = seed | (set(range(n)) - set(eng.closure(seed)))  # every seed grows into a key
    cur = set(key)
    for v in sorted(key):
        if len(eng.closure(cur - {v})) == n:
            cur.discard(v)
    assert eng.minimize(key) == sorted(cur)

