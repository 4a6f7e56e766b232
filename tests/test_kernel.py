"""The compiled closure kernel and its pure-Python twin must be interchangeable.

The compiled kernel is built from ``src/hornkeys/_fastclosure.c`` into a
temporary directory for these tests, so they run against the current source
whether or not the package was built in place.
"""

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hornkeys as hk
from hornkeys import _closure_py
from hornkeys.oracles import random_horn_cnf

C_SOURCE = Path(__file__).resolve().parents[1] / "src" / "hornkeys" / "_fastclosure.c"


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The ``_fastclosure`` module compiled from source; skips without a C compiler."""
    from setuptools import Distribution, Extension
    from setuptools.errors import CCompilerError, ExecError, PlatformError

    out = tmp_path_factory.mktemp("fastclosure")
    dist = Distribution({"ext_modules": [Extension("_fastclosure", [str(C_SOURCE)])]})
    cmd = dist.get_command_obj("build_ext")
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "tmp")
    try:
        cmd.ensure_finalized()
        cmd.run()
    except (CCompilerError, ExecError, PlatformError) as e:
        pytest.skip(f"no C compiler to build the compiled kernel: {e}")
    spec = importlib.util.spec_from_file_location("_fastclosure", cmd.get_ext_fullpath("_fastclosure"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The pure twin keeps the test id its class name gave it.
@pytest.fixture(params=["python", "c"], ids=["Engine", "compiled"])
def engine_cls(request):
    if request.param == "python":
        return _closure_py.Engine
    return request.getfixturevalue("compiled").Engine


def test_backend_constant():
    assert hk.BACKEND in ("python", "c")


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
        assert py.calls == cy.calls == 64


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
                calls = eng.calls
                assert eng.derives(seed, target) == (target in closed)
                assert eng.calls == calls + 1


def test_engine_basics(engine_cls):
    eng = engine_cls(4, [[0], [1, 2]], [1, 3])
    assert eng.closure([0]) == [0, 1]
    assert eng.closure([0, 2]) == [0, 1, 2, 3]
    assert eng.closure([]) == []
    assert eng.calls == 3
    assert (eng.n, eng.m) == (4, 2)

    assert eng.derives([0, 2], 3) is True
    assert eng.derives([0], 3) is False
    assert eng.derives([2], 2) is True  # the target is in the seed
    assert eng.derives({0}, 1) is True
    assert eng.calls == 7

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
    assert eng.calls == 9


def test_head_free_target_still_checks_the_seed(engine_cls):
    eng = engine_cls(3, [[0]], [1])
    with pytest.raises(ValueError):
        eng.derives([0, 3], 2)  # 2 heads no clause, but 3 is out of range
    with pytest.raises(ValueError):
        eng.derives([2, -1], 2)  # the target is in the seed, -1 is not a variable
    assert eng.calls == 2


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
            calls = eng.calls
            expected = _reference_minimize(eng, seed)
            spent = eng.calls - calls
            assert eng.minimize(seed) == expected
            assert eng.calls - calls - spent == spent == len(set(seed))


def test_minimize_basics(engine_cls):
    # 0 <-> 1, {0, 2} -> 3, {} -> 4
    eng = engine_cls(5, [[1], [0], [0, 2], []], [0, 1, 3, 4])
    assert eng.minimize(range(5)) == [1, 2]
    assert eng.minimize({4, 3, 2, 1, 0}) == [1, 2]
    assert eng.minimize(iter([0, 2, 3])) == [0, 2]
    assert eng.calls == 5 + 5 + 3
    assert engine_cls(0, [], []).minimize([]) == []


def _minimize_spends_one_call_per_drop(eng, seed):
    calls = eng.calls
    out = eng.minimize(seed)
    assert eng.calls == calls + len(set(seed))
    return out


def test_suffix_rule_drops_what_one_step_cannot_decide(engine_cls):
    # {4} -> 2, {2} -> 1, {1, 3} -> 0.  Dropping 1 from {1, 3, 4} takes two
    # steps, 4 -> 2 -> 1; 1 lies in the closure of {3, 4}, so the suffix
    # rule drops it.  3 and 4 head no clause and stay.
    eng = engine_cls(5, [[4], [2], [1, 3]], [2, 1, 0])
    assert _minimize_spends_one_call_per_drop(eng, [1, 3, 4]) == [3, 4]
    # {2} -> 0, {0} -> 1: one step drops 0; 1 then needs 2 -> 0 -> 1, and
    # the closure of {2} is all of V, which settles 1 with no test.
    eng = engine_cls(3, [[2], [0]], [0, 1])
    assert _minimize_spends_one_call_per_drop(eng, range(3)) == [2]


def test_suffix_rule_that_decides_nothing(engine_cls):
    # {1} -> 0, {0} -> 1: one step drops 0; dropping 1 from {1, 2} is then
    # undecided by one step, and 1 lies outside the closure of {2}, so the
    # chain decides it and keeps it.
    eng = engine_cls(3, [[1], [0]], [0, 1])
    assert _minimize_spends_one_call_per_drop(eng, range(3)) == [1, 2]


def test_suffix_rule_with_empty_bodies(engine_cls):
    # {} -> 3, {2, 3} -> 0, {0} -> 1: the suffix closure starts from {3}.
    eng = engine_cls(4, [[], [2, 3], [0]], [3, 0, 1])
    assert _minimize_spends_one_call_per_drop(eng, range(4)) == [2]
    assert _minimize_spends_one_call_per_drop(eng, [1, 2, 3]) == [2]
    # {} -> 2, {3} -> 0, {0} -> 1: the pass settles 1 and the unit head 2
    eng = engine_cls(4, [[], [3], [0]], [2, 0, 1])
    assert _minimize_spends_one_call_per_drop(eng, range(4)) == [3]


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
        assert _minimize_spends_one_call_per_drop(eng, seed) == expected


def test_full_seed_minimize_on_an_enum_sized_cnf(engine_cls):
    for seed in range(4):
        eng = _make(engine_cls, random_horn_cnf(seed, 36, 108))
        expected = _reference_minimize(eng, range(36))
        assert _minimize_spends_one_call_per_drop(eng, range(36)) == expected


@pytest.mark.parametrize("seed", [[0, 1, 5], [0, -1], [2**80], None])
def test_minimize_rejects_a_bad_seed_before_any_call(engine_cls, seed):
    eng = engine_cls(3, [[0], [1]], [1, 2])
    with pytest.raises((ValueError, TypeError)):
        eng.minimize(seed)
    assert eng.calls == 0


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
    # a rejected target is refused before the call, so it is not counted
    assert eng.calls == 0
    assert eng.derives([0], 1) is True
    assert eng.calls == 1


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
    # a bad seed counts as a call, a bad target is refused before the call
    assert eng.calls == 3


@pytest.mark.parametrize("bad", [0.0, 2.0, 7.0, -1.0, "0"])
def test_engine_rejects_non_integer_seed(engine_cls, bad):
    eng = engine_cls(3, [[0]], [1])
    with pytest.raises(TypeError):
        eng.closure([0, bad])
    with pytest.raises(TypeError):
        eng.derives([bad], 2)
    with pytest.raises(TypeError):
        eng.minimize([1, bad])
    assert eng.calls == 2


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
    for _ in range(6):
        seed = data.draw(_seed_lists(n))
        target = data.draw(st.integers(-1, n))
        for method, args in (("closure", (seed,)), ("derives", (seed, target)), ("minimize", (seed,))):
            assert _outcome(getattr(py, method), *args) == _outcome(getattr(cc, method), *args)
        assert py.calls == cc.calls


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
    calls = eng.calls
    assert eng.minimize(key) == sorted(cur)
    assert eng.calls == calls + len(key)

