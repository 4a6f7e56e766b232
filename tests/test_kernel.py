"""The compiled closure kernel and its pure-Python twin must be interchangeable.

The compiled kernel is built from ``src/hornkeys/_fastclosure.c`` into a
temporary directory for these tests, so they run against the current source
whether or not the package was built in place.
"""

import importlib.util
import random
from pathlib import Path

import pytest

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


def test_engine_rejects_mismatched_lists():
    with pytest.raises(ValueError):
        _closure_py.Engine(3, [[0], [1]], [2])
