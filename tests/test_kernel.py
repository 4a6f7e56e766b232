"""The compiled closure kernel and its pure-Python twin must be interchangeable."""

import random

import pytest

import hornkeys as hk
from hornkeys import _closure_py
from hornkeys.oracles import random_horn_cnf

try:
    from hornkeys import _fastclosure
except ImportError:  # not compiled: no compiler, or HORNKEYS_PURE=1 at build time
    _fastclosure = None


def test_backend_constant():
    assert hk.BACKEND in ("python", "cython")


def _make(engine_cls, cnf):
    bodies = [sorted(c.body) for c in cnf.clauses]
    heads = [c.head for c in cnf.clauses]
    return engine_cls(cnf.universe.n, bodies, heads)


def _seeds(n, mask):
    return [v for v in range(n) if (mask >> v) & 1]


@pytest.mark.skipif(_fastclosure is None, reason="compiled kernel not built")
def test_backends_agree():
    rng = random.Random(0xBEEF)
    for _ in range(80):
        n = rng.randint(1, 12)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(0, 20))
        py, cy = _make(_closure_py.Engine, cnf), _make(_fastclosure.Engine, cnf)
        for _ in range(32):
            seed = _seeds(n, rng.randrange(1 << n))
            assert py.closure(seed) == cy.closure(seed)


@pytest.mark.skipif(_fastclosure is None, reason="compiled kernel not built")
def test_backends_agree_exhaustively_on_small_instances():
    rng = random.Random(0xFACE)
    for _ in range(20):
        n = rng.randint(1, 7)
        cnf = random_horn_cnf(rng.randrange(2**32), n, rng.randint(0, 10))
        py, cy = _make(_closure_py.Engine, cnf), _make(_fastclosure.Engine, cnf)
        for mask in range(1 << n):
            seed = _seeds(n, mask)
            assert py.closure(seed) == cy.closure(seed)


@pytest.mark.parametrize(
    "engine_cls",
    [_closure_py.Engine]
    + ([_fastclosure.Engine] if _fastclosure is not None else []),
)
def test_engine_basics(engine_cls):
    eng = engine_cls(4, [[0], [1, 2]], [1, 3])
    assert eng.closure([0]) == [0, 1]
    assert eng.closure([0, 2]) == [0, 1, 2, 3]
    assert eng.closure([]) == []
    assert eng.calls == 3

    with_units = engine_cls(3, [[], [0]], [0, 2])
    assert with_units.closure([]) == [0, 2]


@pytest.mark.parametrize(
    "engine_cls",
    [_closure_py.Engine]
    + ([_fastclosure.Engine] if _fastclosure is not None else []),
)
def test_engine_rejects_out_of_range_seed(engine_cls):
    eng = engine_cls(3, [[0]], [1])
    with pytest.raises(ValueError):
        eng.closure([3])
    with pytest.raises(ValueError):
        eng.closure([-1])


def test_engine_rejects_mismatched_lists():
    with pytest.raises(ValueError):
        _closure_py.Engine(3, [[0], [1]], [2])
