"""Shared fixtures: a handful of small instances reused across the suite,
and the closure kernel on each backend."""

import importlib.util
from pathlib import Path

import pytest

import hornkeys as hk
from hornkeys import _closure_py

C_SOURCE = Path(__file__).resolve().parents[1] / "src" / "hornkeys" / "_fastclosure.c"


@pytest.fixture(scope="session")
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


@pytest.fixture(scope="session")
def intro_cnf():
    # a->b, b->a, ac->d, ac->e over {a..e}; minimal keys are {a,c} and {b,c}.
    return hk.horn_cnf(
        5,
        [({0}, 1), ({1}, 0), ({0, 2}, 3), ({0, 2}, 4)],
        labels=("a", "b", "c", "d", "e"),
    )


@pytest.fixture(scope="session")
def chain_family():
    # B = {ab, bc, cd}: Sperner but not a unique key family.
    return hk.sperner(4, [{0, 1}, {1, 2}, {2, 3}], labels=("a", "b", "c", "d"))


@pytest.fixture(scope="session")
def star_family():
    # B = {12, 13, 14, 234}: unique key family.
    return hk.sperner(4, [{0, 1}, {0, 2}, {0, 3}, {1, 2, 3}])


@pytest.fixture(scope="session")
def sat_cnf():
    # Satisfiable 3-CNF on 4 variables; the all-false assignment works.
    return hk.GeneralCNF(4, ((1, 2, -3), (-1, -2, 4), (-2, -3, -4)))


@pytest.fixture(scope="session")
def wheel_tss():
    # 5-vertex threshold graph; e needs two active neighbours, everyone else one.
    return hk.threshold_graph(
        5,
        [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4)],
        [1, 1, 1, 1, 2],
        labels=("a", "b", "c", "d", "e"),
    )
