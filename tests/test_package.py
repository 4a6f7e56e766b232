"""The package index: each module states its public names once, in
``__all__``, and ``hornkeys`` re-exports exactly those."""

import hornkeys as hk
from hornkeys import core, errors, hypergraph, keygen, tss, uniqueness

# In the order hornkeys.__all__ lists them.
MODULES = [core, errors, hypergraph, uniqueness, keygen, tss]


def test_each_module_lists_only_what_it_defines():
    for module in MODULES:
        assert module.__all__, module.__name__
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name


def test_no_name_is_listed_by_two_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)


def test_the_package_lists_its_modules_in_order():
    expected = ["BACKEND", "__version__"]
    for module in MODULES:
        expected += module.__all__
    assert hk.__all__ == expected


def test_a_wildcard_import_binds_exactly_the_listed_names():
    ns = {}
    exec("from hornkeys import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(hk.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert ns[name] is getattr(module, name)
    assert ns["BACKEND"] in ("c", "python")
    assert ns["__version__"] == hk.__version__
