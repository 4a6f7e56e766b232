"""Closure-kernel backend selection.

The compiled extension is used when it was built; otherwise the pure-Python
twin, which has the same contract and stays as the reference and fallback.
"""

try:
    from ._fastclosure import Engine

    BACKEND = "cython"
except ImportError:
    from ._closure_py import Engine  # type: ignore[no-redef]

    BACKEND = "python"

__all__ = ["Engine", "BACKEND"]
