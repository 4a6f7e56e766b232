"""Closure-kernel backend selection.

The compiled C extension is used when it was built; otherwise the
pure-Python twin, which stays as the reference and fallback.  Both provide
the one kernel contract, ``Engine(n, bodies, heads)`` with:

- ``closure(seed)``: the sorted list of variables derivable from ``seed``;
- ``derives(seed, target)``: whether ``target`` is derivable from ``seed``.
  After checking the whole seed it answers True for a target in the seed,
  False for a target that heads no clause, True when some clause body of
  the target lies inside the seed (an empty one included), and otherwise
  chains only until the target is derived;
- ``minimize(seed)``: the sorted minimal key that greedy drops in ascending
  order leave of the key ``seed``, dropping v whenever the rest derives it;
  the seed is checked before the first drop.  The suffix rule: a v that lies
  in the closure of the later seed variables, S ∩ (v, n), is dropped with
  no test.  That is exact, because the rest at v's turn still holds all of
  S ∩ (v, n) and derivation is monotone.  Both backends apply it only to a
  seed of more than half the variables, and fill it in at the first drop
  that one step cannot decide, with one closure grown from the top of the
  seed down that stops once it holds every variable;
- ``calls``: how many ``closure`` and ``derives`` calls the engine ran, plus
  one per drop ``minimize`` tried (a rejected target or ``minimize`` seed
  counts none);
- ``n`` and ``m``.

Out-of-range indices raise ``ValueError`` at construction and at each call.
"""

try:
    from ._fastclosure import Engine

    BACKEND = "c"
except ImportError:
    from ._closure_py import Engine  # type: ignore[no-redef]

    BACKEND = "python"

__all__ = ["Engine", "BACKEND"]
