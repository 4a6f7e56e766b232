"""Closure-kernel backend selection.

The compiled C extension is used when it was built; otherwise the
pure-Python twin, which stays as the reference and fallback.  Both chain
forward with one counter per distinct clause body: the clauses whose
non-empty bodies hold the same variables share one counter of the body
variables not yet derived, each counted once however often a body lists
it, and when it reaches 0 all their heads fire in clause order.  Both
provide the one kernel contract, ``Engine(n, bodies, heads)``, whose three
methods each take one positional argument, an iterable of variables, and
give every set of variables as a sorted tuple:

- ``closure(seed)``: the variables derivable from ``seed``;
- ``minimize(seed)``: the minimal key that greedy drops in ascending order
  leave of the key ``seed``, dropping v whenever the rest derives it;
  the seed is checked before the first drop.  The suffix rule: a v that lies
  in the closure of the later seed variables, S ∩ (v, n), is dropped with
  no test.  That is exact, because the rest at v's turn still holds all of
  S ∩ (v, n) and derivation is monotone.  Both backends apply it only to a
  seed of more than half the variables, and fill it in at the first drop
  that one step cannot decide, with one closure grown from the top of the
  seed down that stops once it holds every variable;
- ``expand(key)``: for a minimal key K, the tuple ``(out, tried,
  closures)``.  Each pair (v ∈ K, clause A→v) gives the key (K ∖ {v}) ∪ A,
  which ``minimize`` shrinks; the list ``out`` holds the results by v
  ascending and then clause input order, each kept at its first place
  only, ``tried`` counts the pairs, and ``closures`` is the sum of
  |(K ∖ {v}) ∪ A| over them: one closure computation per drop tried, as in
  the delay bound, whatever the shortcuts here settle.  A tuple of small
  ints takes about a quarter of a frozenset's memory, and a walk keeps
  every key it has seen.  This is the key-graph step of
  Lucchesi and Osborn, "Candidate keys for relations" (1978), run on the
  engine's own head index;
- ``n`` and ``m``.

These are the only public names, and a keyword argument to a method is a
``TypeError``.  An engine is an immutable index: no call changes it or
keeps anything for the next, so one engine serves any number of callers
and threads.  The bodies and heads may be any iterables, each read once.
Out-of-range indices raise ``ValueError`` at construction and at each call.
"""

try:
    from ._fastclosure import Engine

    BACKEND = "c"
except ImportError:
    from ._closure_py import Engine  # type: ignore[no-redef]

    BACKEND = "python"

__all__ = ["Engine", "BACKEND"]
