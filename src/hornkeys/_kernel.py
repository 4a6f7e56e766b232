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
- ``expand(key)``: for a minimal key K, the tuple ``(out, tried,
  closures)``.  Each pair (v ∈ K, clause A→v) gives the key (K ∖ {v}) ∪ A,
  which ``minimize`` shrinks; ``out`` lists the results as frozensets, by v
  ascending and then clause input order, each kept at its first place only,
  ``tried`` counts the pairs, and ``closures`` is the sum of |(K ∖ {v}) ∪ A|
  over them: one closure computation per drop tried, as in the delay bound,
  whatever the shortcuts here settle.  This is the key-graph step of
  Lucchesi and Osborn, "Candidate keys for relations" (1978), run on the
  engine's own head index;
- ``expander()``: a callable for one walk, each call of which gives exactly
  what ``expand`` gives; its results are defined only for a key argument.
  On the pure kernel every expansion keeps a memo, one entry per drop test
  it chained: the tested set Y, with the closure C of Y for a test that
  failed, or marked as a key for a test that passed.  A drop test of a set
  Y that an entry of the call, or else of the callable's previous call,
  holds takes its verdict from that entry with no chain: whether v ∈ C, or
  True.  Both are exact.  C is the whole closure of Y, since a chain that
  misses its target runs to the end.  Every seed that an expansion shrinks
  from a key is a key, so a Y that derives the dropped v is a key, and
  derives any target.  A call stores at most ``closures`` entries, at most
  m·n, and older memos are dropped, so a call consults the entries of at
  most two calls: below 2·(m(n+1)+1), twice the delay bound.  A call also
  stops storing at 16·(n + m + Σ|body|)/(n + 1) entries, so the n + 1 flags
  of each keep its memory linear in the engine's size.  The compiled
  kernel's chains are cheap enough that such a memo saves about what it
  costs, so its ``expander()`` returns the bound ``expand``;
- ``n`` and ``m``.

These are the only public names.  An engine is an immutable index: no call
changes it, so one engine serves any number of callers and threads, and
each walk owns its expander, whose memo is the one state a walk keeps.
Out-of-range indices raise ``ValueError`` at construction and at each call.
"""

try:
    from ._fastclosure import Engine

    BACKEND = "c"
except ImportError:
    from ._closure_py import Engine  # type: ignore[no-redef]

    BACKEND = "python"

__all__ = ["Engine", "BACKEND"]
