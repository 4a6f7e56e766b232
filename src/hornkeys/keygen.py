"""Polynomial-delay enumeration of minimal keys, plus the key graph D_Φ.

The enumerator walks a directed graph on the minimal keys: from a key K,
each pair (v ∈ K, clause A→v) yields the candidate S = (K ∖ {v}) ∪ A, which
is always a key and minimizes to an out-neighbor.  The closure kernel runs
that step, ``Engine.expand``, on the CNF's one engine, and reports the
closure computations it ran; each walk adds those counts up in counters of
its own.  The walk keeps a LIFO queue of pending keys and a visited set.  It
emits a key as soon as it pops it, then generates all its out-neighbors and
queues the unseen ones before it pops the next: the first key costs one
greedy minimization of V, one expansion runs between two emissions and one
after the last, which bounds the closure computations between consecutive
outputs by m·(n+1)+1, and a caller that stops after the k-th key never pays
for that key's expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional

from .core import HornCNF, _as_varset, is_key
from .errors import ContractError, ResourceGuardError, _check_count

__all__ = [
    "KeyEnumerationStats",
    "KeyGraph",
    "first_minimal_key",
    "neighbors",
    "iter_minimal_keys",
    "enumerate_minimal_keys",
    "build_key_graph",
    "is_strongly_connected",
    "closure_layers",
    "rho_measure",
]


@dataclass
class KeyEnumerationStats:
    """Counters for one enumeration run.

    ``keys`` counts the keys emitted so far and ``candidates`` the pairs
    (v, clause) the expansions tried; ``closures`` counts every
    forward-closure computation run: n for the initial greedy minimization,
    plus each expansion that has run.  A key is emitted before it is
    expanded, so at the i-th emission the counters hold i keys and the
    expansions of the i − 1 keys before it, and a run stopped by its limit
    after k keys holds k − 1 expansions.  ``startup_closures`` is n plus the
    first key's expansion once it has run; ``max_delay_closures`` is the
    largest later expansion, the work between two emissions or after the
    last, which the delay bound m·(n+1)+1 applies to.  A walk sets all five
    as it starts, so stats reused for a later run read as a fresh run's; a
    limit of 0 starts no walk.
    """

    keys: int = 0
    candidates: int = 0
    closures: int = 0
    startup_closures: int = 0
    max_delay_closures: int = 0


def first_minimal_key(cnf: HornCNF) -> frozenset[int]:
    """Greedy minimization of V itself (V is always a key)."""
    return frozenset(cnf.engine().minimize(range(cnf.n)))


def neighbors(cnf: HornCNF, key) -> list[frozenset[int]]:
    """Out-neighbors of a minimal key in D_Φ, deterministic order.

    Raises a contract error when ``key`` is not a minimal key; for a key that
    is not minimal, it names the lowest droppable v, the first greedy drop.
    """
    key = _as_varset(key, cnf.n)
    engine = cnf.engine()
    if len(engine.closure(key)) != cnf.n:
        raise ContractError(f"{sorted(key)} is not a key", witness=key)
    v = min(key.difference(engine.minimize(key)), default=None)
    if v is not None:
        raise ContractError(
            f"{sorted(key)} is not minimal: dropping {v} keeps it a key", witness=key - {v}
        )
    return [frozenset(k2) for k2 in engine.expand(key)[0]]


def _walk(cnf: HornCNF, stats: KeyEnumerationStats, expanded: Optional[Callable] = None):
    """The traversal of D_Φ shared by enumeration and the key graph.

    Pop a key and yield it, which is its emission; once resumed, expand it,
    queue its unseen out-neighbors and pop the next.  ``stats`` counts each
    key as it is yielded and each expansion once it has run, and
    ``expanded(key, out_neighbors, newly_discovered)``, when given, hears of
    each expansion.  Keys are the kernel's sorted tuples, which take about a
    quarter of a frozenset's memory, and ``visited`` holds every one for the
    whole run; callers turn a key into a frozenset as it leaves keygen.
    Between two emissions, and after the last, the walk runs one
    ``engine.expand``, so its closure count is the delay.  A caller that
    stops after a key skips that key's expansion.
    """
    engine = cnf.engine()
    first = engine.minimize(range(cnf.n))
    pending = [first]
    visited = {first}
    # every counter starts over, so a reused stats object reads as a fresh one;
    # the first minimize tries one drop per variable
    stats.keys = stats.candidates = stats.max_delay_closures = 0
    stats.closures = stats.startup_closures = cnf.n
    while pending:
        key = pending.pop()
        stats.keys += 1
        yield key
        out, tried, spent = engine.expand(key)
        stats.closures += spent
        stats.candidates += tried
        if key is first:
            stats.startup_closures = stats.closures
        else:
            stats.max_delay_closures = max(stats.max_delay_closures, spent)
        new = [k2 for k2 in out if k2 not in visited]
        visited.update(new)
        pending += new
        if expanded is not None:
            expanded(key, out, new)


def _check_limit(limit) -> None:
    """Refuse a key limit that is neither None nor a count."""
    if limit is not None:
        _check_count(limit, "limit")


def iter_minimal_keys(
    cnf: HornCNF,
    limit: Optional[int] = None,
    stats: Optional[KeyEnumerationStats] = None,
) -> Iterator[frozenset[int]]:
    """Yield every minimal key exactly once, polynomial delay.

    Keys come in the pop order of the walk over D_Φ; ``stats``, when given,
    receives the run's counters.  A bad ``limit`` raises here, before the
    first key is asked for.
    """
    _check_limit(limit)
    return _limited(cnf, limit, KeyEnumerationStats() if stats is None else stats)


def _limited(cnf: HornCNF, limit: Optional[int], stats: KeyEnumerationStats):
    # islice asks for no key past the limit, so the last key is never expanded
    yield from map(frozenset, islice(_walk(cnf, stats), limit))


def enumerate_minimal_keys(
    cnf: HornCNF,
    sink: Callable[[frozenset[int]], None],
    limit: Optional[int] = None,
) -> KeyEnumerationStats:
    """Drive the enumeration into ``sink`` and return the run's counters."""
    stats = KeyEnumerationStats()
    for key in iter_minimal_keys(cnf, limit=limit, stats=stats):
        sink(key)
    return stats


@dataclass(frozen=True)
class KeyGraph:
    """The deterministic D_Φ instance induced by this library's tie-breaking."""

    nodes: tuple[frozenset[int], ...]
    arcs: tuple[tuple[frozenset[int], frozenset[int]], ...]


def build_key_graph(cnf: HornCNF, max_keys: int = 100_000) -> KeyGraph:
    """Materialize all minimal keys, in discovery order, and their out-arcs;
    desk scale only."""
    _check_count(max_keys, "max_keys")
    nodes = {}  # each walk key's frozenset, in discovery order
    arcs = []

    def expanded(key, out, new):
        nodes.update((k2, frozenset(k2)) for k2 in new)
        arcs.extend((nodes[key], nodes[k2]) for k2 in out)

    # Checked at each pop, before that key's expansion: the first key counts
    # at once, and the keys an expansion discovers are queued, so a pop
    # follows every expansion that adds any.
    for key in _walk(cnf, KeyEnumerationStats(), expanded):
        if not nodes:
            nodes[key] = frozenset(key)
        if len(nodes) > max_keys:
            raise ResourceGuardError(f"key graph exceeds {max_keys} minimal keys")
    return KeyGraph(tuple(nodes.values()), tuple(arcs))


def is_strongly_connected(kg: KeyGraph) -> bool:
    if not kg.nodes:
        return True
    index = {k: i for i, k in enumerate(kg.nodes)}
    fwd = [[] for _ in kg.nodes]
    rev = [[] for _ in kg.nodes]
    for a, b in kg.arcs:
        fwd[index[a]].append(index[b])
        rev[index[b]].append(index[a])
    for adjacency in (fwd, rev):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(kg.nodes):
            return False
    return True


def closure_layers(cnf: HornCNF, s) -> list[frozenset[int]]:
    """Round decomposition of forward chaining from ``s``.

    Layer 0 is ``s``; layer i+1 holds the heads that first become derivable
    once all earlier layers are available.  The layers partition the closure.
    """
    current = _as_varset(s, cnf.n)
    layers = [current]
    while True:
        new = frozenset(c.head for c in cnf.clauses if c.body <= current) - current
        if not new:
            return layers
        layers.append(new)
        current |= new


def rho_measure(cnf: HornCNF, k1, k2) -> tuple[int, ...]:
    """The progress measure ρ(K1, K2): per-layer overlap of K1 with the
    forward-chaining layers grown from K2.  Both arguments must be keys."""
    k1 = _as_varset(k1, cnf.n)
    k2 = _as_varset(k2, cnf.n)
    for name, k in (("K1", k1), ("K2", k2)):
        if not is_key(cnf, k):
            raise ContractError(f"{name}={sorted(k)} is not a key", witness=k)
    layers = closure_layers(cnf, k2)
    return tuple(len(layer & k1) for layer in layers)
