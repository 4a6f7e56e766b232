"""Sperner hypergraph algebra and 2-uniform (graph) specializations.

A Sperner hypergraph is an antichain of variable sets.  This module supplies
restriction, projection, dualization (minimal transversals), independence and
transversality tests, the key Horn CNF Phi_B, and maximal-independent-set
enumeration for plain graphs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Optional

from ._bitset import bits_of, mask_of, set_of
from .core import HornClause, HornCNF, VariableUniverse, _as_varset, _index
from .errors import InputError, ResourceGuardError, _is_int, dual_cap

__all__ = [
    "SpernerHypergraph",
    "sperner",
    "check_sperner",
    "minimalize",
    "restrict",
    "project",
    "is_transversal",
    "is_independent",
    "support_union",
    "minimal_transversals",
    "key_horn_cnf",
    "Graph",
    "graph",
    "as_graph",
    "maximal_independent_sets",
]


class SpernerHypergraph:
    """An antichain of variable sets over a fixed universe.

    Edges are stored in canonical order (lexicographic on their sorted
    element sequences) so that downstream constructions are reproducible.
    Non-antichain input is rejected; use :func:`minimalize` first.
    """

    def __init__(self, universe: VariableUniverse, edges: Iterable[Iterable[int]]):
        n = universe.n
        self._fill(universe, {mask_of(_as_varset(e, n)) for e in edges})
        if len(_minimal_masks(self._edge_masks)) < len(self.edges):
            a, b = next((a, b) for a in self.edges for b in self.edges if a < b)
            raise InputError(
                f"not an antichain: edge {sorted(a)} is contained in edge {sorted(b)}"
            )

    @classmethod
    def _of_masks(cls, universe: VariableUniverse, masks: Iterable[int]) -> SpernerHypergraph:
        """The family of ``masks``, distinct bitmasks over ``universe`` that
        already form an antichain; nothing is checked."""
        h = object.__new__(cls)
        h._fill(universe, masks)
        return h

    def _fill(self, universe: VariableUniverse, masks: Iterable[int]) -> None:
        """Set the universe and the distinct ``masks`` as edges, in canonical order."""
        self.universe = universe
        # Distinct masks have distinct bit tuples, so the sort never compares masks.
        keyed = sorted([(tuple(bits_of(m)), m) for m in masks])
        self.edges = tuple([frozenset(k) for k, _ in keyed])
        self._edge_masks = tuple([m for _, m in keyed])

    @property
    def n(self) -> int:
        return self.universe.n

    def edge_masks(self) -> tuple[int, ...]:
        """The edges as bitmasks, in edge order."""
        return self._edge_masks

    def __eq__(self, other):
        if not isinstance(other, SpernerHypergraph):
            return NotImplemented
        return self.universe == other.universe and self.edges == other.edges

    def __hash__(self):
        return hash((self.universe, self.edges))

    def __repr__(self):
        return f"SpernerHypergraph(n={self.n}, k={len(self.edges)})"


def sperner(n, edges, labels=None) -> SpernerHypergraph:
    """Build a SpernerHypergraph from raw iterables; convenience helper."""
    return SpernerHypergraph(VariableUniverse(n, labels), edges)


def check_sperner(edges: Iterable[Iterable[int]]) -> bool:
    """True iff the given family of sets of nonnegative int ids is an antichain."""
    bits: dict[int, int] = {}  # by id, the next free bit as it first appears
    family = set()
    for e in edges:
        mask = 0
        for v in e:
            if not _is_int(v) or v < 0:
                raise InputError(f"variable index must be a nonnegative int, got {v!r}")
            mask |= bits.setdefault(v, 1 << len(bits))
        family.add(mask)
    return len(_minimal_masks(family)) == len(family)


def minimalize(universe, edges: Iterable[Iterable[int]]) -> SpernerHypergraph:
    """The inclusion-minimal members of an arbitrary family (minl in short),
    over ``universe``: a VariableUniverse, or a size for a new one."""
    if not isinstance(universe, VariableUniverse):
        universe = VariableUniverse(universe)
    masks = _minimal_masks(mask_of(_as_varset(e, universe.n)) for e in edges)
    return SpernerHypergraph._of_masks(universe, masks)


def restrict(b: SpernerHypergraph, s: Iterable[int]) -> SpernerHypergraph:
    """The subhypergraph induced by ``s``: edges entirely inside ``s``."""
    s = mask_of(_as_varset(s, b.n))
    return SpernerHypergraph._of_masks(b.universe, [m for m in b.edge_masks() if m & s == m])


def project(b: SpernerHypergraph, s: Iterable[int]) -> SpernerHypergraph:
    """Minimal traces ``minl{e ∩ s}``; equals {∅} when s is no transversal."""
    s = _as_varset(s, b.n)
    return minimalize(b.universe, [e & s for e in b.edges])


def is_transversal(b: SpernerHypergraph, t: Iterable[int]) -> bool:
    """True iff ``t`` meets every edge (vacuously true for no edges)."""
    t = _as_varset(t, b.n)
    return all(e & t for e in b.edges)


def is_independent(b: SpernerHypergraph, s: Iterable[int]) -> bool:
    """True iff ``s`` contains no edge, i.e. the complement is a transversal."""
    s = _as_varset(s, b.n)
    return not any(e <= s for e in b.edges)


def support_union(b: SpernerHypergraph) -> frozenset[int]:
    out: frozenset[int] = frozenset()
    for e in b.edges:
        out |= e
    return out


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal members of a family of bitmasks, deduplicated.

    Sorted by (popcount, mask).  A proper subset has a smaller popcount, so
    each candidate is tested only against the kept masks of smaller size; a
    uniform family takes no pair tests.
    """
    out: list[int] = []
    smaller: tuple[int, ...] = ()
    size = -1
    for m in sorted(set(masks), key=lambda x: (x.bit_count(), x)):
        if m.bit_count() != size:
            size, smaller = m.bit_count(), tuple(out)
        if not any(k & m == k for k in smaller):
            out.append(m)
    return out


def _private_cover(t: int, edge_masks: Iterable[int]) -> int:
    """U(t): the union over u ∈ t of the intersection of u's private edges.

    A private edge of u is an edge e with e ∩ t = {u}.  For a minimal
    transversal t of the edges, (t ∪ {v}) ∖ {u} is a transversal iff v lies
    in every private edge of u, so v ∉ U(t) iff no (t ∪ {v}) ∖ {u} is one.
    """
    common = {}
    for e in edge_masks:
        u = e & t
        if not u & (u - 1):
            common[u] = common.get(u, e) & e
    cover = 0
    for c in common.values():
        cover |= c
    return cover


def minimal_transversals(b: SpernerHypergraph, cap: Optional[int] = None) -> SpernerHypergraph:
    """The dual hypergraph B^d of all inclusion-minimal transversals.

    Berge multiplication, edge by edge, with no minimalization step.  Let
    cur be the minimal transversals of the earlier edges and e the next
    one.  Each t ∈ cur that hits e stays minimal.  Each t that misses e
    gives t ∪ {v} for v ∈ e ∖ U(t), with U(t) taken over the earlier edges
    (see _private_cover): e is the private edge of v, and u ∈ t keeps one
    iff v ∉ the intersection of u's private edges.  These are exactly the
    minimal members of the full product, so the step needs no antichain
    check, and no set arises twice: t ∪ {v} meets e only in v, which fixes
    t, and it cannot equal a kept t', which would contain t.

    Exact, intended for desk scale.  The family size is capped after every
    edge, the first included (``cap``, default from HORNKEYS_DUAL_CAP), and
    a step that could expand past 8·cap sets is refused before it starts;
    either raises a resource error carrying the partial count.
    """
    return SpernerHypergraph._of_masks(b.universe, _transversal_masks(b, cap))


def _transversal_masks(b: SpernerHypergraph, cap: Optional[int] = None) -> list[int]:
    """The minimal transversals of ``b`` as bitmasks, in the order the Berge
    loop of :func:`minimal_transversals` leaves them, with its guards."""
    cap = dual_cap(cap)
    if any(not e for e in b.edges):
        raise InputError("cannot dualize a family containing the empty edge")
    masks = b.edge_masks()
    cur = [0]  # ∅, the one minimal transversal of no edges
    for i, em in enumerate(masks, start=1):
        # The first step only lists e's vertices, so it is not refused.
        if i > 1 and len(cur) * em.bit_count() > 8 * cap:
            raise ResourceGuardError(
                f"dualization guard: {len(cur)} partial transversals before "
                f"edge {i} of {len(masks)} would expand past {8 * cap}"
            )
        earlier = masks[: i - 1]
        bits = [1 << v for v in bits_of(em)]
        nxt = []
        for t in cur:
            if t & em:
                nxt.append(t)
            else:
                cover = _private_cover(t, earlier)
                nxt.extend([t | bit for bit in bits if not bit & cover])
        cur = nxt
        if len(cur) > cap:
            raise ResourceGuardError(
                f"dualization guard: {len(cur)} partial transversals after "
                f"edge {i} of {len(masks)} exceeds cap {cap}"
            )
    return cur


def key_horn_cnf(b: SpernerHypergraph) -> HornCNF:
    """The key Horn CNF Φ_B with one clause e→v per edge e and v outside e.

    Clauses follow canonical edge order with heads ascending; the minimal
    keys of the result are exactly the edges of ``b``.
    """
    full = b.universe.full_set()
    clause = HornClause._trusted
    clauses = [clause(e, v) for e in b.edges for v in sorted(full - e)]
    return HornCNF._trusted(b.universe, tuple(clauses))


class Graph:
    """Undirected simple graph: a 2-uniform hypergraph with adjacency.

    ``edges`` is the sorted tuple of ``(u, v)`` pairs with ``u < v``.  The
    neighbor bitmasks ``adj_masks()`` are built from it on first use and then
    kept; the neighbor sets ``adj`` are read off them.
    """

    def __init__(self, universe: VariableUniverse, edges: Iterable[Iterable[int]]):
        self.universe = universe
        n = universe.n
        # The pair (u, v) with u < v is filed under the code u*n + v, so that
        # sorting the codes sorts the pairs.  A pair of plain ints is checked
        # directly; anything else goes through _as_varset.
        pairs = {}
        for e in edges:
            if type(e) is tuple and len(e) == 2:
                u, v = e
                if type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n and u != v:
                    if u < v:
                        pairs[u * n + v] = e
                    else:
                        pairs[v * n + u] = (v, u)
                    continue
            e = _as_varset(e, n)
            if len(e) != 2:
                raise InputError(f"graph edge must have 2 distinct endpoints, got {sorted(e)}")
            u, v = sorted(e)
            pairs[u * n + v] = (u, v)
        self.edges = tuple([pairs[c] for c in sorted(pairs)])
        self._adj_masks: Optional[tuple[int, ...]] = None

    @classmethod
    def _trusted(cls, universe: VariableUniverse, edges: tuple[tuple[int, int], ...]) -> Graph:
        """A graph on ``edges``, pairs ``(u, v)`` of ids of ``universe`` with
        ``u < v``, already sorted and without duplicates; nothing is checked."""
        g = object.__new__(cls)
        g.universe = universe
        g.edges = edges
        g._adj_masks = None
        return g

    @property
    def n(self) -> int:
        return self.universe.n

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        return tuple(map(set_of, self.adj_masks()))

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[_index(v, self.n, "vertex")]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def adj_masks(self) -> tuple[int, ...]:
        if self._adj_masks is None:
            masks = [0] * self.n
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._adj_masks = tuple(masks)
        return self._adj_masks

    def as_hypergraph(self) -> SpernerHypergraph:
        masks = [(1 << u) | (1 << v) for u, v in self.edges]
        return SpernerHypergraph._of_masks(self.universe, masks)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.universe == other.universe and self.edges == other.edges

    def __hash__(self):
        return hash((self.universe, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def graph(n, edges, labels=None) -> Graph:
    return Graph(VariableUniverse(n, labels), edges)


def as_graph(b: SpernerHypergraph) -> Graph:
    """Reinterpret a 2-uniform hypergraph as a graph; rejects other arities."""
    return Graph(b.universe, b.edges)


def maximal_independent_sets(g: Graph) -> Iterator[frozenset[int]]:
    """Every maximal independent set exactly once, in canonical order.

    The order is part of the contract.  It is a depth-first search over the
    prefixes 0..i of the vertices (Tsukiyama et al. 1977; Johnson,
    Yannakakis and Papadimitriou 1988).  A node is a maximal independent set
    I of the subgraph on vertices 0..i-1.  If i has no neighbour in I, its one
    child is I ∪ {i}.  Otherwise it has the keep child I, visited first, and
    the swap child (I ∖ N(i)) ∪ {i}, admitted iff it is maximal on 0..i and
    the greedy ascending completion of I ∖ N(i) on 0..i-1 reproduces I.  That
    makes every maximal independent set reachable exactly once, and the delay
    between outputs is polynomial in the graph size.
    """
    yield from map(set_of, _mis_masks(g))


def _mis_masks(g: Graph) -> Iterator[int]:
    """The maximal independent sets of ``g`` as bitmasks, in canonical order.

    At a conflict, R = I ∩ N(i) ≠ ∅ and the swap child is S = (I ∖ R) ∪ {i}.
    Call u < i free when it is neither in I ∖ R nor adjacent to it; every
    member of R is free.  S is maximal iff every free vertex lies in N(i).
    The greedy completion of I ∖ R walks the free vertices in ascending
    order, each one it takes removing itself and its neighbours.  It
    reproduces I iff every vertex it takes lies in R.
    """
    adj = g.adj_masks()
    n = g.n
    stack = [(0, 0)]
    while stack:
        i, cur = stack.pop()
        # The keep child is visited next, so it is followed here without a push.
        while i < n:
            bit = 1 << i
            ni = adj[i]
            r = cur & ni
            if not r:
                cur |= bit
                i += 1
                continue
            base = cur ^ r
            dom = 0
            rest = base
            while rest:
                low = rest & -rest
                dom |= adj[low.bit_length() - 1]
                rest ^= low
            free = (bit - 1) & ~(base | dom)
            if not free & ~ni:
                while free:
                    low = free & -free
                    if not low & r:
                        break
                    free &= ~(low | adj[low.bit_length() - 1])
                else:
                    stack.append((i + 1, base | bit))
            i += 1
        yield cur
