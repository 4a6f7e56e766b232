"""Recognition of unique key hypergraphs and graphs, with witnesses.

A Sperner hypergraph B is *unique key* when exactly one pure Horn function
has B as its set of minimal keys.  Two equivalent tests are provided: the
dual-transversal characterization (is_unique_key_hypergraph) and emptiness
of the addable-clause family (addable_clauses).  The first is decided per
minimal transversal T: B is unique key iff V ⊆ T ∪ U(T) for every T, where
U(T) is the union over u ∈ T of the intersection of the edges that meet T
only in u.  The reason: another minimal transversal fits inside T ∪ {v}
iff some (T ∪ {v}) ∖ {u} is a transversal, iff v lies in all those edges.
For graphs there is an individual-neighbor test over maximal independent
sets, a perfect-matching fast path for bipartite inputs, and the SAT gadget
G_Phi used to generate hard instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._bitset import bits_of, set_of
from .core import _is_index, _is_int, _not_an_int
from .errors import ContractError, InputError, ResourceGuardError, subset_budget
from .hypergraph import (
    Graph,
    SpernerHypergraph,
    VariableUniverse,
    _minimal_masks,
    _mis_masks,
    _private_cover,
    is_transversal,
    minimal_transversals,
    project,
    support_union,
)

WITNESS_KINDS = ("transversal-pair-missing", "no-individual-neighbor", "addable-clause")


@dataclass(frozen=True)
class Witness:
    """A counterexample produced by a recognizer.

    kind 'transversal-pair-missing': data = (T, v) with T a minimal
    transversal and v a vertex such that no other minimal transversal fits
    inside T ∪ {v}.  kind 'no-individual-neighbor': data = (I, v) with I a
    maximal independent set whose member v has no individual neighbor.
    kind 'addable-clause': data = (A, v), a clause that can be added to Φ_B
    without changing the key set.
    """

    kind: str
    data: tuple

    def __post_init__(self):
        if self.kind not in WITNESS_KINDS:
            raise InputError(f"unknown witness kind {self.kind!r}")


def verify_witness(w: Witness, obj) -> bool:
    """Re-check a witness against the definition it claims to violate.

    Data other than a (set or frozenset, vertex) pair of ids 0..n-1 is rejected.
    """
    if type(w.data) is not tuple or len(w.data) != 2:
        return False
    s, v = w.data
    if not isinstance(s, (set, frozenset)) or not all(_is_index(u, obj.n) for u in (v, *s)):
        return False
    if w.kind == "transversal-pair-missing":
        if v in s or not is_transversal(obj, s):
            return False
        # Another minimal transversal inside T ∪ {v} misses some u ∈ T, so it
        # exists iff some (T ∪ {v}) - {u} is a transversal.  That test also
        # covers every T - {u}, so a T that passes is minimal.
        tv = s | {v}
        return not any(is_transversal(obj, tv - {u}) for u in s)
    if w.kind == "no-individual-neighbor":
        adj = obj.adj
        if v not in s or any(adj[u] & s for u in s):
            return False  # not independent
        outside = set(range(obj.n)) - s
        if any(not (adj[u] & s) for u in outside):
            return False  # not maximal
        return not any(adj[u] & s == {v} for u in outside)
    if w.kind == "addable-clause":
        full = obj.universe.full_set()
        # No clause of Φ_B fires on an independent A, so v ∉ A makes A→v a non-implicate.
        if any(e <= s for e in obj.edges) or v in s:
            return False
        return v not in support_union(project(obj, full - s))
    raise InputError(f"unknown witness kind {w.kind!r}")


def _require_edges(b: SpernerHypergraph | Graph):
    if not b.edges:
        what = "graph" if isinstance(b, Graph) else "hypergraph"
        raise InputError(f"recognizer requires a {what} with at least one edge")
    if any(not e for e in b.edges):
        raise InputError("recognizer does not accept the empty edge")


def is_unique_key_hypergraph(
    b: SpernerHypergraph, cap: Optional[int] = None
) -> tuple[bool, Optional[Witness]]:
    """Dual-based test: B is unique key iff for every minimal transversal T
    and every v ∉ T some distinct minimal transversal fits inside T ∪ {v}.

    Decided per T from its private edges, the edges e with e ∩ T = {u} for
    some u ∈ T.  Let U(T) be the union over u ∈ T of the intersection of
    u's private edges.  B is unique key iff V ⊆ T ∪ U(T) for every T,
    because another minimal transversal fits inside T ∪ {v} iff some
    (T ∪ {v}) ∖ {u} is a transversal, that is iff v lies in every private
    edge of some u.  Each T costs O(|B|) mask operations.

    Returns (True, None) or (False, witness); the witness is the first T in
    the dual's canonical order with the lowest v ∉ T ∪ U(T), and it is
    re-verified before being returned.
    """
    _require_edges(b)
    dual = minimal_transversals(b, cap)
    edge_masks = b.edge_masks()
    full = (1 << b.n) - 1
    for tm in dual.edge_masks():
        # Each u ∈ T has a private edge, which holds u, so T ⊆ U(T).
        missing = full & ~_private_cover(tm, edge_masks)
        if missing:
            w = Witness("transversal-pair-missing", (set_of(tm), next(bits_of(missing))))
            if not verify_witness(w, b):
                raise ContractError("recognizer produced an invalid witness", witness=w)
            return False, w
    return True, None


def addable_clauses(
    b: SpernerHypergraph, budget: Optional[int] = None
) -> list[tuple[frozenset[int], int]]:
    """All clauses A→v addable to Φ_B without changing its minimal keys.

    These are the non-implicates with A independent and v outside the
    support union of the projection of B to V ∖ A.  B is unique key iff the
    list is empty.  Exponential scan over all A ⊆ V; desk scale only.
    """
    _require_edges(b)
    n = b.n
    if (1 << n) > subset_budget(budget):
        raise ResourceGuardError(
            f"addable-clause scan over 2^{n} subsets exceeds budget "
            f"{subset_budget(budget)}"
        )
    edge_masks = b.edge_masks()
    full = (1 << n) - 1
    out = []
    for a in range(1 << n):
        if any(em & a == em for em in edge_masks):
            continue  # A must be independent
        union = 0
        for t in _minimal_masks(em & ~a for em in edge_masks):
            union |= t
        # A independent means no clause of Φ_B fires on A, so A→v is a
        # non-implicate exactly when v ∉ A; both exclusions happen here.
        for v in bits_of(full & ~(a | union)):
            out.append((set_of(a), v))
    out.sort(key=lambda av: (tuple(sorted(av[0])), av[1]))
    return out


def _two_coloring(g: Graph) -> Optional[list[int]]:
    adj = g.adj
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def _is_perfect_matching(g: Graph) -> bool:
    return all(m and not m & (m - 1) for m in g.adj_masks())


def is_unique_key_graph(g: Graph) -> tuple[bool, Optional[Witness]]:
    """Individual-neighbor test, streaming over maximal independent sets.

    G is unique key iff every maximal independent set I and every v ∈ I has
    an individual neighbor: some u ∉ I with N(u) ∩ I = {v}.  Each I costs
    O(|I|) mask operations: folding N(v) over v ∈ I marks the vertices with
    exactly one neighbour in I, and v is covered iff N(v) meets them.  A
    perfect-matching fast path answers positives in linear time; negatives
    come with a re-verified (I, v) witness, the first I in the order of
    maximal_independent_sets with its lowest uncovered v.  A graph with no
    edge is refused, as by the hypergraph recognizer.
    """
    _require_edges(g)
    if _is_perfect_matching(g):
        return True, None
    adj = g.adj_masks()
    for imask in _mis_masks(g):
        once = twice = 0
        rest = imask
        while rest:
            low = rest & -rest
            x = adj[low.bit_length() - 1]
            twice |= once & x
            once |= x
            rest ^= low
        # Members of I have no neighbour in I, so single lies outside I.
        single = once & ~twice
        rest = imask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if not adj[v] & single:
                w = Witness("no-individual-neighbor", (set_of(imask), v))
                if not verify_witness(w, g):
                    raise ContractError("recognizer produced an invalid witness", witness=w)
                return False, w
            rest ^= low
    return True, None


def is_unique_key_bipartite(g: Graph) -> bool:
    """Fast test for bipartite graphs without isolated vertices: unique key
    iff the edge set is a perfect matching.  Falls back to the general
    checker when the preconditions fail.  A graph with no edge is refused."""
    _require_edges(g)
    if _two_coloring(g) is None or any(g.degree(v) == 0 for v in range(g.n)):
        return is_unique_key_graph(g)[0]
    return _is_perfect_matching(g)


@dataclass(frozen=True)
class GeneralCNF:
    """A general (not necessarily Horn) CNF as signed 1-based literal lists."""

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not _is_int(self.n):
            raise _not_an_int(self.n, "variable count")
        if self.n < 0:
            raise InputError("variable count must be nonnegative")
        object.__setattr__(
            self, "clauses", tuple(tuple(c) for c in self.clauses)
        )
        for i, clause in enumerate(self.clauses):
            for lit in clause:
                if not _is_int(lit):
                    raise _not_an_int(lit, f"clause {i + 1}: literal")
                if lit == 0 or abs(lit) > self.n:
                    raise InputError(
                        f"clause {i + 1}: literal {lit!r} out of range ±1..±{self.n}"
                    )

    @property
    def m(self) -> int:
        return len(self.clauses)


def build_sat_graph(cnf: GeneralCNF) -> Graph:
    """The gadget graph G_Φ on 3n+m+1 vertices.

    Per variable i a triangle x_i, nx_i, y_i; one clique over the clause
    vertices C_1..C_m plus z; and an edge from each C_j to every literal
    vertex it contains.  Φ is satisfiable iff G_Φ is NOT unique key.
    """
    n, m = cnf.n, cnf.m
    labels = []
    for i in range(1, n + 1):
        labels += [f"x{i}", f"nx{i}", f"y{i}"]
    labels += [f"C{j}" for j in range(1, m + 1)] + ["z"]
    universe = VariableUniverse(3 * n + m + 1, tuple(labels))
    edges = []
    for i in range(n):
        x, nx, y = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(x, nx), (x, y), (nx, y)]
    clique = list(range(3 * n, 3 * n + m + 1))  # C_1..C_m and z
    for a in range(len(clique)):
        for b in range(a + 1, len(clique)):
            edges.append((clique[a], clique[b]))
    for j, clause in enumerate(cnf.clauses):
        if not clause:
            raise InputError(f"clause {j + 1} is empty")
        cj = 3 * n + j
        for lit in clause:
            v = abs(lit) - 1
            edges.append((cj, 3 * v if lit > 0 else 3 * v + 1))
    return Graph(universe, edges)
