"""Target set selection: threshold activation and the two key reductions.

Activation is the synchronous process where a vertex becomes active once at
least t(v) of its neighbors are active; a target set activates everything.
``tss_to_horn`` turns a threshold graph into the Horn CNF Ψ_G whose keys are
exactly the target sets; ``horn_to_tss`` goes the other way through a gadget
graph, with ``lift_target_set_to_key`` mapping target sets back to keys of
no greater size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional

from ._bitset import bits_of, mask_of
from .core import (
    HornClause,
    HornCNF,
    VariableUniverse,
    _as_varset,
    _index,
    is_key,
)
from .errors import (
    ContractError,
    InputError,
    ResourceGuardError,
    _check_count,
    _is_int,
    _not_an_int,
    subset_budget,
)
from .hypergraph import Graph
from .keygen import (
    KeyEnumerationStats,
    _check_limit,
    enumerate_minimal_keys,
    iter_minimal_keys,
)

__all__ = [
    "ThresholdGraph",
    "threshold_graph",
    "RoleMap",
    "activate",
    "is_target_set",
    "tss_to_horn",
    "horn_to_tss",
    "lift_target_set_to_key",
    "iter_minimal_target_sets",
    "enumerate_minimal_target_sets",
    "minimum_key",
    "minimum_target_set",
]


class ThresholdGraph:
    """An undirected simple graph with a positive integer threshold per vertex."""

    def __init__(self, graph: Graph, thresholds: Iterable[int]):
        self.graph = graph
        t = tuple(thresholds)
        if len(t) != graph.n:
            raise InputError(f"expected {graph.n} thresholds, got {len(t)}")
        for v, k in enumerate(t):
            if not _is_int(k):
                raise _not_an_int(k, f"threshold of vertex {v}")
            if k < 1:
                raise InputError(f"threshold of vertex {v} must be >= 1, got {k}")
        self.thresholds = t

    @classmethod
    def _trusted(cls, graph: Graph, thresholds: tuple[int, ...]) -> ThresholdGraph:
        """``graph`` with one positive int threshold per vertex, unchecked."""
        tg = object.__new__(cls)
        tg.graph = graph
        tg.thresholds = thresholds
        return tg

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def universe(self) -> VariableUniverse:
        return self.graph.universe

    def __eq__(self, other):
        if not isinstance(other, ThresholdGraph):
            return NotImplemented
        return self.graph == other.graph and self.thresholds == other.thresholds

    def __hash__(self):
        return hash((self.graph, self.thresholds))

    def __repr__(self):
        return f"ThresholdGraph(n={self.n}, m={len(self.graph.edges)})"


def threshold_graph(n, edges, thresholds, labels=None) -> ThresholdGraph:
    return ThresholdGraph(Graph(VariableUniverse(n, labels), edges), thresholds)


def activate(tg: ThresholdGraph, s: Iterable[int]) -> frozenset[int]:
    """Fixed point of synchronous threshold activation from seed ``s``."""
    seed = _as_varset(s, tg.n)
    adj = tg.graph.adj_masks()
    t = tg.thresholds
    active = mask_of(seed)
    frontier = list(range(tg.n))
    while True:
        newly = 0
        for v in frontier:
            if not (active >> v) & 1 and (adj[v] & active).bit_count() >= t[v]:
                newly |= 1 << v
        if not newly:
            return frozenset(bits_of(active))
        active |= newly
        frontier = [v for v in frontier if not (active >> v) & 1]


def is_target_set(tg: ThresholdGraph, s: Iterable[int]) -> bool:
    return len(activate(tg, s)) == tg.n


def tss_to_horn(tg: ThresholdGraph, max_threshold: int = 3) -> HornCNF:
    """The CNF Ψ_G with a clause A→v for every A ⊆ N(v) of size t(v).

    Keys of Ψ_G are exactly the target sets of the graph.  Clause count is
    Σ_v C(deg v, t v), polynomial only for bounded thresholds, so a threshold
    above ``max_threshold`` raises a resource error naming the vertex, unless
    it is above the vertex's degree too: such a vertex gets no clause.
    """
    if not _is_int(max_threshold):
        raise _not_an_int(max_threshold, "max_threshold")
    adj = tg.graph.adj_masks()
    clause = HornClause._trusted
    clauses = []
    for v in range(tg.n):
        t = tg.thresholds[v]
        nbrs = list(bits_of(adj[v]))
        if max_threshold < t <= len(nbrs):
            raise ResourceGuardError(
                f"threshold {t} at vertex {tg.universe.name(v)} exceeds the "
                f"guard {max_threshold}"
            )
        # No vertex neighbours itself, so no body holds its head.
        clauses += [clause(frozenset(body), v) for body in combinations(nbrs, t)]
    return HornCNF._trusted(tg.universe, tuple(clauses))


BODY_ROLES = ("x", "y", "z", "w")
HEAD_ROLES = ("xh", "yh", "zh", "wh")
HUB_ROLE = "p"
ROLES = frozenset(BODY_ROLES + HEAD_ROLES + (HUB_ROLE,))


@dataclass(frozen=True)
class RoleMap:
    """Gadget bookkeeping for ``horn_to_tss``: ``roles[i]`` is the (clause
    index, role, attached original variable) triple of gadget vertex
    ``n_original + i``; original vertices 0..n_original-1 carry no entry.
    """

    n_original: int
    roles: tuple

    def __post_init__(self):
        n0 = self.n_original
        _check_count(n0, "role map size")
        object.__setattr__(self, "roles", tuple(self.roles))
        # Inline tests, with a call only off the fast path: gadgets have thousands of entries.
        for vid, entry in enumerate(self.roles, n0):
            if type(entry) is not tuple or len(entry) != 3:
                raise InputError(f"role entry {vid} is not a (clause, role, var) triple")
            ci, role, var = entry
            if role not in ROLES:
                raise InputError(f"vertex {vid}: unknown gadget role {role!r}")
            if type(ci) is not int or ci < 0:
                if not _is_int(ci) or ci < 0:
                    raise InputError(f"vertex {vid}: clause index {ci!r} is not a nonnegative int")
            if type(var) is not int or not 0 <= var < n0:
                _index(var, n0, f"vertex {vid}: variable")

    @classmethod
    def _trusted(cls, n_original: int, roles: tuple) -> RoleMap:
        """A role map of well-formed triples, unchecked."""
        rm = object.__new__(cls)
        object.__setattr__(rm, "n_original", n_original)
        object.__setattr__(rm, "roles", roles)
        return rm

    @property
    def n_total(self) -> int:
        return self.n_original + len(self.roles)


def horn_to_tss(cnf: HornCNF) -> tuple[ThresholdGraph, RoleMap]:
    """Per-clause gadget reduction from keys to target sets.

    Every clause A→v contributes a hub p with threshold |A| plus a four-vertex
    chain (x, y, z, w) for each body variable and for the head; original
    variables keep threshold 1.  Empty bodies are rejected (the hub would
    need threshold 0): saturate unit clauses away before reducing.
    """
    n = cnf.n
    name = cnf.universe.name
    labels = [name(v) for v in range(n)]
    # Ids are handed out in increasing order, so listing each vertex's higher
    # neighbours as they arrive lists them in ascending order, and the edges
    # come out sorted with no sort: first those of the original variables,
    # then those within each clause's gadget, in id order.
    higher: list[list[int]] = [[] for _ in range(n)]
    gadget_edges: list[tuple[int, int]] = []
    # One entry per gadget vertex in allocation order; the next id is len(labels).
    roles: list[tuple[int, str, int]] = []
    thresholds = [1] * n
    for ci, c in enumerate(cnf.clauses):
        if not c.body:
            raise InputError(
                f"clause {ci + 1} has an empty body; apply unit clauses to the "
                f"seed side before reducing"
            )
        tag = f"C{ci + 1}"
        hub = len(labels)
        labels.append(f"p^{tag}")
        thresholds.append(len(c.body))
        roles.append((ci, HUB_ROLE, c.head))
        # One chain x, y, z, w per body variable, from the variable to the
        # hub, then one for the head, from the hub to the head.  Chain i
        # takes the ids hub+4i+1 to hub+4i+4.  Its variable meets it at x
        # for a body chain and at w for the head chain; the hub meets the w
        # of each body chain and the x of the head chain.
        body = sorted(c.body)
        k = len(body)
        gadget_edges += [(hub, w) for w in range(hub + 4, hub + 4 * k + 1, 4)]
        gadget_edges.append((hub, hub + 4 * k + 1))
        chains = [(a, BODY_ROLES, 0) for a in body]
        chains.append((c.head, HEAD_ROLES, 3))
        for var, (rx, ry, rz, rw), meet in chains:
            vname = name(var)
            x, y, z, w = range(len(labels), len(labels) + 4)
            labels += (
                f"x^{tag}_{vname}", f"y^{tag}_{vname}", f"z^{tag}_{vname}", f"w^{tag}_{vname}"
            )
            thresholds += (1, 1, 1, 2)
            roles += ((ci, rx, var), (ci, ry, var), (ci, rz, var), (ci, rw, var))
            gadget_edges += ((x, y), (x, z), (y, w), (z, w))
            higher[var].append(x + meet)

    # The labels are still checked: a user label such as p^C1 can collide
    # with a gadget label.
    universe = VariableUniverse(len(labels), tuple(labels))
    edges = [(u, v) for u, vs in enumerate(higher) for v in vs] + gadget_edges
    tg = ThresholdGraph._trusted(Graph._trusted(universe, tuple(edges)), tuple(thresholds))
    return tg, RoleMap._trusted(n, tuple(roles))


def lift_target_set_to_key(
    cnf: HornCNF,
    roles: RoleMap,
    s: Iterable[int],
    tg: Optional[ThresholdGraph] = None,
) -> frozenset[int]:
    """Map a target set of the gadget graph to a key of the original CNF.

    The key collects the original vertices of ``s``, the variable attached to
    any chain vertex of ``s``, and the head of any clause whose hub is in
    ``s``; its size never exceeds |s|.  When ``tg`` is supplied the target-set
    precondition and the key contract are both checked.  A role map built
    from another CNF is refused: its original vertices or the clauses it
    lifts through do not match ``cnf``.
    """
    if roles.n_original != cnf.n:
        raise InputError(
            f"role map has {roles.n_original} original vertices, the CNF has {cnf.n} variables"
        )
    s = _as_varset(s, roles.n_total, "vertex")
    if tg is not None and len(activate(tg, s)) != tg.n:
        raise ContractError("the given set is not a target set of the gadget")
    key = set()
    for v in s:
        if v < roles.n_original:
            key.add(v)
            continue
        ci, role, var = roles.roles[v - roles.n_original]
        ci = _index(ci, cnf.m, f"role entry {v}: clause index")
        if role == HUB_ROLE:
            key.add(cnf.clauses[ci].head)
        else:
            key.add(var)  # in range: the role map checked it against n_original
    out = frozenset(key)
    if len(out) > len(s) or (tg is not None and not is_key(cnf, out)):
        raise ContractError("lifted set violates the key contract", witness=out)
    return out


def iter_minimal_target_sets(
    tg: ThresholdGraph,
    limit: Optional[int] = None,
    stats: Optional[KeyEnumerationStats] = None,
    max_threshold: int = 3,
) -> Iterator[frozenset[int]]:
    """Minimal target sets = minimal keys of Ψ_G; same order, same delay."""
    _check_limit(limit)
    return iter_minimal_keys(tss_to_horn(tg, max_threshold), limit=limit, stats=stats)


def enumerate_minimal_target_sets(
    tg: ThresholdGraph,
    sink: Callable[[frozenset[int]], None],
    limit: Optional[int] = None,
    max_threshold: int = 3,
) -> KeyEnumerationStats:
    _check_limit(limit)
    return enumerate_minimal_keys(tss_to_horn(tg, max_threshold), sink, limit=limit)


def _cardinality_search(n: int, predicate, cap: int, forced) -> frozenset[int]:
    # Ascending size, lexicographic within a size; the first hit is the
    # lexicographically smallest optimum.  Only supersets of ``forced``, which
    # every feasible set holds, are examined and counted against ``cap``.
    # The first hit is the same as in a scan of all subsets, because the
    # order of two equal-size sets depends only on their symmetric difference.
    forced = tuple(sorted(forced))
    rest = sorted(set(range(n)).difference(forced))
    examined = 0
    for size in range(len(rest) + 1):
        for combo in combinations(rest, size):
            examined += 1
            if examined > cap:
                raise ResourceGuardError(
                    f"minimum search examined more than {cap} subsets"
                )
            if predicate(forced + combo):
                return frozenset(forced + combo)
    raise ContractError("search space exhausted without a feasible set")


def minimum_key(cnf: HornCNF, budget: Optional[int] = None) -> frozenset[int]:
    """Exhaustive minimum-cardinality key, smallest lexicographic tie chosen.

    Every key holds the variables that head no clause, so only their
    supersets are examined, and ``budget`` counts those supersets.
    """
    cap = subset_budget(budget)
    engine = cnf.engine()
    n = cnf.n
    forced = set(range(n)).difference(c.head for c in cnf.clauses)
    return _cardinality_search(n, lambda c: len(engine.closure(c)) == n, cap, forced)


def minimum_target_set(tg: ThresholdGraph, budget: Optional[int] = None) -> frozenset[int]:
    """Exhaustive minimum-cardinality target set, lexicographically smallest.

    A vertex whose threshold exceeds its degree never activates, so every
    target set holds it; only supersets of those vertices are examined, and
    ``budget`` counts those supersets.
    """
    cap = subset_budget(budget)
    adj = tg.graph.adj_masks()
    forced = [v for v, t in enumerate(tg.thresholds) if t > adj[v].bit_count()]
    return _cardinality_search(tg.n, lambda c: len(activate(tg, c)) == tg.n, cap, forced)
