"""Brute-force reference implementations and seeded instance generators.

Everything here is deliberately naive and implementation-independent from
the modules it cross-checks: closures are recomputed by quadratic
saturation, keys and transversals by full subset scans, activation by a
plain round loop.  All scans are guarded by desk-scale size limits.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Optional

from ._bitset import bits_of, mask_of, set_of
from .core import HornClause, HornCNF, VariableUniverse
from .errors import (
    ContractError,
    InputError,
    ResourceGuardError,
    _is_int,
    _not_an_int,
    bf_max_vars,
    subset_budget,
)
from .hypergraph import Graph, SpernerHypergraph, minimalize
from .tss import ThresholdGraph
from .uniqueness import GeneralCNF


def _guard_vars(n: int, max_vars: Optional[int], what: str):
    cap = bf_max_vars(max_vars)
    if n > cap:
        raise ResourceGuardError(f"{what} scans 2^{n} subsets; guard allows n <= {cap}")


def _bf_close(mask: int, rules) -> int:
    # rules: list of (body_mask, head_bit); quadratic saturation on purpose.
    changed = True
    while changed:
        changed = False
        for bm, hb in rules:
            if mask & hb != hb and mask & bm == bm:
                mask |= hb
                changed = True
    return mask


def bf_forward_closure(cnf: HornCNF, s, max_vars: Optional[int] = None) -> frozenset[int]:
    _guard_vars(cnf.n, max_vars, "closure oracle")
    rules = [(mask_of(c.body), 1 << c.head) for c in cnf.clauses]
    return set_of(_bf_close(mask_of(frozenset(s)), rules))


def bf_minimal_keys(cnf: HornCNF, max_vars: Optional[int] = None) -> set[frozenset[int]]:
    """All minimal keys by scanning every subset of the universe."""
    n = cnf.n
    _guard_vars(n, max_vars, "minimal-key oracle")
    rules = [(mask_of(c.body), 1 << c.head) for c in cnf.clauses]
    full = (1 << n) - 1
    keys = {m for m in range(1 << n) if _bf_close(m, rules) == full}
    out = set()
    for m in keys:
        if all((m & ~(1 << v)) not in keys for v in bits_of(m)):
            out.add(set_of(m))
    return out


def bf_minimal_transversals(
    b: SpernerHypergraph, max_vars: Optional[int] = None
) -> SpernerHypergraph:
    """The dual B^d by subset scan with a single-removal minimality filter."""
    n = b.n
    _guard_vars(n, max_vars, "transversal oracle")
    if any(not e for e in b.edges):
        raise InputError("cannot dualize a family containing the empty edge")
    masks = b.edge_masks()
    hits = lambda t: all(em & t for em in masks)
    found = []
    for t in range(1 << n):
        if hits(t) and all(not hits(t & ~(1 << v)) for v in bits_of(t)):
            found.append(set_of(t))
    return SpernerHypergraph(b.universe, found)


def bf_unique_key(b: SpernerHypergraph, max_vars: Optional[int] = None) -> bool:
    """Uniqueness from the definition, by subset scans over Φ_B.

    B is unique key iff every clause A→v that Φ_B does not imply creates a
    new key when added.  Keys are upward closed, so a new key appears iff
    some maximal non-key M becomes one: the clause fires on M when A ⊆ M,
    and then M ∪ {v} is a key unless v ∈ M.  So A→v can be added without
    a new key iff v lies in every maximal non-key that contains A.
    """
    n = b.n
    _guard_vars(n, max_vars, "unique-key oracle")
    if not b.edges or any(not e for e in b.edges):
        raise InputError("uniqueness oracle requires nonempty edges")
    full = (1 << n) - 1
    phi_b = [(em, 1 << v) for em in b.edge_masks() for v in bits_of(full & ~em)]
    closed = [_bf_close(m, phi_b) for m in range(1 << n)]
    maximal_non_keys = [
        m
        for m in range(1 << n)
        if closed[m] != full and all(closed[m | 1 << v] == full for v in bits_of(full & ~m))
    ]
    for a in range(1 << n):
        spared = full  # heads v in every maximal non-key containing A
        for m in maximal_non_keys:
            if m & a == a:
                spared &= m
        if spared & ~closed[a]:
            return False  # A→v is addable for every v in this difference
    return True


def bf_maximal_independent_sets(
    g: Graph, max_vars: Optional[int] = None
) -> list[frozenset[int]]:
    n = g.n
    _guard_vars(n, max_vars, "MIS oracle")
    adj = g.adj_masks()
    out = []
    for m in range(1 << n):
        if any(adj[v] & m and (m >> v) & 1 for v in range(n)):
            continue  # some chosen vertex keeps a chosen neighbor
        if any(not (m >> v) & 1 and not (adj[v] & m) for v in range(n)):
            continue  # extendable, hence not maximal
        out.append(set_of(m))
    out.sort(key=lambda s: tuple(sorted(s)))
    return out


def bf_satisfying_assignment(
    cnf: GeneralCNF, max_vars: Optional[int] = None
) -> Optional[tuple[bool, ...]]:
    """First satisfying assignment in ascending bitmask order, else None."""
    n = cnf.n
    _guard_vars(n, max_vars, "satisfiability oracle")
    for m in range(1 << n):
        ok = True
        for clause in cnf.clauses:
            if not any(
                (m >> (abs(lit) - 1)) & 1 == (1 if lit > 0 else 0) for lit in clause
            ):
                ok = False
                break
        if ok:
            return tuple(bool((m >> v) & 1) for v in range(n))
    return None


def bf_satisfiable(cnf: GeneralCNF, max_vars: Optional[int] = None) -> bool:
    return bf_satisfying_assignment(cnf, max_vars) is not None


def _bf_activate(tg: ThresholdGraph, seed) -> set[int]:
    active = set(seed)
    while True:
        add = [
            v
            for v in range(tg.n)
            if v not in active
            and len(tg.graph.neighbors(v) & active) >= tg.thresholds[v]
        ]
        if not add:
            return active
        active.update(add)


def bf_target_sets(tg: ThresholdGraph, max_vars: Optional[int] = None) -> list[frozenset[int]]:
    """Every target set, ascending bitmask order."""
    n = tg.n
    _guard_vars(n, max_vars, "target-set oracle")
    return [
        set_of(m) for m in range(1 << n) if len(_bf_activate(tg, set_of(m))) == n
    ]


def bf_minimal_target_sets(
    tg: ThresholdGraph, max_vars: Optional[int] = None
) -> set[frozenset[int]]:
    n = tg.n
    _guard_vars(n, max_vars, "target-set oracle")
    targets = {m for m in range(1 << n) if len(_bf_activate(tg, set_of(m))) == n}
    return {
        set_of(m)
        for m in targets
        if all((m & ~(1 << v)) not in targets for v in bits_of(m))
    }


def bf_min_target_set(tg: ThresholdGraph, max_vars: Optional[int] = None) -> frozenset[int]:
    """Smallest target set; lexicographically first among the smallest."""
    n = tg.n
    _guard_vars(n, max_vars, "target-set oracle")
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            if len(_bf_activate(tg, combo)) == n:
                return frozenset(combo)
    # V itself always activates everything, so the loop cannot fall through.
    raise ContractError("no target set found, which contradicts activate(V)=V")


def _connected(n: int, edge_list) -> bool:
    if n <= 1:
        return True
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v in edge_list:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def graphic_matroid_cuts(h: Graph, max_edges: Optional[int] = None) -> SpernerHypergraph:
    """The bonds of a connected graph: minimal edge sets whose removal
    disconnects it.  The result lives over the universe of edge indices,
    labeled `u-v` with 1-based endpoints."""
    m = len(h.edges)
    cap = bf_max_vars(max_edges)
    if m > cap:
        raise ResourceGuardError(f"bond oracle scans 2^{m} edge subsets; guard allows {cap}")
    if not _connected(h.n, h.edges):
        raise InputError("bond oracle requires a connected graph")
    universe = VariableUniverse(m, tuple(f"{u + 1}-{v + 1}" for u, v in h.edges))
    disconnects = [
        not _connected(h.n, [e for i, e in enumerate(h.edges) if not (mask >> i) & 1])
        for mask in range(1 << m)
    ]
    bonds = [
        set_of(mask)
        for mask in range(1 << m)
        if disconnects[mask]
        and all(not disconnects[mask & ~(1 << i)] for i in bits_of(mask))
    ]
    return SpernerHypergraph(universe, bonds)


def bf_spanning_trees(h: Graph, budget: Optional[int] = None) -> set[frozenset[int]]:
    """All spanning trees as sets of edge indices, by scanning (n-1)-subsets."""
    cap = subset_budget(budget)
    m = len(h.edges)
    n = h.n
    if n == 0:
        return set()
    examined = 0
    out = set()
    for combo in combinations(range(m), n - 1):
        examined += 1
        if examined > cap:
            raise ResourceGuardError(f"spanning-tree oracle exceeded {cap} subsets")
        if _connected(n, [h.edges[i] for i in combo]):
            out.add(frozenset(combo))
    return out


# ---------------------------------------------------------------------------
# Seeded generators.  Identical seed and parameters reproduce identical
# instances; every size parameter is explicit.


def _at_least(value: int, low: int, what: str):
    # A size below ``low`` leaves a generator nothing to draw from.
    if not _is_int(value):
        raise _not_an_int(value, what)
    if value < low:
        raise InputError(f"{what} must be at least {low}, got {value}")


def random_horn_cnf(seed: int, n: int, m: int, max_body: int = 3) -> HornCNF:
    universe = VariableUniverse(n)
    _at_least(m, 0, "the clause count")
    _at_least(max_body, 1, "the largest body size")
    if m and not n:
        raise InputError("clauses need at least one variable")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        head = rng.randrange(n)
        others = list(range(n))
        del others[head]
        size = rng.randint(1, min(max_body, len(others))) if others else 0
        clauses.append(HornClause._trusted(frozenset(rng.sample(others, size)), head))
    return HornCNF._trusted(universe, tuple(clauses))


def random_sperner(seed: int, n: int, k: int, max_edge: int = 4) -> SpernerHypergraph:
    universe = VariableUniverse(n)
    _at_least(k, 0, "the edge count")
    _at_least(max_edge, 1, "the largest edge size")
    if k and not n:
        raise InputError("edges need at least one vertex")
    rng = random.Random(seed)
    edges = []
    for _ in range(k):
        size = rng.randint(1, min(max_edge, n))
        edges.append(frozenset(rng.sample(range(n), size)))
    return minimalize(universe, edges)


def random_graph(seed: int, n: int, p: float) -> Graph:
    universe = VariableUniverse(n)
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(universe, edges)


def random_bipartite_graph(seed: int, a: int, b: int, p: float) -> Graph:
    """Random bipartite graph on parts of sizes a and b without isolated
    vertices (each isolated vertex gets one random cross edge)."""
    for size, what in ((a, "the left part size"), (b, "the right part size")):
        if not _is_int(size):
            raise _not_an_int(size, what)
    if a < 1 or b < 1:
        raise InputError("both parts need at least one vertex")
    rng = random.Random(seed)
    edges = {
        (u, a + w) for u in range(a) for w in range(b) if rng.random() < p
    }
    degree = [0] * (a + b)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for u in range(a):
        if degree[u] == 0:
            w = a + rng.randrange(b)
            edges.add((u, w))
            degree[u] += 1
            degree[w] += 1
    for w in range(a, a + b):
        if degree[w] == 0:
            u = rng.randrange(a)
            edges.add((u, w))
            degree[u] += 1
            degree[w] += 1
    return Graph(VariableUniverse(a + b), sorted(edges))


def random_threshold_graph(seed: int, n: int, p: float, tmax: int = 2) -> ThresholdGraph:
    universe = VariableUniverse(n)
    _at_least(tmax, 1, "the largest threshold")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    thresholds = [rng.randint(1, tmax) for _ in range(n)]
    return ThresholdGraph(Graph(universe, edges), thresholds)


def random_general_cnf(seed: int, n: int, m: int, width: int = 3) -> GeneralCNF:
    _at_least(n, 0, "the variable count")
    _at_least(m, 0, "the clause count")
    _at_least(width, 1, "the largest clause width")
    if m and not n:
        raise InputError("clauses need at least one variable")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        size = rng.randint(1, min(width, n))
        vars_ = rng.sample(range(1, n + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vars_))
    return GeneralCNF(n, tuple(clauses))
