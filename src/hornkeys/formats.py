"""Text formats: horn, hg (hypergraphs and graphs), tss, cnf, roles.

All formats use 1-based ids, `#` comments, and skip blank lines.  An
optional `names` line directly after the header binds labels to ids; parse
and serialize are mutually inverse on canonical instances.
"""

from __future__ import annotations

from typing import Optional

from .core import HornClause, HornCNF, VariableUniverse
from .errors import InputError
from .hypergraph import Graph, SpernerHypergraph
from .tss import ROLES, RoleMap, ThresholdGraph
from .uniqueness import GeneralCNF


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise InputError(f"line {lineno}: expected {what}, got {tok!r}") from None


def _vertex(tok: str, n: int, lineno: int) -> int:
    v = _int(tok, lineno, "a vertex id")
    if v < 1 or v > n:
        raise InputError(f"line {lineno}: vertex id {v} outside 1..{n}")
    return v - 1


def _header(items, magic: str, fields: int):
    if not items:
        raise InputError(f"empty input, expected a `{magic}` header")
    lineno, line = items[0]
    parts = line.split()
    if parts[0] != magic:
        raise InputError(f"line {lineno}: expected `{magic}` header, got {parts[0]!r}")
    if len(parts) != fields + 1:
        raise InputError(f"line {lineno}: `{magic}` header needs {fields} integers")
    return [_int(p, lineno, "a header count") for p in parts[1:]]


def _names(items, n: int) -> tuple[Optional[tuple[str, ...]], list]:
    rest = items[1:]
    if rest and rest[0][1].split()[0] == "names":
        lineno, line = rest[0]
        toks = line.split()[1:]
        if len(toks) != n:
            raise InputError(f"line {lineno}: expected {n} names, got {len(toks)}")
        return tuple(toks), rest[1:]
    return None, rest


def _check_label(label: str):
    if not label or any(c.isspace() for c in label) or "#" in label:
        raise InputError(f"label {label!r} cannot be written to a text format")


def _names_line(universe: VariableUniverse) -> list[str]:
    labels = universe.labels
    if labels is None:
        return []
    # str.split() splits at exactly the characters that str.isspace() accepts,
    # so the joined line splits back into the labels iff no label is empty or
    # holds whitespace.
    line = " ".join(labels)
    if "#" in line or line.split() != list(labels):
        for lab in labels:
            _check_label(lab)
    return ["names " + line]


def parse_horn(text: str) -> HornCNF:
    items = list(_lines(text))
    n, m = _header(items, "horn", 2)
    labels, rest = _names(items, n)
    if len(rest) != m:
        raise InputError(f"expected {m} clause lines, found {len(rest)}")
    clauses = []
    for lineno, line in rest:
        toks = line.split()
        if toks.count("->") != 1:
            raise InputError(f"line {lineno}: clause needs exactly one `->`")
        arrow = toks.index("->")
        if len(toks) != arrow + 2:
            raise InputError(f"line {lineno}: exactly one head id must follow `->`")
        body = frozenset(_vertex(t, n, lineno) for t in toks[:arrow])
        head = _vertex(toks[arrow + 1], n, lineno)
        if head in body:
            raise InputError(f"line {lineno}: head occurs in the body (tautology)")
        clauses.append(HornClause(body, head))
    return HornCNF(VariableUniverse(n, labels), clauses)


def serialize_horn(cnf: HornCNF) -> str:
    out = [f"horn {cnf.n} {cnf.m}"] + _names_line(cnf.universe)
    for c in cnf.clauses:
        body = " ".join(str(v + 1) for v in sorted(c.body))
        out.append((body + " " if body else "") + f"-> {c.head + 1}")
    return "\n".join(out) + "\n"


def _parse_edge_lines(rest, n: int, arity: Optional[int]):
    first_line = {}
    for lineno, line in rest:
        ids = [_vertex(t, n, lineno) for t in line.split()]
        if len(set(ids)) != len(ids):
            raise InputError(f"line {lineno}: repeated vertex in edge")
        if arity is not None and len(ids) != arity:
            raise InputError(f"line {lineno}: expected an edge of {arity} vertices")
        e = frozenset(ids)
        if e in first_line:
            raise InputError(f"line {lineno}: duplicate of edge at line {first_line[e]}")
        first_line[e] = lineno
    return [(lineno, e) for e, lineno in first_line.items()]


def parse_hypergraph(text: str) -> SpernerHypergraph:
    items = list(_lines(text))
    n, k = _header(items, "hg", 2)
    labels, rest = _names(items, n)
    if len(rest) != k:
        raise InputError(f"expected {k} edge lines, found {len(rest)}")
    edges = _parse_edge_lines(rest, n, None)
    try:
        return SpernerHypergraph(VariableUniverse(n, labels), [e for _, e in edges])
    except InputError:
        # The build checks the antichain on bitmasks; the k² line-pair search
        # runs only when it failed.  A broken antichain is reported before
        # any other error, such as a repeated label.
        for l1, a in edges:
            for l2, b in edges:
                if a < b:
                    raise InputError(
                        f"line {l1}: edge is contained in the edge at line {l2} "
                        f"(not an antichain)"
                    ) from None
        raise


def serialize_hypergraph(h: SpernerHypergraph) -> str:
    if any(not e for e in h.edges):
        raise InputError("the hg format cannot express the empty edge")
    out = [f"hg {h.n} {len(h.edges)}"] + _names_line(h.universe)
    for e in h.edges:
        out.append(" ".join(str(v + 1) for v in sorted(e)))
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> Graph:
    items = list(_lines(text))
    n, k = _header(items, "hg", 2)
    labels, rest = _names(items, n)
    if len(rest) != k:
        raise InputError(f"expected {k} edge lines, found {len(rest)}")
    edges = _parse_edge_lines(rest, n, 2)
    return Graph(VariableUniverse(n, labels), [e for _, e in edges])


def serialize_graph(g: Graph) -> str:
    out = [f"hg {g.n} {len(g.edges)}"] + _names_line(g.universe)
    out += [f"{u + 1} {v + 1}" for u, v in g.edges]
    return "\n".join(out) + "\n"


def parse_tss(text: str) -> ThresholdGraph:
    items = list(_lines(text))
    n, m = _header(items, "tss", 2)
    labels, rest = _names(items, n)
    edges = []
    seen_edges = {}
    thresholds: dict[int, int] = {}
    for lineno, line in rest:
        toks = line.split()
        if toks[0] == "e" and len(toks) == 3:
            u, v = _vertex(toks[1], n, lineno), _vertex(toks[2], n, lineno)
            if u == v:
                raise InputError(f"line {lineno}: self-loop at vertex {u + 1}")
            key = (min(u, v), max(u, v))
            if key in seen_edges:
                raise InputError(
                    f"line {lineno}: parallel edge, first seen at line {seen_edges[key]}"
                )
            seen_edges[key] = lineno
            edges.append(key)
        elif toks[0] == "t" and len(toks) == 3:
            v = _vertex(toks[1], n, lineno)
            if v in thresholds:
                raise InputError(f"line {lineno}: second threshold for vertex {v + 1}")
            k = _int(toks[2], lineno, "a threshold")
            if k < 1:
                raise InputError(f"line {lineno}: threshold must be >= 1")
            thresholds[v] = k
        else:
            raise InputError(f"line {lineno}: expected `e <u> <v>` or `t <v> <k>`")
    if len(edges) != m:
        raise InputError(f"expected {m} edges, found {len(edges)}")
    missing = [v + 1 for v in range(n) if v not in thresholds]
    if missing:
        raise InputError(f"missing threshold for vertices {missing}")
    return ThresholdGraph(
        Graph(VariableUniverse(n, labels), edges),
        [thresholds[v] for v in range(n)],
    )


def serialize_tss(tg: ThresholdGraph) -> str:
    out = [f"tss {tg.n} {len(tg.graph.edges)}"] + _names_line(tg.universe)
    for u, v in tg.graph.edges:
        out.append(f"e {u + 1} {v + 1}")
    for v in range(tg.n):
        out.append(f"t {v + 1} {tg.thresholds[v]}")
    return "\n".join(out) + "\n"


def parse_general_cnf(text: str) -> GeneralCNF:
    items = list(_lines(text))
    n, m = _header(items, "cnf", 2)
    rest = items[1:]
    if len(rest) != m:
        raise InputError(f"expected {m} clause lines, found {len(rest)}")
    clauses = []
    for lineno, line in rest:
        lits = []
        for tok in line.split():
            lit = _int(tok, lineno, "a signed literal")
            if lit == 0 or abs(lit) > n:
                raise InputError(f"line {lineno}: literal {lit} outside ±1..±{n}")
            lits.append(lit)
        clauses.append(tuple(lits))
    return GeneralCNF(n, tuple(clauses))


def serialize_general_cnf(cnf: GeneralCNF) -> str:
    out = [f"cnf {cnf.n} {cnf.m}"]
    for clause in cnf.clauses:
        if not clause:
            raise InputError("the cnf format cannot express an empty clause")
        out.append(" ".join(str(lit) for lit in clause))
    return "\n".join(out) + "\n"


def parse_roles(text: str) -> RoleMap:
    items = list(_lines(text))
    n_orig, n_total = _header(items, "roles", 2)
    roles = {}
    for lineno, line in items[1:]:
        toks = line.split()
        if len(toks) != 4:
            raise InputError(f"line {lineno}: expected `<vid> <clause> <role> <var>`")
        vid = _int(toks[0], lineno, "a vertex id") - 1
        clause = _int(toks[1], lineno, "a clause index") - 1
        role = toks[2]
        var = _int(toks[3], lineno, "a variable id") - 1
        if clause < 0:
            raise InputError(f"line {lineno}: clause index {clause + 1} is below 1")
        if not (0 <= var < n_orig):
            raise InputError(f"line {lineno}: variable id {var + 1} outside 1..{n_orig}")
        if role not in ROLES:
            raise InputError(f"line {lineno}: unknown role {role!r}")
        if not (n_orig <= vid < n_total):
            raise InputError(f"line {lineno}: vertex {vid + 1} outside the gadget range")
        if vid in roles:
            raise InputError(f"line {lineno}: duplicate entry for vertex {vid + 1}")
        roles[vid] = (clause, role, var)
    missing = [v + 1 for v in range(n_orig, n_total) if v not in roles]
    if missing:
        raise InputError(f"missing role entries for vertices {missing}")
    return RoleMap(n_orig, n_total, roles)


def serialize_roles(rm: RoleMap) -> str:
    out = [f"roles {rm.n_original} {rm.n_total}"]
    for vid in sorted(rm.roles):
        clause, role, var = rm.roles[vid]
        out.append(f"{vid + 1} {clause + 1} {role} {var + 1}")
    return "\n".join(out) + "\n"
