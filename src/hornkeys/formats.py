"""Text formats: horn, hg (hypergraphs and graphs), tss, cnf, roles.

All formats use 1-based ids, `#` comments, and skip blank lines.  An
optional `names` line directly after the header binds labels to ids; parse
and serialize are mutually inverse on canonical instances.  Each parser
checks what it reads once; all but ``parse_general_cnf`` then build unchecked.
"""

from __future__ import annotations

from typing import Optional

from ._bitset import mask_of
from .core import HornClause, HornCNF, VariableUniverse
from .errors import InputError, _brief, _check_count
from .hypergraph import Graph, SpernerHypergraph, _minimal_masks
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


def _vertex(tok, n: int, lineno: Optional[int] = None) -> int:
    """The 0-based vertex of the 1-based id ``tok``; a refusal names ``lineno`` if given."""
    try:
        v = int(tok)
    except ValueError:
        v = _int(tok, lineno, "a vertex id")  # raises with the line's message
    if v < 1 or v > n:
        at = "" if lineno is None else f"line {lineno}: "
        raise InputError(f"{at}vertex id {v} outside 1..{n}")
    return v - 1


def parse_vertex_set(spec: str, universe: VariableUniverse) -> frozenset[int]:
    """The set of comma or space separated tokens: 1-based ids where int() reads one, or labels."""
    out = set()
    for tok in spec.replace(",", " ").split():
        try:
            v = int(tok)
        except ValueError:
            if universe.labels is None:
                raise InputError(f"non-numeric vertex {tok!r} but the input has no names") from None
            out.add(universe.index(tok))
        else:
            out.add(_vertex(v, universe.n))
    return frozenset(out)


def _require_all(present, first: int, count: int, what: str) -> None:
    """Refuse unless ``present`` holds all ``count`` ids from ``first`` on.

    ``present`` holds distinct ids of that range, one per record line, so
    the shortfall is a subtraction and finding the first few missing ids
    costs O(len(present)), not O(count): a header count alone causes no work.
    """
    short = count - len(present)
    if short > 0:
        missing = (v + 1 for v in range(first, first + count) if v not in present)
        raise InputError(f"missing {what} for vertices {_brief(missing, short)}")


def _records(text: str, magic: str, what: Optional[str] = None, names: bool = True):
    """The prologue every format shares, read off ``text``.

    Returns ``(n, k, labels, rest)``: the two counts of the `magic n k`
    header, the labels of the `names` line right after it (None when absent,
    or when ``names`` is False), and the numbered record lines that follow.
    When ``what`` names the records, exactly k of them must follow.
    """
    items = list(_lines(text))
    if not items:
        raise InputError(f"empty input, expected a `{magic}` header")
    lineno, line = items[0]
    parts = line.split()
    if parts[0] != magic:
        raise InputError(f"line {lineno}: expected `{magic}` header, got {parts[0]!r}")
    if len(parts) != 3:
        raise InputError(f"line {lineno}: `{magic}` header needs 2 integers")
    n, k = [_int(p, lineno, "a header count") for p in parts[1:]]
    for count in (n, k):
        _check_count(count, f"line {lineno}: header count")
    labels, rest = None, items[1:]
    if names and rest and rest[0][1].split()[0] == "names":
        lineno, line = rest[0]
        toks = line.split()[1:]
        if len(toks) != n:
            raise InputError(f"line {lineno}: expected {n} names, got {len(toks)}")
        labels, rest = tuple(toks), rest[1:]
    if what is not None and len(rest) != k:
        raise InputError(f"expected {k} {what} lines, found {len(rest)}")
    return n, k, labels, rest


def _text(header: str, universe: Optional[VariableUniverse], lines: list[str]) -> str:
    """The header, a `names` line when ``universe`` has labels, then ``lines``."""
    out = [header]
    labels = None if universe is None else universe.labels
    if labels is not None:
        # str.split() splits at exactly the characters that str.isspace()
        # accepts, so the joined line splits back into the labels iff no
        # label is empty or holds whitespace.
        line = " ".join(labels)
        if "#" in line or line.split() != list(labels):
            for lab in labels:
                if not lab or any(c.isspace() for c in lab) or "#" in lab:
                    raise InputError(f"label {lab!r} cannot be written to a text format")
        out.append("names " + line)
    out += lines
    return "\n".join(out) + "\n"


def _horn_clause(toks: list[str], n: int, lineno: int) -> HornClause:
    """The clause of one line's tokens, every token checked."""
    if toks.count("->") != 1:
        raise InputError(f"line {lineno}: clause needs exactly one `->`")
    arrow = toks.index("->")
    if len(toks) != arrow + 2:
        raise InputError(f"line {lineno}: exactly one head id must follow `->`")
    body = frozenset(_vertex(t, n, lineno) for t in toks[:arrow])
    head = _vertex(toks[arrow + 1], n, lineno)
    if head in body:
        raise InputError(f"line {lineno}: head occurs in the body (tautology)")
    return HornClause(body, head)


def parse_horn(text: str) -> HornCNF:
    n, _, labels, rest = _records(text, "horn", "clause")
    # Ids written "1".."n" are read through a table.  It is built only when
    # there are at least n clause lines, so it costs at most one entry per
    # line, and neither a header count nor a long comment causes work.  A
    # line the table does not fit, with any other numeral, a misplaced `->`
    # or a tautology, goes through _horn_clause, which reads whatever int()
    # takes and gives every message.
    table = dict(zip(map(str, range(1, n + 1)), range(n))) if n <= len(rest) else {}
    vertex = table.__getitem__
    clause = HornClause._trusted
    clauses = []
    for lineno, line in rest:
        toks = line.split()
        try:
            if toks[-2] == "->":
                body = frozenset(map(vertex, toks[:-2]))
                head = vertex(toks[-1])
                if head not in body:
                    clauses.append(clause(body, head))
                    continue
        except (KeyError, IndexError):
            pass
        clauses.append(_horn_clause(toks, n, lineno))
    return HornCNF._trusted(VariableUniverse(n, labels), tuple(clauses))


def serialize_horn(cnf: HornCNF) -> str:
    ids = list(map(str, range(1, cnf.n + 1)))  # ids[v] is v's 1-based id as text
    id_of = ids.__getitem__
    out = [" ".join([*map(id_of, sorted(c.body)), "->", ids[c.head]]) for c in cnf.clauses]
    return _text(f"horn {cnf.n} {cnf.m}", cnf.universe, out)


def _edge(toks: list[str], n: int, lineno: int, first_line: dict, arity: Optional[int] = None):
    """Check the edge of one line's id tokens and file it in ``first_line``,
    which maps each edge read so far to the number of its line."""
    e = frozenset([_vertex(t, n, lineno) for t in toks])
    if len(e) != len(toks):
        raise InputError(f"line {lineno}: repeated vertex in edge")
    if arity is not None and len(toks) != arity:
        raise InputError(f"line {lineno}: expected an edge of {arity} vertices")
    if e in first_line:
        raise InputError(f"line {lineno}: duplicate of edge at line {first_line[e]}")
    first_line[e] = lineno


def _pairs(edges) -> tuple:
    """The 2-sets ``edges`` as the sorted pairs (u, v), u < v, of a Graph."""
    return tuple(sorted([(u, v) if u < v else (v, u) for u, v in edges]))


def parse_hypergraph(text: str) -> SpernerHypergraph:
    n, _, labels, rest = _records(text, "hg", "edge")
    first_line: dict = {}
    for lineno, line in rest:
        _edge(line.split(), n, lineno, first_line)
    masks = list(map(mask_of, first_line))
    # The antichain is checked on bitmasks, and the k² line-pair search runs
    # only when it failed.  It comes before the universe is built, so a
    # broken antichain is reported before a repeated label.
    if len(_minimal_masks(masks)) < len(masks):
        for a, l1 in first_line.items():
            for b, l2 in first_line.items():
                if a < b:
                    raise InputError(
                        f"line {l1}: edge is contained in the edge at line {l2} "
                        f"(not an antichain)"
                    )
    return SpernerHypergraph._of_masks(VariableUniverse(n, labels), masks)


def serialize_hypergraph(h: SpernerHypergraph) -> str:
    if any(not e for e in h.edges):
        raise InputError("the hg format cannot express the empty edge")
    out = [" ".join(str(v + 1) for v in sorted(e)) for e in h.edges]
    return _text(f"hg {h.n} {len(h.edges)}", h.universe, out)


def parse_graph(text: str) -> Graph:
    n, _, labels, rest = _records(text, "hg", "edge")
    edges: dict = {}
    for lineno, line in rest:
        _edge(line.split(), n, lineno, edges, 2)
    return Graph._trusted(VariableUniverse(n, labels), _pairs(edges))


def serialize_graph(g: Graph) -> str:
    out = [f"{u + 1} {v + 1}" for u, v in g.edges]
    return _text(f"hg {g.n} {len(g.edges)}", g.universe, out)


def parse_tss(text: str) -> ThresholdGraph:
    n, m, labels, rest = _records(text, "tss")
    edges: dict = {}
    thresholds: dict[int, int] = {}
    for lineno, line in rest:
        toks = line.split()
        if toks[0] == "e" and len(toks) == 3:
            _edge(toks[1:], n, lineno, edges)
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
    _require_all(thresholds, 0, n, "threshold")
    g = Graph._trusted(VariableUniverse(n, labels), _pairs(edges))
    return ThresholdGraph._trusted(g, tuple([thresholds[v] for v in range(n)]))


def serialize_tss(tg: ThresholdGraph) -> str:
    ids = list(map(str, range(1, tg.n + 1)))  # ids[v] is v's 1-based id as text
    out = [f"e {ids[u]} {ids[v]}" for u, v in tg.graph.edges]
    out += [f"t {i} {t}" for i, t in zip(ids, tg.thresholds)]
    return _text(f"tss {tg.n} {len(tg.graph.edges)}", tg.universe, out)


def parse_general_cnf(text: str) -> GeneralCNF:
    n, _, _, rest = _records(text, "cnf", "clause", names=False)
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
    out = []
    for clause in cnf.clauses:
        if not clause:
            raise InputError("the cnf format cannot express an empty clause")
        out.append(" ".join(str(lit) for lit in clause))
    return _text(f"cnf {cnf.n} {cnf.m}", None, out)


def parse_roles(text: str) -> RoleMap:
    n_orig, n_total, _, rest = _records(text, "roles", names=False)
    if n_total < n_orig:
        raise InputError(f"roles header: n_total {n_total} is below n_original {n_orig}")
    entries: dict[int, tuple] = {}
    for lineno, line in rest:
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
        if vid in entries:
            raise InputError(f"line {lineno}: duplicate entry for vertex {vid + 1}")
        entries[vid] = (clause, role, var)
    _require_all(entries, n_orig, n_total - n_orig, "role entries")
    return RoleMap._trusted(n_orig, tuple([entries[v] for v in range(n_orig, n_total)]))


def serialize_roles(rm: RoleMap) -> str:
    n0 = rm.n_original
    ids = list(map(str, range(1, n0 + 1)))  # ids[v] is v's 1-based id as text
    # A clause index may be any nonnegative int, so its text is kept by index
    # as it first appears, never in a table sized by the largest index.
    clause_ids: dict[int, str] = {}
    out = []
    for vid, (clause, role, var) in enumerate(rm.roles, n0 + 1):
        c = clause_ids.get(clause)
        if c is None:
            c = clause_ids[clause] = str(clause + 1)
        out.append(f"{vid} {c} {role} {ids[var]}")
    return _text(f"roles {n0} {rm.n_total}", None, out)
