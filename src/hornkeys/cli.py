"""Command-line frontend.

Exit codes: 0 decided/enumerated, 1 recognizer answered false, 2 input
error, 3 resource guard tripped or memory ran out.  Every verb accepts
--json and emits one object {command, result, witness, stats}; see
docs/cli_output.schema.json.  -o writes the text form for every verb that
takes it, and --json always prints its one object on stdout.

``main(argv)`` runs one command in process and returns its exit code.  It
builds the argument parser on its first call and reuses it for every later
call in the process; ``build_parser()`` returns a fresh one.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .core import _not_a_key, minimize_key
from .errors import DEFAULT_MAX_THRESHOLD, ContractError, InputError, ResourceGuardError
from .formats import (
    parse_general_cnf,
    parse_graph,
    parse_horn,
    parse_hypergraph,
    parse_tss,
    parse_vertex_set,
    serialize_general_cnf,
    serialize_graph,
    serialize_horn,
    serialize_hypergraph,
    serialize_roles,
    serialize_tss,
)
from .hypergraph import key_horn_cnf, minimal_transversals
from .keygen import KeyEnumerationStats, iter_minimal_keys
from .oracles import (
    bf_forward_closure,
    bf_maximal_independent_sets,
    bf_min_target_set,
    bf_minimal_keys,
    bf_minimal_target_sets,
    bf_minimal_transversals,
    bf_satisfying_assignment,
    bf_unique_key,
    graphic_matroid_cuts,
    random_bipartite_graph,
    random_general_cnf,
    random_graph,
    random_horn_cnf,
    random_sperner,
    random_threshold_graph,
)
from .tss import (
    activate,
    horn_to_tss,
    iter_minimal_target_sets,
    minimum_target_set,
    tss_to_horn,
)
from .uniqueness import build_sat_graph, is_unique_key_graph, is_unique_key_hypergraph


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _write(path, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from None


def _id(v: int, universe, names: bool):
    """The label of ``v`` when ``names`` asks for it and the input has labels;
    otherwise its 1-based id."""
    return universe.name(v) if names and universe.labels is not None else v + 1


def _ids(s, universe, names: bool) -> list:
    return [_id(v, universe, names) for v in sorted(s)]


def _line(ids) -> str:
    return " ".join(map(str, ids))


def _emit(args, result, text, witness=None, stats=None, code: int = 0) -> int:
    """Answer once and return ``code``.  Under --json, print the one object
    {command, result, witness, stats} on stdout.  Otherwise write ``text``
    to --output when the verb takes that flag and it is given, else to stdout."""
    if args.json:
        payload = {"command": args.command, "result": result, "witness": witness, "stats": stats}
        print(json.dumps(payload))
    else:
        _write(getattr(args, "output", None), text)
    return code


def _emit_text(args, text: str) -> int:
    return _emit(args, text, text)


def _emit_set(args, s, universe, names: bool = False) -> int:
    ids = _ids(s, universe, names)
    return _emit(args, ids, _line(ids) + "\n")


def _emit_sets(args, sets, universe) -> int:
    """The sets in the order of their sorted members, one a line."""
    ids = sorted(_ids(s, universe, False) for s in sets)
    return _emit(args, ids, "".join(_line(x) + "\n" for x in ids))


# Text and JSON label of the vertex set in each recognizer witness (S, v).
_WITNESS_LABELS = {"transversal-pair-missing": "T", "no-individual-neighbor": "I"}


def _emit_verdict(args, ok: bool, witness, universe) -> int:
    """``unique``/``not unique`` plus the witness, if any; exit 0 or 1."""
    text, shown = ("unique\n" if ok else "not unique\n"), None
    if witness is not None:
        s, v = witness.data
        label = _WITNESS_LABELS[witness.kind]
        ids = _ids(s, universe, True)  # labels whenever the input has them
        shown = {"kind": witness.kind, label: ids, "v": _id(v, universe, True)}
        text += f"{label}: {_line(ids)}\nv: {shown['v']}\n"
    return _emit(args, ok, text, shown, code=0 if ok else 1)


# --- enumeration verbs -----------------------------------------------------


def _run_enumeration(args, universe, iterator, stats: KeyEnumerationStats) -> int:
    if args.json:
        keys = [_ids(k, universe, args.names) for k in iterator]
        return _emit(args, keys, None, stats=dataclasses.asdict(stats))
    for k in iterator:
        print(_line(_ids(k, universe, args.names)), flush=True)
    if args.stats:
        print(
            f"# keys={stats.keys} closures={stats.closures} "
            f"max_delay_closures={stats.max_delay_closures}"
        )
    return 0


def cmd_keys(args) -> int:
    cnf = parse_horn(_read(args.input))
    stats = KeyEnumerationStats()
    return _run_enumeration(args, cnf.universe, iter_minimal_keys(cnf, args.limit, stats), stats)


def cmd_tss_enum(args) -> int:
    tg = parse_tss(_read(args.input))
    stats = KeyEnumerationStats()
    sets = iter_minimal_target_sets(tg, args.limit, stats, args.max_threshold)
    return _run_enumeration(args, tg.universe, sets, stats)


def cmd_key_min(args) -> int:
    cnf = parse_horn(_read(args.input))
    s = parse_vertex_set(args.set, cnf.universe)
    try:
        key = minimize_key(cnf, s)
    except ContractError as e:
        # name the ids as the user gave them
        why = _not_a_key(s, e.witness, cnf.n, lambda v: _id(v, cnf.universe, args.names))
        raise ContractError(why, witness=e.witness) from None
    return _emit_set(args, key, cnf.universe, args.names)


# --- recognizers -----------------------------------------------------------


def cmd_unique_hg(args) -> int:
    hg = parse_hypergraph(_read(args.input))
    return _emit_verdict(args, *is_unique_key_hypergraph(hg), hg.universe)


def cmd_unique_graph(args) -> int:
    g = parse_graph(_read(args.input))
    return _emit_verdict(args, *is_unique_key_graph(g), g.universe)


# --- transformations -------------------------------------------------------


def cmd_dual(args) -> int:
    d = minimal_transversals(parse_hypergraph(_read(args.input)))
    if args.json:
        return _emit(args, [_ids(e, d.universe, False) for e in d.edges], None)
    return _emit(args, None, serialize_hypergraph(d))


def cmd_phi_b(args) -> int:
    return _emit_text(args, serialize_horn(key_horn_cnf(parse_hypergraph(_read(args.input)))))


def cmd_sat2graph(args) -> int:
    cnf = parse_general_cnf(_read(args.input))
    return _emit_text(args, serialize_graph(build_sat_graph(cnf)))


def cmd_tss2horn(args) -> int:
    tg = parse_tss(_read(args.input))
    return _emit_text(args, serialize_horn(tss_to_horn(tg, args.max_threshold)))


def cmd_horn2tss(args) -> int:
    tg, roles = horn_to_tss(parse_horn(_read(args.input)))
    tss_text, roles_text = serialize_tss(tg), serialize_roles(roles)
    if args.json:
        return _emit(args, {"tss": tss_text, "roles": roles_text}, None)
    if args.output is None:
        raise InputError("horn2tss needs --output to place the roles sidecar")
    _write(args.output, tss_text)
    _write(args.roles or args.output + ".roles", roles_text)
    return 0


# --- activation ------------------------------------------------------------


def cmd_tss_activate(args) -> int:
    tg = parse_tss(_read(args.input))
    active = activate(tg, parse_vertex_set(args.seed_set, tg.universe))
    ids = _ids(active, tg.universe, args.names)
    return _emit(args, {"active": ids, "is_target_set": len(active) == tg.n}, _line(ids) + "\n")


def cmd_tss_min(args) -> int:
    tg = parse_tss(_read(args.input))
    return _emit_set(args, minimum_target_set(tg), tg.universe, args.names)


# --- generators and oracles ------------------------------------------------

# Each `gen` kind: the text of its seeded instance, drawn with the size flags.
_GENERATORS = {
    "horn": lambda a: serialize_horn(random_horn_cnf(a.seed, a.n, a.m, a.max_body)),
    "sperner": lambda a: serialize_hypergraph(random_sperner(a.seed, a.n, a.k, a.max_edge)),
    "graph": lambda a: serialize_graph(random_graph(a.seed, a.n, a.p)),
    "bipartite": lambda a: serialize_graph(random_bipartite_graph(a.seed, a.a, a.b, a.p)),
    "tss": lambda a: serialize_tss(random_threshold_graph(a.seed, a.n, a.p, a.tmax)),
    "cnf": lambda a: serialize_general_cnf(random_general_cnf(a.seed, a.n, a.m, a.width)),
}


def cmd_gen(args) -> int:
    return _emit_text(args, _GENERATORS[args.kind](args))


def _oracle_sat(cnf, args) -> int:
    assignment = bf_satisfying_assignment(cnf)
    if assignment is None:
        return _emit(args, None, "unsatisfiable\n", code=1)
    model = [(i + 1) if val else -(i + 1) for i, val in enumerate(assignment)]
    return _emit(args, model, _line(model) + "\n")


def _oracle_closure(cnf, args) -> int:
    if args.set is None:
        raise InputError("oracle closure needs --set")
    closed = bf_forward_closure(cnf, parse_vertex_set(args.set, cnf.universe))
    return _emit_set(args, closed, cnf.universe)


# Each oracle: the parser of its input, and its answer to the parsed input.
_ORACLES = {
    "minimal-keys": (parse_horn, lambda x, a: _emit_sets(a, bf_minimal_keys(x), x.universe)),
    "transversals": (
        parse_hypergraph,
        lambda x, a: _emit_text(a, serialize_hypergraph(bf_minimal_transversals(x))),
    ),
    "unique-key": (parse_hypergraph, lambda x, a: _emit_verdict(a, bf_unique_key(x), None, None)),
    "min-tss": (parse_tss, lambda x, a: _emit_set(a, bf_min_target_set(x), x.universe)),
    "minimal-tss": (parse_tss, lambda x, a: _emit_sets(a, bf_minimal_target_sets(x), x.universe)),
    "cuts": (
        parse_graph,
        lambda x, a: _emit_text(a, serialize_hypergraph(graphic_matroid_cuts(x))),
    ),
    "sat": (parse_general_cnf, _oracle_sat),
    "mis": (parse_graph, lambda x, a: _emit_sets(a, bf_maximal_independent_sets(x), x.universe)),
    "closure": (parse_horn, _oracle_closure),
}


def cmd_oracle(args) -> int:
    parse, answer = _ORACLES[args.name]
    return answer(parse(_read(args.input)), args)


# --- parser ----------------------------------------------------------------

# Flags that several verbs take, each stated once: option strings and keywords.
_FLAGS = {
    "limit": (["--limit"], dict(type=int, default=None, help="stop after this many keys")),
    "stats": (["--stats"], dict(action="store_true", help="append a stats comment line")),
    "names": (
        ["--names"],
        dict(action="store_true", help="print labels instead of ids when the input has them"),
    ),
    "output": (["-o", "--output"], dict(default=None, help="write the text form to this file")),
    "max-threshold": (
        ["--max-threshold"],
        dict(type=int, default=DEFAULT_MAX_THRESHOLD,
             help="largest threshold expanded into clauses (exit 3 above)"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for every verb; callers may change the one they get."""
    p = argparse.ArgumentParser(
        prog="hornkeys",
        description="Minimal keys of pure Horn functions, unique-key "
        "recognition, and target set selection reductions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def shared(sp, *flags: str):
        for flag in flags:
            options, keywords = _FLAGS[flag]
            sp.add_argument(*options, **keywords)

    def add(name: str, func, help: str, *flags: str, with_input: bool = True):
        """A verb with its input, --json and the shared ``flags``; a verb whose
        own options come first adds its shared flags after them."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        if with_input:
            sp.add_argument("input", help="input file, or - for stdin")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        shared(sp, *flags)
        return sp

    add("keys", cmd_keys, "enumerate all minimal keys of a horn file", "limit", "stats", "names")
    sp = add("key-min", cmd_key_min, "greedily minimize a key given with --set")
    sp.add_argument("--set", required=True, help="candidate key, e.g. '1,3' or 'a c'")
    shared(sp, "names")
    add("unique-hg", cmd_unique_hg, "decide whether a Sperner hypergraph is unique key")
    add("unique-graph", cmd_unique_graph, "decide whether a graph is unique key")
    add("dual", cmd_dual, "minimal transversals of a Sperner hypergraph", "output")
    add("phi-b", cmd_phi_b, "write the key Horn CNF of a hypergraph", "output")
    add("sat2graph", cmd_sat2graph, "build the gadget graph of a general CNF", "output")
    add("tss2horn", cmd_tss2horn, "reduce target set selection to keys", "output", "max-threshold")
    sp = add("horn2tss", cmd_horn2tss, "reduce keys to target set selection", "output")
    sp.add_argument("--roles", default=None, help="sidecar path (default <output>.roles)")
    sp = add("tss-enum", cmd_tss_enum, "enumerate all minimal target sets")
    shared(sp, "limit", "stats", "names", "max-threshold")
    sp = add("tss-activate", cmd_tss_activate, "run threshold activation from a seed set")
    sp.add_argument("--seed-set", required=True, help="e.g. '1,4' or 'b d'")
    shared(sp, "names")
    add("tss-min", cmd_tss_min, "exhaustive minimum target set", "names")

    sp = add("gen", cmd_gen, "generate a random instance", with_input=False)
    sp.add_argument("kind", choices=_GENERATORS)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--m", type=int, default=6)
    sp.add_argument("--k", type=int, default=4, help="edge count for sperner")
    sp.add_argument("--a", type=int, default=3, help="left part size for bipartite")
    sp.add_argument("--b", type=int, default=3, help="right part size for bipartite")
    sp.add_argument("--p", type=float, default=0.4, help="edge probability")
    sp.add_argument("--max-body", type=int, default=3)
    sp.add_argument("--max-edge", type=int, default=4)
    sp.add_argument("--tmax", type=int, default=2)
    sp.add_argument("--width", type=int, default=3)
    shared(sp, "output")

    sp = add("oracle", cmd_oracle, "run a brute-force reference oracle", with_input=False)
    sp.add_argument("name", choices=_ORACLES)
    sp.add_argument("input", help="input file, or - for stdin")
    sp.add_argument("--set", default=None, help="seed set for `closure`")
    shared(sp, "output")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import, and shared by later
    # calls: parse_args returns a fresh Namespace and leaves the parser as it
    # was, and building it costs far more than parsing.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceGuardError as e:
        print(f"resource guard: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource guard: out of memory", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
