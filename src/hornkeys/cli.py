"""Command-line frontend.

Exit codes: 0 decided/enumerated, 1 recognizer answered false, 2 input
error, 3 resource guard tripped or memory ran out.  Every verb accepts
--json and emits one object {command, result, witness, stats}; see
docs/cli_output.schema.json.

``main(argv)`` runs one command in process and returns its exit code.  It
builds the argument parser on its first call and reuses it for every later
call in the process; ``build_parser()`` returns a fresh one.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys

from .core import _not_a_key, minimize_key
from .errors import ContractError, InputError, ResourceGuardError
from .formats import (
    parse_general_cnf,
    parse_graph,
    parse_horn,
    parse_hypergraph,
    parse_tss,
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


def _line(s, universe, names: bool) -> str:
    return " ".join(str(t) for t in _ids(s, universe, names))


def _parse_set(spec: str, universe) -> frozenset[int]:
    """A vertex set given as comma/space separated 1-based ids or labels."""
    out = set()
    for tok in re.split(r"[\s,]+", spec.strip()):
        if not tok:
            continue
        if re.fullmatch(r"-?\d+", tok):
            v = int(tok)
            if v < 1 or v > universe.n:
                raise InputError(f"vertex id {v} outside 1..{universe.n}")
            out.add(v - 1)
        elif universe.labels is not None:
            out.add(universe.index(tok))
        else:
            raise InputError(f"non-numeric vertex {tok!r} but the input has no names")
    return frozenset(out)


def _payload(command: str, result, witness=None, stats=None) -> str:
    return json.dumps(
        {"command": command, "result": result, "witness": witness, "stats": stats}
    )


def _emit_set(args, command: str, s, universe, names: bool) -> int:
    if args.json:
        print(_payload(command, _ids(s, universe, names)))
    else:
        print(_line(s, universe, names))
    return 0


def _emit_sets(args, command: str, sets, universe) -> int:
    if args.json:
        print(_payload(command, [_ids(s, universe, False) for s in sets]))
    else:
        for s in sets:
            print(_line(s, universe, False))
    return 0


# Text and JSON label of the vertex set in each recognizer witness (S, v).
_WITNESS_LABELS = {"transversal-pair-missing": "T", "no-individual-neighbor": "I"}


def _emit_verdict(args, command: str, ok: bool, witness, universe) -> int:
    """``unique``/``not unique`` plus the witness, if any; exit 0 or 1."""
    shown = None
    if witness is not None:
        s, v = witness.data
        label = _WITNESS_LABELS[witness.kind]
        shown = {
            "kind": witness.kind,
            label: _ids(s, universe, True),  # labels whenever the input has them
            "v": _id(v, universe, True),
        }
    if args.json:
        print(_payload(command, ok, shown))
    else:
        print("unique" if ok else "not unique")
        if shown is not None:
            print(f"{label}: {_line(s, universe, True)}")
            print(f"v: {shown['v']}")
    return 0 if ok else 1


# --- enumeration verbs -----------------------------------------------------


def _run_enumeration(args, command, universe, iterator, stats: KeyEnumerationStats) -> int:
    if args.json:
        keys = [_ids(k, universe, args.names) for k in iterator]
        print(_payload(command, keys, None, dataclasses.asdict(stats)))
        return 0
    for k in iterator:
        print(_line(k, universe, args.names), flush=True)
    if args.stats:
        print(
            f"# keys={stats.keys} closures={stats.closures} "
            f"max_delay_closures={stats.max_delay_closures}"
        )
    return 0


def cmd_keys(args) -> int:
    cnf = parse_horn(_read(args.input))
    stats = KeyEnumerationStats()
    return _run_enumeration(
        args, "keys", cnf.universe, iter_minimal_keys(cnf, args.limit, stats), stats
    )


def cmd_tss_enum(args) -> int:
    tg = parse_tss(_read(args.input))
    stats = KeyEnumerationStats()
    return _run_enumeration(
        args,
        "tss-enum",
        tg.universe,
        iter_minimal_target_sets(tg, args.limit, stats, args.max_threshold),
        stats,
    )


def cmd_key_min(args) -> int:
    cnf = parse_horn(_read(args.input))
    s = _parse_set(args.set, cnf.universe)
    try:
        key = minimize_key(cnf, s)
    except ContractError as e:
        # name the ids as the user gave them
        why = _not_a_key(s, e.witness, cnf.n, lambda v: _id(v, cnf.universe, args.names))
        raise ContractError(why, witness=e.witness) from None
    return _emit_set(args, "key-min", key, cnf.universe, args.names)


# --- recognizers -----------------------------------------------------------


def cmd_unique_hg(args) -> int:
    hg = parse_hypergraph(_read(args.input))
    return _emit_verdict(args, "unique-hg", *is_unique_key_hypergraph(hg), hg.universe)


def cmd_unique_graph(args) -> int:
    g = parse_graph(_read(args.input))
    return _emit_verdict(args, "unique-graph", *is_unique_key_graph(g), g.universe)


# --- transformations -------------------------------------------------------


def _emit_text(args, command: str, text: str) -> int:
    if args.json:
        print(_payload(command, text))
    else:
        _write(args.output, text)
    return 0


def cmd_dual(args) -> int:
    hg = parse_hypergraph(_read(args.input))
    d = minimal_transversals(hg)
    if args.json:
        print(_payload("dual", [_ids(e, d.universe, False) for e in d.edges]))
        return 0
    _write(args.output, serialize_hypergraph(d))
    return 0


def cmd_phi_b(args) -> int:
    hg = parse_hypergraph(_read(args.input))
    return _emit_text(args, "phi-b", serialize_horn(key_horn_cnf(hg)))


def cmd_sat2graph(args) -> int:
    cnf = parse_general_cnf(_read(args.input))
    return _emit_text(args, "sat2graph", serialize_graph(build_sat_graph(cnf)))


def cmd_tss2horn(args) -> int:
    tg = parse_tss(_read(args.input))
    return _emit_text(args, "tss2horn", serialize_horn(tss_to_horn(tg, args.max_threshold)))


def cmd_horn2tss(args) -> int:
    cnf = parse_horn(_read(args.input))
    tg, roles = horn_to_tss(cnf)
    tss_text = serialize_tss(tg)
    roles_text = serialize_roles(roles)
    if args.json:
        print(_payload("horn2tss", {"tss": tss_text, "roles": roles_text}))
        return 0
    if args.output is None:
        raise InputError("horn2tss needs --output to place the roles sidecar")
    _write(args.output, tss_text)
    _write(args.roles or args.output + ".roles", roles_text)
    return 0


# --- activation ------------------------------------------------------------


def cmd_tss_activate(args) -> int:
    tg = parse_tss(_read(args.input))
    seed = _parse_set(args.seed_set, tg.universe)
    active = activate(tg, seed)
    if args.json:
        result = {
            "active": _ids(active, tg.universe, args.names),
            "is_target_set": len(active) == tg.n,
        }
        print(_payload("tss-activate", result))
        return 0
    print(_line(active, tg.universe, args.names))
    return 0


def cmd_tss_min(args) -> int:
    tg = parse_tss(_read(args.input))
    return _emit_set(args, "tss-min", minimum_target_set(tg), tg.universe, args.names)


# --- generators and oracles ------------------------------------------------


def cmd_gen(args) -> int:
    kind = args.kind
    if kind == "horn":
        text = serialize_horn(random_horn_cnf(args.seed, args.n, args.m, args.max_body))
    elif kind == "sperner":
        text = serialize_hypergraph(random_sperner(args.seed, args.n, args.k, args.max_edge))
    elif kind == "graph":
        text = serialize_graph(random_graph(args.seed, args.n, args.p))
    elif kind == "bipartite":
        text = serialize_graph(random_bipartite_graph(args.seed, args.a, args.b, args.p))
    elif kind == "tss":
        text = serialize_tss(random_threshold_graph(args.seed, args.n, args.p, args.tmax))
    else:  # cnf
        text = serialize_general_cnf(random_general_cnf(args.seed, args.n, args.m, args.width))
    return _emit_text(args, "gen", text)


def cmd_oracle(args) -> int:
    name = args.name
    if name == "minimal-keys":
        cnf = parse_horn(_read(args.input))
        keys = sorted(bf_minimal_keys(cnf), key=lambda s: tuple(sorted(s)))
        return _emit_sets(args, "oracle", keys, cnf.universe)
    if name == "transversals":
        hg = parse_hypergraph(_read(args.input))
        return _emit_text(args, "oracle", serialize_hypergraph(bf_minimal_transversals(hg)))
    if name == "unique-key":
        hg = parse_hypergraph(_read(args.input))
        return _emit_verdict(args, "oracle", bf_unique_key(hg), None, hg.universe)
    if name == "min-tss":
        tg = parse_tss(_read(args.input))
        return _emit_set(args, "oracle", bf_min_target_set(tg), tg.universe, False)
    if name == "minimal-tss":
        tg = parse_tss(_read(args.input))
        sets = sorted(bf_minimal_target_sets(tg), key=lambda s: tuple(sorted(s)))
        return _emit_sets(args, "oracle", sets, tg.universe)
    if name == "cuts":
        g = parse_graph(_read(args.input))
        return _emit_text(args, "oracle", serialize_hypergraph(graphic_matroid_cuts(g)))
    if name == "sat":
        cnf = parse_general_cnf(_read(args.input))
        assignment = bf_satisfying_assignment(cnf)
        if args.json:
            result = None
            if assignment is not None:
                result = [(i + 1) if val else -(i + 1) for i, val in enumerate(assignment)]
            print(_payload("oracle", result))
            return 0 if assignment is not None else 1
        if assignment is None:
            print("unsatisfiable")
            return 1
        print(" ".join(str((i + 1) if v else -(i + 1)) for i, v in enumerate(assignment)))
        return 0
    if name == "mis":
        g = parse_graph(_read(args.input))
        return _emit_sets(args, "oracle", bf_maximal_independent_sets(g), g.universe)
    if name == "closure":
        cnf = parse_horn(_read(args.input))
        if args.set is None:
            raise InputError("oracle closure needs --set")
        closed = bf_forward_closure(cnf, _parse_set(args.set, cnf.universe))
        return _emit_set(args, "oracle", closed, cnf.universe, False)
    raise InputError(f"unknown oracle {name!r}")


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for every verb; callers may change the one they get."""
    p = argparse.ArgumentParser(
        prog="hornkeys",
        description="Minimal keys of pure Horn functions, unique-key "
        "recognition, and target set selection reductions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str, with_input: bool = True):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        if with_input:
            sp.add_argument("input", help="input file, or - for stdin")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        return sp

    sp = add("keys", cmd_keys, "enumerate all minimal keys of a horn file")
    sp.add_argument("--limit", type=int, default=None, help="stop after this many keys")
    sp.add_argument("--stats", action="store_true", help="append a stats comment line")
    sp.add_argument(
        "--names", action="store_true", help="print labels instead of ids when the input has them"
    )

    sp = add("key-min", cmd_key_min, "greedily minimize a key given with --set")
    sp.add_argument("--set", required=True, help="candidate key, e.g. '1,3' or 'a c'")
    sp.add_argument("--names", action="store_true")

    add("unique-hg", cmd_unique_hg, "decide whether a Sperner hypergraph is unique key")
    add("unique-graph", cmd_unique_graph, "decide whether a graph is unique key")

    sp = add("dual", cmd_dual, "minimal transversals of a Sperner hypergraph")
    sp.add_argument("-o", "--output", default=None)

    sp = add("phi-b", cmd_phi_b, "write the key Horn CNF of a hypergraph")
    sp.add_argument("-o", "--output", default=None)

    sp = add("sat2graph", cmd_sat2graph, "build the gadget graph of a general CNF")
    sp.add_argument("-o", "--output", default=None)

    sp = add("tss2horn", cmd_tss2horn, "reduce target set selection to keys")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--max-threshold", type=int, default=3)

    sp = add("horn2tss", cmd_horn2tss, "reduce keys to target set selection")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--roles", default=None, help="sidecar path (default <output>.roles)")

    sp = add("tss-enum", cmd_tss_enum, "enumerate all minimal target sets")
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--stats", action="store_true")
    sp.add_argument("--names", action="store_true")
    sp.add_argument("--max-threshold", type=int, default=3)

    sp = add("tss-activate", cmd_tss_activate, "run threshold activation from a seed set")
    sp.add_argument("--seed-set", required=True, help="e.g. '1,4' or 'b d'")
    sp.add_argument("--names", action="store_true")

    sp = add("tss-min", cmd_tss_min, "exhaustive minimum target set")
    sp.add_argument("--names", action="store_true")

    sp = add("gen", cmd_gen, "generate a random instance", with_input=False)
    sp.add_argument("kind", choices=["horn", "sperner", "graph", "bipartite", "tss", "cnf"])
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
    sp.add_argument("-o", "--output", default=None)

    sp = add("oracle", cmd_oracle, "run a brute-force reference oracle", with_input=False)
    sp.add_argument(
        "name",
        choices=[
            "minimal-keys",
            "transversals",
            "unique-key",
            "min-tss",
            "minimal-tss",
            "cuts",
            "sat",
            "mis",
            "closure",
        ],
    )
    sp.add_argument("input", help="input file, or - for stdin")
    sp.add_argument("--set", default=None, help="seed set for `closure`")
    sp.add_argument("-o", "--output", default=None)

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
