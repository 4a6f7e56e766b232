"""Per-layer measurements for the traced run.

Fixed samples of every workload's inputs are replayed one layer at a time,
each call wrapped in a span recorded from this file (the library itself is
not instrumented).  Every per-layer metric is derived from those spans or
from the library's own counters, so the count metrics repeat exactly for a
given seed.  ``oracles`` only builds inputs here; it is never timed.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from hornkeys import (
    KeyEnumerationStats,
    activate,
    build_sat_graph,
    forward_closure,
    horn_to_tss,
    is_unique_key_graph,
    is_unique_key_hypergraph,
    iter_minimal_keys,
    iter_minimal_target_sets,
    key_horn_cnf,
    maximal_independent_sets,
    minimal_transversals,
    minimize_key,
    tss_to_horn,
    verify_witness,
)
from hornkeys._closure_py import Engine as PyEngine
from hornkeys.formats import (
    parse_general_cnf,
    parse_horn,
    parse_hypergraph,
    parse_tss,
    serialize_graph,
    serialize_horn,
    serialize_hypergraph,
    serialize_roles,
    serialize_tss,
)
from hornkeys.oracles import random_horn_cnf
from workloads import delay_bound, setup_cli, setup_enum, setup_recognize

try:
    from hornkeys._fastclosure import Engine as CEngine
except ImportError:
    CEngine = None

ENUM_PROBE_JOBS = 12
CLI_PROBE_ROUNDS = 4  # rounds of cli jobs replayed, and of cli inputs fed to constructions
REPEATS = 3
SCALING = (64, 256, 1024)


class Spans:
    """Read-side helpers over a tracer's span records."""

    def __init__(self, tracer, first: int):
        self.tracer = tracer
        self.first = first  # probe spans start here; earlier ones are the loop's

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e, _, _ in self.tracer.spans[self.first:] if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def by_job(self, name: str) -> dict:
        out = defaultdict(float)
        for n, s, e, _, job in self.tracer.spans[self.first:]:
            if n == name:
                out[job] += e - s
        return out


def _closure_rate(engine_cls, cnf, seeds) -> float:
    bodies = [tuple(sorted(c.body)) for c in cnf.clauses]
    heads = [c.head for c in cnf.clauses]
    engine = engine_cls(cnf.n, bodies, heads)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        for s in seeds:
            engine.closure(s)
        best = min(best, perf_counter() - t0)
    return len(seeds) / best


def kernel_and_keygen(tracer, spans: Spans, enum_inputs, values: dict) -> None:
    jobs = enum_inputs.cycle[:ENUM_PROBE_JOBS]
    totals = defaultdict(int)
    max_ratio = 0.0
    for job in jobs:
        cnf = job.cnf
        tracer.job = job.label
        stats = KeyEnumerationStats()
        with tracer.span("keygen.iter_minimal_keys"):
            keys = list(iter_minimal_keys(cnf, limit=job.limit, stats=stats))
        for name in ("keys", "candidates", "closures"):
            totals[name] += getattr(stats, name)
        totals["max_delay_closures"] = max(totals["max_delay_closures"], stats.max_delay_closures)
        max_ratio = max(max_ratio, stats.max_delay_closures / delay_bound(cnf.n, cnf.m))
        # The seeds _minimize tries on the way to each emitted key K.
        seeds = [k - {v} for k in keys for v in sorted(k)]
        totals["replayed"] += REPEATS * len(seeds)
        engine = cnf.fresh_engine()
        full = frozenset(range(cnf.n))
        for _ in range(REPEATS):
            with tracer.span("kernel.closure"):
                for s in seeds:
                    engine.closure(s)
            with tracer.span("core.forward_closure"):
                for s in seeds:
                    forward_closure(cnf, s)
            with tracer.span("core.minimize_key"):
                minimize_key(cnf, full)

    kernel_s = spans.total("kernel.closure")
    enum_busy = spans.total("keygen.iter_minimal_keys")
    rate = totals["replayed"] / kernel_s
    share = totals["closures"] / rate / enum_busy
    values.update({
        "kernel.closures_per_s": rate,
        "kernel.share_of_enum": share,
        "core.forward_closure_us": spans.total("core.forward_closure") / totals["replayed"] * 1e6,
        "core.wrapper_overhead_ratio": spans.total("core.forward_closure") / kernel_s,
        "core.minimize_key_ms": statistics.mean(spans.durations("core.minimize_key")) * 1e3,
        "keygen.keys": totals["keys"],
        "keygen.candidates": totals["candidates"],
        "keygen.closures": totals["closures"],
        "keygen.closures_per_key": totals["closures"] / totals["keys"],
        "keygen.new_key_ratio": totals["keys"] / totals["candidates"],
        "keygen.max_delay_closures": totals["max_delay_closures"],
        "keygen.delay_bound_ratio": max_ratio,
        "keygen.outside_kernel_share": 1 - share,
    })


def kernel_scaling(tracer, seed: int, values: dict) -> None:
    """The closure-rate table on synthetic CNFs, each backend built directly."""
    rng = random.Random(f"kernel:{seed}")
    for n in SCALING:
        cnf = random_horn_cnf(rng.randrange(2**32), n, 2 * n, max_body=4)
        seeds = [rng.sample(range(n), rng.randint(1, max(2, n // 4))) for _ in range(200)]
        tracer.job = f"scaling.n{n}"
        for backend, cls in (("python", PyEngine), ("cython", CEngine)):
            if cls is not None:
                with tracer.span(f"kernel.{backend}.closure.n{n}"):
                    values[f"kernel.{backend}.closures_per_s.n{n}"] = _closure_rate(cls, cnf, seeds)


def recognize(tracer, spans: Spans, recognize_inputs, values: dict) -> None:
    """One input of each kind in the recognize mix, layer by layer."""
    first_of_kind = {}
    for job in recognize_inputs.cycle:
        first_of_kind.setdefault(job.kind, job)
    dual_edges = mis_count = yes = no = 0
    for job in first_of_kind.values():
        tracer.job = job.label
        if job.is_graph:
            with tracer.span("hypergraph.maximal_independent_sets"):
                mis_count += sum(1 for _ in maximal_independent_sets(job.obj))
            with tracer.span("uniqueness.is_unique_key_graph"):
                ok, w = is_unique_key_graph(job.obj)
        else:
            with tracer.span("hypergraph.minimal_transversals"):
                dual_edges += len(minimal_transversals(job.obj).edges)
            with tracer.span("uniqueness.is_unique_key_hypergraph"):
                ok, w = is_unique_key_hypergraph(job.obj)
        if ok:
            yes += 1
        else:
            no += 1
            with tracer.span("uniqueness.verify_witness"):
                verify_witness(w, job.obj)

    recognizer = spans.by_job("uniqueness.is_unique_key_hypergraph")
    dual = spans.by_job("hypergraph.minimal_transversals")
    # Only full scans: a negative graph stops early, its MIS count does not.
    graph_full = [
        job.label for job in first_of_kind.values() if job.is_graph and job.expected
    ]
    graph = spans.by_job("uniqueness.is_unique_key_graph")
    mis = spans.by_job("hypergraph.maximal_independent_sets")
    values.update({
        "hypergraph.dual_s": spans.total("hypergraph.minimal_transversals"),
        "hypergraph.dual_edges": dual_edges,
        "hypergraph.dual_edges_per_s": dual_edges / spans.total("hypergraph.minimal_transversals"),
        "hypergraph.mis_count": mis_count,
        "hypergraph.mis_per_s": mis_count / spans.total("hypergraph.maximal_independent_sets"),
        "uniqueness.pair_scan_s": sum(recognizer[j] - dual[j] for j in recognizer),
        "uniqueness.verify_witness_ms": statistics.mean(spans.durations("uniqueness.verify_witness")) * 1e3,
        "uniqueness.graph_scan_s": sum(graph[j] - mis[j] for j in graph_full),
        "uniqueness.verdicts_yes": yes,
        "uniqueness.verdicts_no": no,
    })


def _set_arg(argv, flag) -> frozenset:
    return frozenset(int(t) - 1 for t in argv[argv.index(flag) + 1].split(","))


def _replay_steps(job):
    """The parse, compute and serialize calls a cli job makes, called directly."""
    verb, argv = job.verb, job.argv
    if verb in ("keys", "key-min", "horn2tss"):
        parse = parse_horn
    elif verb in ("phi-b", "dual"):
        parse = parse_hypergraph
    elif verb == "sat2graph":
        parse = parse_general_cnf
    else:
        parse = parse_tss
    compute = {
        "keys": lambda x: list(iter_minimal_keys(x, None, KeyEnumerationStats())),
        "key-min": lambda x: minimize_key(x, _set_arg(argv, "--set")),
        "phi-b": key_horn_cnf,
        "dual": minimal_transversals,
        "sat2graph": build_sat_graph,
        "tss-enum": lambda x: list(iter_minimal_target_sets(x, None, KeyEnumerationStats())),
        "tss2horn": tss_to_horn,
        "horn2tss": horn_to_tss,
        "tss-activate": lambda x: activate(x, _set_arg(argv, "--seed-set")),
    }[verb]
    serialize = {
        "phi-b": serialize_horn,
        "tss2horn": serialize_horn,
        "dual": serialize_hypergraph,
        "sat2graph": serialize_graph,
        "horn2tss": lambda r: serialize_tss(r[0]) + serialize_roles(r[1]),
    }.get(verb)
    return parse, compute, serialize


def cli_and_formats(tracer, spans: Spans, cli_inputs, values: dict) -> None:
    """Each cli job through cli.main, then its parse, compute and serialize
    calls replayed directly; the difference is the cli's own time."""
    bytes_in = bytes_out = 0
    self_ms = []
    jobs = cli_inputs.cycle[: CLI_PROBE_ROUNDS * cli_inputs.round]
    for rep in range(REPEATS):
        for job in jobs:
            label = f"{job.label}#{rep}"
            tracer.job = label
            job.run(tracer)
            text = Path(job.argv[1]).read_text(encoding="utf-8")
            parse, compute, serialize = _replay_steps(job)
            with tracer.span("formats.parse"):
                obj = parse(text)
            with tracer.span(f"compute.{job.verb}"):
                result = compute(obj)
            if serialize is not None:
                with tracer.span("formats.serialize"):
                    out = serialize(result)
            if rep == 0:
                bytes_in += len(text.encode())
                bytes_out += len(out.encode()) if serialize is not None else 0
    main = spans.by_job("cli.main")
    parts = [spans.by_job(n) for n in ("formats.parse", "formats.serialize")]
    computes = defaultdict(float)
    per_verb = defaultdict(list)
    for name, s, e, _, job in tracer.spans[spans.first:]:
        if name.startswith("compute."):
            computes[job] += e - s
    for job in jobs:
        for rep in range(REPEATS):
            label = f"{job.label}#{rep}"
            per_verb[job.verb].append(main[label] * 1e3)
            replayed = parts[0][label] + parts[1][label] + computes[label]
            self_ms.append((main[label] - replayed) * 1e3)
    parse_s = spans.total("formats.parse") / REPEATS
    serialize_s = spans.total("formats.serialize") / REPEATS
    values.update({
        "formats.parse_ms": parse_s * 1e3,
        "formats.parse_mb_per_s": bytes_in / parse_s / 1e6,
        "formats.serialize_ms": serialize_s * 1e3,
        "formats.serialize_mb_per_s": bytes_out / serialize_s / 1e6,
        "formats.bytes_in": bytes_in,
        "formats.bytes_out": bytes_out,
        "cli.self_ms": statistics.median(self_ms),
        **{f"cli.main_ms.{verb}": statistics.median(ms) for verb, ms in per_verb.items()},
    })


def tss_and_constructions(tracer, spans: Spans, cli_inputs, values: dict) -> None:
    src = {kind: objs[:CLI_PROBE_ROUNDS] for kind, objs in cli_inputs.sources.items()}
    tracer.job = "constructions"
    clauses = vertices = 0
    for tg in src["tss"]:
        for _ in range(REPEATS):
            with tracer.span("tss.tss_to_horn"):
                psi = tss_to_horn(tg)
        clauses += psi.m
    for cnf in src["horn"]:
        for _ in range(REPEATS):
            with tracer.span("tss.horn_to_tss"):
                tg, roles = horn_to_tss(cnf)
        vertices += roles.n_total
    for tg, seed_set in src["activate"]:
        for _ in range(REPEATS):
            with tracer.span("tss.activate"):
                activate(tg, seed_set)
    for b in src["sperner"]:
        for _ in range(REPEATS):
            with tracer.span("hypergraph.key_horn_cnf"):
                key_horn_cnf(b)
    for phi in src["phi"]:
        for _ in range(REPEATS):
            with tracer.span("kernel.engine_build"):
                phi.fresh_engine()

    def mean(name):
        return statistics.mean(spans.durations(name))

    values.update({
        "tss.tss_to_horn_ms": mean("tss.tss_to_horn") * 1e3,
        "tss.clauses_emitted": clauses,
        "tss.horn_to_tss_ms": mean("tss.horn_to_tss") * 1e3,
        "tss.gadget_vertices": vertices,
        "tss.activate_us": mean("tss.activate") * 1e6,
        "hypergraph.key_horn_cnf_ms": mean("hypergraph.key_horn_cnf") * 1e3,
        "kernel.engine_build_us": mean("kernel.engine_build") * 1e6,
    })


def import_ms(root: Path) -> float:
    """Cumulative import time of hornkeys.cli in a fresh interpreter, median of 3."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    times = []
    for _ in range(REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hornkeys.cli"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        match = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*hornkeys\.cli$", proc.stderr, re.M)
        times.append(int(match.group(1)) / 1e3)
    return statistics.median(times)


def measure(seed: int, root: Path, tracer) -> dict:
    """Every per-layer metric, from probes over all three workloads' inputs."""
    spans = Spans(tracer, len(tracer.spans))
    values: dict = {}
    enum_inputs = setup_enum(seed, root / ".perfbench" / "enum")
    recognize_inputs = setup_recognize(seed, root / ".perfbench" / "recognize")
    cli_inputs = setup_cli(seed, root / ".perfbench" / "cli")
    kernel_and_keygen(tracer, spans, enum_inputs, values)
    kernel_scaling(tracer, seed, values)
    recognize(tracer, spans, recognize_inputs, values)
    cli_and_formats(tracer, spans, cli_inputs, values)
    tss_and_constructions(tracer, spans, cli_inputs, values)
    values["cli.import_ms"] = import_ms(root)
    return values


def write_spans(outdir: Path, args, tracer, info: str, values: dict) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"run": info.lstrip("# "), "metrics": values}) + "\n")
        for name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")
    return path
