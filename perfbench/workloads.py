"""The benchmark's three workloads: ``enum``, ``recognize`` and ``cli``.

A workload builds its inputs from the seed (this is the set-up that
``setup_s`` times) and then offers a fixed cycle of jobs.  A job is one
library call, or one in-process ``hornkeys.cli.main(argv)`` call, that
produces a complete answer.  A job times itself and records when each result
reached the caller; its check runs afterwards, outside the timed region, and
uses ``hornkeys.oracles`` or code of this file, never the code path it checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from pathlib import Path
from time import perf_counter
from typing import Optional

from hornkeys import (
    KeyEnumerationStats,
    cli,
    build_sat_graph,
    is_unique_key_graph,
    is_unique_key_hypergraph,
    iter_minimal_keys,
    key_horn_cnf,
    sperner,
    verify_witness,
)
from hornkeys.formats import (
    serialize_general_cnf,
    serialize_horn,
    serialize_hypergraph,
    serialize_tss,
)
from hornkeys.oracles import (
    bf_forward_closure,
    bf_minimal_keys,
    bf_minimal_target_sets,
    bf_minimal_transversals,
    bf_satisfiable,
    graphic_matroid_cuts,
    random_general_cnf,
    random_graph,
    random_horn_cnf,
    random_sperner,
    random_threshold_graph,
)


@dataclass
class Outcome:
    """What one job did: its timed interval, when each result reached the
    caller, how many keys it delivered, and the output the checks read."""

    t0: float
    t1: float
    events: list[float]
    keys: Optional[int]  # None for jobs that deliver no keys
    output: object


class Tracer:
    """Spans kept in memory: name, start, end, parent span index and job id."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: Optional[int] = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [name, perf_counter(), None, parent, self.job]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()


class NoTracer:
    """Stands in for :class:`Tracer` in the untraced run."""

    job = None

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


def delay_bound(n: int, m: int) -> int:
    """The paper's bound on closures between consecutive outputs."""
    return m * (n + 1) + 1


def _ids(s) -> list[int]:
    return sorted(v + 1 for v in s)


# --- enum ------------------------------------------------------------------

ENUM_N, ENUM_M, ENUM_BODY = 36, 108, 3
# Short jobs over many CNFs.  The per-job cost of these CNFs is heavy-tailed,
# so a run needs many of them for its percentiles to hold across seeds, and it
# needs each one many times for the best of its runs to hold against the
# host's speed swings.  A limit of 5 keys gives 512 CNFs 15 to 20 runs each
# in 30 s.
ENUM_LIMIT = 5
ENUM_POOL = 512
SIDE_N, SIDE_M, SIDE_COUNT = 12, 36, 4


class EnumJob:
    """``iter_minimal_keys`` on one sparse random Horn CNF, up to a key limit."""

    def __init__(self, label: str, cnf, limit: Optional[int] = ENUM_LIMIT):
        self.label = label
        self.input_id = label  # jobs with equal input_id run the same input
        self.cnf = cnf
        self.limit = limit

    def run(self, tracer) -> Outcome:
        events, keys = [], []
        stats = KeyEnumerationStats()
        t0 = perf_counter()
        with tracer.span("keygen.iter_minimal_keys"):
            for k in iter_minimal_keys(self.cnf, limit=self.limit, stats=stats):
                events.append(perf_counter())
                keys.append(k)
        t1 = perf_counter()
        return Outcome(t0, t1, events, len(keys), (keys, stats))

    def check(self, out: Outcome, validator=None) -> Optional[str]:
        keys, stats = out.output
        cnf, n = self.cnf, self.cnf.n
        full = frozenset(range(n))
        if len(set(keys)) != len(keys):
            return "a key was emitted twice"
        if stats.keys != len(keys):
            return f"stats.keys={stats.keys} but {len(keys)} keys were yielded"
        if self.limit is not None and len(keys) > self.limit:
            return f"{len(keys)} keys exceed the limit {self.limit}"
        if stats.max_delay_closures > delay_bound(n, cnf.m):
            return (
                f"max_delay_closures={stats.max_delay_closures} exceeds "
                f"m(n+1)+1={delay_bound(n, cnf.m)}"
            )
        for k in keys:
            if bf_forward_closure(cnf, k, max_vars=n) != full:
                return f"{_ids(k)} is not a key"
            for v in k:
                if bf_forward_closure(cnf, k - {v}, max_vars=n) == full:
                    return f"{_ids(k)} is not minimal: {v + 1} can go"
        return None

    @staticmethod
    def digest_payload(out: Outcome):
        return [_ids(k) for k in out.output[0]]


class SideJob(EnumJob):
    """A full enumeration on a small CNF, compared with ``bf_minimal_keys``."""

    def __init__(self, label: str, cnf):
        super().__init__(label, cnf, limit=None)

    def check(self, out: Outcome, validator=None) -> Optional[str]:
        err = super().check(out)
        if err is None and set(out.output[0]) != bf_minimal_keys(self.cnf):
            err = "the key set differs from bf_minimal_keys"
        return err


@dataclass
class Inputs:
    cycle: list
    round: int = 1  # the run stops only after a multiple of this many jobs
    side: list = field(default_factory=list)
    sources: dict = field(default_factory=dict)  # library objects behind the cli files


def _enumerable_cnf(rng: random.Random):
    """A random sparse Horn CNF with more than one minimal key.

    Every key holds the variables that head no clause.  When those already
    derive everything they are the only minimal key, which is true of almost
    half the draws; such CNFs are skipped so that every job enumerates.
    """
    while True:
        cnf = random_horn_cnf(rng.randrange(2**31), ENUM_N, ENUM_M, ENUM_BODY)
        forced = frozenset(range(cnf.n)) - {c.head for c in cnf.clauses}
        if len(bf_forward_closure(cnf, forced, max_vars=cnf.n)) < cnf.n:
            return cnf


def setup_enum(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(f"enum:{seed}")
    pool = [EnumJob(f"cnf{i}", _enumerable_cnf(rng)) for i in range(ENUM_POOL)]
    side = [
        SideJob(f"side{i}", random_horn_cnf(rng.randrange(2**31), SIDE_N, SIDE_M, ENUM_BODY))
        for i in range(SIDE_COUNT)
    ]
    return Inputs(pool, side=side)


# --- recognize -------------------------------------------------------------

# One round of the recognize mix.  The fixed matchings with k=6 (about 2 ms)
# and k=7 (about 7 ms) take most of a round's time, so jobs_per_s depends
# little on the seeded instances, whose costs are heavy-tailed.  Sorted by
# time, the seeded negatives and bonds mostly fall around or below the k=6
# matchings, the unsatisfiable gadgets (about 5 ms) between the two sizes and
# the k=7 matchings on top: job_ms_p50 falls among the k=6 matchings and
# job_ms_p90 among the k=7 ones, so both stay steady across seeds.  Short
# jobs matter: their best run over a run's repeats is steadier than that of
# long ones, because the host's fast spells are short.
RECOGNIZE_MIX = (
    ["sperner-neg"] * 3
    + ["gadget-sat", "graph-neg"]
    + ["bonds"] * 2
    + ["gadget-unsat"] * 2
    + ["matching6"] * 6
    + ["matching7"] * 5
)
FIXED_KINDS = ("matching6", "matching7")  # the same instance for every seed
RECOGNIZE_ROUNDS = 6  # distinct rounds: 120 jobs, enough for p90; the run repeats them


def _is_transversal(edges, t) -> bool:
    return all(e & t for e in edges)


def _transversal_certificate(edges, t, v) -> bool:
    """(T, v) proves non-uniqueness: T is a minimal transversal, v is outside
    it, and no transversal inside T ∪ {v} misses a member of T."""
    if v in t or not _is_transversal(edges, t):
        return False
    if any(_is_transversal(edges, t - {u}) for u in t):
        return False
    return not any(_is_transversal(edges, (t | {v}) - {u}) for u in t)


def _graph_certificate(g, i, v) -> bool:
    """(I, v) proves non-uniqueness: I is a maximal independent set and its
    member v has no neighbor outside I that sees only v inside I."""
    if v not in i or any(g.adj[u] & i for u in i):
        return False
    outside = [u for u in range(g.n) if u not in i]
    if any(not g.adj[u] & i for u in outside):
        return False
    return not any(g.adj[u] & i == {v} for u in outside)


def _hypergraph_negative(rng: random.Random):
    """A random Sperner hypergraph with a non-uniqueness certificate found by
    greedy search in this file, so the expected verdict is known."""
    while True:
        # Wider ones (24-30 vertices, edges up to 5) take from 0.3 ms to 0.4 s
        # to reject, and even at 20-24 vertices a few outliers near 0.1 s
        # would set a run's jobs_per_s; these take at most a few ms.
        b = random_sperner(rng.randrange(2**31), rng.randint(14, 18), rng.randint(16, 30), 3)
        edges = b.edges
        for _ in range(4):
            t = set(range(b.n))
            for u in rng.sample(range(b.n), b.n):
                if _is_transversal(edges, frozenset(t - {u})):
                    t.discard(u)
            t = frozenset(t)
            for v in range(b.n):
                if _transversal_certificate(edges, t, v):
                    return b


def _graph_negative(rng: random.Random):
    while True:
        g = random_graph(rng.randrange(2**31), rng.randint(12, 16), 0.3)
        for _ in range(4):
            i = set()
            for u in rng.sample(range(g.n), g.n):
                if not g.adj[u] & i:
                    i.add(u)
            i = frozenset(i)
            if any(_graph_certificate(g, i, v) for v in i):
                return g


def _gadget(rng: random.Random, n: int, m: int, satisfiable: bool):
    while True:
        cnf = random_general_cnf(rng.randrange(2**31), n, m)
        if bf_satisfiable(cnf) == satisfiable:
            return build_sat_graph(cnf)


def _bonds(rng: random.Random):
    """Bonds of a random connected graph on 7 vertices and 9-10 edges: unique
    key.  Each extra edge roughly doubles the spread of their cost."""
    while True:
        g = random_graph(rng.randrange(2**31), 7, 0.45)
        if 9 <= len(g.edges) <= 10:
            try:
                return graphic_matroid_cuts(g)
            except ValueError:  # disconnected
                continue


def _matching(k: int):
    return sperner(2 * k, [{2 * i, 2 * i + 1} for i in range(k)])


def _recognize_instance(kind: str, rng: random.Random):
    """(object, is it a graph, expected verdict) for one mix entry."""
    if kind == "sperner-neg":
        return _hypergraph_negative(rng), False, False
    if kind == "gadget-sat":
        return _gadget(rng, 4, 4, True), True, False
    if kind == "graph-neg":
        return _graph_negative(rng), True, False
    if kind == "bonds":
        return _bonds(rng), False, True
    if kind == "matching6":
        return _matching(6), False, True
    if kind == "matching7":
        return _matching(7), False, True
    return _gadget(rng, 3, 10, False), True, True  # gadget-unsat


class RecognizeJob:
    """``is_unique_key_hypergraph`` or ``is_unique_key_graph`` on one input."""

    def __init__(self, label: str, kind: str, obj, is_graph: bool, expected: bool):
        self.label = label
        # The fixed matchings recur in every round; their runs all time one input.
        self.input_id = kind if kind in FIXED_KINDS else label
        self.kind = kind
        self.obj = obj
        self.is_graph = is_graph
        self.expected = expected

    def run(self, tracer) -> Outcome:
        recognizer = is_unique_key_graph if self.is_graph else is_unique_key_hypergraph
        t0 = perf_counter()
        with tracer.span(f"uniqueness.{recognizer.__name__}"):
            verdict = recognizer(self.obj)
        t1 = perf_counter()
        # A recognizer hands back one result, its verdict; the keys it decides
        # are the edges of its input, the candidate family of minimal keys.
        return Outcome(t0, t1, [t1], len(self.obj.edges), verdict)

    def check(self, out: Outcome, validator=None) -> Optional[str]:
        ok, w = out.output
        if ok != self.expected:
            return f"verdict {ok}, expected {self.expected}"
        if ok:
            return None if w is None else "a positive verdict carries a witness"
        if not verify_witness(w, self.obj):
            return "the witness fails verify_witness"
        x, v = w.data
        if self.is_graph:
            good = _graph_certificate(self.obj, x, v)
        else:
            good = _transversal_certificate(self.obj.edges, x, v)
        return None if good else "the witness fails the independent check"

    @staticmethod
    def digest_payload(out: Outcome):
        ok, w = out.output
        return [ok, None if w is None else [w.kind, _ids(w.data[0]), w.data[1] + 1]]


def setup_recognize(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(f"recognize:{seed}")
    cycle = []
    for c in range(RECOGNIZE_ROUNDS):
        for j, kind in enumerate(RECOGNIZE_MIX):
            obj, is_graph, expected = _recognize_instance(kind, rng)
            cycle.append(RecognizeJob(f"c{c}.{j}.{kind}", kind, obj, is_graph, expected))
    return Inputs(cycle, round=len(RECOGNIZE_MIX))


# --- cli -------------------------------------------------------------------


class StampedWriter(io.TextIOBase):
    """Stdout stand-in: keeps the text and stamps every write that completes
    a result line; ``#`` comment lines such as ``--stats`` are not results."""

    def __init__(self):
        self.parts: list[str] = []
        self.events: list[float] = []
        self._line = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.parts.append(s)
        self._line += s
        if "\n" in s:
            if not self._line.startswith("#"):
                self.events.append(perf_counter())
            self._line = ""
        return len(s)


def _horn_clauses(text: str) -> list[tuple[frozenset, int]]:
    """(body, head) pairs, 0-based, of horn-format text without names."""
    out = []
    for line in text.splitlines()[1:]:
        body, head = line.split("->")
        out.append((frozenset(int(t) - 1 for t in body.split()), int(head) - 1))
    return out


def _text_sets(text: str) -> list[frozenset]:
    return [
        frozenset(int(t) - 1 for t in line.split())
        for line in text.splitlines()
        if not line.startswith("#")
    ]


def _stats_line(text: str) -> dict:
    last = text.splitlines()[-1]
    if not last.startswith("# "):
        raise ValueError("no stats line")
    return {k: int(v) for k, v in (kv.split("=") for kv in last[2:].split())}


def _activate(tg, seed) -> frozenset:
    active = set(seed)
    while True:
        add = [
            v
            for v in range(tg.n)
            if v not in active and len(tg.graph.adj[v] & active) >= tg.thresholds[v]
        ]
        if not add:
            return frozenset(active)
        active.update(add)


class CliJob:
    """One in-process ``hornkeys.cli.main(argv)`` call with a checker.

    ``verify(text, payload)`` gets stdout and, for ``--json`` jobs, the parsed
    object (already validated against the schema); it returns an error or None.
    """

    def __init__(self, label, argv, verify, keys_from=None):
        self.label = label
        self.input_id = label
        self.argv = argv
        self.verb = argv[0]
        self.json = "--json" in argv
        self.verify = verify
        self.keys_from = keys_from  # counts delivered keys for keys_per_s

    def run(self, tracer) -> Outcome:
        out, err = StampedWriter(), io.StringIO()
        t0 = perf_counter()
        with tracer.span("cli.main"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(self.argv)
                except SystemExit as e:  # argparse rejected the argv
                    code = e.code
        t1 = perf_counter()
        text = "".join(out.parts)
        keys = self.keys_from(text) if self.keys_from else None
        return Outcome(t0, t1, out.events, keys, (code, text, err.getvalue()))

    def check(self, out: Outcome, validator) -> Optional[str]:
        code, text, err = out.output
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        payload = None
        if self.json:
            payload = json.loads(text)
            problems = [e.message for e in validator.iter_errors(payload)]
            if problems:
                return f"--json output violates the schema: {problems[0]}"
            if payload["command"] != self.verb:
                return f"command {payload['command']!r} in the --json output"
        return self.verify(text, payload)

    @staticmethod
    def digest_payload(out: Outcome):
        return list(out.output[:2])


def _count_keys(json_mode: bool):
    """Counts the sets an enumeration job printed."""
    if json_mode:
        return lambda text: len(json.loads(text)["result"])
    return lambda text: sum(1 for line in text.splitlines() if not line.startswith("#"))


def _enum_verify(expected, n: int, m: int):
    """Checks the key (or target set) list and the delay bound of its stats."""

    def verify(text, payload):
        if payload is None:
            got, stats = _text_sets(text), _stats_line(text)
        else:
            got = [frozenset(v - 1 for v in s) for s in payload["result"]]
            stats = payload["stats"]
        want = expected()
        if len(set(got)) != len(got):
            return "a set was printed twice"
        if set(got) != want:
            return "the printed sets differ from the expected ones"
        if stats["keys"] != len(got):
            return f"stats keys={stats['keys']} but {len(got)} sets printed"
        if stats["max_delay_closures"] > delay_bound(n, m):
            return f"max_delay_closures={stats['max_delay_closures']} exceeds m(n+1)+1"
        return None

    return verify


def _clauses_verify(expected):
    """Checks horn text (plain or as the --json result) clause by clause."""

    def verify(text, payload):
        got = _horn_clauses(payload["result"] if payload else text)
        return None if got == expected() else "the clauses differ from the expected ones"

    return verify


CLI_ROUNDS = 8  # distinct rounds: 128 jobs, each run about 35 times in 30 s


def setup_cli(seed: int, workdir: Path) -> Inputs:
    """Rounds of cli jobs, each round on fresh input files of every kind."""
    rng = random.Random(f"cli:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    sources = {"sperner": [], "phi": [], "tss": [], "activate": [], "horn": []}
    for r in range(CLI_ROUNDS):
        round_jobs = _cli_round(rng, r, workdir, sources)
        jobs += round_jobs
    return Inputs(jobs, round=len(round_jobs), sources=sources)


def _cli_round(rng: random.Random, r: int, workdir: Path, sources: dict) -> list:
    def put(name: str, text: str) -> str:
        path = workdir / f"r{r}.{name}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def both(label, argv, verify, keys_from=None):
        """The same call with text and with --json output."""
        return [
            CliJob(f"r{r}.{label}", argv, verify, keys_from and keys_from(False)),
            CliJob(f"r{r}.{label}-json", argv + ["--json"], verify, keys_from and keys_from(True)),
        ]

    jobs = []
    # A dense key CNF Φ_B, m = 154: its minimal keys are exactly the edges of
    # B, here 11 random pairs of 16 vertices.  (random_sperner mixes edge
    # sizes and counts; the gap before a key grows with its size, and that
    # mix made delay_ms_p50 swing between seeds.)
    b = sperner(16, rng.sample(list(combinations(range(16), 2)), 11))
    phi = key_horn_cnf(b)
    sources["sperner"].append(b)
    sources["phi"].append(phi)
    horn = put("phi.horn", serialize_horn(phi))
    hg = put("b.hg", serialize_hypergraph(b))
    edges = frozenset(b.edges)
    jobs += both("keys", ["keys", horn, "--stats"], _enum_verify(lambda: edges, b.n, phi.m), _count_keys)
    phi_clauses = cache(lambda: [(e, v) for e in b.edges for v in range(b.n) if v not in e])
    jobs += both("phi-b", ["phi-b", hg], _clauses_verify(phi_clauses))
    every = ",".join(str(v + 1) for v in range(b.n))
    jobs += both("key-min", ["key-min", horn, "--set", every], _key_min_verify(phi, range(b.n)))

    # A small threshold graph for tss-enum, tss2horn and tss-activate, with
    # the typical 14 edges for the same reason.
    tg = random_threshold_graph(rng.randrange(2**31), 9, 0.4, 2)
    while len(tg.graph.edges) != 14:
        tg = random_threshold_graph(rng.randrange(2**31), 9, 0.4, 2)
    tss = put("g.tss", serialize_tss(tg))
    sources["tss"].append(tg)
    m_psi = sum(
        len(list(combinations(sorted(tg.graph.adj[v]), tg.thresholds[v]))) for v in range(tg.n)
    )
    targets = cache(lambda: bf_minimal_target_sets(tg))
    # --json only: the target sets of so small a graph come microseconds
    # apart, and in text mode they would swamp the key gaps in delay_ms_p50.
    jobs.append(CliJob(f"r{r}.tss-enum-json", ["tss-enum", tss, "--json"], _enum_verify(targets, tg.n, m_psi), _count_keys(True)))
    psi = cache(
        lambda: [
            (frozenset(a), v)
            for v in range(tg.n)
            for a in combinations(sorted(tg.graph.adj[v]), tg.thresholds[v])
        ]
    )
    jobs += both("tss2horn", ["tss2horn", tss], _clauses_verify(psi))
    seed_set = frozenset(rng.sample(range(tg.n), 2))
    sources["activate"].append((tg, seed_set))
    seed_arg = ",".join(map(str, _ids(seed_set)))
    jobs += both("tss-activate", ["tss-activate", tss, "--seed-set", seed_arg], _activate_verify(tg, seed_set))

    # Keys to target sets: about 60 KB of --json output from a 1 KB input.
    cnf = random_horn_cnf(rng.randrange(2**31), 16, 100, 3)
    sources["horn"].append(cnf)
    jobs.append(CliJob(f"r{r}.horn2tss-json", ["horn2tss", put("h.horn", serialize_horn(cnf)), "--json"], _horn2tss_verify(cnf)))

    # Dualization of a small hypergraph, checked against the subset-scan oracle.
    d = random_sperner(rng.randrange(2**31), 12, 12, 4)
    dual = cache(lambda: frozenset(bf_minimal_transversals(d).edges))
    jobs += both("dual", ["dual", put("d.hg", serialize_hypergraph(d))], _dual_verify(dual))

    # The SAT gadget of a small general CNF.
    f = random_general_cnf(rng.randrange(2**31), 6, 12)
    jobs += both("sat2graph", ["sat2graph", put("f.cnf", serialize_general_cnf(f))], _sat2graph_verify(f))
    return jobs


def _key_min_verify(cnf, given):
    given = frozenset(given)
    full = frozenset(range(cnf.n))

    def verify(text, payload):
        k = frozenset(v - 1 for v in (payload["result"] if payload else map(int, text.split())))
        if not k <= given:
            return "the minimized key is not inside the given set"
        if bf_forward_closure(cnf, k, max_vars=cnf.n) != full:
            return f"{_ids(k)} is not a key"
        if any(bf_forward_closure(cnf, k - {v}, max_vars=cnf.n) == full for v in k):
            return f"{_ids(k)} is not minimal"
        return None

    return verify


def _activate_verify(tg, seed_set):
    def verify(text, payload):
        want = _activate(tg, seed_set)
        if payload is None:
            got = frozenset(int(t) - 1 for t in text.split())
        else:
            got = frozenset(v - 1 for v in payload["result"]["active"])
            if payload["result"]["is_target_set"] != (len(want) == tg.n):
                return "is_target_set is wrong"
        return None if got == want else "the active set differs from the expected one"

    return verify


def _horn2tss_verify(cnf):
    n_total = cnf.n + sum(1 + 4 * (len(c.body) + 1) for c in cnf.clauses)
    n_edges = sum(6 * (len(c.body) + 1) for c in cnf.clauses)

    def verify(text, payload):
        tss, roles = payload["result"]["tss"], payload["result"]["roles"]
        if tss.splitlines()[0] != f"tss {n_total} {n_edges}":
            return f"tss header {tss.splitlines()[0]!r}, expected {n_total} vertices and {n_edges} edges"
        lines = roles.splitlines()
        if lines[0] != f"roles {cnf.n} {n_total}" or len(lines) != 1 + n_total - cnf.n:
            return "the roles sidecar does not cover every gadget vertex"
        return None

    return verify


def _dual_verify(expected):
    def verify(text, payload):
        if payload is None:
            got = _text_sets("\n".join(text.splitlines()[1:]))
        else:
            got = [frozenset(v - 1 for v in e) for e in payload["result"]]
        return None if frozenset(got) == expected() else "the dual differs from the oracle's"

    return verify


def _sat2graph_verify(f):
    n, m = f.n, f.m
    edges = set()
    for i in range(n):
        edges |= {(3 * i, 3 * i + 1), (3 * i, 3 * i + 2), (3 * i + 1, 3 * i + 2)}
    edges |= set(combinations(range(3 * n, 3 * n + m + 1), 2))
    for j, clause in enumerate(f.clauses):
        for lit in clause:
            u = 3 * (abs(lit) - 1) + (0 if lit > 0 else 1)
            edges.add((u, 3 * n + j))

    def verify(text, payload):
        lines = (payload["result"] if payload else text).splitlines()
        if lines[0] != f"hg {3 * n + m + 1} {len(edges)}":
            return f"graph header {lines[0]!r}"
        got = {tuple(sorted(int(t) - 1 for t in line.split())) for line in lines[2:]}
        return None if got == edges else "the gadget edges differ from the expected ones"

    return verify


WORKLOADS = {"enum": setup_enum, "recognize": setup_recognize, "cli": setup_cli}
