#!/usr/bin/env python3
"""hornkeys benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload enum|recognize|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up builds the workload's inputs from the seed at least five
times and for at least two seconds, and reports the median as ``setup_s``.
The run then repeats the workload's cycle of jobs until ``--seconds`` of wall
time have passed, finishing the round of the mix it is in, so each input runs
many times; each timing (job, first result, gap before each later result) is
the least over an input's runs.  Every job's output is checked outside its
timed region (a repeat must reproduce its checked first output), and for the
default seed its ordered digest is compared with ``perfbench/digests/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the loop
untraced for half the time and traced for the other half, then replays fixed
samples of every workload's inputs layer by layer; it reports the per-layer
metrics and writes its spans to ``.perfbench/``.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--write-digests`` records the digests of every job the run reached, for the
default seed only; do this only when an output order change is intended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
# A set-up of a few tens of ms swings by half from one build to the next, so
# short ones are repeated for a while; the median is the steady reading.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0

# name: (unit, better); perfbench/README.md says how each reads per workload
END_TO_END = {
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "job_ms_p50": ("ms", "lower"),
    "job_ms_p90": ("ms", "lower"),
    "first_output_ms_p50": ("ms", "lower"),
    "first_output_ms_p90": ("ms", "lower"),
    "keys_per_s": ("1/s", "higher"),
    "delay_ms_p50": ("ms", "lower"),
    "delay_ms_p99": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name: (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "kernel.closures_per_s": ("1/s", "higher", "keys_per_s, delay_ms_p50 on enum"),
    "kernel.python.closures_per_s.n64": ("1/s", "higher", "none; scaling point"),
    "kernel.python.closures_per_s.n256": ("1/s", "higher", "none; scaling point"),
    "kernel.python.closures_per_s.n1024": ("1/s", "higher", "none; scaling point"),
    "kernel.engine_build_us": ("us", "lower", "job_ms_p50 on cli"),
    "kernel.share_of_enum": ("ratio", "lower", "computed; headroom of the kernel on enum"),
    "core.minimize_key_ms": ("ms", "lower", "first_output_ms_p50 on enum"),
    "core.forward_closure_us": ("us", "lower", "job_ms_p50 on cli"),
    "core.wrapper_overhead_ratio": ("ratio", "lower", "job_ms_p50 on cli"),
    "keygen.keys": ("count", "higher", "exact count; keys_per_s on enum"),
    "keygen.candidates": ("count", "lower", "exact count; keys_per_s on enum"),
    "keygen.closures": ("count", "lower", "exact count; keys_per_s on enum"),
    "keygen.closures_per_key": ("count", "lower", "keys_per_s, delay_ms_p50 on enum"),
    "keygen.new_key_ratio": ("ratio", "higher", "keys_per_s on enum"),
    "keygen.max_delay_closures": ("count", "lower", "exact count; delay_ms_p99 on enum"),
    "keygen.delay_bound_ratio": ("ratio", "lower", "delay_ms_p99 on enum; must stay <= 1"),
    "keygen.outside_kernel_share": ("ratio", "lower", "computed; keys_per_s on enum and cli"),
    "hypergraph.dual_s": ("s", "lower", "job_ms_p90 on recognize"),
    "hypergraph.dual_edges": ("count", "lower", "exact count; job_ms_p90 on recognize"),
    "hypergraph.dual_edges_per_s": ("1/s", "higher", "job_ms_p90 on recognize"),
    "hypergraph.mis_count": ("count", "lower", "exact count; job_ms_p90 on recognize"),
    "hypergraph.mis_per_s": ("1/s", "higher", "job_ms_p90 on recognize"),
    "hypergraph.key_horn_cnf_ms": ("ms", "lower", "job_ms_p50 on cli"),
    "uniqueness.pair_scan_s": ("s", "lower", "computed; job_ms_p90 on recognize"),
    "uniqueness.verify_witness_ms": ("ms", "lower", "job_ms_p50 on recognize"),
    "uniqueness.graph_scan_s": ("s", "lower", "computed; job_ms_p90 on recognize"),
    "uniqueness.verdicts_yes": ("count", "higher", "exact count; must not change"),
    "uniqueness.verdicts_no": ("count", "higher", "exact count; must not change"),
    "tss.tss_to_horn_ms": ("ms", "lower", "job_ms_p50 on cli"),
    "tss.clauses_emitted": ("count", "lower", "exact count; job_ms_p50 on cli"),
    "tss.horn_to_tss_ms": ("ms", "lower", "job_ms_p50 on cli"),
    "tss.gadget_vertices": ("count", "lower", "exact count; job_ms_p50 on cli"),
    "tss.activate_us": ("us", "lower", "job_ms_p50 on cli"),
    "formats.parse_ms": ("ms", "lower", "job_ms_p50, first_output_ms_p50 on cli"),
    "formats.parse_mb_per_s": ("MB/s", "higher", "job_ms_p50, first_output_ms_p50 on cli"),
    "formats.serialize_ms": ("ms", "lower", "job_ms_p50, first_output_ms_p50 on cli"),
    "formats.serialize_mb_per_s": ("MB/s", "higher", "job_ms_p50, first_output_ms_p50 on cli"),
    "formats.bytes_in": ("bytes", "lower", "exact count; job_ms_p50 on cli"),
    "formats.bytes_out": ("bytes", "lower", "exact count; job_ms_p50 on cli"),
    **{
        f"cli.main_ms.{verb}": ("ms", "lower", "job_ms_p50 on cli")
        for verb in (
            "keys", "key-min", "phi-b", "dual", "sat2graph",
            "tss2horn", "horn2tss", "tss-enum", "tss-activate",
        )
    },
    "cli.self_ms": ("ms", "lower", "computed; first_output_ms_p50 on cli"),
    "cli.import_ms": ("ms", "lower", "cold start, outside setup_s; first_output_ms_p50 on cli"),
    "trace.jobs_per_s_untraced": ("1/s", "higher", "tracing overhead: compare with traced"),
    "trace.jobs_per_s_traced": ("1/s", "higher", "tracing overhead: compare with untraced"),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_benchmark_json() -> None:
    """BENCHMARK.json must list exactly the metrics this script reports."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        ours = {name: row[:2] for name, row in table.items()}
        if listed != ours:
            fail(f"BENCHMARK.json {key} differs from perfbench/run.py")


def import_library():
    src = ROOT / "src"
    if not (src / "hornkeys" / "__init__.py").is_file():
        fail(f"no hornkeys sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import hornkeys

    if Path(hornkeys.__file__).resolve().parent != (src / "hornkeys").resolve():
        fail(f"imported hornkeys from {hornkeys.__file__}, not from {src}")
    return hornkeys


def digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Run:
    """Outcomes, failures and digests of one workload loop."""

    def __init__(self, validator, recorded: dict):
        self.validator = validator
        self.recorded = recorded
        self.outcomes: list = []  # (job, outcome) of every job that completed
        self.digests: dict = {}
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, job, tracer) -> None:
        self.attempted += 1
        try:
            out = job.run(tracer)
            d = digest(job.digest_payload(out))
            if job.label in self.digests:
                # A repeat: its output must equal the checked first run's.
                error = None if d == self.digests[job.label] else "output differs from the checked run"
            else:
                error = job.check(out, self.validator)
        except Exception:  # an unexpected exception or a tripped guard
            self.failures.append(f"{job.label}: {traceback.format_exc(limit=3)}")
            return
        if error is None:
            self.digests[job.label] = d
            if self.recorded.get(job.label, d) != d:
                error = f"ordered output digest {d} != recorded {self.recorded[job.label]}"
        if error is not None:
            self.failures.append(f"{job.label}: {error}")
        else:
            out.output = None  # checked; keeping it would inflate peak_rss_mb
            self.outcomes.append((job, out))

    def loop(self, inputs, seconds: float, tracer) -> float:
        """Repeat the cycle of jobs until ``seconds`` have passed, stopping
        only after a whole round of the mix; return the busy time."""
        start = perf_counter()
        done = 0
        while True:
            job = inputs.cycle[done % len(inputs.cycle)]
            tracer.job = self.attempted
            with tracer.span("job"):  # parent of the job's library call span
                self.attempt(job, tracer)
            done += 1
            if done % inputs.round == 0 and perf_counter() - start >= seconds:
                return sum(out.t1 - out.t0 for _, out in self.outcomes)


@dataclass
class Best:
    """One input's timings, each the least over the runs the loop made of it."""

    job_s: float
    first_s: Optional[float]  # None when the job printed no result
    gaps_s: list[float]  # before each result after the first
    keys: Optional[int]


def best_of_repeats(outcomes: list) -> list[Best]:
    """One Best per job of the mix, from all the runs of that job's input.

    The loop runs every input many times, and the host's speed swings by up
    to 1.6 times in phases of seconds to minutes; the least of the repeats is
    far steadier from run to run than their mix, and the more repeats, the
    steadier.  Runs of one input have equal outputs (checked), so their
    results line up one to one."""
    runs, inputs = {}, {}
    for job, out in outcomes:
        runs.setdefault(job.input_id, []).append(out)
        inputs[job.label] = job.input_id
    best = {
        key: Best(
            job_s=min(o.t1 - o.t0 for o in outs),
            first_s=min(o.events[0] - o.t0 for o in outs) if outs[0].events else None,
            gaps_s=[min(g) for g in zip(*([b - a for a, b in zip(o.events, o.events[1:])] for o in outs))],
            keys=outs[0].keys,
        )
        for key, outs in runs.items()
    }
    return [best[key] for key in inputs.values()]


def supported_percentile(p: int, samples: int) -> int:
    """``p``, or lower: the highest percentile with ten samples beyond it."""
    return max(50, min(p, int(100 * (1 - 10 / samples))))


def percentile(values: list[float], p: int) -> float:
    p = supported_percentile(p, len(values))
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload: str, best: list[Best], setup_times: list[float]) -> dict:
    """Every end-to-end metric as (value, samples)."""
    job_ms = [b.job_s * 1e3 for b in best]
    first = [b.first_s * 1e3 for b in best if b.first_s is not None]
    if workload == "recognize":
        # One result per job: the wait for each verdict is the job's time.
        gaps = job_ms
    else:
        gaps = [g * 1e3 for b in best for g in b.gaps_s]
    keyed = [b for b in best if b.keys is not None]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "jobs_per_s": (len(best) / sum(b.job_s for b in best), len(best)),
        "job_ms_p50": (statistics.median(job_ms), len(job_ms)),
        "job_ms_p90": (percentile(job_ms, 90), len(job_ms)),
        "first_output_ms_p50": (statistics.median(first), len(first)),
        "first_output_ms_p90": (percentile(first, 90), len(first)),
        "keys_per_s": (sum(b.keys for b in keyed) / sum(b.job_s for b in keyed), len(keyed)),
        "delay_ms_p50": (statistics.median(gaps), len(gaps)),
        "delay_ms_p99": (percentile(gaps, 99), len(gaps)),
        "peak_rss_mb": (rss_kb / 1024, 1),
    }


def note(name: str, samples: int) -> str:
    match = re.search(r"_p(\d+)$", name)
    if match is None or match.group(1) == "50":
        return ""
    used = supported_percentile(int(match.group(1)), samples)
    if used == int(match.group(1)):
        return ""
    return f"reports p{used}: only that has ten samples beyond it"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["enum", "recognize", "cli"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args()
    if args.write_digests and args.seed != DEFAULT_SEED:
        fail(f"digests are recorded for the default seed {DEFAULT_SEED} only")

    hornkeys = import_library()
    check_benchmark_json()
    import workloads

    workdir = ROOT / ".perfbench" / args.workload
    setup = workloads.WORKLOADS[args.workload]
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        t0 = perf_counter()
        inputs = setup(args.seed, workdir)
        setup_times.append(perf_counter() - t0)

    validator = None
    if args.workload == "cli":
        import jsonschema

        schema = json.loads((ROOT / "docs" / "cli_output.schema.json").read_text(encoding="utf-8"))
        validator = jsonschema.Draft7Validator(schema)
    digest_file = HERE / "digests" / f"{args.workload}.json"
    recorded = {}
    if args.seed == DEFAULT_SEED and digest_file.is_file() and not args.write_digests:
        recorded = json.loads(digest_file.read_text(encoding="utf-8"))

    run = Run(validator, recorded)
    tracer = workloads.NoTracer()
    if args.trace:
        untraced_busy = run.loop(inputs, args.seconds / 2, tracer)
        untraced_jobs = len(run.outcomes)
        tracer = workloads.Tracer()
        traced_busy = run.loop(inputs, args.seconds / 2, tracer) - untraced_busy
        traced_jobs = len(run.outcomes) - untraced_jobs
    else:
        run.loop(inputs, args.seconds, tracer)
    timed = list(run.outcomes)
    for job in inputs.side:
        run.attempt(job, workloads.NoTracer())

    if args.write_digests:
        digest_file.write_text(json.dumps(run.digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")

    info = (
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} backend={hornkeys.BACKEND} "
        f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}"
    )
    print(info)
    failed = len(run.failures)
    for line in run.failures[:20]:
        print(f"# FAILED {line.strip()}")
    print(
        f"# attempted={run.attempted} failed={failed} "
        f"failed_ratio={failed / run.attempted:.4f} (side-set checks: {len(inputs.side)})"
    )

    if args.trace:
        import layers

        values = layers.measure(args.seed, ROOT, tracer)
        values["trace.jobs_per_s_untraced"] = untraced_jobs / untraced_busy
        values["trace.jobs_per_s_traced"] = traced_jobs / traced_busy
        print(
            f"# tracing overhead: traced - untraced jobs_per_s = "
            f"{values['trace.jobs_per_s_traced'] - values['trace.jobs_per_s_untraced']:.3f}"
        )
        for name, (unit, _, moves) in PER_LAYER.items():
            print(f"  {name:<36} {values[name]:>14.6g} {unit:<6} moves {moves}")
        for name, value in sorted(values.items()):
            if name not in PER_LAYER:
                print(f"  {name:<36} {value:>14.6g} (extra, not in BENCHMARK.json)")
        spans_file = layers.write_spans(
            ROOT / ".perfbench", args, tracer, info, values
        )
        print(f"# spans written to {spans_file.relative_to(ROOT)}")
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    else:
        best = best_of_repeats(timed)
        print(f"# {len(timed)} timed runs of {len(best)} jobs of the mix; each timing is the best of its input's runs")
        values = end_to_end(args.workload, best, setup_times)
        print(f"  {'metric':<22} {'value':>12} unit   samples")
        for name, (value, samples) in values.items():
            print(f"  {name:<22} {value:>12.4f} {END_TO_END[name][0]:<6} {samples:>7}  {note(name, samples)}")
        print(f"  {'failed_ratio':<22} {failed / run.attempted:>12.4f} ratio  {run.attempted:>7}")
        metrics = {name: {"value": v, "unit": END_TO_END[name][0]} for name, (v, _) in values.items()}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
