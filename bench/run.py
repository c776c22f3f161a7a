#!/usr/bin/env python3
"""partialhorn benchmark: one closed-loop client, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...   # each workload in a fresh process

Run from anywhere inside a partialhorn checkout; the library is imported from
the checkout's ``src/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the result digest and the sample counts.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
SETUP_MIN_TOTAL_S = 2.0
SETUP_MAX_REPEATS = 101
NAMES = ("prove-small", "prove-ncat3", "decompose", "cli")


def require_checkout() -> None:
    """Exit non-zero unless ROOT holds the library and its corpus."""
    needed = ("src/partialhorn/__init__.py", "corpus/schema/cli_output.schema.json")
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"error: {ROOT} is not a partialhorn checkout ({', '.join(missing)} missing)")
    sys.path.insert(0, str(ROOT / "src"))
    import partialhorn

    if Path(partialhorn.__file__).resolve().parent != ROOT / "src" / "partialhorn":
        raise SystemExit(f"error: imported partialhorn from {partialhorn.__file__}, not from {ROOT / 'src'}")


@dataclass
class Phase:
    ops: list  # Op per executed operation, in order
    summaries: list  # summary string, or None when the operation raised
    spans: list  # (start, end) of each operation, time.perf_counter() seconds
    wall: float


def run_phase(ops, stop, run_op=lambda op: op.run()) -> Phase:
    """Run ``ops`` (an iterable of blocks) until ``stop(elapsed, count)`` holds
    at a block boundary."""
    done, summaries, spans = [], [], []
    t0 = time.perf_counter()
    for block in ops:
        for op in block:
            start = time.perf_counter()
            try:
                summary = run_op(op)
            except Exception:
                traceback.print_exc(limit=3, file=sys.stderr)
                summary = None
            spans.append((start, time.perf_counter()))
            done.append(op)
            summaries.append(summary)
        if stop(time.perf_counter() - t0, len(done)):
            break
    return Phase(done, summaries, spans, time.perf_counter() - t0)


def timed(blocks, seconds: float, run_op=lambda op: op.run()) -> Phase:
    return run_phase(itertools.cycle(blocks), lambda elapsed, n: elapsed >= seconds, run_op)


def replay(ops, run_op=lambda op: op.run()) -> Phase:
    """The same operations again, as one block."""
    return run_phase([ops], lambda elapsed, n: True, run_op)


def count_failures(phases) -> int:
    """An operation fails when it raised, when its check fails, or when its
    summary differs from the first one seen for the same input."""
    first: dict[str, str] = {}
    failed = 0
    for phase in phases:
        for op, summary in zip(phase.ops, phase.summaries):
            if summary is None:
                failed += 1
                continue
            try:
                ok = op.check(summary)
            except Exception:
                traceback.print_exc(limit=3, file=sys.stderr)
                ok = False
            if first.setdefault(op.key, summary) != summary or not ok:
                failed += 1
    return failed


def digest(phase: Phase, count=None) -> str:
    """sha256 over the inputs and exact results of the first ``count`` operations (all by default)."""
    h = hashlib.sha256()
    for op, summary in itertools.islice(zip(phase.ops, phase.summaries), count):
        h.update(f"{op.key}\t{summary}\n".encode())
    return h.hexdigest()


def digest_line(phase: Phase, first: int) -> str:
    # Every run completes the first block, so its digest repeats for a seed.
    return f"digest {digest(phase, first)} over the first block ({first} ops), {digest(phase)} over all {len(phase.ops)} ops"


def run_setups(setup, seed: int, before=lambda: None) -> tuple[list, list]:
    """Set up at least SETUP_REPEATS times, and more often (up to
    SETUP_MAX_REPEATS) while the total stays under SETUP_MIN_TOTAL_S, so that
    short set-ups get a steady median.  ``before`` runs at the start of each.
    The last set-up and the (start, end) of each."""
    spans = []
    while len(spans) < SETUP_REPEATS or (
        sum(e - s for s, e in spans) < SETUP_MIN_TOTAL_S and len(spans) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        before()
        blocks = setup(seed, ROOT)
        spans.append((start, time.perf_counter()))
    return blocks, spans


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def untraced(name: str, seed: int, seconds: float) -> dict:
    """Set-up and timed phase under the speed probe; times in reference seconds (speed.py)."""
    import speed
    import workloads

    probe = speed.SpeedProbe(timer=name != "cli")
    # cli: a probe running beside a subprocess is slowed by it, so the probes
    # run back to back at the start of each set-up and operation instead.
    before = probe.sample if name == "cli" else lambda: None

    def run_op(op):
        before()
        return op.run()

    with probe:
        blocks, setup_spans = run_setups(workloads.WORKLOADS[name], seed, before)
        phase = timed(blocks, seconds, run_op)
    setup_s = statistics.median(probe.reference_s(s, e) for s, e in setup_spans)
    latencies = [probe.reference_s(s, e) for s, e in phase.spans]
    failed = count_failures([phase])
    n = len(phase.ops)
    wall_latencies = [e - s for s, e in phase.spans]
    print(f"workload {name} seed {seed}: {n} ops in {phase.wall:.3f} s, {failed} failed")
    print(digest_line(phase, len(blocks[0])))
    print(f"wall clock: {n / phase.wall:.4f} ops/s, op p50 {statistics.median(wall_latencies) * 1000:.3f} ms; "
          f"probe {probe.typical_s() * 1e6:.2f} us against {probe.reference * 1e6:.0f} us, "
          f"{len(probe.durations)} probes taking {sum(probe.durations):.3f} s in all")
    if n >= 100:
        print(f"op_p90_ms {percentile(latencies, 90) * 1000:.3f} over {n} ops")
    metrics = {
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(name), "MB"),
    }
    return result(n, failed, metrics)


def cli_import_s(repeats: int = 3) -> float:
    """Median time for a fresh interpreter to import partialhorn.cli."""
    import workloads

    code = "import time; t = time.perf_counter(); import partialhorn.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=workloads.cli_env(ROOT),
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def traced(name: str, seed: int, seconds: float) -> dict:
    """Half the time untraced, then the same operations under the tracer."""
    import tracing
    import workloads

    blocks, _ = run_setups(workloads.WORKLOADS[name], seed)
    plain = timed(blocks, seconds / 2)
    tracer = tracing.Tracer()
    mismatched = []

    def run_op(op):
        if op.argv is None:
            return op.run()
        # cli: the subprocess gives the result; main() in this process
        # gives the layer spans, and must print the same bytes.
        with tracer.span("cli.subprocess"):
            summary = op.run()
        if workloads.run_cli_in_process(op.argv) != workloads.cli_output(summary):
            mismatched.append(op.key)
        return summary

    tracer.install()
    try:
        again = replay(plain.ops, run_op)
    finally:
        tracer.restore()
    # Each replayed result must equal the untraced one (count_failures compares them).
    failed = count_failures([plain, again]) + len(mismatched)
    same = digest(plain) == digest(again)
    n = len(plain.ops) + len(again.ops)
    print(f"workload {name} seed {seed} traced: {len(again.ops)} ops in {again.wall:.3f} s "
          f"(untraced {plain.wall:.3f} s), {failed} failed")
    print(f"{digest_line(again, len(blocks[0]))} ({'same as' if same else 'DIFFERENT from'} the untraced run)")
    metrics = layer_metrics(tracer, again, plain, name)
    accounted = sum(v for k, (v, u) in metrics.items() if k in SELF_BUCKETS)
    print(f"accounting: layer self times {accounted:.3f} s + bench {metrics['bench.self_s'][0]:.3f} s "
          f"= traced wall {again.wall:.3f} s")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"{name}-seed{seed}.trace.json.gz", {"workload": name, "seed": seed})
    return result(n, failed, metrics)


# Disjoint self-time buckets: together with bench.self_s they add up to the
# traced wall time.
SELF_BUCKETS = (
    "chase.self_s", "chase.prove_self_s", "decompose.self_s", "structure.self_s", "gauge.self_s",
    "syntax.self_s", "topdec.self_s", "gatrank.self_s", "cli.main_self_s", "cli.subprocess_s",
)


def layer_metrics(tr, again: Phase, plain: Phase, name: str) -> dict:
    def module(m):
        return lambda k: k.startswith(m + ".")

    c = tr.counts
    chase_calls = tr.calls["chase.chase"]
    prove_calls = tr.calls["chase.prove_sequent"]
    created = c["chase.chase.created"]
    candidates = c["decompose.scale_step.candidates"]
    parse_calls, parse_s = tr.top_level(module("syntax"))
    main_s = tr.total["cli.main"]
    sub_s = tr.total["cli.subprocess"]
    m = {
        "chase.calls": (chase_calls, "count"),
        "chase.self_s": (tr.self_time["chase.chase"], "s"),
        "chase.rounds": (c["chase.chase.rounds"], "count"),
        "chase.merges": (c["chase.chase.merges"], "count"),
        "chase.created": (created, "count"),
        "chase.live_out": (c["chase.chase.live_out"], "count"),
        "chase.useful_ratio": (c["chase.chase.live_out"] / created if created else 0.0, "ratio"),
        "chase.prove_calls": (prove_calls, "count"),
        "chase.prove_self_s": (tr.self_sum(lambda k: k.startswith("chase.") and k != "chase.chase"), "s"),
        "chase.valid_ratio": (c["chase.prove_sequent.valid"] / prove_calls if prove_calls else 0.0, "ratio"),
        "decompose.steps": (tr.calls["decompose.scale_step"], "count"),
        "decompose.step_self_s": (tr.self_time["decompose.scale_step"], "s"),
        "decompose.self_s": (tr.self_sum(module("decompose")), "s"),
        "decompose.candidates": (candidates, "count"),
        "decompose.fired": (c["decompose.scale_step.fired"], "count"),
        "decompose.fire_ratio": (c["decompose.scale_step.fired"] / candidates if candidates else 0.0, "ratio"),
        "structure.self_s": (tr.self_sum(module("structure")), "s"),
        "structure.holds_calls": (tr.calls["structure.holds"], "count"),
        "structure.is_hom_calls": (tr.calls["structure.is_hom"], "count"),
        "gauge.normalize_calls": (tr.calls["gauge.ncat_normalize"], "count"),
        "gauge.normalize_s": (tr.total["gauge.ncat_normalize"], "s"),
        "gauge.check_self_s": (tr.self_time["gauge.check_gauge"], "s"),
        "gauge.rows": (c["gauge.check_gauge.rows"], "count"),
        "gauge.self_s": (tr.self_sum(module("gauge")), "s"),
        "syntax.parse_calls": (parse_calls, "count"),
        "syntax.parse_s": (parse_s, "s"),
        "syntax.self_s": (tr.self_sum(module("syntax")), "s"),
        "topdec.self_s": (tr.self_sum(module("topdec")), "s"),
        "gatrank.self_s": (tr.self_sum(module("gatrank")), "s"),
        "cli.import_s": (cli_import_s() if name == "cli" else 0.0, "s"),
        "cli.main_self_s": (tr.self_time["cli.main"], "s"),
        "cli.subprocess_s": (sub_s, "s"),
        "cli.process_overhead_s": (sub_s - main_s if sub_s else 0.0, "s"),
        "bench.ops": (len(again.ops), "count"),
        "bench.traced_wall_s": (again.wall, "s"),
        # cli: the replay also runs main() in-process, which the untraced
        # half does not, so only the subprocess spans compare with it.
        "bench.tracing_overhead_ratio": ((sub_s if name == "cli" else again.wall) / plain.wall, "ratio"),
    }
    m["bench.self_s"] = (again.wall - sum(m[k][0] for k in SELF_BUCKETS), "s")
    return m


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so peak RSS and import state are its own."""
    results, code = {}, 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with code {proc.returncode}")
            code = code or proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_checkout()
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    run = traced if args.trace else untraced
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
