"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_generators_are_deterministic_across_processes():
    here = inputs.inputs_fingerprint(7)
    assert here == inputs.inputs_fingerprint(7)
    assert here != inputs.inputs_fingerprint(8)
    code = "import sys; sys.path[:0] = sys.argv[1:]; import inputs; print(inputs.inputs_fingerprint(7))"
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert out == here


def test_blocks_keep_their_class_quotas():
    from partialhorn.syntax import free_vars

    for block in inputs.cell_term_blocks(3, 5):
        got = {}
        for n, t in block:
            key = (n, len(free_vars(t)))
            got[key] = got.get(key, 0) + 1
        assert got == dict(inputs.CELL_QUOTAS)
    for low, high in inputs.ncat3_word_blocks(3, 5):
        assert inner_letter(low) in inputs.LOW_START
        assert inner_letter(high) in inputs.HIGH_START


def test_quotas_follow_the_a09c_class_shares():
    """Each quota is its class's share of the non-normal a09c stream (levels 1
    and 2, without level-2 terms in three variables), rounded to the block."""
    import random
    from collections import Counter

    from partialhorn.syntax import free_vars

    stream = inputs.a09c_cell_terms(random.Random(90))
    counts = Counter()
    for _ in range(20000):
        n, t = next(stream)
        if not inputs.is_normal(t):
            counts[(n, len(free_vars(t)))] += 1
    del counts[(2, 3)]
    quotas = dict(inputs.CELL_QUOTAS)
    assert set(counts) == set(quotas)
    block = sum(quotas.values())
    for cls, quota in quotas.items():
        assert abs(quota - block * counts[cls] / sum(counts.values())) <= 0.5, cls


def test_decompose_passes_relabel_every_hom():
    import random

    import partialhorn as ph

    cat = ph.load_theory(str(ROOT / "corpus" / "theories" / "ncat1.pht"))
    f = workloads.build_cat_merge(cat, inputs.cat_merges(6, 1)[0])
    g = workloads.relabelled(f, random.Random(1))
    assert ph.is_hom(g) and g.source.funcs != f.source.funcs and g.target.funcs != f.target.funcs
    blocks = workloads.setup_decompose(6, ROOT)
    merges = [[op for op in block if op.key.startswith("merge:")] for block in blocks[:2]]
    assert sorted(op.key for op in merges[0]) == sorted(op.key for op in merges[1])
    # Copies share a key, so count_failures also compares their summaries.
    assert run.count_failures([run.replay(merges[0] + merges[1])]) == 0


def test_normal_form_predicate_matches_the_library():
    import random

    from partialhorn import ncat_is_normal

    rng = random.Random(11)
    normal = 0
    for _ in range(400):
        t = inputs.gen_cell_term(rng.choice([1, 2, 3]), rng, 4, ["x", "y", "z"][: rng.randint(1, 3)])
        assert inputs.is_normal(t) == ncat_is_normal(t), t
        normal += inputs.is_normal(t)
    assert 0 < normal < 400


def inner_letter(t) -> str:
    while not hasattr(t.args[0], "name"):
        t = t.args[0]
    return t.func


@pytest.mark.parametrize("name", ["prove-small", "decompose"])
def test_traced_and_untraced_runs_give_the_same_digest(name):
    ops = workloads.WORKLOADS[name](5, ROOT)[0]
    plain = run.replay(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        again = run.replay(ops)
    finally:
        tracer.restore()
    assert run.digest(plain) == run.digest(again)
    assert run.count_failures([plain, again]) == 0
    assert tracer.calls["chase.chase"] > 0


def test_wrappers_are_swapped_in_and_removed():
    import importlib

    decompose = importlib.import_module("partialhorn.decompose")
    chase_mod = importlib.import_module("partialhorn.chase")
    orig = chase_mod.chase
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert decompose.chase is not orig and decompose.chase is chase_mod.chase
        assert getattr(importlib.import_module("partialhorn.gauge").prove_sequent, "__wrapped_by_tracer__", False)
    finally:
        tracer.restore()
    assert decompose.chase is orig and chase_mod.chase is orig
    for key, mod in list(sys.modules.items()):
        if key == "partialhorn" or key.startswith("partialhorn."):
            for attr, value in vars(mod).items():
                assert not getattr(value, "__wrapped_by_tracer__", False), f"{key}.{attr}"


def test_self_times_add_up_to_the_traced_wall():
    ops = workloads.WORKLOADS["prove-small"](2, ROOT)[0]
    plain = run.replay(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        again = run.replay(ops)
    finally:
        tracer.restore()
    m = run.layer_metrics(tracer, again, plain, "prove-small")
    layers = sum(m[k][0] for k in run.SELF_BUCKETS)
    assert 0 <= m["bench.self_s"][0] < 0.05 * again.wall
    assert abs(layers + m["bench.self_s"][0] - again.wall) < 1e-6
    assert m["chase.calls"][0] == m["chase.prove_calls"][0] > 0


def test_a_wrong_expected_decnum_counts_as_failed():
    towers = tuple(
        (th, a, b, h, decnum + 1 if th == "ladder" else decnum, sizes)
        for th, a, b, h, decnum, sizes in inputs.CORPUS_TOWERS
    )
    blocks = workloads.setup_decompose(1, ROOT, towers=towers)
    ops = [op for op in blocks[0] if op.key.startswith("corpus:")]
    phase = run.replay(ops)
    assert run.count_failures([phase]) == 1


def test_a_wrong_cli_digest_counts_as_failed():
    digests = json.loads(workloads.DIGESTS_FILE.read_text())
    argv = inputs.CLI_FAMILIES["gat-rank"][0]
    ok = workloads._cli_op(argv, ROOT, workloads.load_validator(ROOT), digests)
    bad = workloads._cli_op(argv, ROOT, workloads.load_validator(ROOT), {**digests, " ".join(argv): "0" * 64})
    phase = run.replay([ok, bad])
    assert run.count_failures([phase]) == 1


def test_result_lines_name_every_metric_and_repeat_the_digest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES) == list(workloads.WORKLOADS)
    first_block = set()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer"), (0, "end_to_end")):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "prove-small", "--seed", "4",
             "--seconds", "0.5", "--trace", str(trace)],
            capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        doc = json.loads(lines[-1])
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == {m["name"]: m["unit"] for m in spec[kind]}
        first_block.add(next(line.split()[1] for line in lines if line.startswith("digest ")))
    assert len(first_block) == 1


def test_refusal_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_scales_times_to_the_reference():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= speed.WINDOW
    assert list(probe.starts) == sorted(probe.starts)
    # Inside the probed interval: the probes are taken out, and the rest is
    # scaled by the reference over their mean duration, the slowest tenth
    # left out.
    start, stop = probe.starts[10], probe.starts[10 + speed.WINDOW]
    inside = probe.durations[10:10 + speed.WINDOW]
    kept = sorted(inside)[:len(inside) * 9 // 10]
    scale = probe.reference * len(kept) / sum(kept)
    assert probe.scale(start, stop) == pytest.approx(scale)
    assert probe.reference_s(start, stop) == pytest.approx((stop - start - sum(inside)) * scale)
    with speed.SpeedProbe(timer=False) as quiet:
        quiet.sample(speed.WINDOW)
        time.sleep(0.01)
    assert len(quiet.durations) == speed.WINDOW and signal.getsignal(signal.SIGALRM) is before
