"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps the public entry points of each partialhorn module
and swaps every wrapper into the namespace of every partialhorn module that
holds the original (``decompose.chase``, ``gauge.prove_sequent``,
``cli.canonical_decomposition``, the package itself, ...).  Modules are
reached with ``importlib.import_module`` because ``partialhorn.chase`` is the
function, not the module.  ``Tracer.restore`` puts the originals back.

Spans live in memory as flat arrays (name, parent, start, end) and are
written once, by ``write``, after the measurement.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

# module -> the public entry points the workloads reach, directly or through
# the CLI.  Functions that the library calls recursively on itself
# (ncat_sharp, eval_term, ...) are left out: wrapping them would trace every
# recursion step.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "syntax": ("load_theory", "parse_theory", "parse_term"),
    "structure": (
        "holds", "is_hom", "is_model", "compose_hom", "load_model", "parse_model", "load_hom", "parse_hom",
    ),
    "chase": ("chase", "prove_sequent", "reduces"),
    "decompose": ("canonical_decomposition", "image_factorization", "scale_step"),
    "gauge": ("check_gauge", "ncat_normalize", "ncat_theory", "ncat_gauge_rules", "ladder_gauge_rules"),
    "topdec": ("monotone_light_decomposition", "koizumi_map"),
    "gatrank": ("load_gat", "analyze"),
    "cli": ("main",),
}


def _chase_counts(args, result) -> dict[str, float]:
    return {
        "rounds": result.rounds,
        "merges": result.merges,
        "created": len(result.quotient),
        "live_out": result.model.size(),
    }


def _prove_counts(args, result) -> dict[str, float]:
    return {"valid": float(result.verdict == "Valid")}


def _step_counts(args, result) -> dict[str, float]:
    scale, f = args[1], args[2]
    carriers = f.source.carriers
    candidates = 0
    for entry in scale.entries:
        n = 1
        for _, sort in entry.context.vars:
            n *= len(carriers.get(sort, ()))
        candidates += n
    return {"candidates": candidates, "fired": len(result.fired)}


def _gauge_counts(args, result) -> dict[str, float]:
    return {"rows": len(result.rows)}


COUNTERS: dict[str, Callable] = {
    "chase.chase": _chase_counts,
    "chase.prove_sequent": _prove_counts,
    "decompose.scale_step": _step_counts,
    "gauge.check_gauge": _gauge_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # (span index, time covered by finished children)
        self._stack: list[list] = []
        self._swapped: list[tuple[object, str, object]] = []

    # -- spans

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (e.g. one CLI subprocess)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        code = self._index.get(name)
        if code is None:
            code = self._index[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(code)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        now = time.perf_counter()
        self.end[idx] = now
        _, child = self._stack.pop()
        dur = now - self.start[idx]
        name = self.names[self.name_of[idx]]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installing and removing the wrappers

    def install(self) -> None:
        if self._swapped:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "partialhorn" or key.startswith("partialhorn."))
        ]
        for short, names in ENTRY_POINTS.items():
            mod = importlib.import_module(f"partialhorn.{short}")
            for fname in names:
                orig = getattr(mod, fname)
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._swapped.append((m, attr, orig))

    def restore(self) -> None:
        for m, attr, orig in reversed(self._swapped):
            setattr(m, attr, orig)
        self._swapped.clear()

    # -- results

    def top_level(self, pred: Callable[[str], bool]) -> tuple[int, float]:
        """Calls and inclusive time of spans matching ``pred`` whose parent does not."""
        calls, total = 0, 0.0
        for i in range(len(self.start)):
            name = self.names[self.name_of[i]]
            if not pred(name):
                continue
            p = self.parent[i]
            if p >= 0 and pred(self.names[self.name_of[p]]):
                continue
            calls += 1
            total += self.end[i] - self.start[i]
        return calls, total

    def self_sum(self, pred: Callable[[str], bool]) -> float:
        return sum((v for k, v in self.self_time.items() if pred(k)), 0.0)

    def write(self, path, extra: Optional[dict] = None) -> None:
        """Write every span, gzip-compressed JSON, times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "spans": [
                [self.name_of[i], self.parent[i], round((self.start[i] - t0) * 1e6, 1),
                 round((self.end[i] - t0) * 1e6, 1)]
                for i in range(len(self.start))
            ],
            **(extra or {}),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
