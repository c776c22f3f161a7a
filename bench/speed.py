"""Machine-speed probe: times of the untraced runs in reference seconds.

On a shared host the same pure-Python work runs at speeds that drift by a
fifth or more within seconds and between minutes (README.md, "Steadiness"),
so a wall-clock time measures the host as much as the library.  While an
untraced run is measured, the benchmark runs a fixed probe of about 40 us:
tuple keys counted in a small dictionary, the interpreter work the chase is
made of.  The probe never calls the library, and its data fit in the CPU's
private caches, so a change to the library's memory use does not change the
probe's speed either.  In-process workloads run it from a SIGALRM timer
every INTERVAL_S, inside their operations; the cli workload runs SAMPLES
probes before each subprocess instead, because a probe running beside the
subprocess is slowed by it.

An operation's time is its wall time less the probes that ran inside it,
times a reference probe duration over the mean duration of those probes
(of the WINDOW nearest probes when fewer ran inside), the slowest tenth
left out.  That is the time the operation would take on a host that runs
one probe in the reference time: REFERENCE_PROBE_S from the timer,
REFERENCE_SAMPLE_S back to back.
A change to the library moves these times as it moves the wall times; a
host that slows everything alike does not.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

INTERVAL_S = 0.001
WINDOW = 64
SAMPLES = WINDOW
STEP = 128
# Typical probe durations (as ``scale`` averages them) on the 2-core machine
# the bounds were set on (Intel Xeon, 2.1 GHz, Python 3.11.7): from the
# timer, which finds the probe cold in the cache, and back to back, where all
# but the first run warm.
REFERENCE_PROBE_S = 42e-6
REFERENCE_SAMPLE_S = 28e-6


class SpeedProbe:
    """``with SpeedProbe(timer) as probe:`` samples the host's speed until the
    block ends: every INTERVAL_S if ``timer``, else when ``sample`` is called."""

    def __init__(self, timer: bool = True) -> None:
        self.timer = timer
        self.reference = REFERENCE_PROBE_S if timer else REFERENCE_SAMPLE_S
        self.busy = False
        self.starts = array("d")
        self.durations = array("d")

    @staticmethod
    def probe() -> int:
        counts, acc = {}, 0
        for i in range(STEP):
            key = (i & 63, (i >> 6) & 7)
            counts[key] = counts.get(key, 0) + 1
            acc ^= 7 * i
        return acc

    def sample(self, count: int = SAMPLES) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self.probe()
            self.durations.append(time.perf_counter() - start)
            self.starts.append(start)

    def _on_alarm(self, signum, frame) -> None:
        if self.busy:  # a late signal arriving during a probe
            return
        self.busy = True
        self.sample(1)
        self.busy = False

    def __enter__(self) -> "SpeedProbe":
        if self.timer:
            self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self.previous)

    def _between(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)

    def scale(self, start: float, end: float) -> float:
        """The reference over the mean probe duration during [start, end),
        the slowest tenth of the probes left out: a probe preempted for a few
        milliseconds would otherwise count some twenty times its share, as
        probes take a twentieth of the time."""
        i, j = self._between(start, end)
        if j - i < WINDOW:
            i = max(0, min((i + j) // 2 - WINDOW // 2, len(self.durations) - WINDOW))
            j = min(len(self.durations), i + WINDOW)
        if j == i:
            raise RuntimeError("no probe ran; the run was too short to measure")
        return self.reference / trimmed_mean(self.durations[i:j])

    def reference_s(self, start: float, end: float) -> float:
        """[start, end) less the probes inside it, in reference seconds."""
        i, j = self._between(start, end)
        return (end - start - sum(self.durations[i:j])) * self.scale(start, end)

    def typical_s(self) -> float:
        """The probe duration over the whole run, averaged as ``scale`` does."""
        return trimmed_mean(self.durations)


def trimmed_mean(durations) -> float:
    """The mean without the slowest tenth."""
    kept = sorted(durations)[:max(1, len(durations) * 9 // 10)]
    return sum(kept) / len(kept)
