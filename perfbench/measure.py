"""Statistics and span tracing for the benchmark runner.

Everything here is independent of the program under test, so the unit
tests exercise it without running a search.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import math
import statistics
import time

#: Percentiles considered for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it is reported.
TAIL_MIN_BEYOND = 10


def median_or_zero(values) -> float:
    """Median, or 0.0 for an empty sequence (a layer that was not used)."""
    return statistics.median(values) if values else 0.0


def tail_percentile(values, min_beyond: int = TAIL_MIN_BEYOND):
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    Percentiles use the nearest-rank rule: the p-th percentile of ``n``
    sorted samples is the ``ceil(p/100 * n)``-th one, and the samples
    beyond it are the ``n - ceil(p/100 * n)`` after it.  Returns
    ``(value, percentile, sample_count)``, or ``None`` when even the
    median has fewer than ``min_beyond`` samples beyond it.
    """
    ordered = sorted(values)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100.0 * count))
        if count - rank >= min_beyond:
            return ordered[rank - 1], percentile, count
    return None


def split_by_outcome(samples) -> dict:
    """Group ``(outcome, latency)`` pairs into ``{outcome: [latency]}``,
    keeping each group in arrival order."""
    groups: dict = {}
    for outcome, latency in samples:
        groups.setdefault(outcome, []).append(latency)
    return groups


def ratio(numerator, denominator) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def count_summary(counts: dict) -> dict:
    """A pass's exact counts as one JSON record to compare across runs:
    numbers as they are, per-spec sequences as ``"<length>:<digest>"``."""
    summary = {}
    for key, value in sorted(counts.items()):
        if isinstance(value, (tuple, list)):
            digest = hashlib.sha256(json.dumps(list(value)).encode())
            value = f"{len(value)}:{digest.hexdigest()[:16]}"
        summary[key] = value
    return summary


#: Iterations of the calibration loop, and the seconds they take on the
#: reference host (a 2-core x86 VM, CPython 3.11) at its median speed.
CALIBRATION_ITERATIONS = 24_000
CALIBRATION_NOMINAL_S = 0.005


def calibration_loop(iterations: int = CALIBRATION_ITERATIONS) -> int:
    """Fixed pure-Python work (integer and dict operations, like the
    search's) whose duration tracks the host's current speed."""
    table = {}
    acc = 0
    for i in range(iterations):
        acc ^= (i * 2654435761) & 0xFFFF
        table[acc & 1023] = i
    return acc


class SpeedProbe:
    """Samples host speed between the calls of a CPU-bound pass.

    On a shared host the same search can take 30 % longer from one
    minute to the next.  Timing the fixed :func:`calibration_loop`
    every ``interval`` seconds through the pass measures that drift;
    :meth:`factor` is the mean loop time over its ``nominal`` time, so
    ``seconds / factor`` is the time at the reference host's speed.
    :meth:`local_factor` is the same ratio from the samples nearest one
    moment, for a single call.  The loop never runs inside a timed call.
    """

    def __init__(self, interval: float = 0.1, clock=time.perf_counter,
                 loop=calibration_loop,
                 nominal: float = CALIBRATION_NOMINAL_S):
        self.interval = interval
        self.clock = clock
        self.loop = loop
        self.nominal = nominal
        self.samples: list[float] = []
        #: When each sample ended, ascending.
        self.times: list[float] = []
        self._next = None

    def maybe_sample(self) -> None:
        """Time one calibration loop if ``interval`` has passed."""
        now = self.clock()
        if self._next is not None and now < self._next:
            return
        self.loop()
        done = self.clock()
        self.samples.append(done - now)
        self.times.append(done)
        self._next = done + self.interval

    def local_factor(self, when: float, nearest: int = 5) -> float:
        """Slowdown at ``when``: the median of the ``nearest`` samples
        closest to it in time.  Host speed also changes within a pass,
        so a call scaled by the speed around it varies less than one
        scaled by the pass mean (over five corpus3_resynth passes of one
        seed, the spread of the median latency fell from 10 % to 3 %)."""
        index = bisect.bisect_left(self.times, when)
        low = max(0, min(index - nearest // 2, len(self.times) - nearest))
        window = self.samples[low:low + nearest]
        return statistics.median(window) / self.nominal

    @property
    def seconds(self) -> float:
        """Time spent calibrating (to subtract from the pass wall)."""
        return sum(self.samples)

    def factor(self) -> float:
        return statistics.fmean(self.samples) / self.nominal

    def median_factor(self) -> float:
        """The median sample over ``nominal``: unlike :meth:`factor`, a
        few stalled samples do not move it."""
        return statistics.median(self.samples) / self.nominal


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span records its name, start, end, the span open around it, and
    the id of the spec or request it served.  Spans stay in memory; the
    runner writes them out (``--spans``) only after the run ends.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "request": request,
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = self.clock()

    def self_times(self) -> dict:
        """Seconds per span name, excluding time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals: dict = {}
        for record in self.spans:
            own = record["end"] - record["start"] - child_time[record["id"]]
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals


class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    enabled = False
    spans = ()

    def span(self, name: str, request=None):
        return contextlib.nullcontext()
