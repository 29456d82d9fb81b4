"""Micro-benchmark timing: warmup, repeats, MAD outlier rejection.

Timing Python kernels on shared machines is noisy in one direction —
GC pauses, frequency scaling, and scheduler preemption make samples
*slower*, never faster.  :func:`time_callable` therefore takes the
classic defensive shape: warm the kernel up, repeat it, and reject
slow outliers by the modified z-score over the median absolute
deviation (MAD) before summarizing.  The *minimum* of the kept
samples is the headline per-op number — with one-sided noise the min
is the least-biased estimate of the kernel's true cost, and by far
the most stable across runs on a shared machine (which is what the
packed-vs-reference kernel test compares); median and mean are
reported alongside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["TimingResult", "mad_keep_mask", "time_callable"]

#: Modified z-score cutoff for outlier rejection (the conventional
#: Iglewicz–Hoaglin threshold).
MAD_CUTOFF = 3.5
#: Scale factor making the MAD a consistent sigma estimator.
_MAD_SIGMA = 0.6745


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad_keep_mask(samples: list[float], cutoff: float = MAD_CUTOFF) -> list[bool]:
    """Per-sample keep/reject verdicts by one-sided modified z-score.

    Only *slow* outliers are rejected (fast samples are physically
    meaningful).  With fewer than three samples everything is kept.
    A zero MAD (the majority of samples identical — common for very
    fast kernels on a quiet machine) falls back to the mean absolute
    deviation so a lone slow spike is still caught; if that is zero
    too, the samples really are identical and all are kept.
    """
    if len(samples) < 3:
        return [True] * len(samples)
    median = _median(samples)
    deviations = [abs(sample - median) for sample in samples]
    mad = _median(deviations)
    if mad == 0.0:
        mad = sum(deviations) / len(deviations)
    if mad == 0.0:
        return [True] * len(samples)
    return [
        _MAD_SIGMA * (sample - median) / mad <= cutoff
        for sample in samples
    ]


@dataclass
class TimingResult:
    """Summary of one timed kernel.

    ``samples`` holds seconds per repeat (all of them, rejected ones
    included); ``kept`` marks which survived outlier rejection.  The
    per-op numbers divide by ``ops`` — the kernel's operation count per
    repeat — so heterogeneous kernels compare on a common ns/op scale.
    """

    name: str
    ops: int
    samples: list[float] = field(default_factory=list)
    kept: list[bool] = field(default_factory=list)
    warmup: int = 0

    @property
    def kept_samples(self) -> list[float]:
        return [s for s, keep in zip(self.samples, self.kept) if keep]

    @property
    def rejected(self) -> int:
        """How many repeats the MAD filter discarded."""
        return len(self.samples) - len(self.kept_samples)

    @property
    def median_seconds(self) -> float:
        return _median(self.kept_samples)

    @property
    def min_seconds(self) -> float:
        return min(self.kept_samples)

    @property
    def mean_seconds(self) -> float:
        kept = self.kept_samples
        return sum(kept) / len(kept)

    @property
    def ns_per_op(self) -> float:
        """Fastest kept sample scaled to nanoseconds per operation.

        The minimum, not the median: noise is one-sided, so the min is
        both the least-biased cost estimate and the most stable number
        across runs, which is what two timings get compared on.
        """
        return self.min_seconds / self.ops * 1e9

    @property
    def ops_per_s(self) -> float:
        best = self.min_seconds
        return self.ops / best if best > 0 else float("inf")

    def as_dict(self) -> dict:
        """JSON-safe summary (samples included for re-analysis)."""
        return {
            "name": self.name,
            "ops": self.ops,
            "repeats": len(self.samples),
            "rejected": self.rejected,
            "warmup": self.warmup,
            "samples_seconds": [round(s, 9) for s in self.samples],
            "median_seconds": self.median_seconds,
            "min_seconds": self.min_seconds,
            "mean_seconds": self.mean_seconds,
            "ns_per_op": self.ns_per_op,
            "ops_per_s": self.ops_per_s,
        }


def time_callable(
    name: str,
    fn,
    *,
    ops: int = 1,
    repeats: int = 7,
    warmup: int = 1,
    cutoff: float = MAD_CUTOFF,
    clock=time.perf_counter,
) -> TimingResult:
    """Time ``fn()`` with warmup and repeats; return the summary.

    ``ops`` is how many notional operations one ``fn()`` call performs
    (used for the ns/op scale).  ``fn`` runs ``warmup + repeats``
    times; only the repeats are recorded.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if ops < 1:
        raise ValueError(f"ops must be >= 1, got {ops}")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = clock()
        fn()
        samples.append(clock() - start)
    return TimingResult(
        name=name,
        ops=ops,
        samples=samples,
        kept=mad_keep_mask(samples, cutoff),
        warmup=warmup,
    )
