"""Shared experiment infrastructure.

The paper's workloads (50 000 random functions, 60-180 s per function
on a 2004 Pentium IV running C code) are resized for a pure-Python
session: every driver keeps the protocol — the same generators, option
sets, and acceptance rules — and takes its sample size as an argument
(the table commands' ``--sample``/``--samples``/``--names``, and
``rmrls table1 --full`` for all 40 320 functions), while the option
sets below fix the per-function step budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.synth.options import SynthesisOptions
from repro.utils.tables import format_table

__all__ = [
    "ExperimentResult",
    "histogram_add",
    "average_size",
    "bucket_histogram",
    "render_histogram_comparison",
    "TABLE1_OPTIONS",
    "TABLE2_OPTIONS",
    "TABLE3_OPTIONS",
    "TABLE4_OPTIONS",
    "SCALABILITY_OPTIONS",
]


#: Table I protocol: three-variable functions, basic algorithm (the
#: heuristics are never mentioned for Table I) with a step safety cap
#: standing in for the paper's "less than half a second per function".
TABLE1_OPTIONS = SynthesisOptions(dedupe_states=True, max_steps=40_000)

#: Table II protocol: "a time limit of 60 s per function, maximum
#: circuit size of 40 gates, and the greedy option".
TABLE2_OPTIONS = SynthesisOptions(
    greedy_k=3,
    restart_steps=5_000,
    max_steps=40_000,
    time_limit=40.0,
    max_gates=40,
    dedupe_states=True,
)

#: Table III protocol: "180 s per function, maximum circuit size of 60
#: gates, and the greedy option".
TABLE3_OPTIONS = SynthesisOptions(
    greedy_k=3,
    restart_steps=5_000,
    max_steps=60_000,
    time_limit=90.0,
    max_gates=60,
    dedupe_states=True,
)

#: Table IV / examples protocol: "a time limit of 60 s and the greedy
#: option".
TABLE4_OPTIONS = SynthesisOptions(
    greedy_k=3,
    restart_steps=5_000,
    max_steps=60_000,
    time_limit=60.0,
    max_gates=70,
    dedupe_states=True,
)

#: Tables V-VII protocol: 60 s limit, greedy pruning, "as soon as a
#: solution was found, we chose to move on".  The step budget is the
#: binding constraint in pure Python (failing functions burn the whole
#: budget); pass ``options`` to
#: :func:`repro.experiments.table567.run_scalability` for deeper runs.
SCALABILITY_OPTIONS = SynthesisOptions(
    greedy_k=3,
    restart_steps=2_000,
    max_steps=8_000,
    time_limit=20.0,
    max_gates=45,
    dedupe_states=True,
    stop_at_first=True,
)


@dataclass
class ExperimentResult:
    """Outcome of one experiment driver run.

    ``failures`` breaks ``failed`` down by harness taxonomy status
    (``unsolved``, ``timeout``, ``oom``, ``crash``, ``hang``,
    ``unsound``) so a sweep that survived bad specifications still
    reports exactly what went wrong.
    """

    name: str
    histogram: dict[int, int] = field(default_factory=dict)
    failed: int = 0
    attempted: int = 0
    extras: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    @property
    def solved(self) -> int:
        """Functions successfully synthesized."""
        return self.attempted - self.failed

    def record_failure(self, status: str, count: int = 1) -> None:
        """Count ``count`` failed attempts under a taxonomy status."""
        self.failed += count
        self.failures[status] = self.failures.get(status, 0) + count

    def average_size(self) -> float | None:
        """Mean circuit size over the solved functions."""
        return average_size(self.histogram)

    def failure_rate(self) -> float:
        """Fraction of attempts that failed."""
        return self.failed / self.attempted if self.attempted else 0.0


def histogram_add(histogram: dict[int, int], size: int) -> None:
    """Count one circuit of ``size`` gates."""
    histogram[size] = histogram.get(size, 0) + 1


def average_size(histogram: dict[int, int]) -> float | None:
    """Mean key weighted by counts (``None`` for an empty histogram)."""
    total = sum(histogram.values())
    if not total:
        return None
    return sum(size * count for size, count in histogram.items()) / total


def bucket_histogram(
    histogram: dict[int, int], buckets: list[tuple[int, int]]
) -> list[int]:
    """Re-bin a size histogram into the paper's bucket ranges."""
    counts = [0] * len(buckets)
    for size, count in histogram.items():
        for slot, (low, high) in enumerate(buckets):
            if low <= size <= high:
                counts[slot] += count
                break
    return counts


def render_histogram_comparison(
    title: str,
    measured: dict[int, int],
    reference: dict[int, int],
    measured_label: str = "measured",
    reference_label: str = "paper",
) -> str:
    """Render measured-vs-paper size histograms side by side.

    The reference column is shown as raw counts plus the share of its
    population, so the shapes are comparable across sample sizes.
    """
    measured_total = sum(measured.values()) or 1
    reference_total = sum(reference.values()) or 1
    sizes = sorted(set(measured) | set(reference))
    rows = []
    for size in sizes:
        m = measured.get(size, 0)
        r = reference.get(size, 0)
        rows.append(
            (
                size,
                m,
                f"{100 * m / measured_total:.1f}%",
                r,
                f"{100 * r / reference_total:.1f}%",
            )
        )
    return format_table(
        ["size", measured_label, "share", reference_label, "share"],
        rows,
        title=title,
    )
