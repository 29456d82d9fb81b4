"""Sampled wall-clock attribution to the search's hot phases.

Timing every call of every phase would slow the search it measures;
:class:`PhaseTimer` instead samples 1 of every ``stride`` loop steps
(default 64) and times all phase work inside the sampled step.  Because
the Fig. 4 loop does statistically similar work every iteration, the
sampled seconds extrapolate to ``seconds * stride`` with negligible
bias, while the instrumentation overhead shrinks by the same factor.

The four instrumented phases (see ``docs/observability.md``):

* ``enumerate_substitutions`` — candidate generation per expansion;
* ``substitute`` — the fused child evaluation: every candidate
  applied to the parent's raw state, term-counted and
  identity-tested;
* ``dedupe`` — visited-table lookups and inserts;
* ``queue`` — priority-queue push/pop traffic.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["PhaseTimer", "SEARCH_PHASES"]

#: The phases instrumented in the synthesis hot path.
SEARCH_PHASES = ("enumerate_substitutions", "substitute", "dedupe", "queue")


class PhaseTimer:
    """Accumulate per-phase wall-clock from sampled search steps.

    ``stride=1`` times every step (maximum fidelity, maximum overhead);
    the default 64 keeps the overhead negligible.  The timer is
    reusable across runs — samples keep accumulating — which lets one
    timer profile a whole benchmark sweep.
    """

    def __init__(self, stride: int = 64, clock=time.perf_counter):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = stride
        self.clock = clock
        self.seconds: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.total_steps = 0
        self.sampled_steps = 0

    def start_step(self, step: int) -> bool:
        """Register one loop step; ``True`` when it should be timed."""
        self.total_steps += 1
        if step % self.stride:
            return False
        self.sampled_steps += 1
        return True

    def add(self, phase: str, seconds: float) -> None:
        """Accumulate ``seconds`` of sampled time into ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.samples[phase] = self.samples.get(phase, 0) + 1

    @contextmanager
    def phase(self, name: str):
        """Context manager timing one block into ``phase``."""
        start = self.clock()
        try:
            yield
        finally:
            self.add(name, self.clock() - start)

    def estimated_total(self, phase: str) -> float:
        """Sampled seconds extrapolated to all steps."""
        return self.seconds.get(phase, 0.0) * self.stride

    def as_dict(self) -> dict:
        """JSON-safe snapshot for run reports."""
        return {
            "stride": self.stride,
            "total_steps": self.total_steps,
            "sampled_steps": self.sampled_steps,
            "phases": {
                phase: {
                    "seconds": self.seconds[phase],
                    "samples": self.samples.get(phase, 0),
                    "estimated_total_seconds": self.estimated_total(phase),
                }
                for phase in sorted(self.seconds)
            },
        }

    def render(self) -> str:
        """Human-readable breakdown for ``rmrls profile``."""
        if not self.seconds:
            return "no phase samples recorded"
        total = sum(self.seconds.values())
        lines = [
            f"phase breakdown  (1/{self.stride} steps sampled, "
            f"{self.sampled_steps}/{self.total_steps} steps)",
            f"  {'phase':<26} {'sampled s':>10} {'est total s':>12} "
            f"{'share':>7}",
        ]
        for phase, seconds in sorted(
            self.seconds.items(), key=lambda item: item[1], reverse=True
        ):
            share = seconds / total if total else 0.0
            lines.append(
                f"  {phase:<26} {seconds:>10.4f} "
                f"{self.estimated_total(phase):>12.4f} {share:>6.1%}"
            )
        return "\n".join(lines)
