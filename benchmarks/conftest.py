"""Shared benchmark configuration.

Every bench regenerates one of the paper's tables or figures at a
sampled scale (scale with ``REPRO_BENCH_SCALE``, e.g. ``=5`` for a 5x
larger run; the paper-sized runs are documented in EXPERIMENTS.md).
The rendered paper-vs-measured tables print to stdout — run with
``pytest benchmarks/ --benchmark-only -s`` to see them (a plain run
captures and discards passing tests' prints; the committed results/
directory and EXPERIMENTS.md keep representative renders).

Each regeneration's timing is pytest-benchmark's own: add
``--benchmark-json PATH`` to keep it.  End-to-end performance is
measured by ``perfbench/`` (see docs/benchmarking.md).
"""

from __future__ import annotations

import pytest


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The drivers take minutes, so the usual multi-round calibration is
    disabled.
    """
    return benchmark.pedantic(
        function, args=args, kwargs=kwargs, rounds=1, iterations=1
    )


@pytest.fixture
def once(benchmark):
    """Fixture wrapper around :func:`run_once`."""

    def runner(function, *args, **kwargs):
        return run_once(benchmark, function, *args, **kwargs)

    return runner
