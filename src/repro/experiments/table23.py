"""Tables II and III — random four- and five-variable functions.

Protocol (Sec. V-B): draw uniformly random reversible specifications,
derive their PPRMs, and synthesize with the greedy option under a time
and gate-count budget; report the circuit-size histogram and the
failure count.  The paper ran 50 000 four-variable functions (60 s, at
most 40 gates) and 3 000 five-variable functions (180 s, at most 60
gates, 6.5% failed).
"""

from __future__ import annotations

import random

from repro.experiments.common import (
    TABLE2_OPTIONS,
    TABLE3_OPTIONS,
    ExperimentResult,
    histogram_add,
    render_histogram_comparison,
)
from repro.experiments.paper_data import (
    TABLE2_SIZES,
    TABLE3_FAILED,
    TABLE3_SIZES,
)
from repro.functions.permutation import random_permutation
from repro.harness import HarnessConfig, permutation_task, run_sweep
from repro.synth.options import SynthesisOptions

__all__ = ["run_random_functions", "render_table2", "render_table3"]


def run_random_functions(
    num_vars: int,
    sample: int,
    options: SynthesisOptions | None = None,
    seed: int = 2004,
    harness: HarnessConfig | None = None,
    limit: int | None = None,
) -> ExperimentResult:
    """Synthesize ``sample`` random ``num_vars``-variable functions.

    Every attempt runs through :func:`~repro.harness.run_sweep` under
    ``harness`` (default: inline, in order).  An unsound or crashing
    attempt is recorded in ``result.failures`` and the sweep continues;
    ``HarnessConfig(strict=True)`` raises on the first unsound circuit.
    """
    if options is None:
        options = TABLE2_OPTIONS if num_vars <= 4 else TABLE3_OPTIONS
    rng = random.Random(seed)
    specs = [random_permutation(num_vars, rng) for _ in range(sample)]
    namespace = f"table23:{num_vars}v:seed={seed}"
    tasks = [
        permutation_task(
            spec.images,
            options,
            meta={"index": index, "label": str(spec)},
            namespace=namespace,
        )
        for index, spec in enumerate(specs)
    ]
    result = ExperimentResult(name=f"random_{num_vars}var")
    elapsed = 0.0

    def on_outcome(task, outcome):
        nonlocal elapsed
        result.attempted += 1
        elapsed += float(
            (outcome.stats or {}).get(
                "elapsed_seconds", outcome.elapsed_seconds
            )
        )
        if outcome.status == "ok":
            histogram_add(result.histogram, outcome.gate_count)
        else:
            result.record_failure(outcome.status)

    report = run_sweep(
        f"table{2 if num_vars <= 4 else 3}:{num_vars}v",
        tasks,
        config=harness,
        on_outcome=on_outcome,
        limit=limit,
    )
    result.extras["total_seconds"] = elapsed
    result.extras["sweep"] = report.as_dict()
    return result


def render_table2(result: ExperimentResult) -> str:
    """Render measured four-variable results against Table II."""
    body = render_histogram_comparison(
        "Table II: random four-variable reversible functions",
        result.histogram,
        TABLE2_SIZES,
    )
    footer = (
        f"measured: {result.solved}/{result.attempted} synthesized "
        f"({100 * result.failure_rate():.1f}% failed); "
        "paper: all 50,000 synthesized"
    )
    average = result.average_size()
    if average is not None:
        footer += f"; measured avg size {average:.1f}"
    return f"{body}\n{footer}"


def render_table3(result: ExperimentResult) -> str:
    """Render measured five-variable results against Table III."""
    body = render_histogram_comparison(
        "Table III: random five-variable reversible functions",
        result.histogram,
        TABLE3_SIZES,
    )
    footer = (
        f"measured: {result.failed}/{result.attempted} failed "
        f"({100 * result.failure_rate():.1f}%); paper: {TABLE3_FAILED}/3,000 "
        "failed (6.5%)"
    )
    average = result.average_size()
    if average is not None:
        footer += f"; measured avg size {average:.1f}"
    return f"{body}\n{footer}"
