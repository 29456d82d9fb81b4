"""Tables V-VII — scalability on random circuits of 6-16 variables.

Protocol (Sec. V-E): build a random cascade with a prespecified gate
count from the GT library (control counts drawn at random), simulate it
into a specification, derive the PPRM, and synthesize with the greedy
option under a time budget, *stopping at the first solution*.  Report
the realized circuit-size distribution (bucketed 1-5, 6-10, ..., 36-40)
and the failure percentage.  The paper runs 500 examples per variable
count at max gate count 15 (Table V) and 1 000 each at 20 and 25
(Tables VI and VII).
"""

from __future__ import annotations

import random

from repro.circuits.random_circuits import random_circuit
from repro.experiments.common import (
    SCALABILITY_OPTIONS,
    ExperimentResult,
    bucket_histogram,
    histogram_add,
)
from repro.experiments.paper_data import (
    SCALABILITY_BUCKETS,
    TABLE5,
    TABLE6,
    TABLE7,
)
from repro.gates.library import GT
from repro.harness import HarnessConfig, random_circuit_task, run_sweep
from repro.io.real_format import dump_real
from repro.synth.options import SynthesisOptions
from repro.utils.tables import format_table

__all__ = ["run_scalability", "render_scalability"]

_PAPER_TABLES = {15: TABLE5, 20: TABLE6, 25: TABLE7}


def run_scalability(
    max_gates: int,
    variables: list[int] | None = None,
    samples: int = 20,
    options: SynthesisOptions = SCALABILITY_OPTIONS,
    seed: int = 2004,
    harness: HarnessConfig | None = None,
    limit: int | None = None,
) -> dict[int, ExperimentResult]:
    """Run the Sec. V-E protocol for one ``max_gates`` setting.

    ``variables`` defaults to the paper's 6..16 sweep.  The synthesis
    gate cap follows the workload: a generated circuit certifies a
    ``max_gates`` upper bound, but the paper reports found sizes up to
    40, so the cap is ``max(40, options.max_gates)``.

    All variable counts run as one :func:`~repro.harness.run_sweep`
    under ``harness`` (resumable with one ledger); generator circuits
    cross the task boundary as RevLib ``.real`` text.  An unsound
    resynthesis is recorded in ``result.failures`` and the sweep
    continues unless ``harness.strict``.  All rows share that one sweep:
    every row's ``extras["sweep"]`` is its report, whose ``stats`` sum
    the searches of every variable count.
    """
    if variables is None:
        variables = list(range(6, 17))
    run_options = options.with_(
        max_gates=max(40, options.max_gates or 0)
    )
    results: dict[int, ExperimentResult] = {}
    tasks = []
    for num_vars in variables:
        rng = random.Random(seed + num_vars * 1009 + max_gates)
        results[num_vars] = ExperimentResult(
            name=f"scalability_{num_vars}v_{max_gates}g"
        )
        namespace = f"table567:{max_gates}g:{num_vars}v:seed={seed}"
        for index in range(samples):
            generator = random_circuit(num_vars, max_gates, rng, GT)
            # The PPRM comes from the circuit symbolically (in the
            # worker); tabulating 2^16 rows per function would dominate
            # the experiment.
            tasks.append(
                random_circuit_task(
                    dump_real(generator),
                    run_options,
                    meta={
                        "num_vars": num_vars,
                        "index": index,
                        "label": f"random {num_vars}-variable spec "
                                 f"#{index}",
                    },
                    namespace=namespace,
                )
            )

    def on_outcome(task, outcome):
        result = results[outcome.meta["num_vars"]]
        result.attempted += 1
        if outcome.status == "ok":
            histogram_add(result.histogram, outcome.gate_count)
        else:
            result.record_failure(outcome.status)

    report = run_sweep(
        f"scalability:{max_gates}g",
        tasks,
        config=harness,
        on_outcome=on_outcome,
        limit=limit,
    )
    sweep = report.as_dict()
    for result in results.values():
        result.extras["sweep"] = sweep
    return results


def _same_function(
    found, generator, max_exhaustive: int = 12, samples: int = 4096
) -> bool:
    """Compare two circuits, exhaustively up to ``max_exhaustive`` lines
    and on random samples beyond."""
    num_lines = generator.num_lines
    if found.num_lines != num_lines:
        return False
    if num_lines <= max_exhaustive:
        assignments = range(1 << num_lines)
    else:
        rng = random.Random(0xC0FFEE)
        assignments = (
            rng.randrange(1 << num_lines) for _ in range(samples)
        )
    return all(
        found.apply(word) == generator.apply(word) for word in assignments
    )


def render_scalability(
    max_gates: int, results: dict[int, ExperimentResult]
) -> str:
    """Render measured bucket counts and failure rates against the
    corresponding paper table."""
    reference = _PAPER_TABLES.get(max_gates, {})
    headers = ["vars"] + [f"{low}-{high}" for low, high in SCALABILITY_BUCKETS]
    headers += [">40", "failed %", "paper failed %"]
    rows = []
    top = SCALABILITY_BUCKETS[-1][1]
    for num_vars, result in sorted(results.items()):
        buckets = bucket_histogram(result.histogram, SCALABILITY_BUCKETS)
        overflow = sum(
            count for size, count in result.histogram.items() if size > top
        )
        paper_row = reference.get(num_vars)
        paper_fail = None
        if paper_row is not None:
            paper_total = sum(paper_row[0]) + paper_row[1]
            paper_fail = f"{100 * paper_row[1] / paper_total:.1f}"
        rows.append(
            [num_vars, *buckets, overflow,
             f"{100 * result.failure_rate():.1f}", paper_fail]
        )
    title = (
        f"Tables V-VII protocol: random reversible functions, "
        f"maximum gate count {max_gates}"
    )
    return format_table(headers, rows, title=title)
