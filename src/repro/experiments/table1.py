"""Table I — all reversible functions of three variables.

The paper synthesizes all 8! = 40 320 three-variable functions with
RMRLS (NCT gates suffice at this width) and compares the gate-count
distribution against Miller's transformation-based method [7],
Kerntopf's method [6], and the optimal distributions of [16].

This driver reproduces four of the five columns from scratch:

* ``ours``    — RMRLS (this library's core algorithm);
* ``miller``  — our from-scratch transformation-based baseline
  (bidirectional, with output permutations, Toffoli gates only);
* ``optimal_nct`` / ``optimal_ncts`` — exact BFS sweeps (these two
  reproduce the paper's numbers *exactly*; see the test suite).

Kerntopf's column is not reimplementable from the available
description; the paper's published numbers are shown alongside.

By default a random sample of functions is synthesized (the optimal
sweeps are always exhaustive — they are cheap); ``sample=None`` runs
all 40 320 functions as the paper did.
"""

from __future__ import annotations

import random

from repro.baselines.optimal import optimal_distribution
from repro.baselines.transformation import transformation_synthesize
from repro.experiments.common import (
    TABLE1_OPTIONS,
    ExperimentResult,
    histogram_add,
    render_histogram_comparison,
)
from repro.experiments.paper_data import TABLE1, TABLE1_AVERAGES
from repro.functions.permutation import Permutation
from repro.gates.library import NCT, NCTS
from repro.harness import (
    HarnessConfig,
    harness_from_env,
    permutation_task,
    run_sweep,
)
from repro.synth.options import SynthesisOptions

__all__ = ["run_table1", "render_table1"]


def _three_variable_sample(
    sample: int | None, seed: int
) -> list[Permutation]:
    if sample is None:
        # Exhaustive: enumerate all 8! permutations.
        import itertools

        return [Permutation(p) for p in itertools.permutations(range(8))]
    rng = random.Random(seed)
    specs = []
    for _ in range(sample):
        images = list(range(8))
        rng.shuffle(images)
        specs.append(Permutation(images))
    return specs


def _corpus_column(corpus: str) -> ExperimentResult:
    """The RMRLS column read from a coverage corpus instead of being
    re-synthesized.  Each canonical class contributes ``class_size``
    functions at its best-known gate count, so a full corpus yields the
    exhaustive 40,320-function distribution in milliseconds."""
    from repro.sweeps import coverage_histogram, load_coverage

    header, records = load_coverage(corpus)
    ours = ExperimentResult(name="ours_nct")
    ours.histogram = dict(
        sorted(coverage_histogram(records, weighted=True).items())
    )
    for record in records:
        weight = int(record.get("class_size", 1))
        ours.attempted += weight
        if record.get("status") != "ok":
            ours.record_failure(record["status"], count=weight)
    ours.extras["corpus"] = {
        "path": corpus,
        "universe": header.get("universe"),
        "classes": len(records),
        "body_digest": header.get("body_digest"),
    }
    return ours


def run_table1(
    sample: int | None = 200,
    seed: int = 2004,
    options: SynthesisOptions = TABLE1_OPTIONS,
    include_miller: bool = True,
    apply_templates: bool = False,
    strict: bool = False,
    harness: HarnessConfig | None = None,
    limit: int | None = None,
    corpus: str | None = None,
) -> dict[str, ExperimentResult]:
    """Measure the Table I distributions.

    ``apply_templates`` additionally reports RMRLS followed by template
    simplification (the paper's 6.10 -> 6.05 postprocessing remark).
    The RMRLS column runs through the fault-tolerant harness (unsound
    or crashing functions become ``failures`` entries unless
    ``strict=True``); the Miller baseline and the exhaustive optimal
    sweeps stay in-process — they are deterministic and cheap.

    ``corpus`` replaces the RMRLS sweep with the coverage corpus
    produced by ``rmrls sweep collect`` (``results/coverage3.jsonl``):
    the ``ours_nct`` column then covers every one of the 40,320
    functions via the per-class best-known counts, with no synthesis at
    all.  The Miller and optimal columns are still computed live.
    """
    if harness is None:
        harness = harness_from_env()
    specs = _three_variable_sample(sample, seed)
    results: dict[str, ExperimentResult] = {}

    if corpus is not None:
        results["ours_nct"] = _corpus_column(corpus)
    else:
        ours = ExperimentResult(name="ours_nct")
        templated = ExperimentResult(name="ours_nct_templates")
        namespace = f"table1:seed={seed}"
        tasks = [
            permutation_task(
                spec.images,
                options,
                meta={"index": index, "label": str(spec)},
                namespace=namespace,
                apply_templates=apply_templates,
            )
            for index, spec in enumerate(specs)
        ]

        def on_outcome(task, outcome):
            ours.attempted += 1
            if outcome.status != "ok":
                ours.record_failure(outcome.status)
                return
            histogram_add(ours.histogram, outcome.gate_count)
            if apply_templates:
                templated.attempted += 1
                histogram_add(
                    templated.histogram,
                    outcome.extra["template_gate_count"],
                )

        config = (harness or HarnessConfig()).with_(strict=strict)
        report = run_sweep(
            "table1", tasks, config=config, on_outcome=on_outcome,
            limit=limit,
        )
        ours.extras["sweep"] = report.as_dict()
        results["ours_nct"] = ours
        if apply_templates:
            results["ours_nct_templates"] = templated

    if include_miller:
        miller = ExperimentResult(name="miller")
        for spec in specs:
            miller.attempted += 1
            circuit = transformation_synthesize(
                spec, bidirectional=True, try_output_permutations=True
            )
            if not circuit.implements(spec):
                raise AssertionError(f"unsound baseline circuit for {spec}")
            histogram_add(miller.histogram, circuit.gate_count())
        results["miller"] = miller

    for label, library in (("optimal_nct", NCT), ("optimal_ncts", NCTS)):
        result = ExperimentResult(name=label)
        result.histogram = dict(optimal_distribution(3, library))
        result.attempted = sum(result.histogram.values())
        results[label] = result

    return results


def render_table1(results: dict[str, ExperimentResult]) -> str:
    """Render the measured columns against the paper's Table I."""
    sections = []
    paper_keys = {
        "ours_nct": "ours_nct",
        "miller": "miller_ncts",
        "optimal_nct": "optimal_nct",
        "optimal_ncts": "optimal_ncts",
    }
    for key, result in results.items():
        reference = TABLE1.get(paper_keys.get(key, ""), {})
        block = render_histogram_comparison(
            f"Table I column: {key}",
            result.histogram,
            reference,
        )
        average = result.average_size()
        paper_average = TABLE1_AVERAGES.get(paper_keys.get(key, ""))
        footer = f"measured avg: {average:.2f}" if average else "no data"
        if paper_average is not None:
            footer += f"   paper avg: {paper_average:.2f}"
        sections.append(f"{block}\n{footer}\n")
    return "\n".join(sections)
