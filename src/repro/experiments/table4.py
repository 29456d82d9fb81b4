"""Table IV — named benchmark functions.

Protocol (Sec. V-C/V-D): 60 s per benchmark with the greedy option;
report gate count and quantum cost next to the best published results
from Maslov's page [13].  This driver mirrors how the tool would be
driven in practice: a small portfolio of greedy settings is tried (the
paper itself says k varies from three to five) and the best verified
circuit wins; template simplification is applied when it helps, with
the raw number also recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchlib.specs import BenchmarkSpec, all_benchmarks
from repro.circuits.circuit import Circuit
from repro.experiments.common import TABLE4_OPTIONS
from repro.experiments.paper_data import TABLE4, TABLE4_NCT_NAMES
from repro.gates.cost import DEFAULT_COST_MODEL
from repro.harness import HarnessConfig, benchmark_task, run_sweep
from repro.harness.taxonomy import STATUS_UNSOUND
from repro.io.real_format import load_real
from repro.postprocess.templates import simplify
from repro.synth.bidirectional import synthesize_inverse
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize
from repro.synth.stats import SearchStats
from repro.utils.tables import format_table

__all__ = ["BenchmarkOutcome", "run_benchmark", "run_table4", "render_table4"]


@dataclass
class BenchmarkOutcome:
    """Result of synthesizing one named benchmark.

    ``unsound_count`` counts searches whose circuit failed
    verification; in non-``strict`` runs these are recorded here
    instead of raising, so one bad benchmark cannot abort a sweep.
    :func:`run_table4` keeps no circuit for a row with a nonzero count.
    """

    spec: BenchmarkSpec
    circuit: Circuit | None
    raw_gate_count: int | None
    steps: int
    elapsed_seconds: float
    unsound_count: int = 0

    @property
    def solved(self) -> bool:
        """True when a verified circuit was found."""
        return self.circuit is not None

    @property
    def gate_count(self) -> int | None:
        """Gates in the best circuit (None when unsolved)."""
        return None if self.circuit is None else self.circuit.gate_count()

    @property
    def quantum_cost(self) -> int | None:
        """Quantum cost of the best circuit (None when unsolved)."""
        if self.circuit is None:
            return None
        return self.circuit.quantum_cost(DEFAULT_COST_MODEL)


def _portfolio(base: SynthesisOptions) -> list[SynthesisOptions]:
    """The option portfolio tried per benchmark (k in 1/3/5, as the
    paper's 'three to five' plus the pure greedy option)."""
    return [
        base.with_(greedy_k=3),
        base.with_(greedy_k=1),
        base.with_(greedy_k=5),
    ]


def run_benchmark(
    spec: BenchmarkSpec,
    options: SynthesisOptions = TABLE4_OPTIONS,
    use_portfolio: bool = True,
    apply_templates: bool = True,
    strict: bool = True,
    totals: SearchStats | None = None,
) -> BenchmarkOutcome:
    """Synthesize one benchmark, returning the best verified circuit.

    ``strict=True`` (the default) raises ``AssertionError`` the moment
    a synthesized circuit fails verification — the historical alarm.
    ``strict=False`` records the failure in ``unsound_count``, discards
    the circuit, and keeps going, which is what sweeps need: one bad
    result becomes a structured ``unsound`` outcome, not an abort.

    ``totals``, when given, gains the stats of every search run here
    (each greedy-k attempt and the inverse attempt) through
    :meth:`SearchStats.merge`.
    """
    attempts = _portfolio(options) if use_portfolio else [options]
    best: Circuit | None = None
    raw_count: int | None = None
    steps = 0
    elapsed = 0.0
    unsound = 0
    for attempt in attempts:
        outcome = synthesize(spec.pprm(), attempt)
        if totals is not None:
            totals.merge(outcome.stats)
        steps += outcome.stats.steps
        elapsed += outcome.stats.elapsed_seconds
        circuit = outcome.circuit
        if circuit is None:
            continue
        if not spec.verify(circuit):
            if strict:
                raise AssertionError(
                    f"unsound circuit for benchmark {spec.name}"
                )
            unsound += 1
            continue
        if raw_count is None or circuit.gate_count() < raw_count:
            raw_count = circuit.gate_count()
        if apply_templates and circuit.num_lines <= 12:
            simplified = simplify(circuit)
            if spec.verify(simplified):
                circuit = simplified
        if best is None or circuit.gate_count() < best.gate_count():
            best = circuit
    if best is None and spec.permutation is not None:
        # Last resort: the inverse direction — the PPRM landscapes of f
        # and f^-1 differ, and some specs (5one013) only yield this way.
        inverse_outcome = synthesize_inverse(spec.permutation, attempts[0])
        if totals is not None:
            totals.merge(inverse_outcome.stats)
        steps += inverse_outcome.stats.steps
        elapsed += inverse_outcome.stats.elapsed_seconds
        circuit = inverse_outcome.circuit
        if circuit is not None:
            if not spec.verify(circuit):
                if strict:
                    raise AssertionError(
                        f"unsound inverse-direction circuit for {spec.name}"
                    )
                unsound += 1
                circuit = None
            if circuit is not None:
                raw_count = circuit.gate_count()
                if apply_templates and circuit.num_lines <= 12:
                    simplified = simplify(circuit)
                    if spec.verify(simplified):
                        circuit = simplified
                best = circuit
    return BenchmarkOutcome(
        spec=spec,
        circuit=best,
        raw_gate_count=raw_count,
        steps=steps,
        elapsed_seconds=elapsed,
        unsound_count=unsound,
    )


def run_table4(
    names: list[str] | None = None,
    options: SynthesisOptions = TABLE4_OPTIONS,
    use_portfolio: bool = True,
    harness: HarnessConfig | None = None,
    limit: int | None = None,
) -> dict[str, BenchmarkOutcome]:
    """Run the benchmark suite (Table IV rows by default).

    Each benchmark is one :func:`~repro.harness.benchmark_task` run by
    :func:`~repro.harness.run_sweep` under ``harness`` (default: inline,
    in order).  A failed task yields an unsolved
    :class:`BenchmarkOutcome` instead of taking the suite down.  A
    benchmark any of whose searches produced an unverified circuit ends
    ``unsound``, with no circuit and a nonzero ``unsound_count``;
    ``harness.strict`` raises on it.
    """
    table = all_benchmarks()
    if names is None:
        names = [name for name in TABLE4 if name in table]
    specs = {name: table[name] for name in names}
    tasks = [
        benchmark_task(name, options, use_portfolio=use_portfolio)
        for name in names
    ]
    outcomes: dict[str, BenchmarkOutcome] = {}

    def on_outcome(task, outcome):
        name = task.payload["name"]
        circuit = (
            load_real(outcome.circuit) if outcome.circuit is not None else None
        )
        stats = outcome.stats or {}
        outcomes[name] = BenchmarkOutcome(
            spec=specs[name],
            circuit=circuit,
            raw_gate_count=outcome.extra.get("raw_gate_count"),
            steps=int(stats.get("steps", 0)),
            elapsed_seconds=float(
                stats.get("elapsed_seconds", outcome.elapsed_seconds)
            ),
            unsound_count=int(outcome.extra.get(
                "unsound_count", outcome.status == STATUS_UNSOUND
            )),
        )

    run_sweep(
        "table4", tasks, config=harness, on_outcome=on_outcome, limit=limit
    )
    return outcomes


def render_table4(outcomes: dict[str, BenchmarkOutcome]) -> str:
    """Render the measured benchmark results next to Table IV."""
    rows = []
    for name, outcome in outcomes.items():
        paper = TABLE4.get(name)
        paper_gates = paper[2] if paper else None
        paper_cost = paper[3] if paper else None
        best_gates = paper[4] if paper else None
        best_cost = paper[5] if paper else None
        library = "NCT" if name in TABLE4_NCT_NAMES else "GT"
        rows.append(
            (
                name,
                outcome.spec.num_lines,
                "unsound" if outcome.unsound_count else outcome.gate_count,
                outcome.quantum_cost,
                paper_gates,
                paper_cost,
                best_gates,
                best_cost,
                library,
                outcome.spec.source,
            )
        )
    return format_table(
        [
            "benchmark", "lines", "gates", "cost",
            "paper gates", "paper cost", "best [13] gates", "best [13] cost",
            "lib", "spec source",
        ],
        rows,
        title="Table IV: reversible logic benchmarks",
    )
