"""Regeneration of the paper's figures.

* Fig. 1 / Fig. 3(d): the running example's truth table, PPRM (eq. 3),
  and three-gate circuit;
* Fig. 2 / Fig. 8: the augmented full-adder, its reversible embedding,
  and the four-gate realization;
* Fig. 5 / Fig. 6: the search-tree trace for the running example, with
  the basic and the extended substitution sets;
* Fig. 7: the Example 1 realization;
* Fig. 9: the alu control table and its reversible specification.

Each ``figure*`` function returns the rendered text; the figures bench
prints them and checks the quantitative facts (gate counts, PPRM
shapes) against the paper.
"""

from __future__ import annotations

from repro.benchlib.specs import benchmark
from repro.circuits.drawing import draw_circuit
from repro.functions.embedding import embed
from repro.functions.truth_table import TruthTable
from repro.pprm.parser import format_system
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import SynthesisResult, synthesize

__all__ = [
    "figure1_and_3d",
    "figure2_and_8",
    "figure5_trace",
    "figure6_substitutions",
    "figure7_example1",
    "figure9_alu",
    "full_adder_table",
]


def _synthesize_spec(name: str) -> SynthesisResult:
    result = synthesize(
        benchmark(name).pprm(),
        SynthesisOptions(dedupe_states=True, max_steps=40_000),
    )
    if result.circuit is None:
        raise AssertionError(f"figure benchmark {name} failed to synthesize")
    return result


def figure1_and_3d() -> str:
    """The running example: spec, PPRM (eq. 3), and circuit Fig. 3(d)."""
    spec = benchmark("fig1")
    result = _synthesize_spec("fig1")
    lines = [
        "Fig. 1 specification: " + str(spec.permutation),
        "",
        "PPRM expansion (paper eq. (3)):",
        format_system(spec.permutation.to_pprm()),
        "",
        f"Fig. 3(d) circuit ({result.circuit.gate_count()} gates):",
        str(result.circuit),
        "",
        draw_circuit(result.circuit),
    ]
    return "\n".join(lines)


def full_adder_table() -> TruthTable:
    """Fig. 2(a): carry / sum / propagate of a full adder.

    Outputs (bit 2 down to bit 0): carry, sum, propagate.
    """
    def row(m: int) -> int:
        a = m & 1
        b = m >> 1 & 1
        c = m >> 2 & 1
        carry = 1 if a + b + c >= 2 else 0
        total = (a + b + c) & 1
        propagate = a ^ b
        return (carry << 2) | (total << 1) | propagate

    return TruthTable.from_function(3, 3, row)


def figure2_and_8() -> str:
    """The augmented full-adder: embedding (Fig. 2(b)) and circuit
    (Fig. 8)."""
    table = full_adder_table()
    embedding = embed(table)
    paper_spec = benchmark("adder")
    result = synthesize(
        paper_spec.pprm(), SynthesisOptions(dedupe_states=True, max_steps=40_000)
    )
    lines = [
        "Fig. 2(a): augmented full-adder (carry, sum, propagate) — "
        f"irreversible, p = {table.max_output_multiplicity()} repeated "
        "output rows",
        f"our embedding: {embedding.num_garbage_outputs} garbage output(s), "
        f"{embedding.num_constant_inputs} constant input(s), "
        f"{embedding.num_lines} lines "
        f"(restricts to the adder: {embedding.restricts_to_table()})",
        "paper's embedding (Fig. 2(b)): " + str(paper_spec.permutation),
        "",
        f"Fig. 8 circuit ({result.circuit.gate_count()} gates): "
        f"{result.circuit}",
        "",
        draw_circuit(result.circuit),
    ]
    return "\n".join(lines)


def figure5_trace(max_events: int = 60) -> str:
    """Fig. 5: the priority-queue search trace on the running example."""
    result = synthesize(
        benchmark("fig1").pprm(),
        SynthesisOptions(
            extended_substitutions=False,
            complement_substitutions=False,
            growth_exempt_literals=-1,
            record_trace=True,
        ),
    )
    trace = result.trace.render().splitlines()
    clipped = trace[:max_events]
    if len(trace) > max_events:
        clipped.append(f"... ({len(trace) - max_events} more events)")
    return "Fig. 5 search trace (basic substitutions):\n" + "\n".join(clipped)


def figure6_substitutions() -> str:
    """Fig. 6: the first-level substitutions with the Sec. IV-D
    extensions enabled."""
    from repro.synth.substitutions import enumerate_substitutions
    from repro.synth.options import SynthesisOptions as Options
    from repro.synth.node import SearchNode

    system = benchmark("fig1").pprm()
    basic = enumerate_substitutions(
        system,
        Options(extended_substitutions=False, complement_substitutions=False),
    )
    extended = enumerate_substitutions(system, Options())
    root = SearchNode.root(system.dedupe_key(), system.term_count())

    def describe(candidates):
        labels = []
        for candidate in candidates:
            node = SearchNode(
                parent=root,
                target=candidate.target,
                factor=candidate.factor,
                state=None,
                terms=0,
                elim=0,
                priority=0.0,
                node_id=0,
            )
            labels.append(node.substitution_string())
        return labels

    lines = ["Fig. 6: first-level substitutions for the running example", ""]
    lines.append("basic (Sec. IV-A): " + ", ".join(describe(basic)))
    lines.append("extended (Sec. IV-D): " + ", ".join(describe(extended)))
    return "\n".join(lines)


def figure7_example1() -> str:
    """Fig. 7: the four-gate realization of Example 1."""
    result = _synthesize_spec("example1")
    return (
        f"Fig. 7: Example 1 circuit ({result.circuit.gate_count()} gates): "
        f"{result.circuit}\n\n{draw_circuit(result.circuit)}"
    )


def figure9_alu() -> str:
    """Fig. 9: the alu control table and its reversible spec."""
    spec = benchmark("alu")
    operations = [
        "1", "A + B", "A' + B'", "A xor B",
        "(A xor B)'", "A . B", "A' . B'", "0",
    ]
    lines = ["Fig. 9: alu Boolean specification", "C0 C1 C2 | F"]
    for selector, operation in enumerate(operations):
        c0 = selector >> 2 & 1
        c1 = selector >> 1 & 1
        c2 = selector & 1
        lines.append(f" {c0}  {c1}  {c2} | {operation}")
    lines.append("")
    lines.append("reversible specification: " + str(spec.permutation))
    return "\n".join(lines)
