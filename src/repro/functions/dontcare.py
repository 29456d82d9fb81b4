"""Don't-care-aware embedding search — the paper's future-work item.

Sec. VI: "We are also working on ways to efficiently synthesize
functions with 'don't cares.'  We currently preassign values to 'don't
care' outputs.  It would be better if we could find a way to
dynamically assign these values during synthesis."

An irreversible specification leaves two kinds of freedom: the garbage
word attached to each care row, and the images of the don't-care rows
(constant inputs not all 0).  Instead of one fixed preassignment, this
module enumerates a portfolio of deterministic embedding strategies and
synthesizes each, keeping the best circuit — a practical middle ground
between the paper's static preassignment and fully dynamic assignment.
The effect is large: on the paper's own full-adder, the strategies
range from 4 gates (the Fig. 2(b)-style input-copy garbage with
xor-block don't-cares) to 106 (first-fit/descending), see
``tests/test_ablations.py``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.functions.embedding import Embedding, embed
from repro.functions.permutation import Permutation
from repro.functions.truth_table import TruthTable

if TYPE_CHECKING:  # avoid functions -> circuits -> functions cycles
    from repro.circuits.circuit import Circuit
    from repro.synth.options import SynthesisOptions

__all__ = [
    "EmbeddingStrategy",
    "candidate_embeddings",
    "synthesize_with_dont_cares",
    "DontCareResult",
]


@dataclass(frozen=True)
class EmbeddingStrategy:
    """One deterministic preassignment recipe.

    Either a ``garbage`` chooser combined with one of
    :func:`~repro.functions.embedding.embed`'s spare orders, or a fully
    custom ``builder``.
    """

    name: str
    garbage: Callable[[TruthTable], Callable[[int], int] | None] | None = None
    spare_order: str = "ascending"
    builder: Callable[[TruthTable], "Embedding | None"] | None = None

    def apply(self, table: TruthTable) -> Embedding | None:
        """Embed ``table`` with this strategy; ``None`` when the
        strategy's choices collide (not every table can copy its
        inputs into the garbage bits, for instance)."""
        try:
            if self.builder is not None:
                return self.builder(table)
            chooser = self.garbage(table) if self.garbage else None
            return embed(
                table,
                garbage=chooser,
                spare_order=self.spare_order,
            )
        except ValueError:
            return None


def _first_fit(_table: TruthTable):
    return None  # embed()'s default counter-based assignment


def _input_copy_low(table: TruthTable):
    from repro.functions.embedding import required_garbage_outputs

    garbage_bits = max(
        required_garbage_outputs(table),
        table.num_inputs - table.num_outputs,
    )
    if garbage_bits <= 0:
        return None
    mask = (1 << garbage_bits) - 1

    def garbage(assignment: int) -> int:
        return assignment & mask

    return garbage


def _input_copy_high(table: TruthTable):
    from repro.functions.embedding import required_garbage_outputs

    garbage_bits = max(
        required_garbage_outputs(table),
        table.num_inputs - table.num_outputs,
    )
    if garbage_bits <= 0:
        return None
    shift = max(table.num_inputs - garbage_bits, 0)
    mask = (1 << garbage_bits) - 1

    def garbage(assignment: int) -> int:
        return (assignment >> shift) & mask

    return garbage


def _xor_block_builder(garbage_chooser):
    """Fig. 2(b)-style completion: the don't-care block with constant
    word ``c`` copies the care block's images XOR ``c`` shifted into
    the top output bits.  Bijectivity is not guaranteed for every
    table (it requires the care images to hit exactly one word of each
    XOR coset), so the builder returns ``None`` on collision."""

    def build(table: TruthTable) -> Embedding | None:
        base = embed(table, garbage=garbage_chooser(table))
        num_lines = base.num_lines
        num_constants = base.num_constant_inputs
        if num_constants == 0:
            return base
        care_rows = 1 << table.num_inputs
        shift = num_lines - num_constants
        images = list(base.permutation.images[:care_rows])
        for constants in range(1, 1 << num_constants):
            key = constants << shift
            images.extend(word ^ key for word in images[:care_rows])
        try:
            return Embedding(
                permutation=Permutation(tuple(images)),
                table=table,
                num_garbage_outputs=base.num_garbage_outputs,
                num_constant_inputs=num_constants,
            )
        except ValueError:
            return None

    return build


#: The default strategy portfolio, ordered cheap-to-try first.
DEFAULT_STRATEGIES: tuple[EmbeddingStrategy, ...] = (
    EmbeddingStrategy("input-copy-low", _input_copy_low),
    EmbeddingStrategy("input-copy-high", _input_copy_high),
    EmbeddingStrategy(
        "input-copy-low/xor-block",
        builder=_xor_block_builder(_input_copy_low),
    ),
    EmbeddingStrategy(
        "first-fit/xor-block", builder=_xor_block_builder(_first_fit)
    ),
    EmbeddingStrategy("first-fit", _first_fit),
    EmbeddingStrategy("first-fit/descending", _first_fit, "descending"),
    EmbeddingStrategy("first-fit/gray", _first_fit, "gray"),
    EmbeddingStrategy("input-copy-low/gray", _input_copy_low, "gray"),
)


def candidate_embeddings(
    table: TruthTable,
    strategies: tuple[EmbeddingStrategy, ...] = DEFAULT_STRATEGIES,
) -> Iterator[tuple[EmbeddingStrategy, Embedding]]:
    """Yield the distinct embeddings the strategy portfolio produces."""
    seen: set[tuple[int, ...]] = set()
    for strategy in strategies:
        embedding = strategy.apply(table)
        if embedding is None:
            continue
        key = embedding.permutation.images
        if key in seen:
            continue
        seen.add(key)
        yield strategy, embedding


@dataclass
class DontCareResult:
    """Outcome of the embedding-portfolio synthesis."""

    circuit: "Circuit | None"
    embedding: Embedding | None
    strategy: EmbeddingStrategy | None
    attempts: list[tuple[str, int | None]]

    @property
    def solved(self) -> bool:
        """True when some strategy produced a circuit."""
        return self.circuit is not None


def synthesize_with_dont_cares(
    table: TruthTable,
    options: "SynthesisOptions | None" = None,
    strategies: tuple[EmbeddingStrategy, ...] = DEFAULT_STRATEGIES,
) -> DontCareResult:
    """Embed-and-synthesize under every strategy; keep the best circuit.

    Every returned circuit is verified against its embedding (and hence
    restricts to ``table`` on the care rows).
    """
    from repro.synth.options import SynthesisOptions
    from repro.synth.rmrls import synthesize

    if options is None:
        options = SynthesisOptions(dedupe_states=True, max_steps=30_000)
    best_circuit = None
    best_embedding: Embedding | None = None
    best_strategy: EmbeddingStrategy | None = None
    attempts: list[tuple[str, int | None]] = []
    for strategy, embedding in candidate_embeddings(table, strategies):
        result = synthesize(embedding.permutation, options)
        if result.circuit is None:
            attempts.append((strategy.name, None))
            continue
        if not result.circuit.implements(embedding.permutation):
            raise AssertionError(
                f"unsound circuit under strategy {strategy.name}"
            )
        attempts.append((strategy.name, result.circuit.gate_count()))
        if (
            best_circuit is None
            or result.circuit.gate_count() < best_circuit.gate_count()
        ):
            best_circuit = result.circuit
            best_embedding = embedding
            best_strategy = strategy
    return DontCareResult(
        circuit=best_circuit,
        embedding=best_embedding,
        strategy=best_strategy,
        attempts=attempts,
    )
