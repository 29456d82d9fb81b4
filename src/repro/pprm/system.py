"""Multi-output PPRM systems — the state of the RMRLS search.

A :class:`PPRMSystem` holds one :class:`~repro.pprm.expansion.Expansion`
per output variable ``v_out,i`` (each written over the input variables).
The search applies substitutions ``v_i := v_i XOR factor`` to all
outputs at once (one Toffoli gate acts on the whole bus) and terminates
when the system equals the identity, ``v_out,i = v_i`` for every ``i``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.pprm.expansion import Expansion
from repro.pprm.term import variable_name
from repro.pprm.transform import (
    expansion_to_truth_vector,
    truth_vector_to_expansion,
)

__all__ = ["PPRMSystem"]


class PPRMSystem:
    """An immutable tuple of per-output PPRM expansions.

    The number of outputs always equals the number of input variables
    (reversible functions are square), and output ``i`` corresponds to
    input variable ``i``.
    """

    __slots__ = ("_outputs",)

    def __init__(self, outputs: Sequence[Expansion]):
        self._outputs = tuple(outputs)
        if not self._outputs:
            raise ValueError("a PPRM system needs at least one output")

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, num_vars: int) -> "PPRMSystem":
        """Return the identity system ``v_out,i = v_i``."""
        return cls([Expansion.variable(i) for i in range(num_vars)])

    @classmethod
    def from_permutation(cls, images: Sequence[int]) -> "PPRMSystem":
        """Build the PPRM system of a reversible specification.

        ``images[m]`` is the output assignment for input assignment
        ``m``; bit ``i`` of each integer is variable ``i``.  The
        bijectivity of ``images`` is *not* checked here (use
        :class:`repro.functions.Permutation` for validated
        specifications) so that experiment code can also expand
        non-bijective systems for analysis.
        """
        size = len(images)
        num_vars = (size - 1).bit_length()
        if size != 1 << num_vars or size < 2:
            raise ValueError(f"specification length must be a power of two >= 2")
        outputs = []
        for index in range(num_vars):
            vector = [images[m] >> index & 1 for m in range(size)]
            outputs.append(truth_vector_to_expansion(vector))
        return cls(outputs)

    # -- queries -----------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of input variables (equals the number of outputs)."""
        return len(self._outputs)

    @property
    def outputs(self) -> tuple[Expansion, ...]:
        """The per-output expansions, indexed by output variable."""
        return self._outputs

    def output(self, index: int) -> Expansion:
        """Return the expansion of output variable ``index``."""
        return self._outputs[index]

    @property
    def engine(self):
        """The reference :class:`~repro.pprm.engine.PPRMEngine`, whose
        state is this system's :meth:`dedupe_key` (the search picks
        its own engine from the width)."""
        from repro.pprm.engine import ENGINES

        return ENGINES["reference"]

    def dedupe_key(self) -> tuple:
        """Canonical hashable identity: one term frozenset per output."""
        return tuple(output.dedupe_key() for output in self._outputs)

    def term_count(self) -> int:
        """Total number of terms across all outputs (the paper's
        ``terms`` node field)."""
        return sum(len(expansion) for expansion in self._outputs)

    def is_identity(self) -> bool:
        """Return ``True`` when every output equals its own variable."""
        return all(
            expansion.is_variable(index)
            for index, expansion in enumerate(self._outputs)
        )

    def solved_outputs(self) -> int:
        """Return how many outputs already equal their own variable."""
        return sum(
            1
            for index, expansion in enumerate(self._outputs)
            if expansion.is_variable(index)
        )

    # -- search operations ---------------------------------------------------

    def substitute(self, index: int, factor: int) -> "PPRMSystem":
        """Apply ``v_index := v_index XOR factor`` to every output.

        This is the algebraic effect of composing the specification with
        a Toffoli gate whose target is ``v_index`` and whose controls are
        the literals of ``factor``.
        """
        return PPRMSystem(
            [expansion.substitute(index, factor) for expansion in self._outputs]
        )

    # -- conversions -----------------------------------------------------------

    def to_images(self) -> list[int]:
        """Evaluate the system on every assignment.

        Returns the ``images`` list such that ``images[m]`` is the output
        assignment for input ``m`` (the inverse of
        :meth:`from_permutation` for reversible systems).
        """
        size = 1 << self.num_vars
        images = [0] * size
        for index, expansion in enumerate(self._outputs):
            vector = expansion_to_truth_vector(expansion, self.num_vars)
            for m in range(size):
                images[m] |= vector[m] << index
        return images

    def evaluate(self, assignment: int) -> int:
        """Return the output assignment for one input assignment."""
        result = 0
        for index, expansion in enumerate(self._outputs):
            result |= expansion.evaluate(assignment) << index
        return result

    # -- dunder -------------------------------------------------------------------

    def __iter__(self) -> Iterator[Expansion]:
        return iter(self._outputs)

    def __len__(self) -> int:
        return len(self._outputs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PPRMSystem):
            return NotImplemented
        return self._outputs == other._outputs

    def __hash__(self) -> int:
        return hash(self._outputs)

    def __str__(self) -> str:
        lines = []
        for index in reversed(range(self.num_vars)):
            name = variable_name(index)
            lines.append(f"{name}_out = {self._outputs[index]}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        body = ", ".join(repr(str(expansion)) for expansion in self._outputs)
        return f"PPRMSystem([{body}])"
