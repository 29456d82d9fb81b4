"""Generalized Toffoli gates (Sec. II-B).

``TOFn(x1, ..., x_{n-1}, x_n)`` passes its first ``n - 1`` inputs (the
control bits) through unchanged and inverts the last (the target) iff
all controls are 1 — equation (1).  ``TOF1`` is NOT, ``TOF2`` is CNOT
(Feynman).  A gate is stored as ``(controls mask, target index)``; the
target may not be a control.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from repro.pprm.term import format_term, variable_index, variable_name
from repro.utils.bitops import bit, indices_of, popcount

__all__ = ["ToffoliGate", "not_gate", "cnot", "toffoli"]


class ToffoliGate:
    """An n-bit generalized Toffoli gate.

    Immutable and hashable; equality is structural.  The gate's *size*
    is ``popcount(controls) + 1`` (controls plus target), matching the
    paper's ``TOFn`` naming and the quantum-cost table indexing.
    """

    __slots__ = ("_controls", "_target")

    def __init__(self, controls: int, target: int):
        if target < 0:
            raise ValueError(f"target index must be non-negative, got {target}")
        if controls < 0:
            raise ValueError("controls mask must be non-negative")
        if controls & bit(target):
            raise ValueError(
                f"line {variable_name(target)} cannot be both control and target"
            )
        self._controls = controls
        self._target = target

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_names(cls, *names: str) -> "ToffoliGate":
        """Build a gate from the paper's notation: ``TOF3(c, a, b)`` is
        ``ToffoliGate.from_names("c", "a", "b")`` (last name = target)."""
        if not names:
            raise ValueError("a Toffoli gate needs at least a target")
        *control_names, target_name = names
        controls = 0
        for name in control_names:
            controls |= bit(variable_index(name))
        return cls(controls, variable_index(target_name))

    # -- queries ---------------------------------------------------------------

    @property
    def controls(self) -> int:
        """Mask of control lines."""
        return self._controls

    @property
    def target(self) -> int:
        """Index of the target line."""
        return self._target

    @property
    def size(self) -> int:
        """Gate size ``n`` of ``TOFn`` (number of involved lines)."""
        return popcount(self._controls) + 1

    @property
    def lines(self) -> int:
        """Mask of all lines the gate touches."""
        return self._controls | bit(self._target)

    def is_not(self) -> bool:
        """True for a 1-bit Toffoli (NOT) gate."""
        return self._controls == 0

    def is_cnot(self) -> bool:
        """True for a 2-bit Toffoli (CNOT/Feynman) gate."""
        return popcount(self._controls) == 1

    def min_lines(self) -> int:
        """Smallest circuit width that can host this gate."""
        return max(self.lines.bit_length(), self._target + 1)

    # -- semantics ----------------------------------------------------------------

    def apply(self, assignment: int) -> int:
        """Apply the gate to an input assignment.

        Toffoli gates are self-inverse, so this is also the inverse map.
        """
        if assignment & self._controls == self._controls:
            return assignment ^ bit(self._target)
        return assignment

    def inverse(self) -> "ToffoliGate":
        """Return the inverse gate (Toffoli gates are involutions)."""
        return self

    def commutes_with(self, other: "ToffoliGate") -> bool:
        """True if the two gates can be swapped in a cascade.

        Sufficient conditions used by the template simplifier: the gates
        trivially commute when neither target lies on the other gate's
        lines, and also when they share the same target (XORs on the same
        line commute).
        """
        if self._target == other._target:
            return True
        self_hits_other = bool(bit(self._target) & other._controls)
        other_hits_self = bool(bit(other._target) & self._controls)
        return not (self_hits_other or other_hits_self)

    # -- dunder ------------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ToffoliGate):
            return NotImplemented
        return self._controls == other._controls and self._target == other._target

    def __hash__(self) -> int:
        return hash((self._controls, self._target))

    def __repr__(self) -> str:
        return f"ToffoliGate(controls={self._controls:#x}, target={self._target})"

    def __str__(self) -> str:
        return _paper_notation(self._controls, self._target)

    def factor_string(self) -> str:
        """Render the gate as its substitution, e.g. ``b = b + ac``."""
        target = variable_name(self._target)
        return f"{target} = {target} + {format_term(self._controls)}"


@lru_cache(maxsize=4096)
def _paper_notation(controls: int, target: int) -> str:
    """``TOFn(controls..., target)``, memoized: circuits are printed
    gate by gate, and the same few gates recur."""
    names = [variable_name(i) for i in indices_of(controls)]
    names.append(variable_name(target))
    return f"TOF{popcount(controls) + 1}({', '.join(names)})"


def not_gate(target: int) -> ToffoliGate:
    """Return the NOT (1-bit Toffoli) gate on ``target``."""
    return ToffoliGate(0, target)


def cnot(control: int, target: int) -> ToffoliGate:
    """Return the CNOT (Feynman) gate."""
    return ToffoliGate(bit(control), target)


def toffoli(controls: Sequence[int], target: int) -> ToffoliGate:
    """Return a generalized Toffoli gate from control indices."""
    mask = 0
    for control in controls:
        mask |= bit(control)
    return ToffoliGate(mask, target)
