"""Search-tree nodes (Fig. 4, lines 5-11 and 22-27).

A node records the substitution that produced it (``target``,
``factor``), its ``depth`` (= gates so far), the resulting search
state, and the bookkeeping quantities ``terms`` and ``elim``.  The
state is the engine's raw form of the PPRM system
(:mod:`repro.pprm.engine`): a tuple of per-output values, or one int
on the lane engine.  Following the memory optimization of Sec. IV-C, a
node's state is released once the node has been expanded — only leaves
(queue candidates) hold expansions, interior nodes keep just their
substitution.
"""

from __future__ import annotations

from repro.gates.toffoli import ToffoliGate
from repro.pprm.term import format_term, variable_name

__all__ = ["SearchNode"]


class SearchNode:
    """One node of the RMRLS search tree."""

    __slots__ = (
        "parent",
        "depth",
        "progress_depth",
        "target",
        "factor",
        "state",
        "terms",
        "elim",
        "priority",
        "node_id",
    )

    def __init__(
        self,
        parent: "SearchNode | None",
        target: int | None,
        factor: int | None,
        state,
        terms: int,
        elim: int,
        priority: float,
        node_id: int,
    ):
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        # Number of term-decreasing substitutions along the path (used
        # by the progress-depth priority; see SynthesisOptions).
        if parent is None:
            self.progress_depth = 0
        else:
            self.progress_depth = parent.progress_depth + (1 if elim > 0 else 0)
        self.target = target
        self.factor = factor
        self.state = state
        self.terms = terms
        self.elim = elim
        self.priority = priority
        self.node_id = node_id

    @classmethod
    def root(cls, state, terms: int, node_id: int = 0) -> "SearchNode":
        """Create the root node (Fig. 4, lines 5-11) for ``state``,
        which has ``terms`` terms."""
        return cls(
            parent=None,
            target=None,
            factor=None,
            state=state,
            terms=terms,
            elim=0,
            priority=float("inf"),
            node_id=node_id,
        )

    def is_root(self) -> bool:
        """True for the search-tree root."""
        return self.parent is None

    def release_state(self) -> None:
        """Drop the search state (Sec. IV-C memory optimization)."""
        if not self.is_root():
            self.state = None

    def gate(self) -> ToffoliGate:
        """The Toffoli gate of this node's substitution."""
        if self.is_root():
            raise ValueError("the root node carries no substitution")
        return ToffoliGate(self.factor, self.target)

    def gate_sequence(self) -> list[ToffoliGate]:
        """Gates along the root-to-this-node path, in circuit order.

        The path spells the synthesized cascade: the substitution at
        depth 1 is the gate closest to the circuit inputs.
        """
        gates: list[ToffoliGate] = []
        node: SearchNode | None = self
        while node is not None and not node.is_root():
            gates.append(node.gate())
            node = node.parent
        gates.reverse()
        return gates

    def substitution_string(self) -> str:
        """Human-readable substitution, e.g. ``b = b + ac``."""
        if self.is_root():
            return "(root)"
        name = variable_name(self.target)
        return f"{name} = {name} + {format_term(self.factor)}"

    def __repr__(self) -> str:
        return (
            f"SearchNode(id={self.node_id}, depth={self.depth}, "
            f"sub={self.substitution_string()!r}, terms={self.terms}, "
            f"elim={self.elim}, priority={self.priority:.4f})"
        )
