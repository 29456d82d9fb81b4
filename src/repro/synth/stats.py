"""Search statistics and optional trace recording.

:class:`SearchStats` summarizes a run for the experiment tables; the
search writes it directly.  :class:`TraceRecorder` is the observer that
captures the search-tree events needed to regenerate Figs. 5 and 6
(node creation with priorities, pops, pruning decisions, solutions).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from repro.obs.observer import PRUNE_DEPTH, SearchObserver, node_record

__all__ = ["SearchStats", "TraceEvent", "TraceRecorder"]


#: The budget flag each budget-bound finish reason raises.
_BUDGET_FLAGS = {
    "timeout": "timed_out",
    "step_limit": "step_limited",
    "memory_limit": "memory_limited",
    "interrupted": "interrupted",
}


@dataclass
class SearchStats:
    """Counters accumulated over one synthesis run."""

    steps: int = 0
    nodes_created: int = 0
    nodes_expanded: int = 0
    nodes_pruned_depth: int = 0
    children_rejected_growth: int = 0
    children_pruned_greedy: int = 0
    solutions_found: int = 0
    restarts: int = 0
    peak_queue_size: int = 0
    elapsed_seconds: float = 0.0
    initial_terms: int = 0
    timed_out: bool = False
    step_limited: bool = False
    memory_limited: bool = False
    interrupted: bool = False
    visited_overflows: int = 0
    finish_reason: str = ""
    # Hot-operation totals (see repro.perf.hotops), snapshotted from
    # the search's always-on counters just before on_finish fires.
    hot_ops: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Return a plain-dict view for report serialization.

        Derived from the dataclass fields so that newly added counters
        can never silently drop out of experiment reports.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SearchStats":
        """Rebuild stats from an :meth:`as_dict` snapshot (unknown keys
        — e.g. from a newer worker — are ignored)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def finish(self, reason: str) -> None:
        """Record why the run ended, raising its budget flag if any."""
        self.finish_reason = reason
        flag = _BUDGET_FLAGS.get(reason)
        if flag is not None:
            setattr(self, flag, True)

    def merge(self, other: "SearchStats") -> None:
        """Fold another run's counters into this one (fleet totals).

        Additive counters sum, ``peak_queue_size`` takes the max,
        ``initial_terms`` keeps the first non-zero value (every
        portfolio worker starts from the same root), the boolean flags
        OR, and ``hot_ops`` merges key-wise.  ``finish_reason`` is the
        caller's business — it depends on which run won.
        """
        for name in (
            "steps", "nodes_created", "nodes_expanded",
            "nodes_pruned_depth", "children_rejected_growth",
            "children_pruned_greedy", "solutions_found", "restarts",
            "visited_overflows",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.peak_queue_size = max(self.peak_queue_size, other.peak_queue_size)
        self.elapsed_seconds = max(self.elapsed_seconds, other.elapsed_seconds)
        if not self.initial_terms:
            self.initial_terms = other.initial_terms
        for flag in _BUDGET_FLAGS.values():
            setattr(self, flag, getattr(self, flag) or getattr(other, flag))
        for key, value in other.hot_ops.items():
            if isinstance(value, (int, float)):
                self.hot_ops[key] = self.hot_ops.get(key, 0) + value


@dataclass(frozen=True)
class TraceEvent:
    """One search event: ``kind`` is ``create``, ``pop``, ``prune``,
    ``solution``, or ``restart``."""

    kind: str
    node_id: int
    parent_id: int | None
    depth: int
    substitution: str
    terms: int
    elim: int
    priority: float


@dataclass
class TraceRecorder(SearchObserver):
    """Accumulates :class:`TraceEvent` items when tracing is enabled.

    As an observer it records ``pop`` on every step, ``create`` for
    non-root children, ``prune`` only for pop-time depth prunes,
    ``solution``, and ``restart``.
    """

    events: list[TraceEvent] = field(default_factory=list)

    def record(self, kind: str, node, parent=None) -> None:
        """Record one event for ``node``."""
        data = node_record(node)
        self.events.append(
            TraceEvent(
                kind=kind,
                node_id=data["node"],
                parent_id=None if parent is None else parent.node_id,
                depth=data["depth"],
                substitution=data["sub"],
                terms=data["terms"],
                elim=data["elim"],
                priority=data["priority"],
            )
        )

    def on_step(self, step, node, queue_size):
        self.record("pop", node)

    def on_child(self, child, parent):
        if parent is not None:
            self.record("create", child, parent)

    def on_prune(self, node, reason, count=1):
        if reason == PRUNE_DEPTH:
            self.record("prune", node)

    def on_solution(self, node, parent):
        self.record("solution", node, parent)

    def on_restart(self, seed, queue_size):
        self.record("restart", seed)

    def render(self) -> str:
        """Render the trace as the Fig. 5-style narration."""
        lines = []
        for event in self.events:
            if event.kind == "create":
                lines.append(
                    f"  create node {event.node_id} (parent "
                    f"{event.parent_id}, depth {event.depth}): "
                    f"{event.substitution}  [terms={event.terms}, "
                    f"elim={event.elim}, priority={event.priority:.3f}]"
                )
            elif event.kind == "pop":
                lines.append(
                    f"pop node {event.node_id} (depth {event.depth}, "
                    f"priority {event.priority:.3f})"
                )
            elif event.kind == "prune":
                lines.append(
                    f"prune node {event.node_id} (depth {event.depth} "
                    "cannot beat the best solution)"
                )
            elif event.kind == "solution":
                lines.append(
                    f"* solution at node {event.node_id}, depth "
                    f"{event.depth}: {event.substitution}"
                )
            elif event.kind == "restart":
                lines.append(
                    f"restart from first-level node {event.node_id}"
                )
        return "\n".join(lines)

    def to_dot(self, max_nodes: int = 200) -> str:
        """Render the search tree as Graphviz DOT (Fig. 5-style).

        Nodes show the substitution and the (terms, elim, priority)
        triple; solution nodes are doubly circled.  Only the first
        ``max_nodes`` created nodes are drawn to keep the graph
        readable.
        """
        created: dict[int, TraceEvent] = {}
        solutions: set[int] = set()
        for event in self.events:
            if event.kind == "create" and event.node_id not in created:
                if len(created) < max_nodes:
                    created[event.node_id] = event
            elif event.kind == "solution":
                solutions.add(event.node_id)
                if event.node_id not in created and len(created) < max_nodes:
                    created[event.node_id] = event

        lines = ["digraph search {", "  rankdir=TB;", '  node [shape=box];']
        lines.append(
            '  n0 [label="root", shape=ellipse];'
        )
        for node_id, event in created.items():
            shape = ", peripheries=2" if node_id in solutions else ""
            label = (
                f"{event.substitution}\\nterms={event.terms} "
                f"elim={event.elim}\\npriority={event.priority:.2f}"
            )
            lines.append(f'  n{node_id} [label="{label}"{shape}];')
            # Only draw edges whose tail is itself drawn: a node kept
            # via the solution branch can have a parent that fell past
            # the max_nodes cut, and DOT would invent an unlabeled node
            # for the dangling reference.
            if event.parent_id is not None and (
                event.parent_id == 0 or event.parent_id in created
            ):
                lines.append(f"  n{event.parent_id} -> n{node_id};")
        lines.append("}")
        return "\n".join(lines)
