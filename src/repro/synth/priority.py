"""The node priority function — equation (4) of the paper.

``priority = alpha*depth + beta*elim/depth - gamma*literalCount``

* the ``alpha`` term biases toward deeper nodes (depth-first flavour);
* the ``beta`` term rewards terms eliminated per stage — the primary
  objective of minimizing gate count;
* the ``gamma`` term penalizes wide factors — the secondary objective of
  minimizing control-bit counts.

The paper settled on ``(0.3, 0.6, 0.1)`` "after careful
experimentation"; the ablation bench sweeps these weights.
"""

from __future__ import annotations

from repro.synth.options import SynthesisOptions

__all__ = ["node_priority", "MaxPriorityQueue"]

import heapq


def node_priority(
    depth: int, elim: int, literal_count: int, options: SynthesisOptions
) -> float:
    """Evaluate equation (4) for a child node.

    ``depth`` is the child's depth (>= 1, so the division is safe);
    ``elim`` is the cumulative term change of this substitution;
    ``literal_count`` counts the factor's literals (= control bits).
    """
    if depth < 1:
        raise ValueError("child nodes have depth >= 1")
    return (
        options.alpha * depth
        + options.beta * elim / depth
        - options.gamma * literal_count
    )


class MaxPriorityQueue:
    """A max-heap of search nodes keyed by priority (Fig. 4's ``PQ``).

    Ties break FIFO via a monotone counter so that runs are
    deterministic.
    """

    __slots__ = ("_heap", "_counter")

    def __init__(self):
        self._heap: list[tuple[float, int, object]] = []
        self._counter = 0

    def push(self, node) -> None:
        """Insert ``node`` keyed by ``node.priority``."""
        heapq.heappush(self._heap, (-node.priority, self._counter, node))
        self._counter += 1

    def extend(self, nodes) -> None:
        """Insert each of ``nodes`` in order, as repeated :meth:`push`."""
        heap = self._heap
        counter = self._counter
        for node in nodes:
            heapq.heappush(heap, (-node.priority, counter, node))
            counter += 1
        self._counter = counter

    def pop(self):
        """Remove and return the highest-priority node."""
        if not self._heap:
            raise IndexError("pop from an empty priority queue")
        return heapq.heappop(self._heap)[2]

    def peek(self):
        """Return the highest-priority node without removing it."""
        if not self._heap:
            raise IndexError("peek at an empty priority queue")
        return self._heap[0][2]

    def clear(self) -> None:
        """Drop all queued nodes (used by the restart heuristic)."""
        self._heap.clear()

    def is_empty(self) -> bool:
        """True when no candidates remain (Fig. 4 line 34)."""
        return not self._heap

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
