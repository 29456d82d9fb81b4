"""The search-observer protocol and its built-in implementations.

:class:`~repro.synth.rmrls._Search` keeps its own
:class:`~repro.synth.stats.SearchStats` counters and reports every
notable search event through at most one observer object: the Fig. 5
:class:`~repro.synth.stats.TraceRecorder` when ``record_trace`` is set,
plus any observers attached via ``SynthesisOptions.observers``
(metrics, JSONL, progress, flight), fanned out by
:class:`MultiObserver`.  With neither, the search makes no observer
call at all.  Every sink that records a node takes its fields from
:func:`node_record`.

Callback contract (all are no-ops on the base class):

``on_step(step, node, queue_size)``
    One loop iteration: ``node`` was popped from the priority queue.
``on_expand(parent)``
    ``node``'s substitutions are about to be enumerated.
``on_child(child, parent)``
    A :class:`~repro.synth.node.SearchNode` was created and accepted.
    The root is reported once with ``parent=None``.
``on_prune(node, reason, count=1)``
    Work was discarded.  ``reason`` is one of the ``PRUNE_*`` constants
    below; for :data:`PRUNE_CHILD_DEPTH`, :data:`PRUNE_LOWER_BOUND`,
    and :data:`PRUNE_GROWTH` the child node was never built, so
    ``node`` is the *parent* being expanded.
``on_solution(node, parent)``
    ``node`` reaches the identity and improves on the best solution.
``on_restart(seed, queue_size)``
    The Sec. IV-E restart heuristic reseeded the queue.
``on_queue(size)``
    The queue size changed (push, or clear on a restart path).
``on_finish(reason, stats)``
    The run ended; ``reason`` is one of ``identity``, ``solved``,
    ``queue_exhausted``, ``timeout``, ``step_limit``,
    ``memory_limit``, or ``interrupted``.
"""

from __future__ import annotations

__all__ = [
    "SearchObserver",
    "NullObserver",
    "MultiObserver",
    "node_record",
    "PRUNE_DEPTH",
    "PRUNE_CHILD_DEPTH",
    "PRUNE_LOWER_BOUND",
    "PRUNE_GROWTH",
    "PRUNE_GREEDY",
    "FINISH_REASONS",
]

#: A popped node was discarded because its depth cannot beat the best
#: solution (Fig. 4 line 16).
PRUNE_DEPTH = "depth"
#: A candidate child was dropped at creation time for the same depth
#: bound (saves queue traffic; the child node is never built).
PRUNE_CHILD_DEPTH = "child_depth"
#: A candidate child was dropped by the admissible lower bound
#: (depth + unsolved outputs >= best depth).
PRUNE_LOWER_BOUND = "lower_bound"
#: A non-decreasing candidate was rejected by the Fig. 4 line 31 rule.
PRUNE_GROWTH = "growth"
#: A built child was dropped by Sec. IV-E greedy per-variable pruning.
PRUNE_GREEDY = "greedy"

#: Valid ``reason`` values for :meth:`SearchObserver.on_finish`.
FINISH_REASONS = (
    "identity",
    "solved",
    "queue_exhausted",
    "timeout",
    "step_limit",
    "memory_limit",
    "interrupted",
)


class SearchObserver:
    """Base observer: every callback is a no-op.

    Subclass and override only the callbacks you need; the search
    calls every callback on whatever single observer it holds.
    """

    def on_step(self, step: int, node, queue_size: int) -> None:
        """One search-loop iteration; ``node`` was popped."""

    def on_expand(self, parent) -> None:
        """``parent`` is about to be expanded."""

    def on_child(self, child, parent) -> None:
        """``child`` was created (``parent is None`` for the root)."""

    def on_prune(self, node, reason: str, count: int = 1) -> None:
        """``count`` units of work discarded for ``reason``."""

    def on_solution(self, node, parent) -> None:
        """``node`` is a new best solution."""

    def on_restart(self, seed, queue_size: int) -> None:
        """The queue was reseeded from first-level node ``seed``."""

    def on_queue(self, size: int) -> None:
        """The priority queue now holds ``size`` nodes."""

    def on_finish(self, reason: str, stats) -> None:
        """The run ended with ``reason`` (see :data:`FINISH_REASONS`)."""


def node_record(node) -> dict:
    """The fields every event sink records for ``node``."""
    return {
        "node": node.node_id,
        "depth": node.depth,
        "terms": node.terms,
        "elim": node.elim,
        "priority": node.priority,
        "sub": node.substitution_string(),
    }


class NullObserver(SearchObserver):
    """An explicitly zero-overhead observer (all callbacks inherited
    no-ops); useful as a placeholder and in overhead tests."""


#: Every callback of the observer protocol, in declaration order.
_EVENTS = (
    "on_step", "on_expand", "on_child", "on_prune", "on_solution",
    "on_restart", "on_queue", "on_finish",
)


def _noop(*_args, **_kwargs) -> None:
    """Shared no-op for events none of the fanned-out observers handle."""


def _fan_out(handlers, name):
    """A dispatcher calling ``name`` on each of ``handlers``, in order."""
    methods = tuple(getattr(handler, name) for handler in handlers)

    def dispatch(*args):
        for method in methods:
            method(*args)

    return dispatch


class MultiObserver(SearchObserver):
    """Fan one event stream out to several observers, in order.

    Dispatch is specialized per event at construction time, because the
    search fires ``on_child``/``on_prune``/``on_queue`` hundreds of
    thousands of times per second and a naive fan-out loop over
    observers that mostly inherit the base no-ops costs ~10% of the
    whole search, measured as a traced against an untraced search.
    Events nobody overrides get a shared no-op; events exactly one
    observer overrides are bound straight to that observer's method (as
    cheap as having that observer installed alone); only genuinely
    shared events pay the loop.
    """

    # The event slots shadow the inherited base-class methods, so every
    # one of them must be assigned in ``__init__``.
    __slots__ = ("observers",) + _EVENTS

    def __init__(self, observers):
        self.observers = tuple(observers)
        base = SearchObserver
        for name in _EVENTS:
            handlers = tuple(
                observer for observer in self.observers
                if getattr(type(observer), name) is not getattr(base, name)
            )
            if not handlers:
                setattr(self, name, _noop)
            elif len(handlers) == 1:
                setattr(self, name, getattr(handlers[0], name))
            else:
                setattr(self, name, _fan_out(handlers, name))
