"""Streaming emission: JSONL event traces and periodic progress records.

:class:`JsonlTraceObserver` writes one append-log line
(:mod:`repro.applog`) per search event, suitable for ``jq``/pandas
post-processing of full search runs (unlike
:class:`~repro.synth.stats.TraceRecorder`, nothing is retained in
memory).  :class:`ProgressObserver` writes a steps/sec status line
every N steps.
"""

from __future__ import annotations

import sys
import time

from repro.applog import encode_line
from repro.obs.observer import SearchObserver, node_record

__all__ = ["JSONL_SCHEMA_VERSION", "JsonlTraceObserver", "ProgressObserver"]

#: Version stamped into every JSONL record (``"v"`` key).  Bump when a
#: record's keys change meaning; adding keys is backward compatible.
JSONL_SCHEMA_VERSION = 1


def _node_fields(node) -> dict:
    fields = node_record(node)
    priority = fields["priority"]
    fields["priority"] = (
        None if priority == float("inf") else round(priority, 6)
    )
    return fields


class JsonlTraceObserver(SearchObserver):
    """Stream one JSON object per event to a file-like object.

    Construct with an open text stream, or use :meth:`open` with a
    path (then :meth:`close` flushes and closes it; the observer also
    works as a context manager).  Records carry ``v`` (schema version),
    ``event`` and ``sum`` keys; see ``docs/observability.md`` for the full
    schema.
    """

    def __init__(self, stream):
        self.stream = stream
        self._owns_stream = False
        self._step = 0

    @classmethod
    def open(cls, path) -> "JsonlTraceObserver":
        """Create the observer writing to ``path`` (truncates)."""
        observer = cls(open(path, "w"))
        observer._owns_stream = True
        return observer

    def close(self) -> None:
        """Flush, and close the stream if :meth:`open` created it."""
        self.stream.flush()
        if self._owns_stream:
            self.stream.close()

    def __enter__(self) -> "JsonlTraceObserver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _event(self, event: str, **fields) -> None:
        record = {"v": JSONL_SCHEMA_VERSION, "event": event, "step": self._step}
        record.update(fields)
        self.stream.write(encode_line(record) + "\n")

    def on_step(self, step, node, queue_size):
        self._step = step
        self._event("pop", queue_size=queue_size, **_node_fields(node))

    def on_expand(self, parent):
        self._event("expand", node=parent.node_id, depth=parent.depth)

    def on_child(self, child, parent):
        self._event(
            "child",
            parent=None if parent is None else parent.node_id,
            **_node_fields(child),
        )

    def on_prune(self, node, reason, count=1):
        self._event(
            "prune",
            reason=reason,
            count=count,
            node=None if node is None else node.node_id,
        )

    def on_solution(self, node, parent):
        self._event(
            "solution",
            parent=None if parent is None else parent.node_id,
            **_node_fields(node),
        )

    def on_restart(self, seed, queue_size):
        self._event("restart", seed=seed.node_id, queue_size=queue_size)

    def on_queue(self, size):
        # Deliberately not emitted per push: queue traffic dominates
        # event volume and is better served by the queue_size histogram.
        pass

    def on_finish(self, reason, stats):
        self._event("finish", reason=reason, stats=stats.as_dict())
        self.stream.flush()


class ProgressObserver(SearchObserver):
    """A one-line status every ``every`` steps (default: to stderr).

    Each line carries the step, the instantaneous steps/sec since the
    previous line, the current queue size, the best solution depth so
    far, and the fewest PPRM terms seen on any popped node
    (distance-to-identity proxy).
    """

    def __init__(self, every: int = 1000, stream=None, clock=time.monotonic):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = every
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self._last_time = None
        self._last_step = 0
        self.best_depth = None
        self.min_terms = None
        self.lines_emitted = 0

    def on_step(self, step, node, queue_size):
        if self.min_terms is None or node.terms < self.min_terms:
            self.min_terms = node.terms
        if self._last_time is None:
            self._last_time = self.clock()
            self._last_step = step - 1
        if step % self.every == 0:
            self._report(step, queue_size)

    def _report(self, step, queue_size) -> None:
        now = self.clock()
        elapsed = now - self._last_time
        if elapsed > 0:
            rate = f"{(step - self._last_step) / elapsed:.0f}"
        else:
            rate = "-"
        self._last_time = now
        self._last_step = step
        best = "-" if self.best_depth is None else str(self.best_depth)
        self.stream.write(
            f"[rmrls] step={step} steps/s={rate} queue={queue_size} "
            f"best_gates={best} min_terms={self.min_terms}\n"
        )
        self.lines_emitted += 1

    def on_solution(self, node, parent):
        if self.best_depth is None or node.depth < self.best_depth:
            self.best_depth = node.depth

    def on_finish(self, reason, stats):
        self.stream.flush()
