"""Span-based distributed tracing across the worker-pool boundary.

The per-process observability of PRs 1/3 (JSONL event traces, hot-op
counters, metrics) dies at the fork: a portfolio race or a multi-job
sweep runs on subprocess workers, and nothing correlates what the
coordinator scheduled with what each worker actually did.  This module
is the missing substrate — a minimal tracing layer in the OpenTelemetry
shape (trace → spans → events) with no external dependencies:

* :class:`TraceContext` — the causal identity that crosses the process
  boundary: ``trace_id``, the parent ``span_id``, the trace's monotonic
  epoch ``t0``, and the shard directory.  ``to_wire``/``from_wire``
  keep it JSON-safe so it travels next to a
  :class:`~repro.harness.tasks.Task` without entering the fingerprint.
* :class:`ShardWriter` — one append-only JSONL shard per process, an
  :class:`~repro.applog.AppendLog`: every record is flushed as a single
  checksummed line, so a SIGKILLed worker leaves at most one truncated
  line (which the readers skip and count — see :mod:`repro.obs.collate`).
* :class:`TraceSession` — coordinator-side recorder: begin/end spans,
  point events, child contexts.
* :class:`WorkerTraceSession` — worker-side recorder built from a wire
  context.  At the handshake it *negotiates a clock offset*: trace
  timestamps are seconds since the coordinator's ``t0`` on the shared
  ``CLOCK_MONOTONIC``; where the clocks are not shared (a worker's raw
  reading lands before the launch time the context carries) the worker
  shifts itself forward so causality is preserved, and records the
  applied offset in its shard's ``meta`` line.
* :class:`TracedBound` — the search-side tap on the portfolio's
  shared incumbent channel (bound publications/adoptions).  Periodic
  progress events (step, queue size, best depth) come from
  :class:`~repro.obs.jsonl.ProgressObserver` with a session as its
  sink.

Shard record kinds (one append-log line each, ``"v"`` stamped with
:data:`TRACE_SCHEMA_VERSION`):

* ``meta`` — once per shard: schema, trace id, process label, pid,
  negotiated ``clock_offset``;
* ``start`` — a span began (a process killed before the span ended
  leaves it, and collation keeps it as an *open* span);
* ``span`` — a span ended (full record: start, end, status, attrs);
* ``event`` — a point-in-time occurrence attached to a span.

See docs/observability.md ("Distributed tracing") for the lifecycle
and the clock-offset caveats.
"""

from __future__ import annotations

import os
import time

from repro.applog import AppendLog

__all__ = [
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "TraceContext",
    "ShardWriter",
    "TraceSession",
    "WorkerTraceSession",
    "SpanHandle",
    "TracedBound",
    "new_trace_id",
]

#: Schema name/version stamped into every shard's ``meta`` record and
#: into collated trace files.  Bump the version when record keys change
#: meaning; adding keys is backward compatible.
TRACE_SCHEMA = "rmrls-trace"
TRACE_SCHEMA_VERSION = 1

#: Timestamps are rounded to this many decimal digits (nanosecond-ish
#: precision, and — more importantly — a stable textual form, which the
#: byte-identical collation contract relies on).
_TIME_DIGITS = 9


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return os.urandom(8).hex()


def _now(t0: float, offset: float = 0.0) -> float:
    return round(time.monotonic() - t0 + offset, _TIME_DIGITS)


class TraceContext:
    """The causal identity a child process inherits.

    ``trace_id`` names the whole distributed run; ``span_id`` is the
    *parent* span the child's work hangs off; ``t0`` is the
    coordinator's monotonic reading at trace start (the trace's time
    zero); ``sent_at`` the trace-relative instant the context was
    minted (used by the clock-offset handshake); ``trace_dir`` the
    shard directory.
    """

    __slots__ = ("trace_id", "span_id", "t0", "sent_at", "trace_dir")

    def __init__(self, trace_id, span_id, t0, sent_at, trace_dir):
        self.trace_id = trace_id
        self.span_id = span_id
        self.t0 = t0
        self.sent_at = sent_at
        self.trace_dir = trace_dir

    def to_wire(self) -> dict:
        """JSON-safe dict form (crosses the process boundary)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "t0": self.t0,
            "sent_at": self.sent_at,
            "trace_dir": self.trace_dir,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "TraceContext":
        return cls(
            wire["trace_id"],
            wire["span_id"],
            wire["t0"],
            wire.get("sent_at", 0.0),
            wire["trace_dir"],
        )


class SpanHandle:
    """A begun-but-not-ended span; ended through its session."""

    __slots__ = ("span_id", "parent_id", "name", "start", "attrs", "_session")

    def __init__(self, session, span_id, parent_id, name, start, attrs):
        self._session = session
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs = attrs

    def end(self, status: str = "ok", **attrs) -> None:
        self._session.end_span(self, status=status, **attrs)

    def event(self, name: str, **attrs) -> None:
        self._session.event(name, span=self, **attrs)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end(status="ok" if exc_type is None else "error")


#: A trace shard is a plain, unsynced append log.
ShardWriter = AppendLog


class _BaseSession:
    """Shared span bookkeeping of the coordinator and worker sessions."""

    def __init__(self, writer, trace_id, t0, process, clock_offset=0.0):
        self.writer = writer
        self.trace_id = trace_id
        self.t0 = t0
        self.process = process
        self.clock_offset = clock_offset
        self._serial = 0
        self._closed = False

    # -- record plumbing ---------------------------------------------------

    def _meta(self, **extra) -> None:
        record = {
            "v": TRACE_SCHEMA_VERSION,
            "schema": TRACE_SCHEMA,
            "kind": "meta",
            "trace_id": self.trace_id,
            "process": self.process,
            "pid": os.getpid(),
            "clock_offset": round(self.clock_offset, _TIME_DIGITS),
        }
        record.update(extra)
        self.writer.write(record)

    def now(self) -> float:
        """The current trace-relative timestamp."""
        return _now(self.t0, self.clock_offset)

    def _next_span_id(self) -> str:
        self._serial += 1
        return f"{self.process}-{self._serial}"

    # -- spans and events --------------------------------------------------

    def begin_span(self, name: str, parent=None, **attrs) -> SpanHandle:
        """Start a span; a ``start`` record lands immediately, so a
        process killed mid-span still leaves the span in its shard."""
        parent_id = parent.span_id if isinstance(parent, SpanHandle) else parent
        span = SpanHandle(
            self, self._next_span_id(), parent_id, name, self.now(),
            dict(attrs),
        )
        self.writer.write({
            "v": TRACE_SCHEMA_VERSION,
            "kind": "start",
            "trace_id": self.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": name,
            "process": self.process,
            "start": span.start,
            "attrs": span.attrs,
        })
        return span

    def end_span(self, span: SpanHandle, status: str = "ok", **attrs) -> None:
        merged = dict(span.attrs)
        merged.update(attrs)
        self.writer.write({
            "v": TRACE_SCHEMA_VERSION,
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "process": self.process,
            "start": span.start,
            "end": self.now(),
            "status": status,
            "attrs": merged,
        })

    def span(self, name: str, parent=None, **attrs) -> SpanHandle:
        """Context-manager convenience around begin/end."""
        return self.begin_span(name, parent=parent, **attrs)

    def event(self, name: str, span=None, **attrs) -> None:
        span_id = span.span_id if isinstance(span, SpanHandle) else span
        self.writer.write({
            "v": TRACE_SCHEMA_VERSION,
            "kind": "event",
            "trace_id": self.trace_id,
            "span_id": span_id,
            "name": name,
            "process": self.process,
            "time": self.now(),
            "attrs": dict(attrs),
        })

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.writer.close()


class TraceSession(_BaseSession):
    """Coordinator-side tracing: owns the trace id and time zero.

    ``TraceSession.create(trace_dir)`` starts a new trace, writing the
    coordinator's shard to ``<trace_dir>/coord.jsonl``.  One trace per
    directory is the contract; hosting several traces in one directory
    is rejected at collation time.
    """

    @classmethod
    def create(
        cls, trace_dir: str, process: str = "coord", trace_id=None,
    ) -> "TraceSession":
        trace_id = trace_id if trace_id else new_trace_id()
        writer = ShardWriter(
            os.path.join(trace_dir, f"{process}.jsonl"), truncate=True
        )
        session = cls(writer, trace_id, time.monotonic(), process)
        session.trace_dir = str(trace_dir)
        session._meta(unix_t0=round(time.time(), 3))
        return session

    def context_for(self, span: SpanHandle) -> dict:
        """A wire context making ``span`` the parent of a child
        process's work."""
        return TraceContext(
            self.trace_id, span.span_id, self.t0, self.now(), self.trace_dir
        ).to_wire()


class WorkerTraceSession(_BaseSession):
    """Worker-side tracing, rebuilt from a wire context.

    The clock-offset handshake happens here: the context's ``sent_at``
    is the coordinator-side instant the worker was launched, so the
    worker's own first reading can never causally precede it.  On
    platforms where ``CLOCK_MONOTONIC`` is process-shared (Linux — the
    only place the subprocess pool runs workers today) the raw reading
    already lands *after* ``sent_at`` and the offset is zero; anywhere
    the clocks are not shared the worker shifts itself forward by
    ``sent_at - raw`` so its spans stay causally ordered after the
    launch.  The applied offset is recorded in the shard's ``meta``
    record for post-hoc scrutiny.
    """

    @classmethod
    def from_wire(cls, wire: dict):
        context = TraceContext.from_wire(wire)
        raw = time.monotonic() - context.t0
        offset = context.sent_at - raw if raw < context.sent_at else 0.0
        process = f"worker-{context.span_id}"
        writer = ShardWriter(
            os.path.join(context.trace_dir, f"{process}.jsonl")
        )
        session = cls(
            writer, context.trace_id, context.t0, process,
            clock_offset=offset,
        )
        session.parent_span_id = context.span_id
        session._meta(parent_id=context.span_id)
        return session


class TracedBound:
    """Wrap a portfolio bound channel with publish/adopt span events.

    Duck-types the :class:`repro.parallel.bound.SharedBound` protocol.
    ``publish`` always records a ``bound_published`` event; ``best``
    records ``bound_adopted`` only when the fleet incumbent improved on
    the last value this process saw — the poll itself is on the search's
    stride machinery, so event volume stays proportional to actual
    incumbent movement, not to steps.
    """

    __slots__ = ("_bound", "_session", "_span", "_seen")

    def __init__(self, bound, session, span=None):
        self._bound = bound
        self._session = session
        self._span = span
        self._seen = None

    def publish(self, depth: int) -> None:
        self._bound.publish(depth)
        self._session.event("bound_published", span=self._span, depth=depth)

    def best(self) -> int | None:
        depth = self._bound.best()
        if depth is not None and (self._seen is None or depth < self._seen):
            self._seen = depth
            self._session.event("bound_adopted", span=self._span, depth=depth)
        return depth
