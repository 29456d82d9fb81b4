"""Structured observability for the RMRLS search.

The search loop in :mod:`repro.synth.rmrls` keeps its own
:class:`~repro.synth.stats.SearchStats` counters and reports every
notable event (steps, expansions, child creation, pruning, solutions,
restarts) through a single :class:`SearchObserver` dispatch point —
when an observer is attached; with none it makes no observer call.
This package provides the protocol plus a toolbox of observers:

* :class:`~repro.synth.stats.TraceRecorder` (in :mod:`repro.synth`) —
  the Fig. 5 trace, installed by ``record_trace``; it and
  :class:`JsonlTraceObserver` take a node's fields from one
  :func:`node_record` mapping;
* :class:`MetricsObserver` — the per-reason prune counters and the
  fixed-bucket search histograms in an in-process
  :class:`MetricsRegistry`; the effort counts live in the search's
  stats alone;
* :class:`JsonlTraceObserver` — one JSON object per event, streamed to
  a file for offline analysis;
* :class:`ProgressObserver` — a strided steps/sec line on stderr;
* :class:`FlightObserver` — the flight recorder's digest fold, used
  both to record a ring and to check a replay against it;
* :class:`PhaseTimer` — sampled wall-clock attribution to the four hot
  phases of the search (substitution enumeration, PPRM substitution,
  dedupe-table lookups, queue traffic);
* :func:`build_run_report` — a single versioned JSON document merging
  stats, metrics, phase timings, options, and environment info.

Across processes, :mod:`repro.obs.flight` is the black-box flight
recorder: mmap ring buffers armed in every process, checksummed crash
dumps recovered after SIGKILL/OOM deaths, ``rmrls postmortem`` fleet
timelines, and ``rmrls replay`` deterministic search re-execution.

Observers attach through ``SynthesisOptions.observers``; the phase
timer through ``SynthesisOptions.phase_timer``.  With neither set the
search pays only for its own counters.
"""

from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FLIGHT_SCHEMA_VERSION,
    FlightObserver,
    FlightRecorder,
    RecordedBound,
    ScriptedBound,
    build_postmortem,
    load_dump,
    recover_ring,
    recover_rings,
    render_postmortem,
    replay_dump,
    validate_dump,
)
from repro.obs.jsonl import JSONL_SCHEMA_VERSION, JsonlTraceObserver, ProgressObserver
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsObserver,
    MetricsRegistry,
)
from repro.obs.observer import (
    PRUNE_CHILD_DEPTH,
    PRUNE_DEPTH,
    PRUNE_GREEDY,
    PRUNE_GROWTH,
    PRUNE_LOWER_BOUND,
    MultiObserver,
    NullObserver,
    SearchObserver,
    node_record,
)
from repro.obs.phases import PhaseTimer
from repro.obs.report import (
    REPORT_SCHEMA,
    REPORT_VERSION,
    build_run_report,
    environment_info,
    options_as_dict,
    validate_run_report,
    write_run_report,
)
from repro.obs.trace_summary import render_trace_summary, summarize_trace

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
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsObserver",
    "PhaseTimer",
    "JsonlTraceObserver",
    "ProgressObserver",
    "JSONL_SCHEMA_VERSION",
    "REPORT_SCHEMA",
    "REPORT_VERSION",
    "build_run_report",
    "environment_info",
    "options_as_dict",
    "validate_run_report",
    "write_run_report",
    "summarize_trace",
    "render_trace_summary",
    "FLIGHT_SCHEMA",
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "FlightObserver",
    "RecordedBound",
    "ScriptedBound",
    "load_dump",
    "validate_dump",
    "recover_ring",
    "recover_rings",
    "replay_dump",
    "build_postmortem",
    "render_postmortem",
]
