"""Machine-readable run reports.

:func:`build_run_report` merges one :class:`SynthesisResult` with the
optional metrics registry and phase timer into a single versioned JSON
document — the artifact every performance PR should diff.
:func:`validate_run_report` is the hand-rolled schema check used by the
tests and by consumers that want to fail fast on format drift.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
import time

from repro.applog import atomic_write

__all__ = [
    "REPORT_SCHEMA",
    "REPORT_VERSION",
    "environment_info",
    "options_as_dict",
    "build_run_report",
    "validate_run_report",
    "write_run_report",
]

#: Schema identifier and version stamped into every report.
REPORT_SCHEMA = "rmrls-run-report"
REPORT_VERSION = 1

#: Option fields that hold live objects rather than configuration
#: values; they are summarized, not serialized.
_UNSERIALIZABLE_OPTIONS = ("observers", "phase_timer")


def environment_info() -> dict:
    """Describe the interpreter and machine a report was produced on."""
    from repro import __version__

    return {
        "repro_version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "argv": list(sys.argv),
    }


def options_as_dict(options) -> dict:
    """Serialize :class:`SynthesisOptions` to JSON-safe values.

    Attached observer objects and the phase timer are replaced by
    their class names — a report records *that* instrumentation ran,
    not the instruments themselves.
    """
    data = {}
    for field in dataclasses.fields(options):
        value = getattr(options, field.name)
        if field.name == "observers":
            value = [type(observer).__name__ for observer in value]
        elif field.name == "phase_timer":
            value = None if value is None else type(value).__name__
        data[field.name] = value
    return data


def build_run_report(
    result,
    *,
    registry=None,
    phases=None,
    benchmark: str | None = None,
    extra: dict | None = None,
) -> dict:
    """Build the versioned report document for one synthesis run.

    ``registry`` is a :class:`~repro.obs.metrics.MetricsRegistry` and
    ``phases`` a :class:`~repro.obs.phases.PhaseTimer`; both are
    optional and appear as ``null`` sections when absent.  ``extra``
    is merged in under the ``"extra"`` key for caller annotations
    (seed, benchmark scale, ...).
    """
    circuit = result.circuit
    report = {
        "schema": REPORT_SCHEMA,
        "version": REPORT_VERSION,
        "generated_unix": time.time(),
        "benchmark": benchmark,
        "engine": result.engine,
        "num_vars": result.num_vars,
        "solved": result.solved,
        "gate_count": result.gate_count,
        "quantum_cost": None if circuit is None else circuit.quantum_cost(),
        "circuit": None if circuit is None else str(circuit),
        "stats": result.stats.as_dict(),
        "options": options_as_dict(result.options),
        "metrics": None if registry is None else registry.as_dict(),
        "phases": None if phases is None else phases.as_dict(),
        "environment": environment_info(),
    }
    if extra:
        report["extra"] = dict(extra)
    return report


def _fail(message: str) -> None:
    raise ValueError(f"invalid run report: {message}")


def validate_run_report(report: dict) -> dict:
    """Check ``report`` against the v1 schema; return it unchanged.

    Raises :class:`ValueError` on any violation.  The check is
    structural (required keys and types), not semantic.
    """
    if not isinstance(report, dict):
        _fail("not a JSON object")
    if report.get("schema") != REPORT_SCHEMA:
        _fail(f"schema is {report.get('schema')!r}, want {REPORT_SCHEMA!r}")
    if report.get("version") != REPORT_VERSION:
        _fail(f"unsupported version {report.get('version')!r}")
    required = {
        "generated_unix": (int, float),
        "num_vars": int,
        "solved": bool,
        "stats": dict,
        "options": dict,
        "environment": dict,
    }
    for key, types in required.items():
        if key not in report:
            _fail(f"missing key {key!r}")
        if not isinstance(report[key], types):
            _fail(f"key {key!r} has type {type(report[key]).__name__}")
    for key in ("metrics", "phases"):
        if key not in report:
            _fail(f"missing key {key!r}")
        if report[key] is not None and not isinstance(report[key], dict):
            _fail(f"key {key!r} must be an object or null")
    if report["solved"]:
        if not isinstance(report.get("gate_count"), int):
            _fail("solved reports need an integer gate_count")
    stats = report["stats"]
    for key in ("steps", "nodes_created", "nodes_expanded", "peak_queue_size"):
        if not isinstance(stats.get(key), int):
            _fail(f"stats.{key} missing or not an integer")
    if report["metrics"] is not None:
        for name, metric in report["metrics"].items():
            if not isinstance(metric, dict) or "kind" not in metric:
                _fail(f"metric {name!r} lacks a kind")
            if metric["kind"] == "histogram" and "counts" not in metric:
                _fail(f"histogram {name!r} lacks counts")
    if report["phases"] is not None and "phases" not in report["phases"]:
        _fail("phases section lacks the per-phase table")
    json.dumps(report)  # must be serializable end-to-end
    return report


def write_run_report(report: dict, path) -> None:
    """Validate and write ``report`` as indented JSON to ``path``."""
    validate_run_report(report)
    atomic_write(path, json.dumps(report, indent=2) + "\n", fsync=False)
