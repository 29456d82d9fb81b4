"""OpenMetrics export and fleet-level metric derivation.

Two export surfaces on top of :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`render_openmetrics` / :func:`write_openmetrics` — the
  Prometheus-compatible *textfile* form of a registry snapshot
  (labeled counters/gauges/histograms, ``# TYPE`` families, trailing
  ``# EOF``), so a long-running service can be scraped via the
  node-exporter textfile collector without any client library;
* :func:`parse_openmetrics` — the matching reader, used by the schema
  tests to prove the export round-trips and by anyone ingesting the
  files programmatically.

:func:`derive_fleet_metrics` computes the cross-process numbers that
only exist once shards are collated — worker utilization, cancellation
latency per losing slice, the straggler ratio, per-worker
bound-adoption counts — and installs them into a registry as labeled
metrics, from which the textfile exporter publishes them.
"""

from __future__ import annotations

import re

from repro.applog import atomic_write
from repro.obs.trace_view import build_timeline, cancellation_report

__all__ = [
    "render_openmetrics",
    "write_openmetrics",
    "parse_openmetrics",
    "derive_fleet_metrics",
    "derive_shard_metrics",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _sanitize(name: str) -> str:
    clean = _NAME_RE.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return clean


def _escape(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels_text(labels: dict | None, extra: dict | None = None) -> str:
    merged = dict(labels or {})
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_sanitize(str(key))}="{_escape(value)}"'
        for key, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def _fmt(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_openmetrics(registry) -> str:
    """Render a registry as OpenMetrics text (ends with ``# EOF``).

    Counters expose ``<name>_total``, gauges their plain value (the
    running maximum rides along as ``<name>_max``), histograms the
    usual cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``.  Label sets of the same family share one ``# TYPE``
    line; family order is sorted, so output is deterministic.
    """
    families: dict[str, dict] = {}
    for key in registry.names():
        metric = registry.get(key)
        base = _sanitize(metric.name)
        family = families.setdefault(
            base, {"kind": metric.kind, "metrics": []}
        )
        if family["kind"] != metric.kind:
            raise ValueError(
                f"metric family {base!r} mixes kinds "
                f"{family['kind']!r} and {metric.kind!r}"
            )
        family["metrics"].append(metric)

    lines = []
    for base in sorted(families):
        family = families[base]
        kind = family["kind"]
        lines.append(f"# TYPE {base} {kind}")
        for metric in family["metrics"]:
            labels = getattr(metric, "labels", None)
            if kind == "counter":
                lines.append(
                    f"{base}_total{_labels_text(labels)} "
                    f"{_fmt(metric.value)}"
                )
            elif kind == "gauge":
                lines.append(
                    f"{base}{_labels_text(labels)} {_fmt(metric.value)}"
                )
                lines.append(
                    f"{base}_max{_labels_text(labels)} "
                    f"{_fmt(metric.max_value)}"
                )
            elif kind == "histogram":
                cumulative = 0
                for bound, count in zip(metric.bounds, metric.counts):
                    cumulative += count
                    lines.append(
                        f"{base}_bucket"
                        f"{_labels_text(labels, {'le': bound})} "
                        f"{cumulative}"
                    )
                cumulative += metric.counts[-1]
                lines.append(
                    f"{base}_bucket{_labels_text(labels, {'le': '+Inf'})} "
                    f"{cumulative}"
                )
                lines.append(
                    f"{base}_sum{_labels_text(labels)} {_fmt(metric.total)}"
                )
                lines.append(
                    f"{base}_count{_labels_text(labels)} {metric.count}"
                )
            else:  # pragma: no cover - registry enforces known kinds
                raise ValueError(f"unknown metric kind {kind!r}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(registry, path: str) -> None:
    """Write the textfile-collector form of ``registry`` to ``path``
    atomically (a collector must never scrape a half-written file)."""
    atomic_write(path, render_openmetrics(registry), fsync=False)


def parse_openmetrics(text: str) -> dict:
    """Parse OpenMetrics text back into families and samples.

    Returns ``{family: {"type": kind, "samples": [{"name", "labels",
    "value"}]}}``.  Raises ``ValueError`` on malformed lines, a sample
    preceding its ``# TYPE`` line, or a missing ``# EOF`` terminator —
    which is exactly what the round-trip schema test needs to assert.
    """
    families: dict[str, dict] = {}
    saw_eof = False
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"line {line_number}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {line_number}: malformed TYPE line")
            families[parts[2]] = {"type": parts[3], "samples": []}
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(
                f"line {line_number}: not a valid sample: {line!r}"
            )
        name = match.group("name")
        family = next(
            (
                families[base] for base in families
                if name == base or name.startswith(base + "_")
            ),
            None,
        )
        if family is None:
            raise ValueError(
                f"line {line_number}: sample {name!r} precedes its "
                f"# TYPE line"
            )
        labels = {
            key: value.replace('\\"', '"').replace("\\\\", "\\")
            for key, value in _LABEL_RE.findall(match.group("labels") or "")
        }
        value_text = match.group("value")
        value = float("nan") if value_text == "NaN" else float(value_text)
        family["samples"].append(
            {"name": name, "labels": labels, "value": value}
        )
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    return families


# -- fleet metrics -------------------------------------------------------


def _busy_per_worker(roots) -> dict[str, float]:
    busy: dict[str, float] = {}

    def walk(span):
        # A worker process's busy time is its outermost worker-side
        # span; the coordinator's attempt spans cover queue + launch
        # latency too, so prefer the worker's own account when present.
        if span.process != "coord" and (
            span.parent_id is None
            or not span.process.startswith("coord")
        ):
            if span.name.startswith("task:"):
                busy[span.process] = busy.get(span.process, 0.0) + (
                    span.duration()
                )
        for child in span.children:
            walk(child)

    for root in roots:
        walk(root)
    return busy


def derive_fleet_metrics(collated: dict, registry) -> dict:
    """Install the cross-process fleet metrics into ``registry``.

    From a collated trace (see :mod:`repro.obs.collate`):

    * ``fleet_worker_busy_seconds{worker=...}`` and
      ``fleet_worker_utilization{worker=...}`` — per-worker busy time
      and its share of the coordinating span's wall-clock;
    * ``fleet_cancellation_latency_seconds{slice=...}`` — incumbent
      arrival → loser SIGKILL, per cancelled slice;
    * ``fleet_straggler_ratio`` — slowest worker's busy time over the
      mean busy time (1.0 = perfectly balanced);
    * ``fleet_bound_adoptions_total{worker=...}`` /
      ``fleet_bound_publications_total{worker=...}`` — incumbent
      traffic per worker.

    Returns a JSON-safe summary of what was derived.
    """
    roots = build_timeline(collated)
    wall = max(
        (root.duration() for root in roots if root.end is not None),
        default=0.0,
    )
    busy = _busy_per_worker(roots)
    for worker, seconds in sorted(busy.items()):
        registry.gauge(
            "fleet_worker_busy_seconds", labels={"worker": worker}
        ).set(round(seconds, 6))
        if wall > 0:
            registry.gauge(
                "fleet_worker_utilization", labels={"worker": worker}
            ).set(round(min(1.0, seconds / wall), 6))
    straggler = None
    if busy:
        mean = sum(busy.values()) / len(busy)
        if mean > 0:
            straggler = round(max(busy.values()) / mean, 6)
            registry.gauge("fleet_straggler_ratio").set(straggler)

    cancellation = cancellation_report(roots)
    latencies = {}
    for loser in cancellation["losers"]:
        latency = loser["latency_seconds"]
        if latency is None:
            continue
        label = str(loser.get("slice", loser["span_id"]))
        latencies[label] = round(latency, 6)
        registry.gauge(
            "fleet_cancellation_latency_seconds", labels={"slice": label}
        ).set(latencies[label])

    adoptions: dict[str, int] = {}
    publications: dict[str, int] = {}

    def count_events(span):
        for event in span.events:
            if event["name"] == "bound_adopted":
                adoptions[span.process] = adoptions.get(span.process, 0) + 1
            elif event["name"] == "bound_published":
                publications[span.process] = (
                    publications.get(span.process, 0) + 1
                )
        for child in span.children:
            count_events(child)

    for root in roots:
        count_events(root)
    for worker, count in sorted(adoptions.items()):
        registry.counter(
            "fleet_bound_adoptions", labels={"worker": worker}
        ).inc(count)
    for worker, count in sorted(publications.items()):
        registry.counter(
            "fleet_bound_publications", labels={"worker": worker}
        ).inc(count)

    return {
        "wall_seconds": round(wall, 6),
        "worker_busy_seconds": {
            worker: round(seconds, 6)
            for worker, seconds in sorted(busy.items())
        },
        "straggler_ratio": straggler,
        "cancellation_latency_seconds": latencies,
        "bound_adoptions": adoptions,
        "bound_publications": publications,
    }


def derive_shard_metrics(summaries, registry) -> dict:
    """Install cross-shard sweep metrics from shard summary sidecars.

    ``summaries`` are the ``shard-kofN.summary.json`` documents a
    sharded sweep leaves next to its ledgers (see
    :func:`repro.sweeps.run_shard`).  A shard's live progress gauges
    die with its process; the sidecars persist, so this is how a
    collect step (or an operator watching a fleet mid-sweep) answers
    "which shard is the straggler" after the fact:

    * ``sweep_shard_elapsed_seconds{shard=...}`` /
      ``sweep_shard_solved{shard=...}`` /
      ``sweep_shard_seconds_per_class{shard=...}`` — per-shard work
      rate from each summary's sweep report;
    * ``sweep_shard_straggler_ratio`` — slowest shard's elapsed time
      over the mean elapsed time (1.0 = perfectly balanced; the number
      that decides whether re-sharding is worth it);
    * ``sweep_shards_total`` / ``sweep_shards_failed`` — fleet size
      and how many shards reported non-``ok`` outcomes.

    Returns a JSON-safe summary mirroring what was installed.
    """
    elapsed: dict[str, float] = {}
    failed = 0
    per_shard: dict[str, dict] = {}
    for summary in summaries:
        spec = summary.get("shard") or {}
        report = summary.get("report") or {}
        counts = dict(report.get("counts") or {})
        label = str(spec.get("index", len(per_shard)) + 1)
        seconds = float(report.get("elapsed_seconds") or 0.0)
        solved = int(summary.get("solved") or 0)
        items = int(spec.get("stop", 0)) - int(spec.get("start", 0))
        elapsed[label] = seconds
        not_ok = sum(
            value for status, value in counts.items() if status != "ok"
        )
        if not_ok:
            failed += 1
        labels = {"shard": label}
        registry.gauge(
            "sweep_shard_elapsed_seconds", labels=labels
        ).set(round(seconds, 6))
        registry.gauge("sweep_shard_solved", labels=labels).set(solved)
        if items > 0:
            registry.gauge(
                "sweep_shard_seconds_per_class", labels=labels
            ).set(round(seconds / items, 6))
        per_shard[label] = {
            "elapsed_seconds": round(seconds, 6),
            "items": items,
            "solved": solved,
            "adopted": int(summary.get("adopted") or 0),
            "failed_tasks": not_ok,
        }
    straggler = None
    if elapsed:
        mean = sum(elapsed.values()) / len(elapsed)
        if mean > 0:
            straggler = round(max(elapsed.values()) / mean, 6)
            registry.gauge("sweep_shard_straggler_ratio").set(straggler)
    registry.gauge("sweep_shards_total").set(len(per_shard))
    registry.gauge("sweep_shards_failed").set(failed)
    return {
        "shards": per_shard,
        "straggler_ratio": straggler,
        "failed_shards": failed,
    }
