"""Shard collation: many per-process JSONL shards → one timeline.

Each process in a traced run (the coordinator, every worker attempt)
appends spans to its own shard under the trace directory — nobody ever
contends on a shared file, and a SIGKILLed worker costs at most one
truncated trailing line.  :func:`collate_shards` joins the shards into
a single causally-ordered trace:

* **tolerant reading** — shards are append logs
  (:mod:`repro.applog`; docs/formats.md, "Append logs"), so torn,
  malformed or checksum-failing lines are skipped and *counted*, never
  raised (killed workers are a normal outcome, not an error);
* **deduplication** — a span whose ``span`` (end) record arrived
  supersedes its ``start`` record; a ``start`` without an end survives
  as an *open* span (the worker died mid-flight — itself a finding);
* **determinism** — records are sorted by a total order (time, kind,
  span id, canonical JSON), so the same shards collate to
  byte-identical output whatever order the filesystem lists them in.

The collated file is itself JSONL: one ``header`` record (schema,
version, trace id, shard census, skip counts) followed by the ordered
records.  That leading ``header`` is also what keeps a collated file
out of a later collation of the same directory, whatever its name.
:func:`validate_trace` checks schema conformance and causal linkage
(every span's parent exists, one trace id throughout).
"""

from __future__ import annotations

import io
import os

from repro.applog import atomic_write, canonical_json, read_log
from repro.obs.spans import TRACE_SCHEMA, TRACE_SCHEMA_VERSION

__all__ = [
    "read_shard",
    "collate_shards",
    "write_collated",
    "load_collated",
    "collate_to_file",
    "validate_trace",
    "TraceValidationError",
]

#: Record kinds in their collation sort order at equal timestamps:
#: metas first, then span starts, events, and span ends.
_KIND_RANK = {"header": 0, "meta": 1, "start": 2, "event": 3, "span": 4}


class TraceValidationError(ValueError):
    """A collated trace violates the ``rmrls-trace`` schema."""


def read_shard(stream) -> tuple[list[dict], int]:
    """Parse one shard (an open file); return ``(records,
    skipped_lines)``.  Every damaged line, and every record without a
    ``kind``, is skipped and counted — the shard of a SIGKILLed worker
    must still collate."""
    records, problems = read_log(stream, lambda r: r if "kind" in r else None)
    return [record for _, record in records], len(problems)


def _record_time(record: dict) -> float:
    kind = record.get("kind")
    if kind == "event":
        value = record.get("time")
    elif kind in ("span", "start"):
        value = record.get("start")
    else:
        value = 0.0
    return float(value) if isinstance(value, (int, float)) else 0.0


def _sort_key(record: dict):
    # Total order: time, then kind rank, then span id, then the full
    # canonical text as the final tie-break — identical shards in any
    # filesystem order therefore collate to identical bytes.
    return (
        _record_time(record),
        _KIND_RANK.get(record.get("kind"), 9),
        str(record.get("span_id") or ""),
        canonical_json(record),
    )


def collate_shards(trace_dir: str) -> dict:
    """Join every ``*.jsonl`` shard under ``trace_dir``.

    A file whose first record is a ``header`` is collated output, not
    a shard, and is skipped: collated files may live in the shard
    directory under any name.

    Returns ``{"header": {...}, "records": [...]}`` where the header
    carries the trace id, per-shard skip counts, and the census of
    shards read.  Span ``start`` records that have a matching ``span``
    end are dropped (superseded); unmatched starts survive as open
    spans.  Raises ``FileNotFoundError`` for a missing directory and
    :class:`TraceValidationError` when the shards disagree on the
    trace id.
    """
    names: list[str] = []
    records: list[dict] = []
    skipped: dict[str, int] = {}
    for name in sorted(os.listdir(trace_dir)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(trace_dir, name)) as handle:
            shard_records, shard_skipped = read_shard(handle)
        if shard_records and shard_records[0]["kind"] == "header":
            continue
        names.append(name)
        if shard_skipped:
            skipped[name] = shard_skipped
        records.extend(shard_records)
    if not names:
        raise TraceValidationError(
            f"no .jsonl shards found under {trace_dir!r}"
        )

    trace_ids = {
        record["trace_id"] for record in records if "trace_id" in record
    }
    if len(trace_ids) > 1:
        raise TraceValidationError(
            f"shards under {trace_dir!r} belong to {len(trace_ids)} "
            f"different traces: {sorted(trace_ids)}"
        )

    ended = {
        record["span_id"]
        for record in records
        if record.get("kind") == "span"
    }
    kept = [
        record for record in records
        if not (
            record.get("kind") == "start" and record.get("span_id") in ended
        )
    ]
    kept.sort(key=_sort_key)
    header = {
        "kind": "header",
        "schema": TRACE_SCHEMA,
        "v": TRACE_SCHEMA_VERSION,
        "trace_id": next(iter(trace_ids)) if trace_ids else None,
        "shards": names,
        "records": len(kept),
        "skipped_lines": sum(skipped.values()),
        "skipped_by_shard": skipped,
        "open_spans": sum(
            1 for record in kept if record.get("kind") == "start"
        ),
    }
    return {"header": header, "records": kept}


def write_collated(collated: dict, stream) -> None:
    """Serialize a collated trace as deterministic JSONL."""
    stream.write(canonical_json(collated["header"]) + "\n")
    for record in collated["records"]:
        stream.write(canonical_json(record) + "\n")


def collate_to_file(trace_dir: str, output_path: str) -> dict:
    """Collate and validate ``trace_dir``, then replace ``output_path``
    atomically (a killed collate leaves no half-written file to be
    misread later); return the header."""
    collated = validate_trace(collate_shards(trace_dir))
    text = io.StringIO()
    write_collated(collated, text)
    atomic_write(output_path, text.getvalue())
    return collated["header"]


def load_collated(stream) -> dict:
    """Read a collated trace file back into header + records.

    Tolerates malformed lines the same way shard reading does (a
    collated file should never contain any, but the reader contract is
    uniform); the skip count is added to the header's.
    """
    records, skipped = read_shard(stream)
    if not records or records[0].get("kind") != "header":
        raise TraceValidationError(
            "not a collated trace: missing header record"
        )
    header = records[0]
    if skipped:
        header = dict(header)
        header["skipped_lines"] = header.get("skipped_lines", 0) + skipped
    return {"header": header, "records": records[1:]}


def validate_trace(collated: dict) -> dict:
    """Check a collated trace against the ``rmrls-trace`` schema.

    Verifies the header stamp, per-record required keys, a single
    trace id, and causal linkage: every span's ``parent_id`` must name
    a span present in the trace (or be ``None`` for a root).  Returns
    the collated dict unchanged on success; raises
    :class:`TraceValidationError` otherwise.
    """
    header = collated.get("header") or {}
    if header.get("schema") != TRACE_SCHEMA:
        raise TraceValidationError(
            f"header schema is {header.get('schema')!r}, "
            f"expected {TRACE_SCHEMA!r}"
        )
    if header.get("v") != TRACE_SCHEMA_VERSION:
        raise TraceValidationError(
            f"header version is {header.get('v')!r}, "
            f"expected {TRACE_SCHEMA_VERSION}"
        )
    required_by_kind = {
        "meta": ("trace_id", "process"),
        "start": ("trace_id", "span_id", "name", "start"),
        "span": ("trace_id", "span_id", "name", "start", "end", "status"),
        "event": ("trace_id", "name", "time"),
    }
    span_ids = set()
    parents = []
    trace_ids = set()
    for index, record in enumerate(collated.get("records") or []):
        kind = record.get("kind")
        required = required_by_kind.get(kind)
        if required is None:
            raise TraceValidationError(
                f"record {index} has unknown kind {kind!r}"
            )
        for key in required:
            if key not in record:
                raise TraceValidationError(
                    f"record {index} ({kind}) is missing {key!r}"
                )
        trace_ids.add(record["trace_id"])
        if kind in ("span", "start"):
            span_ids.add(record["span_id"])
            parents.append((index, record.get("parent_id")))
        if kind == "span" and record["end"] < record["start"]:
            raise TraceValidationError(
                f"record {index}: span {record['span_id']!r} ends "
                f"before it starts"
            )
    if len(trace_ids) > 1:
        raise TraceValidationError(
            f"records span {len(trace_ids)} trace ids: {sorted(trace_ids)}"
        )
    for index, parent_id in parents:
        if parent_id is not None and parent_id not in span_ids:
            raise TraceValidationError(
                f"record {index}: parent span {parent_id!r} is not in "
                f"the trace (broken causal link)"
            )
    return collated
