"""The crash-safe canonical circuit store.

A :class:`CircuitStore` is a directory::

    <root>/
      segments/seg-000000.jsonl     append-only checksummed records
      segments/seg-000001.jsonl     ... rolled every segment_max_records
      quarantine/                   damaged lines moved aside by repair

Records map a canonical key (see :mod:`repro.store.canonical`) to the
best-known circuit for that equivalence class, stored in RevLib
``.real`` text *in canonical wire order*, with provenance (engine,
options, git SHA, source).  The segments are the only source of
truth: opening a store always rescans them tolerantly and rebuilds the
best-per-key index in memory.  Nothing else is written beside them;
the best-per-key view on disk is ``rmrls store export`` (or, after
``gc``, the single remaining segment).

Durability comes from :mod:`repro.applog`: appends are one
flushed+fsynced checksummed line; reads re-authenticate every line and
count and skip damage, which ``repair`` moves to ``quarantine/`` with
its origin (never deleted, never served); segment rewrites (``repair``,
``gc``) go through :func:`~repro.applog.atomic_write`, so no reader
ever observes a half-rewritten file.

Degraded modes: ``read_only=True`` opens without write access (puts
raise :class:`StoreReadOnly`); a root that cannot be created or opened
raises :class:`StoreUnavailable` at construction so callers (the cache
service) can fall back to cache-less synthesis.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.applog import AppendLog, atomic_write, fsync_directory, read_log
from repro.circuits.circuit import Circuit
from repro.io.real_format import RealFormatError, dump_real, load_real
from repro.store.canonical import CanonicalSpec, canonicalize
from repro.store.faults import FaultPlan, faults_from_env
from repro.store.segments import (
    RECORD_SCHEMA,
    RECORD_VERSION,
    encode_record,
    scan_segment,
)

__all__ = [
    "STORE_SCHEMA",
    "STORE_VERSION",
    "CircuitStore",
    "StoreError",
    "StoreReadOnly",
    "StoreRecord",
    "StoreUnavailable",
    "record_outcome",
]

STORE_SCHEMA = "rmrls-circuit-store"
STORE_VERSION = 1

_SEGMENT_DIR = "segments"
_QUARANTINE_DIR = "quarantine"


class StoreError(Exception):
    """Base class for store failures."""


class StoreUnavailable(StoreError):
    """The store directory cannot be opened at all."""


class StoreReadOnly(StoreError):
    """A mutation was attempted on a read-only store."""


@dataclass(frozen=True)
class StoreRecord:
    """One best-known circuit, as read from (or written to) a segment."""

    key: str
    num_vars: int
    gates: int
    quantum_cost: int
    real: str
    provenance: dict
    created_unix: float
    segment: str = ""
    line: int = 0
    #: The parsed :attr:`real`, kept by the first :meth:`circuit` call.
    #: Both are immutable, so the hit path parses each record once; it
    #: is no part of the record's value (``==``, ``repr``, the segment
    #: form).
    _circuit: Circuit | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def circuit(self) -> Circuit:
        """The stored canonical circuit, parsed on first use."""
        circuit = self._circuit
        if circuit is None:
            circuit = load_real(self.real)
            object.__setattr__(self, "_circuit", circuit)
        return circuit

    def as_record(self) -> dict:
        """The JSON-safe segment form (checksum added at encode time)."""
        return {
            "schema": RECORD_SCHEMA,
            "v": RECORD_VERSION,
            "key": self.key,
            "num_vars": self.num_vars,
            "gates": self.gates,
            "quantum_cost": self.quantum_cost,
            "real": self.real,
            "provenance": dict(self.provenance),
            "created_unix": self.created_unix,
        }

    @classmethod
    def from_record(
        cls, record: dict, segment: str = "", line: int = 0
    ) -> "StoreRecord":
        return cls(
            key=record["key"],
            num_vars=record["num_vars"],
            gates=record["gates"],
            quantum_cost=record["quantum_cost"],
            real=record["real"],
            provenance=dict(record.get("provenance") or {}),
            created_unix=record.get("created_unix", 0.0),
            segment=segment,
            line=line,
        )


class CircuitStore:
    """Best-known canonical circuits, durably.

    Thread-safe for the cache service's concurrent handlers (one lock
    around every index/segment mutation); *not* multi-process-safe —
    one writing process per store directory is the contract (the
    service is that process; sweeps seed their own store path or run
    before the service starts).
    """

    def __init__(
        self,
        root: str,
        fsync: bool = True,
        read_only: bool = False,
        segment_max_records: int = 256,
        faults: FaultPlan | None = None,
    ):
        self.root = str(root)
        self.fsync = fsync
        self.read_only = read_only
        self.segment_max_records = segment_max_records
        self.faults = faults if faults is not None else faults_from_env()
        self._lock = threading.RLock()
        self._index: dict[str, StoreRecord] = {}
        self._records_scanned = 0
        self._problem_counts: dict[str, int] = {}
        self._writer: AppendLog | None = None
        self._active_segment: str | None = None
        self._active_records = 0

        segment_dir = os.path.join(self.root, _SEGMENT_DIR)
        try:
            if not read_only:
                os.makedirs(segment_dir, exist_ok=True)
                os.makedirs(
                    os.path.join(self.root, _QUARANTINE_DIR), exist_ok=True
                )
            self._load()
        except OSError as error:
            raise StoreUnavailable(
                f"cannot open circuit store at {self.root}: {error}"
            ) from error

    # -- open-time scan ------------------------------------------------------

    def _segment_names(self) -> list[str]:
        segment_dir = os.path.join(self.root, _SEGMENT_DIR)
        if not os.path.isdir(segment_dir):
            return []
        return sorted(
            name
            for name in os.listdir(segment_dir)
            if name.startswith("seg-") and name.endswith(".jsonl")
        )

    def _segment_path(self, name: str) -> str:
        return os.path.join(self.root, _SEGMENT_DIR, name)

    def _load(self) -> None:
        """Rebuild the in-memory index from the segments, tolerantly."""
        self._index.clear()
        self._records_scanned = 0
        names = self._segment_names()
        problems = Counter()
        for name in names:
            scan = scan_segment(self._segment_path(name), faults=self.faults)
            for line, record in scan.records:
                self._records_scanned += 1
                candidate = StoreRecord.from_record(record, name, line)
                best = self._index.get(candidate.key)
                if best is None or candidate.gates < best.gates:
                    self._index[candidate.key] = candidate
            problems.update(problem["kind"] for problem in scan.problems)
        self._problem_counts = dict(problems)
        if names:
            self._active_segment = names[-1]
            self._active_records = len(
                scan_segment(self._segment_path(names[-1])).records
            )
        else:
            self._active_segment = None
            self._active_records = 0

    # -- queries -------------------------------------------------------------

    def get(self, key: str) -> StoreRecord | None:
        """Best-known record for a canonical key, or ``None``."""
        with self._lock:
            return self._index.get(key)

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._index)

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def discard(self, key: str) -> None:
        """Drop a key from the in-memory index (it stays on disk until
        the next ``repair``/``gc``).  Used by the cache service when a
        served record fails replay verification: the bad record must
        stop being served *now*, without blocking the request path on a
        segment rewrite."""
        with self._lock:
            self._index.pop(key, None)

    # -- writes --------------------------------------------------------------

    def put(
        self,
        canonical: CanonicalSpec,
        circuit: Circuit,
        provenance: dict | None = None,
    ) -> tuple[StoreRecord, bool]:
        """Record ``circuit`` (given in the caller's wire order) for
        ``canonical``'s equivalence class.

        The circuit is relabeled into canonical wire order before it is
        written, so every record of one key is directly comparable and
        replayable.  Returns ``(record, stored)`` — ``stored`` is
        ``False`` when an equal-or-better circuit was already known and
        nothing was appended (canonical-key deduplication).
        """
        if self.read_only:
            raise StoreReadOnly(f"{self.root} is open read-only")
        stored_circuit = canonical.to_canonical(circuit)
        gates = stored_circuit.gate_count()
        with self._lock:
            best = self._index.get(canonical.key)
            if best is not None and best.gates <= gates:
                return best, False
            record = StoreRecord(
                key=canonical.key,
                num_vars=canonical.num_vars,
                gates=gates,
                quantum_cost=stored_circuit.quantum_cost(),
                real=dump_real(stored_circuit),
                provenance=dict(provenance or {}),
                created_unix=time.time(),
                segment=self._ensure_writer(),
                line=self._active_records + 1,
            )
            self._writer.write(record.as_record())
            self._active_records += 1
            self._records_scanned += 1
            self._index[canonical.key] = record
            return record, True

    def _ensure_writer(self) -> str:
        """Open (or roll) the active segment; returns its name."""
        roll = (
            self._active_segment is None
            or self._active_records >= self.segment_max_records
        )
        if roll:
            if self._writer is not None:
                self._writer.close()
                self._writer = None
            ordinal = len(self._segment_names())
            while True:
                name = f"seg-{ordinal:06d}.jsonl"
                if not os.path.exists(self._segment_path(name)):
                    break
                ordinal += 1
            # Create the segment atomically-enough: an empty file is a
            # valid segment, so the only invariant needed is that the
            # name lands in the directory before records do.
            self._active_segment = name
            self._active_records = 0
        if self._writer is None:
            self._writer = AppendLog(
                self._segment_path(self._active_segment),
                fsync=self.fsync,
                faults=self.faults,
            )
        return self._active_segment

    def _rewrite_segment(self, name: str, records) -> None:
        """Atomically replace segment ``name`` with exactly ``records``."""
        atomic_write(
            self._segment_path(name),
            "".join(encode_record(record) + "\n" for record in records),
            fsync=self.fsync,
        )

    # -- verify / repair / gc ---------------------------------------------------

    def verify(self, deep: bool = False) -> dict:
        """Re-scan every segment from disk and report what's there.

        Shallow verification authenticates structure: JSON decodes,
        checksums match, schema fields are sane.  ``deep=True``
        additionally *replays* every intact record: the circuit text
        must round-trip byte-identically, simulate to a function whose
        canonical key is the record's key, and match the recorded gate
        count — so a record that passes deep verification is the
        circuit it claims to be, bit for bit.
        """
        with self._lock:
            report = {
                "schema": f"{STORE_SCHEMA}-verify",
                "version": STORE_VERSION,
                "root": self.root,
                "deep": deep,
                "segments": [],
                "records": 0,
                "keys": 0,
                "problems": {},
                "replay_failures": [],
                "ok": True,
            }
            keys = set()
            problems = Counter()
            for name in self._segment_names():
                scan = scan_segment(
                    self._segment_path(name), faults=self.faults
                )
                counts = Counter(problem["kind"] for problem in scan.problems)
                problems.update(counts)
                report["segments"].append({
                    "segment": name,
                    "records": len(scan.records),
                    "bytes": os.path.getsize(self._segment_path(name)),
                    "problems": dict(counts),
                })
                report["records"] += len(scan.records)
                for line, record in scan.records:
                    keys.add(record["key"])
                    if deep:
                        failure = self._replay_failure(record)
                        if failure is not None:
                            report["replay_failures"].append(
                                {
                                    "segment": name,
                                    "line": line,
                                    "key": record["key"],
                                    "reason": failure,
                                }
                            )
            report["keys"] = len(keys)
            report["problems"] = dict(problems)
            report["ok"] = not report["problems"] and not report[
                "replay_failures"
            ]
            return report

    @staticmethod
    def _replay_failure(record: dict) -> str | None:
        """Deep-check one intact record; returns the failure reason."""
        try:
            circuit = load_real(record["real"])
        except RealFormatError as error:
            return f"unparseable circuit: {error}"
        if circuit.num_lines != record["num_vars"]:
            return (
                f"circuit is {circuit.num_lines}-line, record says "
                f"{record['num_vars']}"
            )
        if dump_real(circuit) != record["real"]:
            return "circuit text does not round-trip byte-identically"
        if circuit.gate_count() != record["gates"]:
            return (
                f"gate count {circuit.gate_count()} != recorded "
                f"{record['gates']}"
            )
        try:
            derived = canonicalize(circuit)
        except ValueError as error:
            return f"cannot canonicalize replayed circuit: {error}"
        if derived.key != record["key"]:
            return (
                f"replayed circuit canonicalizes to {derived.key}, "
                f"record claims {record['key']}"
            )
        return None

    def repair(self, deep: bool = False) -> dict:
        """Quarantine damaged lines and rewrite segments without them.

        Every damaged raw line (and, with ``deep=True``, every record
        failing replay verification) is appended to
        ``quarantine/<segment>.quarantine`` with its origin, then the
        segment is atomically rewritten containing only the survivors.
        Nothing is deleted; a quarantined line can be inspected (or
        resurrected) by hand.  Returns a report with quarantine counts;
        the in-memory index is rebuilt from the repaired segments.
        """
        if self.read_only:
            raise StoreReadOnly(f"{self.root} is open read-only")
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None
            quarantine_dir = os.path.join(self.root, _QUARANTINE_DIR)
            os.makedirs(quarantine_dir, exist_ok=True)
            report = {
                "schema": f"{STORE_SCHEMA}-repair",
                "version": STORE_VERSION,
                "root": self.root,
                "deep": deep,
                "quarantined": 0,
                "kept": 0,
                "segments_rewritten": 0,
                "quarantine": {},
            }
            for name in self._segment_names():
                scan = scan_segment(
                    self._segment_path(name), faults=self.faults
                )
                bad = list(scan.problems)
                keep = []
                for line, record in scan.records:
                    reason = self._replay_failure(record) if deep else None
                    if reason is None:
                        keep.append(record)
                    else:
                        bad.append(
                            {
                                "line": line,
                                "kind": "replay",
                                "reason": reason,
                                "raw": encode_record(record),
                            }
                        )
                report["kept"] += len(keep)
                if not bad:
                    continue
                quarantine_path = os.path.join(
                    quarantine_dir, f"{name}.quarantine"
                )
                quarantine = AppendLog(quarantine_path, fsync=self.fsync)
                try:
                    for problem in sorted(bad, key=lambda p: p["line"]):
                        quarantine.write({
                            "segment": name,
                            "line": problem["line"],
                            "kind": problem["kind"],
                            "reason": problem.get("reason"),
                            "raw": problem["raw"],
                            "quarantined_unix": time.time(),
                        })
                finally:
                    quarantine.close()
                self._rewrite_segment(name, keep)
                report["quarantined"] += len(bad)
                report["quarantine"][name] = len(bad)
                report["segments_rewritten"] += 1
            self._load()
            return report

    def gc(self) -> dict:
        """Compact to one segment holding only the best record per key.

        Superseded records (worse gate counts for a key the index has a
        better circuit for) are the store's only garbage; ``gc``
        rewrites them away atomically.
        """
        if self.read_only:
            raise StoreReadOnly(f"{self.root} is open read-only")
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None
            names = self._segment_names()
            records_before = self._records_scanned
            best = [self._index[key] for key in sorted(self._index)]
            target = names[-1] if names else "seg-000000.jsonl"
            self._rewrite_segment(
                target, (record.as_record() for record in best)
            )
            for name in names[:-1]:
                os.remove(self._segment_path(name))
            if self.fsync:
                fsync_directory(os.path.join(self.root, _SEGMENT_DIR))
            self._load()
            return {
                "schema": f"{STORE_SCHEMA}-gc",
                "version": STORE_VERSION,
                "root": self.root,
                "keys": len(self._index),
                "records_before": records_before,
                "records_after": self._records_scanned,
                "dropped": records_before - self._records_scanned,
                "segments_before": len(names),
                "segments_after": 1 if self._index or names else 0,
            }

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-safe snapshot of what the store holds."""
        with self._lock:
            names = self._segment_names()
            size = sum(
                os.path.getsize(self._segment_path(name)) for name in names
            )
            quarantine_dir = os.path.join(self.root, _QUARANTINE_DIR)
            quarantined = 0
            if os.path.isdir(quarantine_dir):
                for name in os.listdir(quarantine_dir):
                    scan = read_log(os.path.join(quarantine_dir, name))
                    quarantined += len(scan.records) + len(scan.problems)
            gate_counts = sorted(
                record.gates for record in self._index.values()
            )
            return {
                "schema": f"{STORE_SCHEMA}-stats",
                "version": STORE_VERSION,
                "root": self.root,
                "keys": len(self._index),
                "records": self._records_scanned,
                "segments": len(names),
                "bytes": size,
                "quarantined_lines": quarantined,
                "open_problems": dict(self._problem_counts),
                "read_only": self.read_only,
                "fsync": self.fsync,
                "gates_min": gate_counts[0] if gate_counts else None,
                "gates_max": gate_counts[-1] if gate_counts else None,
            }

    def export(self, handle) -> int:
        """Write the best record per key as checksummed JSONL.

        The exported stream is itself a valid segment: it can be
        dropped into another store's ``segments/`` directory (or
        re-verified line by line with the same tooling)."""
        count = 0
        with self._lock:
            for key in sorted(self._index):
                handle.write(encode_record(self._index[key].as_record()))
                handle.write("\n")
                count += 1
        return count

    def merge_circuits(self, entries, registry=None) -> dict:
        """Bulk canonical-dedup merge of ``(circuit, provenance)`` pairs.

        The sweep-merge ingestion path: every circuit is canonicalized
        and admitted through the same best-per-key rule as
        :meth:`put`, so folding a 6,828-class coverage corpus (or
        another store's export) into a store that already knows most
        of it costs only the canonicalizations — duplicates append
        nothing.  Per-entry failures are counted, never raised; one
        bad circuit must not abort a bulk merge.  Returns
        ``{"seen", "stored", "duplicates", "errors"}``.
        """
        stats = {"seen": 0, "stored": 0, "duplicates": 0, "errors": 0}
        for circuit, provenance in entries:
            stats["seen"] += 1
            try:
                canonical = canonicalize(circuit)
                _, stored = self.put(
                    canonical, circuit, provenance=provenance
                )
            except (StoreError, ValueError, OSError):
                stats["errors"] += 1
                if registry is not None:
                    registry.counter("store_seed_errors_total").inc()
                continue
            stats["stored" if stored else "duplicates"] += 1
            if registry is not None:
                registry.counter(
                    "store_seeded_total" if stored
                    else "store_seed_duplicates_total"
                ).inc()
        return stats

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush and close the segment writer."""
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None

    def __enter__(self) -> "CircuitStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def record_outcome(
    store: CircuitStore,
    outcome,
    source: str,
    registry=None,
    provenance: dict | None = None,
) -> StoreRecord | None:
    """Seed one sweep :class:`~repro.harness.taxonomy.TaskOutcome` into
    the store (the ``rmrls sweep --store`` path).

    Only ``ok`` outcomes carrying circuit text are eligible; the
    circuit is simulated, canonicalized, and deduplicated by canonical
    key, so re-running a sweep (or seeding overlapping sweeps) never
    bloats the store.  Failures to seed are counted, not raised — a
    cache problem must never fail a sweep.
    """
    if outcome.status != "ok" or not outcome.circuit:
        return None
    try:
        circuit = load_real(outcome.circuit)
        canonical = canonicalize(circuit)
        combined = {
            "source": source,
            "task_id": outcome.task_id,
        }
        combined.update(provenance or {})
        record, stored = store.put(canonical, circuit, provenance=combined)
    except (StoreError, ValueError, OSError):
        if registry is not None:
            registry.counter("store_seed_errors_total").inc()
        return None
    if registry is not None:
        if stored:
            registry.counter("store_seeded_total").inc()
        else:
            registry.counter("store_seed_duplicates_total").inc()
    return record
