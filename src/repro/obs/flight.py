"""Black-box flight recorder, crash dumps, and deterministic replay.

The harness deliberately kills workers — SIGKILL on wall/memory
budgets, kernel OOM, portfolio cancellation — and before this module
all a dead worker left behind was a taxonomy label.  The flight
recorder closes that gap the way an aircraft black box does:

* :class:`RingFile` — a small mmap-backed ring of fixed-size slots,
  each ``length | crc32 | JSON payload``.  Writes go straight to the
  page cache, so the file survives a SIGKILL bit-for-bit (only a
  power cut can lose it); a slot torn mid-write fails its CRC and is
  skipped and counted at recovery time.
* :class:`FlightRecorder` — one per process: the ring file, a
  write-once ``<ring>.meta.json`` sidecar holding the *decision log*
  (task kind/payload/options, seed ranks, pids), and a
  flushed ``<ring>.decisions.jsonl`` append log (:mod:`repro.applog`)
  for the rare nondeterministic inputs (shared-bound adoptions) that a
  replay must re-apply.  On a clean end the whole set is deleted; on
  an abnormal one :func:`recover_ring` turns it into a checksummed
  ``rmrls-flight-dump`` document — the one way a dump is written.  A
  worker's ring is recovered by its pool (``WorkerPool._reap_flight``)
  once the attempt settles, whether the worker reported the failure or
  died silently; a coordinator's by :func:`end_recording`, the single
  call every coordinator ends its recording with.
* :class:`FlightObserver` — the search-side tap on the single
  observer dispatch point: a cumulative 64-bit FNV-style digest folded
  from ``(step, depth, terms, queue_size)`` at every stride point
  (one step in ``every``, recorded into the ring as it folds).
  Because the digest is cumulative over all stride points — including
  evicted ones — *any* surviving suffix of the ring is checkable.
* :func:`replay_dump` — re-runs the recorded search from the decision
  log (same spec, options, seed ranks, scripted bound adoptions)
  capped at the last acknowledged step, and asserts the digest at
  every surviving recorded step — turning every fleet fatality into a
  reproducible test case.
* :func:`build_postmortem` / :func:`render_postmortem` — ``rmrls
  postmortem``: recover leftover rings, validate every dump, and merge
  the final events before each death into one fleet timeline.

Fault injection mirrors the store's (``RMRLS_STORE_FAULTS``): set
``RMRLS_FLIGHT_FAULTS=sigkill@N`` and the recorder SIGKILLs its own
process at the Nth recorded event — the CI postmortem smoke job and
the replay property tests are built on it.  ``RMRLS_FLIGHT_EVERY``
overrides the step-recording stride (default 64).

See docs/observability.md ("Flight recorder and crash postmortems").
"""

from __future__ import annotations

import json
import mmap
import os
import signal
import struct
import threading
import time
import zlib

from repro.applog import AppendLog, atomic_write, checksum, read_log
from repro.obs.observer import SearchObserver

__all__ = [
    "FLIGHT_SCHEMA",
    "FLIGHT_SCHEMA_VERSION",
    "FAULTS_ENV_VAR",
    "EVERY_ENV_VAR",
    "DEFAULT_CAPACITY",
    "DEFAULT_EVERY",
    "RingFile",
    "FlightRecorder",
    "FlightObserver",
    "RecordedBound",
    "ScriptedBound",
    "fold_digest",
    "dump_checksum",
    "validate_dump",
    "load_dump",
    "end_recording",
    "recover_ring",
    "recover_ring_to_file",
    "discard_ring",
    "recover_rings",
    "replay_dump",
    "replayable",
    "build_postmortem",
    "render_postmortem",
    "scan_flight_dir",
]

#: Schema name/version stamped into every crash-dump document.
FLIGHT_SCHEMA = "rmrls-flight-dump"
FLIGHT_SCHEMA_VERSION = 1

POSTMORTEM_SCHEMA = "rmrls-postmortem"
POSTMORTEM_VERSION = 1

#: ``RMRLS_FLIGHT_FAULTS=sigkill@N`` SIGKILLs the recording process at
#: its Nth recorded event (deterministic crash injection for tests/CI).
FAULTS_ENV_VAR = "RMRLS_FLIGHT_FAULTS"
#: ``RMRLS_FLIGHT_EVERY=N`` overrides the step-recording stride.
EVERY_ENV_VAR = "RMRLS_FLIGHT_EVERY"

#: Ring defaults: 256 slots of 512 bytes ≈ 128 KiB per process.
DEFAULT_CAPACITY = 256
DEFAULT_SLOT_SIZE = 512
#: Fold and record one ``step`` event every this many search steps.
#: Off-stride steps cost one modulo — the price of staying inside the
#: <5% overhead budget — while the cumulative digest keeps any
#: retained suffix checkable against the whole recorded history.
DEFAULT_EVERY = 64

_RING_MAGIC = b"RMFR\x01\x00\x00\x00"
_HEADER = struct.Struct("<8sIIQ")  # magic, slot_size, slot_count, cursor
_HEADER_SIZE = 32  # _HEADER.size (24) padded for alignment headroom
_SLOT_PREFIX = struct.Struct("<II")  # payload length, crc32(payload)

#: Attempt statuses whose ring the pool recovers into a dump; any
#: other end deletes it.
DUMP_STATUSES = ("oom", "crash", "hang", "unsound")

_FNV_PRIME = 0x100000001B3
_DIGEST_MASK = (1 << 64) - 1
#: Distinct fold salts so a solution and a step with coincidentally
#: equal operands cannot cancel out.
_SALT_SOLUTION = 0x501
_SALT_RESTART = 0x7E5


def fold_digest(digest: int, *values: int) -> int:
    """Fold integers into a cumulative 64-bit FNV-1a-style digest.

    A few integer ops per value — run once per stride point, solution,
    and restart (the recorder's <5% overhead budget is gated by
    ``tests/test_flight_recorder.py``).
    """
    for value in values:
        digest = ((digest ^ (value & _DIGEST_MASK)) * _FNV_PRIME) \
            & _DIGEST_MASK
    return digest


def parse_faults(text: str | None):
    """Parse :data:`FAULTS_ENV_VAR`; returns ``("sigkill", n)`` or
    ``None``.  Unknown specs raise ``ValueError`` (a typo silently
    disabling fault injection would make tests pass vacuously)."""
    if not text or not text.strip():
        return None
    spec = text.strip()
    if spec == "none":
        return None
    if spec.startswith("sigkill@"):
        n = int(spec.split("@", 1)[1])
        if n < 1:
            raise ValueError("sigkill@N needs N >= 1")
        return ("sigkill", n)
    raise ValueError(f"unknown flight fault spec: {spec!r}")


# -- the mmap ring file --------------------------------------------------------


class RingFile:
    """A fixed-size ring of CRC-checked JSON slots, written via mmap.

    The write path is allocation-light (one ``json.dumps`` plus a
    memcpy into the mapping) and needs no flush: mmap stores land in
    the page cache, which outlives the process.  The header's cursor
    counts *total* events ever appended; slot ``cursor % slot_count``
    is overwritten next, so recovery reads the last ``slot_count``
    events in order and drops (and counts) any slot whose CRC fails.
    """

    def __init__(self, path: str, slot_count: int = DEFAULT_CAPACITY,
                 slot_size: int = DEFAULT_SLOT_SIZE):
        if slot_count < 1:
            raise ValueError("slot_count must be >= 1")
        if slot_size < _SLOT_PREFIX.size + 2:
            raise ValueError("slot_size too small for any payload")
        self.path = str(path)
        self.slot_count = slot_count
        self.slot_size = slot_size
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        size = _HEADER_SIZE + slot_count * slot_size
        self._file = open(self.path, "w+b")
        self._file.truncate(size)
        self._map = mmap.mmap(self._file.fileno(), size)
        self._map[:_HEADER.size] = _HEADER.pack(
            _RING_MAGIC, slot_size, slot_count, 0
        )
        self.cursor = 0

    def append(self, record: dict) -> None:
        payload = json.dumps(
            record, separators=(",", ":"), sort_keys=True, default=str
        ).encode("utf-8")
        cap = self.slot_size - _SLOT_PREFIX.size
        if len(payload) > cap:
            # Keep the envelope, drop the oversize attributes: a
            # truncated event still anchors the timeline.
            payload = json.dumps(
                {
                    "k": record.get("k"),
                    "seq": record.get("seq"),
                    "t": record.get("t"),
                    "truncated": True,
                },
                separators=(",", ":"),
                sort_keys=True,
            ).encode("utf-8")[:cap]
        offset = _HEADER_SIZE + (self.cursor % self.slot_count) \
            * self.slot_size
        self._map[offset:offset + _SLOT_PREFIX.size] = _SLOT_PREFIX.pack(
            len(payload), zlib.crc32(payload)
        )
        self._map[offset + _SLOT_PREFIX.size:
                  offset + _SLOT_PREFIX.size + len(payload)] = payload
        # The slot is complete before the cursor advances, so a reader
        # that sees the new cursor sees a whole slot (or a CRC failure
        # if the kill landed mid-memcpy).
        self.cursor += 1
        self._map[16:24] = struct.pack("<Q", self.cursor)

    def close(self) -> None:
        try:
            self._map.close()
            self._file.close()
        except (OSError, ValueError):  # pragma: no cover - close race
            pass

    @staticmethod
    def read(path: str):
        """Read a ring file back; returns ``(records, dropped_slots)``.

        Tolerant by design: bad magic raises ``ValueError`` (the file
        is not a ring), but torn or corrupt slots are skipped and
        counted — exactly one slot can be mid-write at kill time.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        if len(data) < _HEADER.size:
            raise ValueError(f"{path}: too short for a ring header")
        magic, slot_size, slot_count, cursor = _HEADER.unpack(
            data[:_HEADER.size]
        )
        if magic != _RING_MAGIC:
            raise ValueError(f"{path}: not a flight ring (bad magic)")
        expected = _HEADER_SIZE + slot_count * slot_size
        if len(data) < expected:
            raise ValueError(f"{path}: ring truncated on disk")
        records = []
        dropped = 0
        first = max(0, cursor - slot_count)
        for index in range(first, cursor):
            offset = _HEADER_SIZE + (index % slot_count) * slot_size
            length, crc = _SLOT_PREFIX.unpack(
                data[offset:offset + _SLOT_PREFIX.size]
            )
            payload = data[offset + _SLOT_PREFIX.size:
                           offset + _SLOT_PREFIX.size + length]
            if (
                length > slot_size - _SLOT_PREFIX.size
                or len(payload) != length
                or zlib.crc32(payload) != crc
            ):
                dropped += 1
                continue
            try:
                record = json.loads(payload.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                dropped += 1
                continue
            records.append(record)
        return records, dropped


# -- the recorder --------------------------------------------------------------


def _sidecar_paths(ring_path: str):
    return ring_path + ".meta.json", ring_path + ".decisions.jsonl"


class FlightRecorder:
    """One process's black box: ring file + decision-log sidecars.

    ``meta`` is written once at arm time (it must survive an immediate
    SIGKILL): everything a replay needs that never changes mid-run.
    Events go to the ring file; ``decision`` events additionally append
    one flushed JSONL line — they are the rare nondeterministic inputs a
    replay must re-apply, so they must never be evicted by the ring.
    The recorder never writes a dump itself: whoever ends the recording
    closes it and either deletes the ring (:func:`discard_ring`) or
    recovers it (:func:`recover_ring_to_file`).
    """

    def __init__(
        self,
        path: str,
        meta: dict | None = None,
        capacity: int = DEFAULT_CAPACITY,
        slot_size: int = DEFAULT_SLOT_SIZE,
        faults: str | None = None,
    ):
        self.path = str(path)
        self._t0 = time.monotonic()
        self.meta = dict(meta or {})
        self.meta.setdefault("pid", os.getpid())
        self.meta.setdefault("created_unix", round(time.time(), 6))
        self.meta["capacity"] = capacity
        self._ring = RingFile(self.path, capacity, slot_size)
        self._decision_stream = None
        self._seq = 0
        # Workers record single-threaded; the serve daemon records from
        # handler threads.  Recording is far off any hot path (one event
        # per `every` steps), so a lock costs nothing measurable.
        self._lock = threading.RLock()
        fault_text = faults if faults is not None \
            else os.environ.get(FAULTS_ENV_VAR)
        self._fault = parse_faults(fault_text)
        meta_path, _ = _sidecar_paths(self.path)
        atomic_write(
            meta_path,
            json.dumps(self.meta, sort_keys=True, default=str) + "\n",
            fsync=False,
        )

    def record(self, kind: str, **attrs) -> dict:
        """Append one event to the ring."""
        with self._lock:
            self._seq += 1
            record = {"k": kind, "seq": self._seq,
                      "t": round(time.monotonic() - self._t0, 6)}
            record.update(attrs)
            self._ring.append(record)
        if self._fault is not None and self._seq >= self._fault[1]:
            # Deterministic crash injection: die the way the kernel OOM
            # killer would, leaving only the ring behind.
            os.kill(os.getpid(), signal.SIGKILL)
        return record

    def decision(self, kind: str, **attrs) -> None:
        """Record a replay-relevant nondeterministic input.

        Also lands in the ring for the timeline, but the flushed
        sidecar is authoritative: decisions must survive however long
        the run gets, while the ring only keeps the last N events.
        """
        with self._lock:
            record = self.record(kind, **attrs)
            if self._decision_stream is None:
                _, decisions_path = _sidecar_paths(self.path)
                self._decision_stream = AppendLog(decisions_path)
            self._decision_stream.write(record)

    def close(self) -> None:
        """Close handles without deleting anything: the ring and its
        sidecars stay on disk for :func:`recover_ring`."""
        self._ring.close()
        if self._decision_stream is not None:
            self._decision_stream.close()


def end_recording(recorder: FlightRecorder | None,
                  error: BaseException | None = None) -> str | None:
    """End a coordinator's recording; return the dump path, if any.

    ``error`` is the exception the coordinator is ending on.  Any
    exception but ``KeyboardInterrupt`` (a clean, user-initiated stop)
    is recorded, the ring closed and recovered into a ``crash`` dump;
    otherwise the ring and its sidecars are deleted.  A recovery that
    fails on I/O returns ``None`` rather than mask the error being
    reported.
    """
    if recorder is None:
        return None
    if error is None or isinstance(error, KeyboardInterrupt):
        recorder.close()
        discard_ring(recorder.path)
        return None
    text = f"{type(error).__name__}: {error}"
    try:
        recorder.record("coordinator_error", error=text)
        recorder.close()
        return recover_ring_to_file(recorder.path, reason="crash",
                                    error=text)
    except (OSError, ValueError):
        return None


# -- the search-side tap -------------------------------------------------------


class FlightObserver(SearchObserver):
    """Fold each stride point's step into the digest; ring it (plus
    every solution, restart, and the finish) or check it.

    Recording: ``FlightObserver(recorder, every)``.  Replay:
    ``FlightObserver(None, every, expected)`` folds the same digest at
    the same stride and compares it with ``expected`` (recorded step →
    digest) wherever a recorded step survived; ``checked`` and
    ``mismatches`` hold the verdict.

    Overrides must be class-level methods for
    :class:`~repro.obs.observer.MultiObserver`'s per-event dispatch
    specialization to route them.
    """

    __slots__ = (
        "recorder", "every", "digest", "last_step", "expected", "checked",
        "mismatches",
    )

    def __init__(self, recorder: FlightRecorder | None,
                 every: int = DEFAULT_EVERY, expected: dict | None = None):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.recorder = recorder
        self.every = every
        self.digest = 0
        self.last_step = 0
        self.expected = expected
        self.checked = 0
        self.mismatches: list[dict] = []

    def on_step(self, step, node, queue_size):
        self.last_step = step
        # Fold only at stride points: per-step work off the stride is
        # one modulo plus an attribute store, which is what keeps the
        # recorder inside its <5% budget (the test suite gates it).
        # The digest is still cumulative over *all* stride points —
        # including ones whose ring slots were later evicted — so any
        # surviving suffix checks the whole recorded history.
        if step % self.every:
            return
        self.digest = fold_digest(
            self.digest, step, node.depth, node.terms, queue_size
        )
        if self.recorder is not None:
            self.recorder.record(
                "step", step=step, digest=self.digest, depth=node.depth,
                terms=node.terms, queue=queue_size,
            )
        if self.expected is not None:
            recorded = self.expected.get(step)
            if recorded is not None:
                self.checked += 1
                if recorded != self.digest:
                    self.mismatches.append({
                        "step": step,
                        "recorded": recorded,
                        "replayed": self.digest,
                    })

    def on_solution(self, node, parent):
        self.digest = fold_digest(self.digest, _SALT_SOLUTION, node.depth)
        if self.recorder is not None:
            self.recorder.record(
                "solution", step=self.last_step, depth=node.depth,
                digest=self.digest,
            )

    def on_restart(self, seed, queue_size):
        self.digest = fold_digest(
            self.digest, _SALT_RESTART, seed.target, seed.factor
        )
        if self.recorder is not None:
            self.recorder.record(
                "restart", step=self.last_step, target=seed.target,
                factor=seed.factor, digest=self.digest,
            )

    def on_finish(self, reason, stats):
        if self.recorder is not None:
            self.recorder.record(
                "finish", reason=reason, steps=stats.steps,
                digest=self.digest,
            )


class RecordedBound:
    """Wrap a portfolio bound channel, logging adoptions as decisions.

    Shared-incumbent adoptions are the one genuinely nondeterministic
    input to a portfolio slice's search (their *values* depend on
    sibling timing); recording ``(poll index, depth)`` on every change
    lets :class:`ScriptedBound` re-apply them exactly.  Duck-types the
    :class:`repro.parallel.bound.SharedBound` protocol.
    """

    __slots__ = ("_bound", "_recorder", "_polls", "_seen")

    def __init__(self, bound, recorder: FlightRecorder):
        self._bound = bound
        self._recorder = recorder
        self._polls = 0
        self._seen = None

    def publish(self, depth: int) -> None:
        self._bound.publish(depth)
        self._recorder.decision(
            "bound_published", poll=self._polls, depth=depth
        )

    def best(self):
        self._polls += 1
        depth = self._bound.best()
        if depth is not None and (self._seen is None or depth < self._seen):
            self._seen = depth
            self._recorder.decision(
                "bound_adopted", poll=self._polls, depth=depth
            )
        return depth


class ScriptedBound:
    """Replay recorded bound adoptions by poll index.

    The search polls its bound on a deterministic stride, so the kth
    poll of the replay corresponds to the kth poll of the recording;
    returning the recorded incumbent at the recorded poll reproduces
    the original pruning exactly.  Publishes are swallowed — there is
    no fleet to inform.
    """

    __slots__ = ("_adoptions", "_polls", "_index", "_current")

    def __init__(self, adoptions):
        self._adoptions = sorted(
            (int(poll), int(depth)) for poll, depth in adoptions
        )
        self._polls = 0
        self._index = 0
        self._current = None

    def publish(self, depth: int) -> None:
        pass

    def best(self):
        self._polls += 1
        while (
            self._index < len(self._adoptions)
            and self._adoptions[self._index][0] <= self._polls
        ):
            self._current = self._adoptions[self._index][1]
            self._index += 1
        return self._current


# -- dump documents ------------------------------------------------------------


def _last_step(events) -> int:
    last = 0
    for event in events:
        step = event.get("step") or event.get("steps")
        if isinstance(step, int) and step > last:
            last = step
    return last


def _dump_path(ring_path: str) -> str:
    stem = ring_path[:-5] if ring_path.endswith(".ring") else ring_path
    return stem + ".dump.json"


def dump_checksum(document: dict) -> str:
    """CRC32 (hex) over the canonical JSON body, ``checksum`` excluded."""
    return checksum(document, "checksum")


def validate_dump(document: dict) -> None:
    """Raise ``ValueError`` unless ``document`` is a well-formed dump."""
    if not isinstance(document, dict):
        raise ValueError("dump must be a JSON object")
    if document.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(
            f"not a {FLIGHT_SCHEMA} document: "
            f"schema={document.get('schema')!r}"
        )
    if document.get("version") != FLIGHT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported dump version {document.get('version')!r}"
        )
    for key, kind in (("meta", dict), ("events", list),
                      ("decisions", list), ("reason", str)):
        if not isinstance(document.get(key), kind):
            raise ValueError(f"dump field {key!r} missing or mistyped")
    recorded = document.get("checksum")
    expected = dump_checksum(document)
    if recorded != expected:
        raise ValueError(
            f"dump checksum mismatch: recorded {recorded}, "
            f"computed {expected}"
        )


def load_dump(path: str) -> dict:
    """Load and validate one dump file."""
    with open(path) as handle:
        document = json.load(handle)
    validate_dump(document)
    return document


def recover_ring(ring_path: str, reason: str = "recovered",
                 error: str | None = None) -> dict:
    """Build a dump from a closed or dead recorder's ring + sidecars.

    Every dump is built here, from what is on disk, so a worker that
    reported its failure and one that was SIGKILLed mid-write yield the
    same document.  The meta sidecar was written at arm time so it is
    always present; a missing one still yields a (replay-less) dump
    rather than nothing.
    """
    meta_path, decisions_path = _sidecar_paths(ring_path)
    meta: dict = {}
    try:
        with open(meta_path) as handle:
            meta = json.load(handle)
    except (OSError, ValueError):
        meta = {"meta_lost": True}
    events, dropped = RingFile.read(ring_path)
    try:
        records, problems = read_log(decisions_path)
    except OSError:
        records, problems = [], []
    decisions = [record for _, record in records]
    document = {
        "schema": FLIGHT_SCHEMA,
        "version": FLIGHT_SCHEMA_VERSION,
        "reason": reason,
        "error": error,
        "meta": meta,
        "events": events,
        "decisions": decisions,
        "last_step": _last_step(events),
        "dropped_slots": dropped,
        "skipped_decisions": len(problems),
        "recovered": True,
        "dumped_unix": round(time.time(), 6),
    }
    document["checksum"] = dump_checksum(document)
    return document


def recover_ring_to_file(ring_path: str, reason: str = "recovered",
                         error: str | None = None) -> str:
    """Recover one ring into ``<stem>.dump.json``; remove the ring.

    The only writer of ``rmrls-flight-dump`` files."""
    document = recover_ring(ring_path, reason=reason, error=error)
    target = _dump_path(ring_path)
    atomic_write(
        target,
        json.dumps(document, sort_keys=True, indent=1, default=str) + "\n",
    )
    discard_ring(ring_path)
    return target


def discard_ring(ring_path: str) -> None:
    """Remove a ring and its sidecars (the clean-death path)."""
    meta_path, decisions_path = _sidecar_paths(ring_path)
    for stale in (ring_path, meta_path, decisions_path):
        try:
            os.unlink(stale)
        except OSError:
            pass


def recover_rings(directory: str) -> list[str]:
    """Recover every leftover ring under ``directory``; return the new
    dump paths.  Unreadable rings are skipped (they stay on disk for
    manual inspection)."""
    recovered = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return recovered
    for name in names:
        if not name.endswith(".ring"):
            continue
        try:
            recovered.append(
                recover_ring_to_file(os.path.join(directory, name))
            )
        except (OSError, ValueError):
            continue
    return recovered


def scan_flight_dir(directory: str) -> dict:
    """Count armed rings and crash dumps under ``directory`` (and its
    ``flight/`` subdirectory); after a clean run both are zero."""
    rings = 0
    dumps = 0
    for root in (directory, os.path.join(directory, "flight")):
        try:
            names = os.listdir(root)
        except OSError:
            continue
        rings += sum(1 for name in names if name.endswith(".ring"))
        dumps += sum(1 for name in names if name.endswith(".dump.json"))
    return {"rings": rings, "dumps": dumps}


# -- deterministic replay ------------------------------------------------------

#: Task kinds whose dumps carry enough decision log to re-run the
#: search.  ``benchmark`` runs a multi-synthesis driver and ``probe``
#: runs no search at all — their dumps are timeline-only.
_REPLAYABLE_KINDS = ("permutation", "pprm", "random_circuit", "portfolio")


def replayable(document: dict) -> bool:
    """Whether :func:`replay_dump` can re-run this dump's search."""
    meta = document.get("meta") or {}
    return (
        meta.get("kind") in _REPLAYABLE_KINDS
        and isinstance(meta.get("payload"), dict)
        and isinstance(meta.get("options"), dict)
    )


def _rebuild_spec(meta: dict):
    """The recorded task's specification; ``synthesize`` picks the
    backend from its width, as it did in the recorded run."""
    kind = meta["kind"]
    payload = meta["payload"]
    if kind == "permutation":
        from repro.functions.permutation import Permutation

        return Permutation(payload["images"])
    if kind == "pprm":
        from repro.pprm.parser import parse_system

        return parse_system(payload["system"])
    if kind == "random_circuit":
        from repro.io.real_format import load_real

        return load_real(payload["real"]).to_pprm()
    if kind == "portfolio":
        from repro.parallel.portfolio import spec_from_payload

        return spec_from_payload(payload)
    raise ValueError(f"cannot rebuild a spec for task kind {kind!r}")


def replay_dump(document: dict) -> dict:
    """Re-run a dump's recorded search; assert it reaches the same state.

    Rebuilds the spec and options from the decision log, replays
    shared-bound adoptions through a :class:`ScriptedBound`, caps the
    run at the last acknowledged step, and compares the cumulative
    digest at every recorded step that survived in the ring.  Returns
    a JSON-safe verdict::

        {"ok": bool, "checked": N, "mismatches": [...],
         "last_step": ..., "steps_replayed": ..., ...}

    Wall-clock budgets are stripped (they are the one nondeterministic
    budget); the step cap bounds the replay instead.
    """
    validate_dump(document)
    if not replayable(document):
        kind = (document.get("meta") or {}).get("kind")
        raise ValueError(
            f"dump is not replayable (task kind {kind!r}; replay "
            f"supports {', '.join(_REPLAYABLE_KINDS)})"
        )
    meta = document["meta"]
    expected = {
        event["step"]: event["digest"]
        for event in document["events"]
        if event.get("k") == "step"
        and isinstance(event.get("step"), int)
        and isinstance(event.get("digest"), int)
    }
    last_step = document.get("last_step") or _last_step(document["events"])
    if not expected:
        return {
            "ok": True,
            "verdict": "no recorded step digests to check",
            "checked": 0,
            "mismatches": [],
            "last_step": last_step,
            "steps_replayed": 0,
        }

    from repro.harness.tasks import options_from_payload

    options = options_from_payload(dict(meta["options"]))
    observer = FlightObserver(
        None, every=max(1, int(meta.get("every") or DEFAULT_EVERY)),
        expected=expected,
    )
    adoptions = [
        (decision["poll"], decision["depth"])
        for decision in document["decisions"]
        if decision.get("k") == "bound_adopted"
    ]
    bound = ScriptedBound(adoptions) if adoptions else None
    cap = max(expected)
    if options.max_steps is not None:
        cap = min(cap, options.max_steps)
    options = options.with_(
        observers=(observer,),
        max_steps=cap,
        time_limit=None,
        phase_timer=None,
        bound_channel=bound,
        flight_dir=None,
        portfolio_jobs=None,
        record_trace=False,
    )

    from repro.synth.rmrls import synthesize

    result = synthesize(_rebuild_spec(meta), options)
    reachable = [step for step in expected if step <= result.stats.steps]
    unreached = sorted(step for step in expected
                       if step > result.stats.steps)
    ok = not observer.mismatches and len(reachable) == observer.checked
    return {
        "ok": bool(ok and observer.checked > 0),
        "checked": observer.checked,
        "mismatches": observer.mismatches,
        "unreached_steps": unreached,
        "last_step": last_step,
        "steps_replayed": result.stats.steps,
        "finish_reason": result.stats.finish_reason,
        "recorded_reason": document.get("reason"),
        "engine": result.engine,
        "solved": result.solved,
        "gate_count": result.gate_count,
    }


# -- postmortem ----------------------------------------------------------------


def build_postmortem(directory: str, recover: bool = True,
                     tail: int = 5) -> dict:
    """Fold every dump under ``directory`` into one fleet postmortem.

    Leftover rings (silent deaths nobody recovered yet — e.g. a
    SIGKILLed *coordinator*) are recovered first.  The timeline merges
    the final ``tail`` events of each dump on absolute time
    (``meta.created_unix`` + the event's monotonic offset; recorders
    on one machine share ``CLOCK_REALTIME``).  ``tail`` must be at
    least 1.
    """
    if tail < 1:
        raise ValueError(f"tail must be >= 1, got {tail}")
    recovered = recover_rings(directory) if recover else []
    dumps = []
    invalid = []
    timeline = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        names = []
    for name in names:
        if not name.endswith(".dump.json"):
            continue
        path = os.path.join(directory, name)
        try:
            document = load_dump(path)
        except (OSError, ValueError) as error:
            invalid.append({"path": path, "error": str(error)})
            continue
        meta = document.get("meta") or {}
        events = document.get("events") or []
        base = float(meta.get("created_unix") or 0.0)
        entry = {
            "path": path,
            "reason": document.get("reason"),
            "error": document.get("error"),
            "process": meta.get("process"),
            "task_id": meta.get("task_id"),
            "kind": meta.get("kind"),
            "attempt": meta.get("attempt"),
            "pid": meta.get("pid"),
            "last_step": document.get("last_step"),
            "events": len(events),
            "dropped_slots": document.get("dropped_slots", 0),
            "recovered": bool(document.get("recovered")),
            "replayable": replayable(document),
        }
        dumps.append(entry)
        label = meta.get("process") or meta.get("task_id") or name
        for event in events[-tail:]:
            timeline.append({
                "unix": round(base + float(event.get("t") or 0.0), 6),
                "process": label,
                "reason": document.get("reason"),
                "event": event,
            })
    timeline.sort(key=lambda item: (item["unix"], item["process"]))
    return {
        "schema": POSTMORTEM_SCHEMA,
        "version": POSTMORTEM_VERSION,
        "directory": str(directory),
        "recovered_rings": recovered,
        "dumps": dumps,
        "invalid": invalid,
        "timeline": timeline,
    }


def render_postmortem(document: dict, timeline_tail: int = 20) -> str:
    """Plain-text fleet postmortem for the ``rmrls postmortem`` CLI.

    ``timeline_tail`` (at least 1) bounds the timeline lines printed.
    """
    if timeline_tail < 1:
        raise ValueError(f"timeline_tail must be >= 1, got {timeline_tail}")
    dumps = document["dumps"]
    lines = [
        f"rmrls postmortem — {document['directory']}: "
        f"{len(dumps)} dump(s), "
        f"{len(document['recovered_rings'])} ring(s) recovered, "
        f"{len(document['invalid'])} invalid",
    ]
    if not dumps and not document["invalid"]:
        lines.append("no crash dumps found — every process exited cleanly")
        return "\n".join(lines)
    if dumps:
        lines.append("")
        lines.append(
            f"  {'who':<28} {'reason':<10} {'kind':<13} {'last step':>9} "
            f"{'events':>6} {'replay':>6}"
        )
        for entry in dumps:
            who = str(
                entry["process"] or entry["task_id"] or
                os.path.basename(entry["path"])
            )
            attempt = entry.get("attempt")
            if entry["task_id"] and attempt:
                who = f"{entry['task_id'][:16]}-a{attempt}"
            lines.append(
                f"  {who:<28} {str(entry['reason']):<10} "
                f"{str(entry['kind'] or '-'):<13} "
                f"{str(entry['last_step'] or 0):>9} "
                f"{entry['events']:>6} "
                f"{'yes' if entry['replayable'] else 'no':>6}"
            )
    for bad in document["invalid"]:
        lines.append(f"  INVALID {bad['path']}: {bad['error']}")
    timeline = document["timeline"]
    if timeline:
        lines.append("")
        lines.append("final events before each death (newest last):")
        for item in timeline[-timeline_tail:]:
            event = item["event"]
            attrs = ", ".join(
                f"{key}={event[key]}" for key in sorted(event)
                if key not in ("k", "seq", "t")
            )
            lines.append(
                f"  {item['unix']:.3f}  [{item['process']}] "
                f"{event.get('k', '?')}"
                f"{'  ' + attrs if attrs else ''}"
            )
    return "\n".join(lines)


# -- harness wiring helpers ----------------------------------------------------


def flight_every(environ=None) -> int:
    """The step-recording stride (``RMRLS_FLIGHT_EVERY`` override)."""
    env = os.environ if environ is None else environ
    raw = env.get(EVERY_ENV_VAR, "").strip()
    if raw:
        value = int(raw)
        if value >= 1:
            return value
    return DEFAULT_EVERY


def worker_ring_path(flight_dir: str, task_id: str, attempt: int) -> str:
    """Where a worker's ring lives — the pool derives the same path to
    recover it post-mortem."""
    return os.path.join(flight_dir, f"{task_id}-a{attempt}.ring")


def arm_worker_recorder(flight: dict, kind: str, payload: dict,
                        options: dict, attempt: int,
                        every: int | None = None) -> FlightRecorder:
    """Arm one worker's recorder from the pool's wire dict.

    ``options`` must be the post-escalation, pre-observer-injection
    dict — it is the decision log a replay rebuilds the search from.
    ``every`` must match the :class:`FlightObserver`'s stride: the
    digest folds only at stride points, so a replay needs it to fold
    identically.
    """
    meta = {
        "process": f"worker-{flight['task_id'][:16]}-a{attempt}",
        "task_id": flight["task_id"],
        "kind": kind,
        "attempt": attempt,
        "payload": payload,
        "options": {key: value for key, value in options.items()
                    if key != "observers"},
        "seed_ranks": options.get("portfolio_seed_ranks"),
        "every": int(every) if every else flight_every(),
    }
    return FlightRecorder(
        worker_ring_path(flight["dir"], flight["task_id"], attempt),
        meta=meta,
    )
