"""The resumable sweep ledger — append-only JSONL checkpoints.

Line 1 is a header identifying the schema and the sweep; every further
line is one finished task's :class:`~repro.harness.taxonomy.TaskOutcome`.
Because task ids are content hashes of the task definition (see
:mod:`repro.harness.tasks`), resuming is just: regenerate the task
list from the same seed, skip every id already present, replay the
recorded outcomes so aggregate results match an uninterrupted run.

Interrupted or in-flight tasks are never written, so a killed sweep
re-runs exactly the unfinished work.  The file is an append log in the
shared line format of :mod:`repro.applog` (docs/formats.md, "Append
logs"), fsynced per line when asked.  Damaged lines are skipped and
counted in :attr:`SweepLedger.skipped_lines`, and their tasks re-run.
A header torn mid-write reads as an empty ledger.  Any other header
mismatch (wrong schema, version, or sweep) raises, because resuming
the wrong ledger would silently skip the wrong tasks.
"""

from __future__ import annotations

import os
import time

from repro.applog import AppendLog, read_log
from repro.harness.taxonomy import STATUS_INTERRUPTED, TaskOutcome

__all__ = [
    "SweepLedger",
    "LEDGER_SCHEMA",
    "LEDGER_VERSION",
    "read_ledger",
]

LEDGER_SCHEMA = "rmrls-sweep-ledger"
LEDGER_VERSION = 1


def _accept(record: dict):
    if record.get("schema") == LEDGER_SCHEMA:
        return record
    return TaskOutcome.from_dict(record)


def _read(path: str):
    """Parse one ledger: ``(header, outcomes, skipped, interrupted)``.

    ``header`` is ``None`` when nothing is recorded yet: the file is
    empty, or its only line is a header torn mid-write (a kill between
    creating the file and its first flush).  ``outcomes`` maps task id
    to the last *terminal* outcome.  Raises :class:`ValueError` when
    the file is not a sweep ledger.
    """
    records, problems = read_log(path, _accept)
    head = [(p["line"], p["kind"]) for p in problems[:1]]
    if head == [(1, "torn")] or not (records or problems):
        return None, {}, 0, 0
    header = records[0][1] if records and records[0][0] == 1 else None
    if not isinstance(header, dict):
        raise ValueError(f"{path} is not a {LEDGER_SCHEMA} file")
    if header.get("version") != LEDGER_VERSION:
        raise ValueError(
            f"{path}: unsupported ledger version {header.get('version')!r}"
        )
    outcomes: dict[str, TaskOutcome] = {}
    skipped = len(problems)
    interrupted = 0
    for _, outcome in records[1:]:
        if not isinstance(outcome, TaskOutcome):
            skipped += 1  # a stray second header
        elif outcome.status == STATUS_INTERRUPTED:
            interrupted += 1
        else:
            outcomes[outcome.task_id] = outcome  # last terminal wins
    return header, outcomes, skipped, interrupted


class SweepLedger:
    """One JSONL checkpoint file for one named sweep.

    Usage::

        ledger = SweepLedger(path, sweep="table2:s=2004:n=30")
        done = ledger.load()            # task_id -> TaskOutcome
        with ledger:                    # opens for append
            ledger.record(outcome)      # one line per finished task
    """

    def __init__(self, path: str, sweep: str, fsync: bool = False):
        self.path = path
        self.sweep = sweep
        self.fsync = fsync
        #: Damaged lines the last :meth:`load` skipped (torn tail,
        #: partial write, checksum mismatch, unparseable record).
        self.skipped_lines = 0
        #: ``interrupted`` records the last :meth:`load` ignored.  They
        #: are written when a pool shutdown cancels in-flight tasks;
        #: only *terminal* records may resume, or a retried task would
        #: be double-counted (or worse, never re-run).
        self.interrupted_records = 0
        self._handle = None

    def load(self) -> dict[str, TaskOutcome]:
        """Read completed outcomes from an existing ledger file.

        Returns an empty dict when the file does not exist, is empty,
        or holds only a torn header.  Raises :class:`ValueError` when
        the file belongs to a different sweep (resuming the wrong
        ledger would silently skip wrong tasks).  Damaged outcome lines
        — the truncated tail of a killed sweep, or any line that no
        longer parses or checksums — are skipped and counted in
        :attr:`skipped_lines`; their tasks simply re-run.

        Only **terminal** records count: an ``interrupted`` record (a
        pool shutdown cancelling in-flight work) is ignored — counted
        in :attr:`interrupted_records` — so the task re-runs, and when
        the ledger holds both an ``interrupted`` and a terminal record
        for one task id, only the terminal one is replayed.
        """
        self.skipped_lines = 0
        self.interrupted_records = 0
        if not os.path.exists(self.path):
            return {}
        header, outcomes, self.skipped_lines, self.interrupted_records = (
            _read(self.path)
        )
        if header is not None and header.get("sweep") != self.sweep:
            raise ValueError(
                f"{self.path} belongs to sweep {header.get('sweep')!r}, "
                f"not {self.sweep!r}; refusing to resume"
            )
        return outcomes

    def open(self) -> "SweepLedger":
        """Open the file for appending, writing the header if new (or
        rewriting a header torn mid-write in place)."""
        if self._handle is not None:
            return self
        fresh = not os.path.exists(self.path) or _read(self.path)[0] is None
        self._handle = AppendLog(self.path, fsync=self.fsync, truncate=fresh)
        if fresh:
            self._handle.write({
                "schema": LEDGER_SCHEMA,
                "version": LEDGER_VERSION,
                "sweep": self.sweep,
                "created_unix": time.time(),
            })
        return self

    def record(self, outcome: TaskOutcome) -> None:
        """Append one finished task outcome (flushed immediately, and
        fsynced when the ledger was opened with ``fsync=True``)."""
        if self._handle is None:
            raise RuntimeError("ledger is not open for appending")
        self._handle.write(outcome.as_dict())

    def close(self) -> None:
        """Close the append handle (load() still works afterwards)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepLedger":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_ledger(path: str) -> dict:
    """Tolerantly read any sweep ledger, whatever sweep it belongs to.

    The cross-shard reader: where :meth:`SweepLedger.load` guards a
    *resume* (and therefore insists on its own sweep name), a merge or
    an adoption step folds ledgers written by other nodes — possibly
    under a different shard layout — and only needs the outcomes plus
    enough header to know what it is looking at.

    Returns ``{"header", "outcomes", "skipped_lines",
    "interrupted_records"}`` where ``outcomes`` maps task id to the
    last *terminal* :class:`TaskOutcome`, with the same tolerance for
    torn or damaged lines as a resume.  Raises :class:`ValueError`
    when the file is not a sweep ledger or holds no header yet.
    """
    header, outcomes, skipped, interrupted = _read(path)
    if header is None:
        raise ValueError(f"{path} is empty, not a {LEDGER_SCHEMA} file")
    return {
        "header": header,
        "outcomes": outcomes,
        "skipped_lines": skipped,
        "interrupted_records": interrupted,
    }
