"""One append-log primitive for every crash-safe JSONL file.

The sweep ledger, the JSONL search trace, the flight recorder's decisions
sidecar, and the circuit store's segments and quarantine files are
append-only JSONL logs that must survive a process killed mid-write.
They share this module (docs/formats.md, "Append logs"):

* the **line format** — one JSON object per line in canonical form
  (sorted keys, compact separators) with a ``"sum"`` field, the
  :func:`checksum` of the same object without it;
* :class:`AppendLog` — one ``write`` + ``flush`` per record, plus
  ``fsync`` when asked, so a crash loses at most the line being written;
* :func:`read_log` — intact records plus classified problems, never an
  exception for damaged contents;
* :func:`atomic_write` — whole-file rewrite: temp file, ``fsync``,
  ``os.replace``, directory ``fsync``.

The coverage corpus (``"crc"``) and flight dumps (``"checksum"``) use
:func:`checksum` under their own committed field names.

Fault hooks take any object with ``check(kind) -> bool`` (in practice
:class:`repro.store.faults.FaultPlan`) and fire at this byte layer:
``checksum_flip``, ``torn_write`` and ``sigkill`` on write,
``short_read`` on read.
"""

from __future__ import annotations

import json
import os
import signal
import zlib
from typing import NamedTuple

__all__ = [
    "SUM_FIELD", "AppendLog", "InjectedFault", "LogScan", "atomic_write",
    "canonical_json", "checksum", "encode_line", "fsync_directory",
    "read_log",
]

#: The checksum field every append-log line carries.
SUM_FIELD = "sum"


class InjectedFault(RuntimeError):
    """Raised (in lieu of a real crash) when an armed fault fires."""


def canonical_json(value, default=None) -> str:
    """Sorted keys, compact separators: the one canonical JSON form."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=default
    )


def checksum(record: dict, field: str = SUM_FIELD) -> str:
    """CRC32 (8 hex digits) of ``record``'s canonical JSON without
    ``field``."""
    body = {key: value for key, value in record.items() if key != field}
    payload = canonical_json(body, default=str).encode("utf-8")
    return format(zlib.crc32(payload), "08x")


def encode_line(record: dict, field: str = SUM_FIELD) -> str:
    """``record`` as one canonical JSON line (no newline) carrying its
    checksum under ``field``."""
    body = {key: value for key, value in record.items() if key != field}
    body[field] = checksum(body, field)
    return canonical_json(body)


def fsync_directory(path: str) -> None:
    """Fsync a directory so a rename inside it is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, text: str, fsync: bool = True) -> None:
    """Replace ``path`` with ``text`` so a reader (or a crash) sees the
    old file or the new one, never a mixture.  ``fsync=False`` keeps
    the atomic rename but skips both fsyncs."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = os.fspath(path) + ".tmp"
    with open(tmp_path, "w") as handle:
        handle.write(text)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    if fsync:
        fsync_directory(directory)


class AppendLog:
    """Append checksummed lines to one file, never seeking back.

    ``truncate=True`` starts the file afresh instead of appending.
    """

    def __init__(self, path: str, fsync: bool = False, faults=None,
                 truncate: bool = False):
        self.path = str(path)
        self.fsync = fsync
        self.faults = faults
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._stream = open(self.path, "wb" if truncate else "ab")

    def write(self, record: dict) -> None:
        """Write ``record`` as one flushed (and maybe fsynced) line.

        ``checksum_flip`` writes the line whole with a zeroed checksum;
        ``torn_write`` and ``sigkill`` persist only the first half of
        its bytes, then raise :class:`InjectedFault` or SIGKILL the
        process.
        """
        data = encode_line(record).encode("utf-8") + b"\n"
        faults = self.faults
        if faults is not None:
            if faults.check("checksum_flip"):
                bad = dict(record, sum="0" * 8)
                data = canonical_json(bad).encode("utf-8") + b"\n"
            if faults.check("torn_write"):
                self._put(data[: max(1, len(data) // 2)])
                raise InjectedFault(f"torn write injected at {self.path}")
            if faults.check("sigkill"):
                self._put(data[: max(1, len(data) // 2)])
                os.kill(os.getpid(), signal.SIGKILL)
        self._put(data)

    def _put(self, data: bytes) -> None:
        self._stream.write(data)
        self._stream.flush()
        if self.fsync:
            os.fsync(self._stream.fileno())

    def close(self) -> None:
        try:
            self._stream.close()
        except OSError:  # pragma: no cover - close-time race
            pass


class LogScan(NamedTuple):
    """What one tolerant pass over an append log found."""

    #: Intact lines as ``(line_number, value)`` pairs (1-based).
    records: list
    #: Damaged lines as ``{"line": n, "kind": ..., "raw": text}``.
    problems: list


def read_log(source, accept=None, faults=None) -> LogScan:
    """Read an append log (a path, or a stream with ``read()``).

    Each non-blank line becomes a record or a problem of one kind:
    ``torn`` (an unterminated final line that does not parse — the tail
    of a crash mid-append), ``malformed`` (any other line that is not a
    JSON object), ``checksum`` (its ``"sum"`` does not match) or
    ``rejected`` (``accept(record)`` returned ``None`` or raised
    ``KeyError``/``TypeError``/``ValueError``).

    Lines without ``"sum"``, written before logs carried one, skip the
    checksum test.  ``accept`` sees the record with its ``sum`` and
    returns the value to keep; ``sum`` is then stripped from the
    record, so a kept dict reads exactly as it was written.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            data = handle.read()
    else:
        data = source.read()
    if faults is not None and faults.check("short_read"):
        data = data[: (len(data) * 2) // 3]
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    lines = data.split("\n")
    torn = len(lines) if lines[-1] else 0  # the unterminated final line
    records, problems = [], []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not isinstance(record, dict):
            kind = "torn" if number == torn else "malformed"
        elif SUM_FIELD in record and record[SUM_FIELD] != checksum(record):
            kind = "checksum"
        else:
            try:
                value = record if accept is None else accept(record)
            except (KeyError, TypeError, ValueError):
                value = None
            record.pop(SUM_FIELD, None)
            if value is not None:
                records.append((number, value))
                continue
            kind = "rejected"
        problems.append({"line": number, "kind": kind, "raw": line})
    return LogScan(records, problems)
