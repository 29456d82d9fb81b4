"""Circuit-store segments: append logs of checksummed circuit records.

A segment is an append log in the shared line format of
:mod:`repro.applog` (docs/formats.md, "Append logs"), written by an
:class:`~repro.applog.AppendLog` and read by
:func:`~repro.applog.read_log`.  This module adds only what is specific
to circuit records: their schema stamp and which intact lines a store
admits.
"""

from __future__ import annotations

from repro.applog import SUM_FIELD, LogScan, encode_line, read_log

__all__ = [
    "RECORD_SCHEMA",
    "RECORD_VERSION",
    "accept_record",
    "encode_record",
    "scan_segment",
]

#: Schema stamped into every circuit record.
RECORD_SCHEMA = "rmrls-circuit"
RECORD_VERSION = 1

#: A store record's segment line (no newline).
encode_record = encode_line


def accept_record(record: dict):
    """Admit a checksummed circuit record whose core fields have the
    right types; anything else is a ``rejected`` problem."""
    admitted = (
        SUM_FIELD in record
        and record.get("schema") == RECORD_SCHEMA
        and isinstance(record.get("key"), str)
        and isinstance(record.get("num_vars"), int)
        and isinstance(record.get("gates"), int)
        and isinstance(record.get("real"), str)
    )
    return record if admitted else None


def scan_segment(path: str, faults=None) -> LogScan:
    """Read one segment tolerantly: ``(records, problems)`` where
    ``records`` holds ``(line, record)`` pairs."""
    return read_log(path, accept_record, faults=faults)
