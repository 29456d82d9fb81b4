"""Deterministic fault injection for the circuit store.

Crash-safety claims are worthless untested, and real crashes are not
reproducible; this module makes them so, harness-style.  A
:class:`FaultPlan` is parsed from a compact spec — ``kind@n`` entries,
comma-separated — and arms the *n*-th matching store operation
(1-based, counted per kind)::

    RMRLS_STORE_FAULTS="torn_write@3" rmrls sweep ... --store cache/
    RMRLS_STORE_FAULTS="sigkill@2,checksum_flip@5" ...

Kinds (all hooked in the append-log byte layer, :mod:`repro.applog`):

* ``torn_write`` — the append writes only the first half of the
  record's bytes (no newline), fsyncs the torn prefix so it *survives*,
  then raises :class:`InjectedFault` — the classic power-cut torn tail;
* ``sigkill`` — like ``torn_write`` but the process SIGKILLs itself
  mid-append, for subprocess crash-recovery tests;
* ``checksum_flip`` — the record is written whole but with a corrupted
  checksum, modelling silent media corruption that only the per-record
  CRC can catch;
* ``short_read`` — a segment scan sees a truncated byte stream,
  modelling an interrupted read or a file still being copied.

Counting is deterministic, so a test (or the CI crash-recovery smoke
job) can place a fault at an exact record boundary and assert the
recovery behavior byte for byte.
"""

from __future__ import annotations

import os
from collections import defaultdict

from repro.applog import InjectedFault

__all__ = [
    "FAULT_KINDS",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "InjectedFault",
    "faults_from_env",
]

#: Environment variable selecting the fault plan.
FAULTS_ENV_VAR = "RMRLS_STORE_FAULTS"

#: Recognized fault kinds.
FAULT_KINDS = ("torn_write", "sigkill", "checksum_flip", "short_read")


class FaultPlan:
    """A parsed ``kind@n[,kind@n...]`` fault schedule.

    ``check(kind)`` counts one operation of that kind and reports
    whether this occurrence is armed.  The same kind may appear several
    times (``torn_write@2,torn_write@7``).
    """

    def __init__(self, spec: str):
        self.spec = spec
        self._armed: dict[str, set[int]] = defaultdict(set)
        self._counts: dict[str, int] = defaultdict(int)
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            kind, sep, ordinal = entry.partition("@")
            if not sep:
                raise ValueError(
                    f"fault entry {entry!r} is not of the form kind@n"
                )
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; "
                    f"expected one of {', '.join(FAULT_KINDS)}"
                )
            try:
                n = int(ordinal)
            except ValueError:
                raise ValueError(
                    f"fault ordinal {ordinal!r} is not an integer"
                ) from None
            if n < 1:
                raise ValueError("fault ordinals are 1-based")
            self._armed[kind].add(n)

    def check(self, kind: str) -> bool:
        """Count one ``kind`` operation; ``True`` when it is armed."""
        if kind not in self._armed:
            return False
        self._counts[kind] += 1
        return self._counts[kind] in self._armed[kind]

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec!r})"


def faults_from_env(environ=None) -> FaultPlan | None:
    """Build the plan selected by :data:`FAULTS_ENV_VAR`, if any."""
    env = os.environ if environ is None else environ
    spec = env.get(FAULTS_ENV_VAR, "")
    return FaultPlan(spec) if spec.strip() else None
