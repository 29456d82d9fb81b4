"""Crash-safe canonical circuit store and synthesis cache service.

At production scale most synthesis requests repeat the same small
functions up to wire relabeling, so a durable, canonically-keyed
best-known-circuit database turns repeat synthesis into a lookup.
This package provides the three layers:

* :mod:`repro.store.canonical` — specs map to a canonical key naming
  their relabeling equivalence class, with the witness relabeling
  recorded so cached circuits replay onto the caller's wire order;
* :mod:`repro.store.store` (over :mod:`repro.store.segments`) —
  append-only checksummed JSONL segments (:mod:`repro.applog`),
  atomic rewrites, ``verify``/``repair`` that quarantines damage
  instead of dying;
* :mod:`repro.store.service` — the cache-through daemon (``rmrls
  serve``): store hit ⇒ verified replay; miss ⇒ single-flighted,
  batched synthesis on the worker pool; store trouble ⇒ synthesize
  anyway.

Crash recovery is testable, not aspirational:
:mod:`repro.store.faults` injects torn writes, short reads, checksum
flips, and mid-append SIGKILL, selected via ``RMRLS_STORE_FAULTS``.
See ``docs/robustness.md`` ("The circuit store's durability model").
"""

from repro.store.canonical import (
    CanonicalizationError,
    CanonicalSpec,
    canonicalize,
    relabel_circuit,
)
from repro.store.faults import (
    FAULT_KINDS,
    FAULTS_ENV_VAR,
    FaultPlan,
    InjectedFault,
    faults_from_env,
)
from repro.store.segments import encode_record, scan_segment
from repro.store.service import (
    StoreServer,
    SynthesisService,
    default_service_options,
    parse_images,
    request_over_socket,
    serve,
)
from repro.store.store import (
    STORE_SCHEMA,
    STORE_VERSION,
    CircuitStore,
    StoreError,
    StoreReadOnly,
    StoreRecord,
    StoreUnavailable,
    record_outcome,
)

__all__ = [
    "CanonicalSpec",
    "CanonicalizationError",
    "CircuitStore",
    "FAULT_KINDS",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "InjectedFault",
    "STORE_SCHEMA",
    "STORE_VERSION",
    "StoreError",
    "StoreReadOnly",
    "StoreRecord",
    "StoreServer",
    "StoreUnavailable",
    "SynthesisService",
    "canonicalize",
    "default_service_options",
    "encode_record",
    "faults_from_env",
    "parse_images",
    "record_outcome",
    "relabel_circuit",
    "request_over_socket",
    "scan_segment",
    "serve",
]
