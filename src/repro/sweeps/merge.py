"""Merge per-shard ledgers into the coverage database.

The collect side of a sharded sweep: fold any number of shard ledgers
(from any shard layout of the same plan) into one conflict-resolved,
replay-validated record per canonical class, and write the checksummed
coverage file plus its deterministic summary.

Conflict rule — two shards claiming different gate counts for one
class (re-runs under retries, adopted ledgers, nondeterministic search
schedules) resolve to the **minimum** gate count, with every distinct
claim retained in the record's ``claims`` list as provenance.  Ties on
gate count break on the lexicographically smallest encoded circuit, so
the merged bytes are independent of ledger order, shard count, and
arrival time: merging the same outcome set any way produces the same
file, byte for byte.

Every winning circuit is **simulation-replayed** against its class
representative before it is admitted; a claim whose circuit does not
implement the representative (or whose gate count disagrees with its
own circuit) is dropped as unsound and the next-best claim wins.
"""

from __future__ import annotations

import json
import os

from repro.applog import atomic_write
from repro.functions.permutation import Permutation
from repro.harness.ledger import read_ledger
from repro.io.real_format import RealFormatError, load_real
from repro.sweeps.corpus import (
    coverage_histogram,
    encode_circuit,
    write_coverage,
)
from repro.sweeps.manifest import SweepManifest

__all__ = [
    "MergeError",
    "merge_ledgers",
    "merge_to_coverage",
    "seed_coverage_store",
    "coverage_summary",
]

#: Deterministic preference order for failure-only classes: the merged
#: status is the first of these any claim carries.
_FAILURE_ORDER = ("unsolved", "timeout", "oom", "hang", "crash", "unsound")


class MergeError(ValueError):
    """The ledgers cannot be merged into a complete, sound coverage."""


def _validated_circuit(outcome, images):
    """Parse and replay one ok claim; returns the circuit or ``None``."""
    if not outcome.circuit:
        return None
    try:
        circuit = load_real(outcome.circuit)
    except (RealFormatError, ValueError):
        return None
    if circuit.gate_count() != outcome.gate_count:
        return None
    if not circuit.implements(Permutation(list(images))):
        return None
    return circuit


def merge_ledgers(
    manifest: SweepManifest,
    ledger_paths,
    strict: bool = True,
    replay: bool = True,
) -> tuple[list[dict], dict]:
    """Fold shard ledgers into coverage records; returns
    ``(records, report)``.

    Ledgers are matched to classes purely by task id (which never
    encodes the shard layout), so any mix of layouts of the same plan
    merges; a ledger whose sweep name does not belong to the
    manifest's namespace raises :class:`MergeError` — merging a
    different plan would silently poison the oracle.  With ``strict``
    (the default), a class with no terminal claim at all is an error;
    otherwise it is recorded with status ``missing``.
    """
    classes = manifest.universe_object().classes[: manifest.items]
    by_task = {
        manifest.task_for_class(cls).task_id: cls for cls in classes
    }
    claims: dict[int, list] = {cls.class_rank: [] for cls in classes}
    report = {
        "ledgers": 0,
        "classes": len(classes),
        "solved": 0,
        "missing": 0,
        "conflicts": 0,
        "duplicates": 0,
        "dropped_unsound": 0,
        "unmatched_outcomes": 0,
        "skipped_lines": 0,
        "interrupted_records": 0,
    }
    for path in ledger_paths:
        try:
            parsed = read_ledger(path)
        except (OSError, ValueError) as error:
            raise MergeError(f"cannot merge {path}: {error}") from None
        sweep = str(parsed["header"].get("sweep", ""))
        if not sweep.startswith(f"{manifest.namespace}:"):
            raise MergeError(
                f"{path} belongs to sweep {sweep!r}, not plan "
                f"{manifest.namespace!r}; refusing to merge"
            )
        report["ledgers"] += 1
        report["skipped_lines"] += parsed["skipped_lines"]
        report["interrupted_records"] += parsed["interrupted_records"]
        for task_id, outcome in parsed["outcomes"].items():
            cls = by_task.get(task_id)
            if cls is None:
                report["unmatched_outcomes"] += 1
                continue
            existing = claims[cls.class_rank]
            if existing:
                report["duplicates"] += 1
            existing.append(outcome)

    records = []
    for cls in classes:
        outcomes = claims[cls.class_rank]
        claim_set = sorted(
            {
                (
                    outcome.status,
                    outcome.gate_count if outcome.status == "ok" else None,
                )
                for outcome in outcomes
            },
            key=lambda claim: (claim[0], -1 if claim[1] is None else claim[1]),
        )
        if len(claim_set) > 1:
            report["conflicts"] += 1
        record = {
            "class_rank": cls.class_rank,
            "perm_rank": cls.perm_rank,
            "images": list(cls.images),
            "class_size": cls.class_size,
            "claims": [
                {"status": status, "gates": gates}
                for status, gates in claim_set
            ],
        }
        # Best valid ok claim: minimum gates, then lexicographically
        # smallest encoded circuit — a total order on content, so the
        # winner cannot depend on which ledger arrived first.
        best = None
        for outcome in outcomes:
            if outcome.status != "ok":
                continue
            if replay:
                circuit = _validated_circuit(outcome, cls.images)
                if circuit is None:
                    report["dropped_unsound"] += 1
                    continue
            else:
                try:
                    circuit = load_real(outcome.circuit)
                except (RealFormatError, ValueError, TypeError):
                    report["dropped_unsound"] += 1
                    continue
            encoded = encode_circuit(circuit)
            key = (circuit.gate_count(), encoded)
            if best is None or key < best[0]:
                best = (key, circuit, encoded, outcome)
        if best is not None:
            _, circuit, encoded, outcome = best
            record.update(
                status="ok",
                gates=circuit.gate_count(),
                quantum_cost=circuit.quantum_cost(),
                toffoli=encoded,
            )
            report["solved"] += 1
        elif outcomes:
            # An "ok" whose circuit failed replay is unsound, not ok.
            statuses = {
                "unsound" if outcome.status == "ok" else outcome.status
                for outcome in outcomes
            }
            record["status"] = next(
                (status for status in _FAILURE_ORDER if status in statuses),
                sorted(statuses)[0],
            )
        else:
            report["missing"] += 1
            if strict:
                raise MergeError(
                    f"class {cls.class_rank} ({list(cls.images)}) has no "
                    f"terminal outcome in any ledger; run its shard (or "
                    f"pass strict=False to record it as missing)"
                )
            record["status"] = "missing"
        records.append(record)
    return records, report


def coverage_summary(manifest: SweepManifest, records, report,
                     body_digest: str) -> dict:
    """The deterministic summary document written beside the coverage
    file (no timestamps — it is committed next to the corpus)."""
    histogram = coverage_histogram(records, weighted=True)
    functions_solved = sum(
        record["class_size"] for record in records
        if record.get("status") == "ok"
    )
    average = (
        sum(gates * count for gates, count in histogram.items())
        / functions_solved
        if functions_solved
        else None
    )
    return {
        "schema": "rmrls-coverage-summary",
        "version": 1,
        "universe": manifest.universe,
        "namespace": manifest.namespace,
        "classes": len(records),
        "functions": sum(record["class_size"] for record in records),
        "functions_solved": functions_solved,
        "gate_histogram": {
            str(gates): count for gates, count in histogram.items()
        },
        "average_gates": (
            None if average is None else round(average, 4)
        ),
        "merge": dict(report),
        "body_digest": body_digest,
    }


def merge_to_coverage(
    manifest: SweepManifest,
    ledger_paths,
    out_path: str,
    summary_path: str | None = None,
    store_path: str | None = None,
    registry=None,
    strict: bool = True,
    replay: bool = True,
) -> dict:
    """The full collect step: merge, write, summarize, seed the store.

    Writes the coverage file at ``out_path`` (and its summary at
    ``summary_path``, default ``<out_path minus .jsonl>.summary.json``),
    optionally bulk-seeds a PR-7 :class:`CircuitStore` at
    ``store_path`` through the canonical-key path, and returns the
    summary document (with the store stats attached when seeding ran).
    """
    records, report = merge_ledgers(
        manifest, ledger_paths, strict=strict, replay=replay
    )
    header_fields = {
        "universe": manifest.universe,
        "num_vars": manifest.num_vars,
        "namespace": manifest.namespace,
        "options": dict(manifest.options),
        "items": manifest.items,
        "functions": manifest.functions,
    }
    body_digest = write_coverage(out_path, header_fields, records)
    summary = coverage_summary(manifest, records, report, body_digest)
    if store_path:
        summary["store"] = seed_coverage_store(
            records, store_path, source=f"coverage:{manifest.universe}",
            registry=registry,
        )
    if summary_path is None:
        stem = out_path[:-6] if out_path.endswith(".jsonl") else out_path
        summary_path = f"{stem}.summary.json"
    atomic_write(
        summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    summary["path"] = out_path
    summary["summary_path"] = summary_path
    return summary


def seed_coverage_store(
    records, store_path: str, source: str, registry=None
) -> dict:
    """Bulk-seed merged coverage records into a canonical circuit store.

    Every solved class's circuit flows through
    :meth:`CircuitStore.merge_circuits` — canonicalized, deduplicated
    by canonical key, admitted only when it beats the store's
    best-known — so re-collecting a corpus into a warm store appends
    nothing.
    """
    from repro.store import CircuitStore
    from repro.sweeps.corpus import circuit_from_record

    def entries():
        for record in records:
            if record.get("status") != "ok":
                continue
            yield (
                circuit_from_record(record),
                {"source": source, "class_rank": record["class_rank"]},
            )

    with CircuitStore(store_path) as store:
        stats = store.merge_circuits(entries(), registry=registry)
    stats["path"] = os.fspath(store_path)
    return stats
