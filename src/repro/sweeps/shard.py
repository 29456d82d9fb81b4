"""Shard execution: one node's share of a sharded sweep.

A shard run is an ordinary :func:`repro.harness.sweep.run_sweep` over
the tasks of one manifest shard, with the distributed plumbing wired
up around it:

* its **own fsync'd ledger** (``shard-kofN.ledger.jsonl``) so a node
  can die mid-shard and resume losing at most the line being written;
* **adoption** of outcomes from foreign ledgers — ledgers written by
  other nodes or under a *different shard layout* of the same plan.
  Task ids hash the namespace, payload, and options but never the
  shard count, so any prior terminal outcome of the same plan is
  recognizable and re-usable wherever the work now lives;
* a **summary sidecar** (``shard-kofN.summary.json``) binding the
  run's report to the manifest and shard fingerprints, which is what
  lets ``merge`` refuse ledgers from a different plan.  It is the
  shard's one record of its counts: ``adopted``, ``solved`` and the
  sweep report (taxonomy counts and summed search counters).
"""

from __future__ import annotations

import json
import os
import time

from repro.applog import atomic_write
from repro.harness.ledger import SweepLedger, read_ledger
from repro.harness.sweep import HarnessConfig, run_sweep
from repro.sweeps.manifest import SweepManifest

__all__ = [
    "SHARD_SUMMARY_SCHEMA",
    "SHARD_SUMMARY_VERSION",
    "shard_sweep_name",
    "shard_ledger_path",
    "shard_summary_path",
    "adopt_outcomes",
    "run_shard",
]

SHARD_SUMMARY_SCHEMA = "rmrls-sweep-shard"
SHARD_SUMMARY_VERSION = 1


def _shard_stem(manifest: SweepManifest, index: int) -> str:
    return f"shard-{index + 1}of{manifest.shard_count}"


def shard_sweep_name(manifest: SweepManifest, index: int) -> str:
    """The ledger-header sweep name of one shard run."""
    return f"{manifest.namespace}:{_shard_stem(manifest, index)}"


def shard_ledger_path(out_dir: str, manifest: SweepManifest,
                      index: int) -> str:
    return os.path.join(out_dir, f"{_shard_stem(manifest, index)}.ledger.jsonl")


def shard_summary_path(out_dir: str, manifest: SweepManifest,
                       index: int) -> str:
    return os.path.join(
        out_dir, f"{_shard_stem(manifest, index)}.summary.json"
    )


def adopt_outcomes(
    manifest: SweepManifest,
    index: int,
    ledger_path: str,
    sources,
    fsync: bool = True,
) -> int:
    """Copy prior terminal outcomes into this shard's ledger.

    ``sources`` is a list of foreign ledger paths (any shard layout of
    the same plan).  Every terminal outcome whose task id belongs to
    this shard — and is not already in the shard's own ledger — is
    appended, after which an ordinary resume replays it for free.
    Unreadable sources are skipped: adoption is an optimization, never
    a correctness requirement.  Returns the number adopted.
    """
    wanted = {task.task_id for task in manifest.tasks_for_shard(index)}
    ledger = SweepLedger(
        ledger_path, sweep=shard_sweep_name(manifest, index), fsync=fsync
    )
    already = set(ledger.load())
    adopted = 0
    with ledger:
        for source in sources:
            if os.path.abspath(source) == os.path.abspath(ledger_path):
                continue
            try:
                outcomes = read_ledger(source)["outcomes"]
            except (OSError, ValueError):
                continue
            for task_id, outcome in outcomes.items():
                if task_id in wanted and task_id not in already:
                    ledger.record(outcome)
                    already.add(task_id)
                    adopted += 1
    return adopted


def run_shard(
    manifest: SweepManifest,
    index: int,
    out_dir: str,
    harness: HarnessConfig | None = None,
    adopt=(),
    limit: int | None = None,
    on_outcome=None,
    fsync: bool = True,
) -> dict:
    """Execute shard ``index`` of ``manifest`` into ``out_dir``.

    ``harness`` supplies isolation/retry/trace/store plumbing; the
    shard overrides its ledger with the shard's own fsync'd file.
    ``adopt`` lists foreign ledger paths to fold in before running
    (resume across shard layouts).  ``limit`` caps freshly executed
    tasks — the deterministic-interruption hook, same as
    :func:`run_sweep`.  Returns the shard summary (also written as a
    JSON sidecar next to the ledger).
    """
    spec = manifest.shard(index)
    os.makedirs(out_dir, exist_ok=True)
    ledger_path = shard_ledger_path(out_dir, manifest, index)
    if adopt:
        adopted = adopt_outcomes(
            manifest, index, ledger_path, adopt, fsync=fsync
        )
    else:
        adopted = 0

    config = (harness or HarnessConfig()).with_(
        ledger_path=ledger_path, ledger_fsync=fsync
    )
    report = run_sweep(
        shard_sweep_name(manifest, index),
        manifest.tasks_for_shard(index),
        config,
        on_outcome=on_outcome,
        limit=limit,
    )

    summary = {
        "schema": SHARD_SUMMARY_SCHEMA,
        "version": SHARD_SUMMARY_VERSION,
        "generated_unix": time.time(),
        "manifest_fingerprint": manifest.fingerprint,
        "universe": manifest.universe,
        "namespace": manifest.namespace,
        "shard": spec.as_dict(),
        "sweep": shard_sweep_name(manifest, index),
        "ledger": os.path.basename(ledger_path),
        "adopted": adopted,
        "solved": report.ok,
        "report": report.as_dict(),
    }
    atomic_write(
        shard_summary_path(out_dir, manifest, index),
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
    return summary
