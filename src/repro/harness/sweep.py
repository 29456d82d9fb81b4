"""Fault-tolerant sweep orchestration.

:func:`run_sweep` drives a list of declarative tasks to completion:

* **resume** — with a ledger path, previously finished task ids are
  skipped and their recorded outcomes replayed, so aggregates equal an
  uninterrupted run;
* **isolation** — with ``isolate=True`` each attempt runs in a
  subprocess under hard wall/memory budgets (see
  :mod:`repro.harness.pool`); without it tasks run in-process through
  the very same task runners (no budgets enforceable beyond the
  search's own, but crashes are still contained and classified);
* **retries** — failed attempts re-run with escalated budgets per the
  :class:`~repro.harness.retry.RetryPolicy`;
* **accounting** — every outcome is classified into the failure
  taxonomy and counted in the :class:`SweepReport`, which also sums
  the search counters of the tasks this run executed (``stats``).
  The report is the sweep's only record of those counts; the optional
  :class:`~repro.obs.metrics.MetricsRegistry` gets only the recovery
  counters no report carries (damaged ledger lines, store seeding).

A ``KeyboardInterrupt`` stops the sweep cleanly: running workers are
killed, finished work is already checkpointed, and the report says
``interrupted`` — nothing is lost but the in-flight attempts.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback
from dataclasses import dataclass, field

from repro.harness.ledger import SweepLedger
from repro.harness.pool import WorkerBudget, WorkerPool
from repro.harness.retry import RetryPolicy
from repro.harness.tasks import Task
from repro.harness.taxonomy import (
    STATUS_CRASH,
    STATUS_INTERRUPTED,
    STATUS_OOM,
    STATUS_UNSOUND,
    STATUSES,
    TaskOutcome,
)
from repro.harness.worker import execute_payload
from repro.obs.flight import FlightRecorder, end_recording
from repro.synth.stats import SearchStats

__all__ = [
    "HarnessConfig",
    "SweepReport",
    "UnsoundCircuitError",
    "run_sweep",
    "build_sweep_report",
]


class UnsoundCircuitError(AssertionError):
    """Raised in ``strict`` mode when a task yields an unsound circuit.

    Subclasses :class:`AssertionError` so existing alarm tests (and
    callers) that expect the historical ``assert``-style failure keep
    working.
    """


@dataclass(frozen=True)
class HarnessConfig:
    """How a sweep executes its tasks.

    The default — no isolation, no ledger, no retries — runs every task
    inline and records an unsound circuit as an ``unsound`` outcome;
    ``strict=True`` raises :class:`UnsoundCircuitError` on it instead.
    This is the only place the experiment drivers take strictness from.
    """

    isolate: bool = False
    jobs: int = 1
    wall_seconds: float | None = None
    mem_limit_mb: int | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    ledger_path: str | None = None
    # fsync the ledger after every recorded outcome: a power cut then
    # loses at most the line being written, same as a SIGKILL.
    ledger_fsync: bool = False
    strict: bool = False
    metrics: object | None = field(default=None, compare=False)
    # Canonical circuit store directory (repro.store).  When set,
    # every ``ok`` outcome's circuit is canonicalized and seeded into
    # the store, deduplicated by canonical key — completed sweeps warm
    # the synthesis cache as a side effect.
    store_path: str | None = None
    # Flight-recorder directory (repro.obs.flight; needs ``isolate``).
    # Every worker arms a ring-buffer black box and the coordinator
    # records scheduling decisions; abnormal deaths leave checksummed
    # crash dumps for ``rmrls postmortem``/``replay``.
    flight_dir: str | None = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.isolate:
            # Each of these acts only on isolated workers; without
            # ``isolate`` the sweep would run and silently drop it.
            for flag, given in (
                ("--flight-dir", bool(self.flight_dir)),
                ("--wall-limit", self.wall_seconds is not None),
                ("--mem-limit", self.mem_limit_mb is not None),
                ("--jobs above 1", self.jobs > 1),
            ):
                if given:
                    raise ValueError(
                        f"{flag} needs --isolate: it acts only on "
                        "isolated workers"
                    )

    def with_(self, **changes) -> "HarnessConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass
class SweepReport:
    """Aggregate accounting for one sweep run.

    ``stats`` is the :meth:`SearchStats.merge` of the tasks executed in
    this run; replayed ledger outcomes did no work here and are left
    out.
    """

    name: str
    counts: dict = field(default_factory=dict)
    total: int = 0
    completed: int = 0
    replayed: int = 0
    remaining: int = 0
    retries: int = 0
    interrupted: bool = False
    elapsed_seconds: float = 0.0
    stats: SearchStats = field(default_factory=SearchStats)

    def count(self, status: str) -> int:
        """Tasks that ended with ``status``."""
        return self.counts.get(status, 0)

    @property
    def ok(self) -> int:
        return self.count("ok")

    @property
    def failed(self) -> int:
        """Tasks that ended in any non-``ok`` status."""
        return sum(
            count for status, count in self.counts.items() if status != "ok"
        )

    def as_dict(self) -> dict:
        """JSON-safe snapshot (embedded in sweep reports)."""
        return {
            "name": self.name,
            "counts": {s: self.counts.get(s, 0) for s in STATUSES},
            "total": self.total,
            "completed": self.completed,
            "replayed": self.replayed,
            "remaining": self.remaining,
            "retries": self.retries,
            "interrupted": self.interrupted,
            "elapsed_seconds": self.elapsed_seconds,
            "stats": self.stats.as_dict(),
        }


def _run_inline_attempt(task: Task, options: dict, attempt: int) -> dict:
    """One in-process attempt, with exceptions mapped to the taxonomy.

    ``KeyboardInterrupt`` propagates (the sweep loop converts it into a
    clean stop); everything else is contained as ``crash``/``oom`` so a
    poisoned specification cannot abort the sweep even without process
    isolation.
    """
    try:
        return execute_payload(
            task.kind, task.payload, options, attempt, task.runtime
        )
    except KeyboardInterrupt:
        raise
    except MemoryError:
        return {
            "status": STATUS_OOM,
            "error": "MemoryError during in-process execution",
        }
    except BaseException:
        return {
            "status": STATUS_CRASH,
            "error": traceback.format_exc(limit=20),
        }


def _outcome_from_raw(task: Task, raw: dict, attempts: int,
                      elapsed: float) -> TaskOutcome:
    """Classify an in-process attempt's raw result dict."""
    return TaskOutcome(
        task_id=task.task_id,
        status=raw["status"],
        attempts=attempts,
        gate_count=raw.get("gate_count"),
        quantum_cost=raw.get("quantum_cost"),
        circuit=raw.get("circuit"),
        stats=dict(raw.get("stats") or {}),
        error=raw.get("error"),
        elapsed_seconds=elapsed,
        meta=dict(task.meta),
        extra=dict(raw.get("extra") or {}),
    )


def _run_inline(tasks, config, on_final, clock=time.monotonic) -> bool:
    """Run tasks in-process with the same retry ladder; returns True
    when interrupted."""
    retry = config.retry
    for task in tasks:
        attempt = 1
        elapsed = 0.0
        try:
            while True:
                start = clock()
                raw = _run_inline_attempt(
                    task, retry.escalate_options(task.options, attempt),
                    attempt,
                )
                elapsed += clock() - start
                status = raw["status"]
                if status == STATUS_INTERRUPTED:
                    # The search caught Ctrl-C and returned a partial
                    # result; stop the sweep without recording the task.
                    return True
                if retry.should_retry(status, attempt):
                    delay = retry.backoff(task.task_id, attempt + 1)
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
                    continue
                break
        except KeyboardInterrupt:
            return True
        on_final(task, _outcome_from_raw(task, raw, attempt, elapsed))
    return False


def run_sweep(
    name: str,
    tasks,
    config: HarnessConfig | None = None,
    on_outcome=None,
    limit: int | None = None,
) -> SweepReport:
    """Run ``tasks`` to completion under ``config``; return the report.

    ``on_outcome(task_or_none, outcome)`` fires for every final outcome
    — replayed-from-ledger ones first (with their original recorded
    data), then freshly executed ones as they finish.  ``limit`` caps
    the number of tasks *executed* this call (replays are free), which
    turns an interrupted sweep into a deterministic, testable event:
    the report flags ``interrupted`` and the ledger holds exactly the
    finished prefix.

    In ``strict`` mode an ``unsound`` outcome raises
    :class:`UnsoundCircuitError` — after checkpointing it, so even the
    alarm case loses no data.
    """
    if config is None:
        config = HarnessConfig()
    tasks = list(tasks)
    report = SweepReport(name=name, total=len(tasks))
    started = time.monotonic()
    registry = config.metrics

    ledger = None
    recorded: dict[str, TaskOutcome] = {}
    if config.ledger_path:
        ledger = SweepLedger(
            config.ledger_path, sweep=name, fsync=config.ledger_fsync
        )
        recorded = ledger.load()
        if ledger.skipped_lines and registry is not None:
            registry.counter("sweep_ledger_skipped_lines").inc(
                ledger.skipped_lines
            )

    store = None
    if config.store_path:
        # Deferred import: the store package pulls in the canonical-key
        # machinery, which plain (storeless) sweeps never need.
        from repro.store import CircuitStore, record_outcome

        store = CircuitStore(config.store_path)

    def account(task, outcome, replay: bool) -> None:
        report.counts[outcome.status] = (
            report.counts.get(outcome.status, 0) + 1
        )
        report.completed += 1
        if replay:
            report.replayed += 1
        else:
            report.retries += outcome.attempts - 1
            report.stats.merge(SearchStats.from_dict(outcome.stats))
        if store is not None:
            # Replayed outcomes seed too: the ledger may predate the
            # store, and canonical-key dedup makes re-seeding free.
            record_outcome(
                store, outcome, source=f"sweep:{name}", registry=registry
            )
        if on_outcome is not None:
            on_outcome(task, outcome)
        if config.strict and outcome.status == STATUS_UNSOUND:
            label = task.label() if task is not None else outcome.task_id
            raise UnsoundCircuitError(f"unsound circuit for {label}")

    def finish() -> SweepReport:
        report.remaining = report.total - report.completed
        report.elapsed_seconds = time.monotonic() - started
        return report

    flight = None
    if config.flight_dir:
        # The coordinator's own black box.  Fault injection stays
        # worker-only (``faults="none"``) so an injected SIGKILL kills
        # workers, not the sweep driving them.
        flight = FlightRecorder(
            os.path.join(config.flight_dir, "coord.ring"),
            meta={"process": "coord", "sweep": name, "tasks": len(tasks)},
            faults="none",
        )
        flight.record("sweep_start", name=name, tasks=len(tasks))

    pending: list[Task] = []
    error = None
    try:
        for task in tasks:
            previous = recorded.get(task.task_id)
            if previous is not None:
                account(task, previous, replay=True)
            else:
                pending.append(task)

        if limit is not None and len(pending) > limit:
            pending = pending[:limit]
            report.interrupted = True

        if not pending:
            return finish()

        if ledger is not None:
            ledger.open()

        def on_final(task, outcome):
            if ledger is not None:
                ledger.record(outcome)
            account(task, outcome, replay=False)

        if config.isolate:
            pool = WorkerPool(
                jobs=config.jobs,
                budget=WorkerBudget(
                    wall_seconds=config.wall_seconds,
                    mem_limit_mb=config.mem_limit_mb,
                ),
                retry=config.retry,
                flight_dir=config.flight_dir,
                flight=flight,
            )
            try:
                with pool:
                    pool.run(pending, on_final=on_final)
            except KeyboardInterrupt:
                report.interrupted = True
        else:
            if _run_inline(pending, config, on_final):
                report.interrupted = True
        return finish()
    except BaseException as caught:
        error = caught
        raise
    finally:
        end_recording(flight, error)
        if ledger is not None:
            ledger.close()
        if store is not None:
            store.close()


#: Schema stamped into sweep report documents.
SWEEP_REPORT_SCHEMA = "rmrls-sweep-report"
SWEEP_REPORT_VERSION = 1


def build_sweep_report(
    report: SweepReport,
    registry=None,
    extra: dict | None = None,
) -> dict:
    """Build the machine-readable JSON document for one sweep run.

    The sibling of :func:`repro.obs.report.build_run_report` at sweep
    granularity: taxonomy counts, retry totals and summed search
    counters, (optionally) the recovery-counter snapshot, stamped with
    schema and environment info.
    """
    from repro.obs.report import environment_info

    document = {
        "schema": SWEEP_REPORT_SCHEMA,
        "version": SWEEP_REPORT_VERSION,
        "generated_unix": time.time(),
        "sweep": report.as_dict(),
        "metrics": None if registry is None else registry.as_dict(),
        "environment": environment_info(),
    }
    if extra:
        document["extra"] = dict(extra)
    return document
