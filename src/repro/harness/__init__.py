"""Fault-tolerant execution harness for RMRLS sweeps.

Isolated workers with hard wall/memory budgets, a failure taxonomy,
bounded retries with escalating budgets, and a resumable JSONL
checkpoint ledger.  See ``docs/robustness.md`` for the architecture.
"""

from repro.harness.ledger import (
    LEDGER_SCHEMA,
    LEDGER_VERSION,
    SweepLedger,
    read_ledger,
)
from repro.harness.pool import WorkerBudget, WorkerPool
from repro.harness.retry import DEFAULT_RETRYABLE, RetryPolicy
from repro.harness.sweep import (
    HarnessConfig,
    SweepReport,
    UnsoundCircuitError,
    build_sweep_report,
    run_sweep,
)
from repro.harness.tasks import (
    Task,
    benchmark_task,
    permutation_task,
    portfolio_task,
    probe_task,
    random_circuit_task,
    task_fingerprint,
)
from repro.harness.taxonomy import (
    FAILURE_STATUSES,
    STATUSES,
    TaskOutcome,
    status_from_finish_reason,
)
from repro.harness.worker import execute_payload, worker_entry

__all__ = [
    "DEFAULT_RETRYABLE",
    "FAILURE_STATUSES",
    "HarnessConfig",
    "LEDGER_SCHEMA",
    "LEDGER_VERSION",
    "RetryPolicy",
    "STATUSES",
    "SweepLedger",
    "SweepReport",
    "Task",
    "TaskOutcome",
    "UnsoundCircuitError",
    "WorkerBudget",
    "WorkerPool",
    "benchmark_task",
    "build_sweep_report",
    "execute_payload",
    "permutation_task",
    "portfolio_task",
    "probe_task",
    "random_circuit_task",
    "read_ledger",
    "run_sweep",
    "status_from_finish_reason",
    "task_fingerprint",
    "worker_entry",
]
