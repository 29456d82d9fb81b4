"""The isolated worker pool: reused worker processes, retired on any
unclean end.

A worker is a forked subprocess running attempts one at a time from a
pipe (:func:`~repro.harness.worker.worker_loop`).  Only an ``ok``,
``unsolved`` or ``timeout`` result returns it to the idle set; any
other end retires it (SIGKILL, join, close its pipe), so the budgets
stay *hard*: a worker that hangs past its wall budget or allocates
past its memory budget is SIGKILLed (or dies on ``MemoryError`` under
``RLIMIT_AS``) without taking the sweep down, a worker that
``os._exit``\\ s or segfaults is classified as ``crash`` rather than
aborting the run, and the next attempt gets a fresh fork.

The pool owns scheduling (up to ``jobs`` concurrent workers), budget
enforcement, exit classification, and the retry ladder; checkpointing
and aggregation stay with :mod:`repro.harness.sweep` via the
``on_final`` callback, which fires the moment each task's outcome is
final so a killed sweep has already persisted everything that finished.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import multiprocessing.util
import os
import time
from dataclasses import dataclass

from repro.harness.retry import RetryPolicy
from repro.harness.tasks import Task
from repro.harness.taxonomy import (
    STATUS_CRASH,
    STATUS_HANG,
    STATUS_INTERRUPTED,
    STATUS_OK,
    STATUS_OOM,
    STATUS_TIMEOUT,
    STATUS_UNSOLVED,
    TaskOutcome,
)
from repro.harness.worker import worker_loop

__all__ = ["WorkerBudget", "WorkerPool"]

_SIGKILL = 9

#: Results after which a worker is clean enough to run another attempt.
_REUSABLE = (STATUS_OK, STATUS_UNSOLVED, STATUS_TIMEOUT)


@dataclass(frozen=True)
class WorkerBudget:
    """Hard per-attempt budgets enforced by the parent.

    ``wall_seconds`` is the harness deadline: a worker still running
    past it is SIGKILLed and classified ``hang``.  ``mem_limit_mb``
    caps the worker's address space (``RLIMIT_AS``); the overrun
    surfaces as ``MemoryError`` → ``oom``.  ``None`` disables either
    budget.
    """

    wall_seconds: float | None = None
    mem_limit_mb: int | None = None

    def __post_init__(self):
        if self.wall_seconds is not None and self.wall_seconds <= 0:
            raise ValueError("wall_seconds must be positive or None")
        if self.mem_limit_mb is not None and self.mem_limit_mb <= 0:
            raise ValueError("mem_limit_mb must be positive or None")


@dataclass(eq=False)
class _Worker:
    """One worker process and the parent's end of its pipe."""

    process: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    mem: int | None  # the RLIMIT_AS it applied at start
    runtime: dict | None  # inherited through the fork


@dataclass(eq=False)
class _Attempt:
    """Bookkeeping for one attempt running on a worker."""

    task: Task
    attempt: int
    worker: _Worker
    started: float
    deadline: float | None
    prior_elapsed: float
    killed: bool = False
    cancelled: bool = False


class _Pending:
    """A task waiting for a worker slot (possibly in retry backoff)."""

    __slots__ = ("task", "attempt", "ready_at", "prior_elapsed")

    def __init__(self, task, attempt=1, ready_at=0.0, prior_elapsed=0.0):
        self.task = task
        self.attempt = attempt
        self.ready_at = ready_at
        self.prior_elapsed = prior_elapsed


class WorkerPool:
    """Run tasks in isolated subprocesses under hard budgets.

    ``jobs`` bounds concurrency and live workers, which are forked
    lazily and kept across attempts and ``run()`` calls until
    :meth:`close`.
    ``retry`` drives the escalation ladder (options, wall, and memory
    budgets all escalate per :class:`~repro.harness.retry.RetryPolicy`).
    """

    def __init__(
        self,
        jobs: int = 1,
        budget: WorkerBudget | None = None,
        retry: RetryPolicy | None = None,
        clock=time.monotonic,
        flight_dir=None,
        flight=None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.budget = budget if budget is not None else WorkerBudget()
        self.retry = retry if retry is not None else RetryPolicy()
        # fork keeps the warmed-up interpreter and is the only way the
        # portfolio's shared bound (an mp.Value) reaches a worker.
        self._ctx = multiprocessing.get_context("fork")
        self._idle: list[_Worker] = []
        self._clock = clock
        # Optional flight recording (repro.obs.flight): ``flight_dir``
        # arms a ring-buffer recorder inside every worker (the wire is
        # a plain dict — live recorders cannot cross a spawn pickle),
        # and ``_settle`` turns an unclean attempt's ring into its
        # crash dump.  ``flight`` is the coordinator's own recorder for
        # scheduling decisions; its owner ends it, not the pool.
        self.flight_dir = str(flight_dir) if flight_dir else None
        self.flight = flight

    # -- process plumbing --------------------------------------------------

    def _launch(self, pending: _Pending) -> _Attempt:
        task = pending.task
        options = self.retry.escalate_options(task.options, pending.attempt)
        mem = self.retry.escalate_mem(
            self.budget.mem_limit_mb, pending.attempt
        )
        flight_wire = None
        if self.flight_dir is not None:
            flight_wire = {"dir": self.flight_dir, "task_id": task.task_id}
        worker = self._checkout(mem, task.runtime)
        try:
            worker.conn.send((task.kind, task.payload, options,
                              pending.attempt, flight_wire))
        except OSError:
            pass  # the worker died; the attempt settles as its death
        started = self._clock()
        wall = self.retry.escalate_wall(
            self.budget.wall_seconds, pending.attempt
        )
        deadline = None if wall is None else started + wall
        return _Attempt(
            task, pending.attempt, worker, started, deadline,
            pending.prior_elapsed,
        )

    def _checkout(self, mem, runtime) -> _Worker:
        """An idle worker with this memory budget and runtime, or a new
        fork."""
        for worker in list(self._idle):
            if not worker.process.is_alive():
                self._idle.remove(worker)
                self._retire(worker)
            elif worker.mem == mem and worker.runtime is runtime:
                self._idle.remove(worker)
                return worker
        conn, child_end = self._ctx.Pipe()
        # Every later fork (this worker included) closes its copy of the
        # parent's end, so a worker sees EOF once the parent drops it.
        multiprocessing.util.register_after_fork(conn, type(conn).close)
        process = self._ctx.Process(
            target=worker_loop, args=(child_end, mem, runtime), daemon=True,
        )
        process.start()
        child_end.close()  # the child owns this end now
        return _Worker(process, conn, mem, runtime)

    @staticmethod
    def _retire(worker: _Worker) -> None:
        worker.process.kill()
        worker.process.join()
        worker.conn.close()

    def close(self) -> None:
        """Retire every idle worker.  A later ``run()`` forks afresh."""
        idle, self._idle = self._idle, []
        for worker in idle:
            self._retire(worker)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _conclude(self, running: _Attempt) -> dict:
        """Collect an ended attempt's raw result dict, and return its
        worker to the idle set or retire it."""
        worker = running.worker
        result = None
        if running.killed:
            worker.process.join()  # a result that raced in is kept
        try:
            if worker.conn.poll():
                result = worker.conn.recv()
        except (EOFError, OSError):
            pass  # died without (all of) a result
        if not isinstance(result, dict) or "status" not in result:
            result = None
        elif result["status"] in _REUSABLE and not running.killed:
            self._idle.append(worker)
            if len(self._idle) > self.jobs:  # keep at most ``jobs`` alive
                self._retire(self._idle.pop(0))
            return result
        self._retire(worker)
        if result is not None:
            return result
        if running.cancelled:
            return {
                "status": STATUS_INTERRUPTED,
                "error": "worker cancelled by the pool's stop condition",
            }
        if running.killed:
            return {
                "status": STATUS_HANG,
                "error": (
                    "worker SIGKILLed after exceeding its wall budget"
                ),
            }
        exitcode = worker.process.exitcode
        if exitcode == -_SIGKILL:
            # We did not kill it — the kernel OOM killer uses SIGKILL.
            return {
                "status": STATUS_OOM,
                "error": "worker killed by SIGKILL (kernel OOM suspected)",
            }
        return {
            "status": STATUS_CRASH,
            "error": f"worker exited with code {exitcode} without a result",
        }

    def _kill(self, running: _Attempt) -> None:
        running.killed = True
        running.worker.process.kill()

    # -- the scheduling loop -----------------------------------------------

    def run(self, tasks, on_final=None, stop_check=None) -> list[TaskOutcome]:
        """Run every task to a final outcome; return them in finish order.

        ``on_final(task, outcome)`` fires as soon as a task's outcome is
        final (all retries exhausted or not needed).  On
        ``KeyboardInterrupt`` (or any error) every worker, running or
        idle, is SIGKILLed and the interrupt propagates — tasks without
        a final outcome simply have none, which is what makes a later
        resume re-run them.

        ``stop_check()`` (optional) is polled between scheduling rounds;
        once it returns true, still-running workers are SIGKILLed and
        settled as ``interrupted`` (no retries) and unlaunched tasks get
        ``interrupted`` outcomes too — the portfolio driver's early
        cancellation.  Results that already arrived are never discarded.
        """
        pending = [_Pending(task) for task in tasks]
        running: list[_Attempt] = []
        finished: list[TaskOutcome] = []
        poll_cap = 0.05 if stop_check is not None else None
        last_sched = None
        try:
            while pending or running:
                if stop_check is not None and stop_check():
                    self._cancel_rest(pending, running, finished, on_final)
                    break
                now = self._clock()
                self._fill_slots(pending, running, now)
                if self.flight is not None:
                    sched = (len(pending), len(running), len(finished))
                    if sched != last_sched:
                        last_sched = sched
                        self.flight.record(
                            "sched", pending=sched[0], running=sched[1],
                            finished=sched[2],
                        )
                self._wait(pending, running, now, poll_cap)
                now = self._clock()
                for attempt in list(running):
                    worker = attempt.worker
                    # Settle on the result, not on the worker's exit.
                    if worker.process.is_alive() and not worker.conn.poll():
                        if attempt.deadline is None or now < attempt.deadline:
                            continue
                        self._kill(attempt)
                    running.remove(attempt)
                    self._settle(attempt, now, pending, finished, on_final)
        except BaseException:
            self._idle.extend(attempt.worker for attempt in running)
            self.close()
            raise
        return finished

    def _cancel_rest(self, pending, running, finished, on_final) -> None:
        """SIGKILL the survivors of a satisfied stop condition.

        Each killed worker settles through the normal path: a result
        that raced in before the kill is kept verbatim; otherwise the
        attempt is classified ``interrupted`` (not retryable).  Tasks
        never launched settle as ``interrupted`` without a process.
        """
        now = self._clock()
        for attempt in list(running):
            attempt.cancelled = True
            self._kill(attempt)
            running.remove(attempt)
            self._settle(attempt, now, pending, finished, on_final)
        for waiting in list(pending):
            pending.remove(waiting)
            outcome = TaskOutcome(
                task_id=waiting.task.task_id,
                status=STATUS_INTERRUPTED,
                attempts=max(1, waiting.attempt - 1),
                error="cancelled before launch by the pool's stop condition",
                elapsed_seconds=waiting.prior_elapsed,
                meta=dict(waiting.task.meta),
            )
            finished.append(outcome)
            if on_final is not None:
                on_final(waiting.task, outcome)

    def _fill_slots(self, pending, running, now) -> None:
        while len(running) < self.jobs:
            ready = next(
                (p for p in pending if p.ready_at <= now), None
            )
            if ready is None:
                return
            pending.remove(ready)
            running.append(self._launch(ready))

    def _wait(self, pending, running, now, cap=None) -> None:
        """Block until a result arrives, a worker exits, a deadline
        passes, or a backoff window opens.  ``cap`` bounds the block so
        a ``stop_check`` is re-polled promptly."""
        horizons = [a.deadline for a in running if a.deadline is not None]
        if len(running) < self.jobs:
            horizons.extend(p.ready_at for p in pending if p.ready_at > now)
        timeout = None
        if horizons:
            timeout = max(0.0, min(horizons) - now)
        if cap is not None:
            timeout = cap if timeout is None else min(timeout, cap)
        if running:
            multiprocessing.connection.wait(
                [attempt.worker.conn for attempt in running]
                + [attempt.worker.process.sentinel for attempt in running],
                timeout=timeout,
            )
        elif timeout:
            time.sleep(min(timeout, 0.05))

    def _reap_flight(self, attempt, raw: dict) -> None:
        """Recover (or clean up) a settled attempt's flight ring.

        The one place a worker's crash dump is written.  A worker that
        reported an unclean result closed its ring; one that died
        silently (SIGKILL on budget, kernel OOM, ``os._exit``) left it
        mid-write.  Either way, dump-worthy statuses recover the ring
        into a checksummed crash dump and link it into the outcome's
        ``extra`` (the taxonomy linkage); clean statuses just drop any
        stale ring.  Recovery failures never fail the settle.
        """
        from repro.obs.flight import (
            DUMP_STATUSES,
            discard_ring,
            recover_ring_to_file,
            worker_ring_path,
        )

        ring = worker_ring_path(
            self.flight_dir, attempt.task.task_id, attempt.attempt
        )
        try:
            if not os.path.exists(ring):
                return
            if raw.get("status") in DUMP_STATUSES:
                dump_path = recover_ring_to_file(
                    ring, reason=raw["status"], error=raw.get("error"),
                )
                raw.setdefault("extra", {})["flight_dump"] = dump_path
                if self.flight is not None:
                    self.flight.record(
                        "flight_recovered",
                        task=attempt.task.task_id,
                        attempt=attempt.attempt,
                        status=raw.get("status"),
                    )
            else:
                discard_ring(ring)
        except (OSError, ValueError):
            pass

    def _settle(self, attempt, now, pending, finished, on_final) -> None:
        raw = self._conclude(attempt)
        status = raw["status"]
        if self.flight_dir is not None:
            self._reap_flight(attempt, raw)
        elapsed = attempt.prior_elapsed + (now - attempt.started)
        if self.retry.should_retry(status, attempt.attempt):
            ready_at = now + self.retry.backoff(
                attempt.task.task_id, attempt.attempt + 1
            )
            pending.append(
                _Pending(attempt.task, attempt.attempt + 1, ready_at, elapsed)
            )
            return
        outcome = TaskOutcome(
            task_id=attempt.task.task_id,
            status=status,
            attempts=attempt.attempt,
            gate_count=raw.get("gate_count"),
            quantum_cost=raw.get("quantum_cost"),
            circuit=raw.get("circuit"),
            stats=dict(raw.get("stats") or {}),
            error=raw.get("error"),
            elapsed_seconds=elapsed,
            meta=dict(attempt.task.meta),
            extra=dict(raw.get("extra") or {}),
        )
        finished.append(outcome)
        if on_final is not None:
            on_final(attempt.task, outcome)
