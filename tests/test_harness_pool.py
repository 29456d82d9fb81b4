"""Isolated workers: budgets are hard, exits are classified.

These tests fork real subprocesses via the fault-injection probes: one
that ``os._exit``\\ s without a result, one that sleeps past its wall
budget, one that allocates past its memory cap, and flaky ones that
exercise the retry ladder.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.harness import (
    HarnessConfig,
    RetryPolicy,
    WorkerBudget,
    WorkerPool,
    permutation_task,
    probe_task,
    run_sweep,
)
from repro.synth.options import SynthesisOptions


def _pool_run(tasks, **kwargs):
    with WorkerPool(**kwargs) as pool:
        return pool.run(tasks)


def _ok(label):
    """An ``ok`` probe that reports the pid of the worker it ran in."""
    return probe_task("ok", meta={"label": label}, namespace=label, pid=True)


def _new_children(before):
    """Live children forked since ``before`` was taken."""
    return [p for p in multiprocessing.active_children() if p not in before]


def _settled_children(timeout=10.0):
    """The live children, once workers of earlier tests' dropped pools
    (which exit on EOF) are gone — or whatever is left at ``timeout``."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    return set(multiprocessing.active_children())


class TestExitClassification:
    def test_ok_probe(self):
        [outcome] = _pool_run([probe_task("ok", gate_count=4)])
        assert outcome.status == "ok"
        assert outcome.gate_count == 4

    def test_hard_exit_is_crash(self):
        [outcome] = _pool_run([probe_task("exit", code=13)])
        assert outcome.status == "crash"
        assert "exited with code 13" in outcome.error

    def test_unhandled_exception_is_crash_with_traceback(self):
        [outcome] = _pool_run([probe_task("raise", message="boom")])
        assert outcome.status == "crash"
        assert "boom" in outcome.error

    @pytest.mark.flaky_guard
    def test_hang_past_wall_budget_is_killed(self):
        # Real-time coupled: the 0.5 s wall budget races the 60 s sleep.
        # The margin is 120x, but a badly overloaded machine can still
        # stall the *launch* past the budget — hence the rerun guard.
        [outcome] = _pool_run(
            [probe_task("hang", seconds=60)],
            budget=WorkerBudget(wall_seconds=0.5),
        )
        assert outcome.status == "hang"
        assert "wall budget" in outcome.error

    def test_allocation_past_memory_budget_is_oom(self):
        [outcome] = _pool_run(
            [probe_task("oom", mbytes=256)],
            budget=WorkerBudget(mem_limit_mb=128),
        )
        assert outcome.status == "oom"

    def test_allocation_within_budget_completes(self):
        [outcome] = _pool_run([probe_task("oom", mbytes=16)])
        assert outcome.status == "ok"


class TestPoolScheduling:
    def test_multiple_jobs_finish_everything(self):
        tasks = [
            probe_task("ok", meta={"i": index}, namespace=f"n{index}")
            for index in range(5)
        ]
        outcomes = _pool_run(tasks, jobs=2)
        assert len(outcomes) == 5
        assert {o.status for o in outcomes} == {"ok"}

    def test_on_final_fires_per_task(self):
        seen = []
        pool = WorkerPool()
        pool.run(
            [probe_task("ok"), probe_task("unsolved")],
            on_final=lambda task, outcome: seen.append(outcome.status),
        )
        assert sorted(seen) == ["ok", "unsolved"]

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0)
        with pytest.raises(ValueError):
            WorkerBudget(wall_seconds=0)
        with pytest.raises(ValueError):
            WorkerBudget(mem_limit_mb=-1)


class TestRetriesInIsolation:
    def test_flaky_worker_recovers(self):
        [outcome] = _pool_run(
            [probe_task("flaky", ok_after=2)],
            retry=RetryPolicy(max_retries=2),
        )
        assert outcome.status == "ok"
        assert outcome.attempts == 2

    def test_escalated_steps_unlock_success(self):
        [outcome] = _pool_run(
            [probe_task("need_steps", min_steps=40,
                        options={"max_steps": 10})],
            retry=RetryPolicy(max_retries=2, step_factor=2.0),
        )
        # 10 -> 20 -> 40: solved on the third attempt.
        assert outcome.status == "ok"
        assert outcome.attempts == 3

    def test_retries_exhausted_keeps_last_status(self):
        [outcome] = _pool_run(
            [probe_task("exit")], retry=RetryPolicy(max_retries=1)
        )
        assert outcome.status == "crash"
        assert outcome.attempts == 2

    @pytest.mark.parametrize("task, budget, retry, status", [
        (probe_task("hang", seconds=30.0), WorkerBudget(wall_seconds=0.3),
         RetryPolicy(max_retries=1, time_factor=1.0), "hang"),
        (probe_task("oom", mbytes=4096), WorkerBudget(mem_limit_mb=128),
         RetryPolicy(max_retries=1, mem_factor=1.0), "oom"),
    ], ids=["hang", "oom"])
    def test_killed_attempts_are_retried(self, task, budget, retry, status):
        [outcome] = _pool_run([task], budget=budget, retry=retry)
        assert outcome.status == status
        assert outcome.attempts == 2


class TestRealSynthesisIsolated:
    def test_permutation_synthesis_round_trips(self):
        task = permutation_task(
            [0, 1, 2, 3, 4, 5, 7, 6],
            SynthesisOptions(dedupe_states=True, max_steps=5000),
        )
        [outcome] = _pool_run([task])
        assert outcome.status == "ok"
        assert outcome.gate_count == 1
        from repro.io.real_format import load_real

        circuit = load_real(outcome.circuit)
        assert circuit.gate_count() == 1

    def test_isolated_equals_inline(self):
        options = SynthesisOptions(dedupe_states=True, max_steps=5000)
        task = permutation_task([1, 0, 3, 2, 5, 4, 7, 6], options)
        inline = []
        run_sweep("eq-inline", [task],
                  on_outcome=lambda t, o: inline.append(o))
        isolated = []
        run_sweep("eq-isolated", [task], config=HarnessConfig(isolate=True),
                  on_outcome=lambda t, o: isolated.append(o))
        assert inline[0].status == isolated[0].status == "ok"
        assert inline[0].gate_count == isolated[0].gate_count
        assert inline[0].circuit == isolated[0].circuit


class TestLargeResults:
    def test_result_larger_than_the_pipe_buffer_comes_back(self):
        # The worker blocks in send until the parent reads: a parent
        # that waits only for the worker to exit never returns, or
        # under a wall budget throws the finished result away as hang.
        [outcome] = _pool_run(
            [probe_task("ok", pad=256 * 1024)],
            budget=WorkerBudget(wall_seconds=5),
        )
        assert outcome.status == "ok"
        assert outcome.attempts == 1
        assert len(outcome.circuit) == 256 * 1024


class TestWorkerReuse:
    def test_clean_attempts_share_one_worker_across_runs(self):
        with WorkerPool() as pool:
            outcomes = pool.run([_ok(f"a{index}") for index in range(3)])
            outcomes += pool.run([_ok(f"b{index}") for index in range(2)])
        assert [o.status for o in outcomes] == ["ok"] * 5
        assert len({o.extra["pid"] for o in outcomes}) == 1

    @pytest.mark.parametrize(
        "bad, budget, status",
        [
            (probe_task("exit", code=13), WorkerBudget(), "crash"),
            # The budget also covers the ok probes around the hang.
            (probe_task("hang", seconds=60), WorkerBudget(wall_seconds=2),
             "hang"),
            (probe_task("raise"), WorkerBudget(), "crash"),
            (probe_task("oom", mbytes=256), WorkerBudget(mem_limit_mb=128),
             "oom"),
            (probe_task("interrupt"), WorkerBudget(), "interrupted"),
            (probe_task("unsound"), WorkerBudget(), "unsound"),
        ],
        ids=["exit", "hang", "raise", "oom", "interrupt", "unsound"],
    )
    def test_unclean_end_retires_the_worker(self, bad, budget, status):
        with WorkerPool(budget=budget) as pool:
            [before] = pool.run([_ok("before")])
            [failed] = pool.run([bad])
            [after] = pool.run([_ok("after")])
        assert failed.status == status
        assert before.status == after.status == "ok"
        assert after.extra["pid"] != before.extra["pid"]

    @pytest.mark.parametrize("behavior", ["unsolved", "timeout"])
    def test_clean_failure_keeps_the_worker(self, behavior):
        with WorkerPool() as pool:
            [before] = pool.run([_ok("before")])
            [failed] = pool.run([probe_task(behavior)])
            [after] = pool.run([_ok("after")])
        assert failed.status == behavior
        assert after.extra["pid"] == before.extra["pid"]

    def test_cancel_retires_the_worker(self):
        with WorkerPool() as pool:
            [before] = pool.run([_ok("before")])
            stop_at = time.monotonic() + 0.3
            [cancelled] = pool.run(
                [probe_task("hang", seconds=60)],
                stop_check=lambda: time.monotonic() > stop_at,
            )
            [after] = pool.run([_ok("after")])
        assert cancelled.status == "interrupted"
        assert after.status == "ok"
        assert after.extra["pid"] != before.extra["pid"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_escalated_memory_retry_forks_a_new_worker(self, jobs):
        retry = RetryPolicy(max_retries=1, step_factor=2.0, mem_factor=2.0)
        budget = WorkerBudget(mem_limit_mb=1024)
        with WorkerPool(jobs=jobs, budget=budget, retry=retry) as pool:
            [before] = pool.run([_ok("before")])
            [retried] = pool.run([probe_task(
                "need_steps", min_steps=20, options={"max_steps": 10},
                pid=True,
            )])
            [after] = pool.run([_ok("after")])
        assert retried.status == "ok" and retried.attempts == 2
        assert retried.extra["pid"] != before.extra["pid"]
        # Attempt 1 ended unsolved, so its worker went back to the idle
        # set; it is still there for the base budget only if ``jobs``
        # leaves room for both workers.
        assert (after.extra["pid"] == before.extra["pid"]) == (jobs == 2)


class TestLifecycle:
    def test_close_retires_idle_workers(self):
        before = _settled_children()
        pool = WorkerPool(jobs=2)
        pool.run([_ok("a"), _ok("b")])
        assert len(_new_children(before)) == 2
        pool.close()
        assert _new_children(before) == []

    def test_failed_run_kills_idle_workers_too(self):
        before = _settled_children()
        pool = WorkerPool(jobs=2)
        pool.run([_ok("a"), _ok("b")])

        def coordinator_failure(task, outcome):
            raise RuntimeError("coordinator failure")

        with pytest.raises(RuntimeError):
            pool.run([_ok("c")], on_final=coordinator_failure)
        assert _new_children(before) == []

    @pytest.mark.parametrize("how", ["eof", "sigint"])
    def test_idle_worker_exits_quietly(self, how, capfd):
        pool = WorkerPool()
        pool.run([_ok("warm")])
        [process] = [w.process for w in pool._idle]
        if how == "eof":
            pool._idle[0].conn.close()
        else:
            os.kill(process.pid, signal.SIGINT)
        process.join(timeout=10)
        assert process.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err
        pool.close()

    def test_isolated_sweep_leaves_no_worker(self):
        before = _settled_children()
        report = run_sweep(
            "lifecycle", [_ok("a"), _ok("b")],
            config=HarnessConfig(isolate=True, jobs=2),
        )
        assert report.counts["ok"] == 2
        assert _new_children(before) == []

    def test_pooled_portfolio_leaves_no_worker(self):
        from repro.functions.permutation import Permutation
        from repro.synth.rmrls import synthesize

        before = _settled_children()
        result = synthesize(
            Permutation([1, 0, 7, 2, 3, 4, 5, 6]),
            SynthesisOptions(portfolio_jobs=2, max_steps=5000),
        )
        assert result.solved
        assert result.portfolio is not None
        assert _new_children(before) == []
