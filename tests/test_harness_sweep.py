"""Sweep orchestration: resume, strict mode, the report's counts,
store seeding."""

import pytest

from repro.harness import (
    HarnessConfig,
    RetryPolicy,
    UnsoundCircuitError,
    build_sweep_report,
    probe_task,
    run_sweep,
)
from repro.obs import MetricsRegistry


def _mixed_tasks():
    return [
        probe_task("ok", meta={"label": "p0"}, namespace="p0"),
        probe_task("unsolved", meta={"label": "p1"}, namespace="p1"),
        probe_task("raise", meta={"label": "p2"}, namespace="p2"),
        probe_task("ok", meta={"label": "p3"}, namespace="p3"),
    ]


class TestInlineSweep:
    def test_failures_are_contained_and_counted(self):
        report = run_sweep("mix", _mixed_tasks())
        assert report.counts == {"ok": 2, "unsolved": 1, "crash": 1}
        assert report.completed == report.total == 4
        assert report.failed == 2
        assert not report.interrupted

    def test_as_dict_lists_every_status(self):
        report = run_sweep("mix", [probe_task("ok")])
        snapshot = report.as_dict()
        assert snapshot["counts"]["hang"] == 0
        assert snapshot["counts"]["ok"] == 1

    def test_inline_retry_ladder(self):
        report = run_sweep(
            "flaky",
            [probe_task("flaky", ok_after=3)],
            config=HarnessConfig(retry=RetryPolicy(max_retries=3)),
        )
        assert report.counts == {"ok": 1}
        assert report.retries == 2


class TestLedgerResume:
    def test_limit_interrupts_and_resume_completes(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        tasks = _mixed_tasks()
        config = HarnessConfig(ledger_path=path)

        first = run_sweep("mix", tasks, config=config, limit=2)
        assert first.interrupted
        assert first.completed == 2 and first.replayed == 0

        second = run_sweep("mix", tasks, config=config)
        assert not second.interrupted
        assert second.completed == 4
        assert second.replayed == 2
        # Combined counts equal an uninterrupted run.
        assert second.counts == {"ok": 2, "unsolved": 1, "crash": 1}

    def test_replayed_outcomes_reach_on_outcome(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        tasks = [probe_task("ok", gate_count=9)]
        config = HarnessConfig(ledger_path=path)
        run_sweep("replay", tasks, config=config)
        seen = []
        run_sweep("replay", tasks, config=config,
                  on_outcome=lambda t, o: seen.append(o))
        [outcome] = seen
        assert outcome.gate_count == 9

    def test_fully_replayed_sweep_runs_nothing(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        tasks = _mixed_tasks()
        config = HarnessConfig(ledger_path=path)
        run_sweep("mix", tasks, config=config)
        report = run_sweep("mix", tasks, config=config)
        assert report.replayed == report.completed == 4


class TestStrictMode:
    def test_unsound_raises_after_recording(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        tasks = [probe_task("unsound", meta={"label": "bad-probe"})]
        config = HarnessConfig(strict=True, ledger_path=path)
        with pytest.raises(UnsoundCircuitError, match="bad-probe"):
            run_sweep("strict", tasks, config=config)
        # The alarm still checkpointed the outcome first.
        from repro.harness import SweepLedger

        loaded = SweepLedger(path, sweep="strict").load()
        assert [o.status for o in loaded.values()] == ["unsound"]

    def test_unsound_error_is_an_assertion_error(self):
        assert issubclass(UnsoundCircuitError, AssertionError)

    def test_non_strict_records_and_continues(self):
        report = run_sweep(
            "lax", [probe_task("unsound"), probe_task("ok")]
        )
        assert report.counts == {"unsound": 1, "ok": 1}

    def test_config_with_replacement(self):
        base = HarnessConfig()
        assert base.with_(strict=True).strict
        with pytest.raises(ValueError):
            HarnessConfig(jobs=0)


class TestMetricsIntegration:
    def test_outcome_counters_land_in_registry(self):
        # The outcome counts live in the report alone; the registry
        # restates none of them.
        registry = MetricsRegistry()
        config = HarnessConfig(
            metrics=registry, retry=RetryPolicy(max_retries=1)
        )
        tasks = _mixed_tasks() + [probe_task("flaky", ok_after=2,
                                             namespace="p4")]
        report = run_sweep("metrics", tasks, config=config)
        assert report.count("ok") == 3
        assert report.count("unsolved") == 1
        assert report.completed == 5
        assert report.retries >= 1
        assert len(registry) == 0

    def test_hotops_aggregated_inline_and_isolated(self):
        import random

        from repro.harness.tasks import permutation_task
        from repro.synth.options import SynthesisOptions

        rng = random.Random(7)
        options = SynthesisOptions(max_steps=2_000)
        tasks = []
        for index in range(2):
            images = list(range(8))
            rng.shuffle(images)
            tasks.append(permutation_task(
                images, options=options, namespace=f"t:{index}"
            ))

        inline = run_sweep("hot", tasks).stats
        inline_subs = inline.hot_ops["substitutions_applied"]
        assert inline_subs > 0
        assert inline.hot_ops["queue_pops"] > 0

        isolated = run_sweep(
            "hot", tasks, config=HarnessConfig(isolate=True, jobs=2),
        ).stats
        # Hot-op totals cross the subprocess result channel losslessly.
        assert isolated.hot_ops["substitutions_applied"] == inline_subs

    def test_hotops_not_recounted_on_replay(self, tmp_path):
        import random

        from repro.harness.tasks import permutation_task
        from repro.synth.options import SynthesisOptions

        rng = random.Random(7)
        images = list(range(8))
        rng.shuffle(images)
        task = permutation_task(
            images, options=SynthesisOptions(max_steps=2_000),
            namespace="replay",
        )
        ledger = str(tmp_path / "ledger.jsonl")

        config = HarnessConfig(ledger_path=ledger)
        first = run_sweep("hot", [task], config=config)
        assert first.stats.hot_ops["substitutions_applied"] > 0

        report = run_sweep("hot", [task], config=config)
        assert report.replayed == 1
        assert report.stats.hot_ops == {}
        assert report.as_dict()["stats"]["steps"] == 0

    def test_build_sweep_report_document(self):
        registry = MetricsRegistry()
        report = run_sweep(
            "doc", [probe_task("ok")], config=HarnessConfig(metrics=registry)
        )
        document = build_sweep_report(report, registry)
        assert document["schema"] == "rmrls-sweep-report"
        assert document["sweep"]["counts"]["ok"] == 1
        assert document["sweep"]["stats"] == report.stats.as_dict()
        assert document["metrics"] == {}
        assert "environment" in document


class TestDriverEquivalence:
    def test_table23_isolated_matches_inline(self):
        from repro.experiments.table23 import run_random_functions
        from repro.synth.options import SynthesisOptions

        options = SynthesisOptions(dedupe_states=True, max_steps=5000)
        inline = run_random_functions(3, 3, options, seed=11)
        isolated = run_random_functions(
            3, 3, options, seed=11, harness=HarnessConfig(isolate=True)
        )
        assert inline.histogram == isolated.histogram
        assert inline.failed == isolated.failed
        assert inline.attempted == isolated.attempted

    def test_lazy_package_exports(self):
        import repro

        assert repro.HarnessConfig is HarnessConfig
        assert repro.run_sweep is run_sweep


class TestStoreSeeding:
    def test_sweep_seeds_the_store_deduplicated(self, tmp_path):
        from repro.harness import permutation_task
        from repro.store import CircuitStore
        from repro.synth.options import SynthesisOptions

        options = SynthesisOptions(dedupe_states=True, max_steps=40_000)
        specs = [
            [0, 2, 1, 3, 4, 6, 5, 7],   # swap(a,b) on 3 lines
            [0, 4, 2, 6, 1, 5, 3, 7],   # the same class, relabeled
            [1, 0, 3, 2, 5, 4, 7, 6],   # NOT(a)
        ]
        tasks = [
            permutation_task(spec, options=options, namespace=f"s{i}")
            for i, spec in enumerate(specs)
        ]
        registry = MetricsRegistry()
        config = HarnessConfig(
            store_path=str(tmp_path / "store"), metrics=registry
        )
        report = run_sweep("seed", tasks, config=config)
        assert report.counts == {"ok": 3}
        store = CircuitStore(str(tmp_path / "store"), read_only=True)
        assert len(store) == 2  # the relabeled twin deduplicated
        metrics = registry.as_dict()
        assert metrics["store_seeded_total"]["value"] == 2
        assert metrics["store_seed_duplicates_total"]["value"] == 1

    def test_replayed_outcomes_reseed_idempotently(self, tmp_path):
        from repro.harness import permutation_task
        from repro.store import CircuitStore
        from repro.synth.options import SynthesisOptions

        options = SynthesisOptions(dedupe_states=True, max_steps=40_000)
        tasks = [permutation_task([0, 2, 1, 3], options=options)]
        config = HarnessConfig(
            ledger_path=str(tmp_path / "ledger.jsonl"),
            store_path=str(tmp_path / "store"),
        )
        run_sweep("seed", tasks, config=config)
        second = run_sweep("seed", tasks, config=config)
        assert second.replayed == 1
        store = CircuitStore(str(tmp_path / "store"), read_only=True)
        assert len(store) == 1
        assert store.verify(deep=True)["ok"]


class TestOneCounterRecord:
    """A task's counters reach a sweep only inside its result's stats,
    so the sweep reports the same record the entry point returns."""

    @pytest.mark.parametrize("isolate", [False, True])
    def test_report_stats_sum_the_ledger(self, tmp_path, isolate):
        import json
        import random

        from repro.harness.tasks import permutation_task
        from repro.synth.options import SynthesisOptions
        from repro.synth.stats import SearchStats

        rng = random.Random(5)
        tasks = []
        for index in range(3):
            images = list(range(8))
            rng.shuffle(images)
            tasks.append(permutation_task(
                images, options=SynthesisOptions(max_steps=2_000),
                namespace=f"sum:{index}",
            ))
        ledger = str(tmp_path / "ledger.jsonl")
        config = HarnessConfig(isolate=isolate, ledger_path=ledger)
        run_sweep("sum", tasks, config=config, limit=1)
        report = run_sweep("sum", tasks, config=config)
        assert report.replayed == 1
        with open(ledger) as handle:
            records = [
                json.loads(line) for line in handle
                if '"task_id"' in line
            ]
        # The first record was executed by the first run: a replay here.
        expected = SearchStats()
        for record in records[1:]:
            expected.merge(SearchStats.from_dict(record["stats"]))
        assert len(records) == 3
        assert report.as_dict()["stats"] == expected.as_dict()
        assert expected.steps > 0

    @pytest.mark.parametrize("isolate", [False, True])
    def test_portfolio_ledger_matches_synthesize(self, tmp_path, isolate):
        import json

        from repro.harness.tasks import permutation_task
        from repro.synth import synthesize
        from repro.synth.options import SynthesisOptions

        spec = [1, 0, 7, 2, 3, 4, 5, 6]
        options = SynthesisOptions(
            portfolio_jobs=2, portfolio_share_bound=False
        )
        direct = synthesize(spec, options).stats.as_dict()
        ledger = str(tmp_path / "ledger.jsonl")
        report = run_sweep(
            "one-record", [permutation_task(spec, options=options)],
            config=HarnessConfig(isolate=isolate, ledger_path=ledger),
        )
        with open(ledger) as handle:
            (record,) = [
                json.loads(line) for line in handle
                if '"task_id"' in line
            ]
        recorded = record["stats"]
        del direct["elapsed_seconds"], recorded["elapsed_seconds"]
        assert recorded == direct
        # The report sums its one task's record; a merge leaves the
        # finish reason to the caller.
        swept = report.as_dict()["stats"]
        for key in ("elapsed_seconds", "finish_reason"):
            del swept[key]
            direct.pop(key, None)
        assert swept == direct
        # The driver's root expansion (7 substitutions) is counted on
        # both sides.
        assert swept["hot_ops"]["substitutions_applied"] == 57

    @pytest.mark.parametrize("isolate", [False, True])
    def test_benchmark_task_hot_ops_sum_its_searches(self, isolate):
        from repro.benchlib.specs import benchmark
        from repro.experiments.common import TABLE4_OPTIONS
        from repro.experiments.table4 import run_benchmark
        from repro.harness.tasks import benchmark_task

        options = TABLE4_OPTIONS.with_(max_steps=300)
        direct = run_benchmark(benchmark("3_17"), options, strict=False)
        expected = direct.stats.hot_ops["substitutions_applied"]
        assert expected == 1965

        report = run_sweep(
            "bench-hot", [benchmark_task("3_17", options=options)],
            config=HarnessConfig(isolate=isolate),
        )
        assert report.stats.hot_ops["substitutions_applied"] == expected
