"""Sweep orchestration: resume, strict mode, metrics, store seeding."""

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
        registry = MetricsRegistry()
        config = HarnessConfig(
            metrics=registry, retry=RetryPolicy(max_retries=1)
        )
        tasks = _mixed_tasks() + [probe_task("flaky", ok_after=2,
                                             namespace="p4")]
        run_sweep("metrics", tasks, config=config)
        snapshot = registry.as_dict()
        assert snapshot["sweep_outcome_ok"]["value"] == 3
        assert snapshot["sweep_outcome_unsolved"]["value"] == 1
        assert snapshot["sweep_tasks_total"]["value"] == 5
        assert snapshot["sweep_retries_total"]["value"] >= 1

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

        inline = MetricsRegistry()
        run_sweep("hot", tasks, config=HarnessConfig(metrics=inline))
        inline_subs = inline.counter("hotop_substitutions_applied").value
        assert inline_subs > 0
        assert inline.counter("hotop_queue_pops").value > 0

        isolated = MetricsRegistry()
        run_sweep(
            "hot", tasks,
            config=HarnessConfig(metrics=isolated, isolate=True, jobs=2),
        )
        # Hot-op totals cross the subprocess result channel losslessly.
        assert isolated.counter(
            "hotop_substitutions_applied"
        ).value == inline_subs

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

        first = MetricsRegistry()
        run_sweep("hot", [task],
                  config=HarnessConfig(metrics=first, ledger_path=ledger))
        assert first.counter("hotop_substitutions_applied").value > 0

        second = MetricsRegistry()
        report = run_sweep(
            "hot", [task],
            config=HarnessConfig(metrics=second, ledger_path=ledger),
        )
        assert report.replayed == 1
        assert second.get("hotop_substitutions_applied") is None

    def test_build_sweep_report_document(self):
        registry = MetricsRegistry()
        report = run_sweep(
            "doc", [probe_task("ok")], config=HarnessConfig(metrics=registry)
        )
        document = build_sweep_report(report, registry)
        assert document["schema"] == "rmrls-sweep-report"
        assert document["sweep"]["counts"]["ok"] == 1
        assert document["metrics"]["sweep_outcome_ok"]["value"] == 1
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
        run_sweep(
            "one-record", [permutation_task(spec, options=options)],
            config=HarnessConfig(isolate=isolate, ledger_path=ledger),
        )
        with open(ledger) as handle:
            (record,) = [
                json.loads(line) for line in handle
                if '"task_id"' in line
            ]
        swept = record["stats"]
        del direct["elapsed_seconds"], swept["elapsed_seconds"]
        assert swept == direct
        # The driver's root expansion (7 substitutions) is counted on
        # both sides.
        assert direct["hot_ops"]["substitutions_applied"] == 57

    @pytest.mark.parametrize("isolate", [False, True])
    def test_benchmark_task_hot_ops_sum_its_searches(self, isolate):
        from repro.benchlib.specs import benchmark
        from repro.experiments.common import TABLE4_OPTIONS
        from repro.experiments.table4 import run_benchmark
        from repro.harness.tasks import benchmark_task
        from repro.synth.stats import SearchStats

        options = TABLE4_OPTIONS.with_(max_steps=300)
        totals = SearchStats()
        run_benchmark(
            benchmark("3_17"), options, strict=False, totals=totals
        )
        expected = totals.hot_ops["substitutions_applied"]
        assert expected == 1965

        registry = MetricsRegistry()
        run_sweep(
            "bench-hot", [benchmark_task("3_17", options=options)],
            config=HarnessConfig(metrics=registry, isolate=isolate),
        )
        assert registry.counter(
            "hotop_substitutions_applied"
        ).value == expected
