"""The portfolio-parallel search engine (repro.parallel).

Covers the seed partitioner, the shared-bound protocol, the
first-level enumerator, the differential contract against the serial
search, byte-level determinism, fleet stats/metrics merging, and the
pool's early-cancellation path.

The differential and determinism tests run in the *deterministic
regime* (no ``stop_at_first``, no ``portfolio_cancel_gates``, no
step/time budgets that could bind mid-search) — see docs/parallel.md
for why cancellation deliberately trades determinism for latency.
"""

from __future__ import annotations

import random

import pytest

from repro.functions.permutation import Permutation
from repro.harness import WorkerBudget, WorkerPool, probe_task
from repro.io.real_format import dump_real
from repro.obs import MetricsObserver, MetricsRegistry
from repro.benchlib.symbolic import graycode_system
from repro.parallel import (
    LocalBound,
    SharedBound,
    partition_seeds,
    synthesize_portfolio,
)
from repro.parallel.portfolio import _spec_payload, spec_from_payload
from repro.synth import enumerate_first_level, synthesize
from repro.synth.options import SynthesisOptions
from repro.synth.stats import SearchStats

from conftest import _fixture_portfolio_spec, random_spec


class TestPartitionSeeds:
    def test_round_robin_structure(self):
        assert partition_seeds(7, 3) == [(0, 3, 6), (1, 4), (2, 5)]

    def test_single_job_gets_everything(self):
        assert partition_seeds(5, 1) == [(0, 1, 2, 3, 4)]

    def test_disjoint_cover(self):
        slices = partition_seeds(23, 4)
        ranks = [rank for ranks in slices for rank in ranks]
        assert sorted(ranks) == list(range(23))

    def test_more_jobs_than_seeds_yields_wellformed_empty_slices(self):
        # Exactly ``jobs`` slices, always: surplus slots get empty
        # tuples (the deck builder drops them, the homogeneous driver
        # never materializes them as workers).
        assert partition_seeds(2, 8) == [
            (0,), (1,), (), (), (), (), (), (),
        ]
        assert partition_seeds(0, 4) == [(), (), (), ()]
        assert partition_seeds(0, 1) == [()]

    def test_slice_count_is_always_jobs(self):
        for num_seeds in range(6):
            for jobs in range(1, 6):
                assert len(partition_seeds(num_seeds, jobs)) == jobs

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_seeds(-1, 2)
        with pytest.raises(ValueError):
            partition_seeds(4, 0)


class TestSpecPayload:
    """The wire form a worker rebuilds a bare PPRM system from: one
    bitset per output (bit ``t`` set when term ``t`` is present),
    pinned byte for byte."""

    @pytest.mark.parametrize(
        "system, payload",
        [
            (
                Permutation([1, 0, 7, 2, 3, 4, 5, 6]).to_pprm(),
                {"packed": [3, 52, 44], "num_vars": 3},
            ),
            (
                graycode_system(5),
                {"packed": [6, 20, 272, 65792, 65536], "num_vars": 5},
            ),
        ],
    )
    def test_bare_system_payload_is_pinned(self, system, payload):
        assert _spec_payload(system, system) == payload
        assert spec_from_payload(payload) == system


class TestBoundProtocol:
    @pytest.mark.parametrize("factory", [SharedBound, LocalBound])
    def test_publish_keeps_minimum(self, factory):
        bound = factory()
        assert bound.best() is None
        bound.publish(9)
        assert bound.best() == 9
        bound.publish(12)
        assert bound.best() == 9
        bound.publish(4)
        assert bound.best() == 4

    def test_search_adopts_published_bound_with_slack(self, fig1_spec):
        # A pre-published incumbent at the optimal depth must NOT prune
        # away equal-depth solutions: the search adopts best+1.
        baseline = synthesize(fig1_spec)
        assert baseline.solved
        bound = LocalBound()
        bound.publish(baseline.gate_count)
        bounded = synthesize(
            fig1_spec,
            SynthesisOptions().with_(bound_channel=bound),
        )
        assert bounded.solved
        assert bounded.gate_count == baseline.gate_count


class TestEnumerateFirstLevel:
    def test_fig1_seed_pool(self, fig1_spec):
        first = enumerate_first_level(fig1_spec)
        assert first.shortcut is None
        assert first.seeds
        priorities = [seed.priority for seed in first.seeds]
        assert priorities == sorted(priorities, reverse=True)
        assert [seed.rank for seed in first.seeds] == list(
            range(len(first.seeds))
        )

    def test_identity_shortcut(self):
        first = enumerate_first_level(Permutation([0, 1, 2, 3]))
        assert first.shortcut is not None
        assert first.shortcut.solved
        assert first.shortcut.gate_count == 0
        assert not first.seeds

    def test_single_gate_shortcut(self):
        # CCX: swap images 6 and 7 — solvable during root expansion,
        # and depth 1 is globally unbeatable.
        first = enumerate_first_level(Permutation([0, 1, 2, 3, 4, 5, 7, 6]))
        assert first.shortcut is not None
        assert first.shortcut.gate_count == 1
        assert not first.seeds


def _differential_specs(count: int):
    stream = random.Random(0xD1FF)
    return [random_spec(stream, 3) for _ in range(count)]


#: The deterministic differential regime: dedupe keeps exhaustion
#: tractable, and on 3-variable specs the step cap is far beyond what
#: exhaustion needs, so it never binds (a binding budget would break
#: the gate-count-equality contract — 4-variable specs *do* bind it,
#: which is why the 4-var test below asserts soundness instead).
_DIFF = dict(dedupe_states=True, max_steps=200_000)


def _assert_portfolio_matches_serial(spec, jobs=2):
    serial = synthesize(spec, **_DIFF)
    raced = synthesize(spec, portfolio_jobs=jobs, **_DIFF)
    assert raced.solved == serial.solved
    if serial.solved:
        assert raced.gate_count == serial.gate_count, (
            f"portfolio found {raced.gate_count} gates, serial "
            f"{serial.gate_count}, for {spec.images}"
        )
        assert raced.circuit.implements(spec)
    summary = raced.portfolio
    assert summary is not None
    assert summary.jobs == jobs


class TestDifferentialAgainstSerial:
    """Same solved set, same (optimal) depth, verified circuits."""

    def test_fig1(self, fig1_spec):
        _assert_portfolio_matches_serial(fig1_spec)

    @pytest.mark.parametrize("index", range(6))
    def test_random_3var_quick(self, index):
        _assert_portfolio_matches_serial(_differential_specs(6)[index])

    @pytest.mark.slow
    @pytest.mark.parametrize("index", range(40))
    def test_random_3var_sweep(self, index):
        _assert_portfolio_matches_serial(_differential_specs(40)[index])

    @pytest.mark.slow
    def test_four_jobs_on_4var(self):
        # 4-variable exhaustion is intractable, so any step cap binds
        # mid-search and gate-count equality with serial is no longer
        # part of the contract (docs/parallel.md).  What must still
        # hold under a binding budget is soundness: the fleet solves,
        # the winner verifies, and its metadata is self-consistent.
        stream = random.Random(0xD1FF + 4)
        budget = dict(dedupe_states=True, max_steps=20_000)
        for _ in range(3):
            spec = random_spec(stream, 4)
            raced = synthesize(spec, portfolio_jobs=4, **budget)
            assert raced.solved
            assert raced.circuit.implements(spec)
            summary = raced.portfolio
            assert summary.jobs == 4
            winner = [
                entry for entry in summary.slices
                if entry.slice_index == summary.winner_slice
            ]
            assert len(winner) == 1
            assert winner[0].gate_count == raced.gate_count


class TestRestartHeavyFixture:
    def test_serial_and_portfolio_both_verify(self):
        # The 4-variable sibling of the 5-variable serial dive: the
        # serial search burns restart budgets before its first solution.
        spec = _fixture_portfolio_spec(4, 5)
        options = dict(greedy_k=1, restart_steps=120, max_steps=4_000,
                       dedupe_states=True, stop_at_first=True)
        serial = synthesize(spec, **options)
        assert serial.solved and serial.stats.restarts >= 1
        assert serial.circuit.implements(spec)
        raced = synthesize(spec, portfolio_jobs=2, **options)
        assert raced.solved and raced.circuit.implements(spec)


class TestDeterminism:
    def test_two_runs_are_byte_identical(self, fig1_spec):
        first = synthesize(fig1_spec, portfolio_jobs=2)
        second = synthesize(fig1_spec, portfolio_jobs=2)
        assert first.solved and second.solved
        assert dump_real(first.circuit) == dump_real(second.circuit)
        assert (
            first.stats.finish_reason == second.stats.finish_reason
        )
        assert (
            first.portfolio.winner_slice == second.portfolio.winner_slice
        )
        assert first.portfolio.winner_rank == second.portfolio.winner_rank

    def test_winner_matches_serial_restart_order(self, fig1_spec):
        # The deterministic winner is picked by (depth, seed rank,
        # slice), so reported metadata must be internally consistent.
        result = synthesize(fig1_spec, portfolio_jobs=2)
        summary = result.portfolio
        winner = [
            entry for entry in summary.slices
            if entry.slice_index == summary.winner_slice
        ]
        assert len(winner) == 1
        assert winner[0].gate_count == result.gate_count
        assert winner[0].solution_rank == summary.winner_rank


class TestFleetMerging:
    def test_stats_merge_sums_counters(self):
        left = SearchStats(steps=3, nodes_created=5, restarts=1,
                           peak_queue_size=7, initial_terms=9,
                           hot_ops={"queue_pushes": 2})
        right = SearchStats(steps=4, nodes_created=6, restarts=0,
                            peak_queue_size=3, timed_out=True,
                            hot_ops={"queue_pushes": 5, "queue_pops": 1})
        left.merge(right)
        assert left.steps == 7
        assert left.nodes_created == 11
        assert left.peak_queue_size == 7
        assert left.initial_terms == 9
        assert left.timed_out
        assert left.hot_ops == {"queue_pushes": 7, "queue_pops": 1}

    def test_stats_from_dict_ignores_unknown_keys(self):
        stats = SearchStats.from_dict(
            {"steps": 11, "finish_reason": "solved", "not_a_field": 1}
        )
        assert stats.steps == 11
        assert stats.finish_reason == "solved"

    def test_fleet_stats_are_slice_totals(self, fig1_spec):
        result = synthesize(fig1_spec, portfolio_jobs=2)
        reported = sum(
            entry.steps for entry in result.portfolio.slices
        )
        assert result.stats.steps == reported
        assert result.stats.steps > 0
        assert result.stats.hot_ops.get("queue_pushes", 0) > 0

    @staticmethod
    def _applied(stats) -> int:
        if isinstance(stats, dict):
            return stats["hot_ops"]["substitutions_applied"]
        return stats.hot_ops["substitutions_applied"]

    def test_fleet_stats_add_the_driver_root_expansion(self, fig1_spec):
        result = synthesize(
            fig1_spec, portfolio_jobs=2, portfolio_share_bound=False
        )
        root = enumerate_first_level(fig1_spec).stats
        slices = sum(
            self._applied(entry.stats) for entry in result.portfolio.slices
        )
        assert self._applied(result.stats) == slices + self._applied(root)
        assert result.stats.nodes_expanded == 1 + sum(
            entry.stats["nodes_expanded"] for entry in result.portfolio.slices
        )

    def test_serial_fallback_adds_the_driver_root_expansion(self, fig1_spec):
        result = synthesize_portfolio(fig1_spec, jobs=1)
        serial = synthesize(fig1_spec).stats
        root = enumerate_first_level(fig1_spec).stats
        assert result.stats.steps == serial.steps
        assert self._applied(result.stats) == (
            self._applied(serial) + self._applied(root)
        )

    def test_inverse_deck_adds_both_first_levels(self, fig1_spec):
        result = synthesize(fig1_spec, portfolio_strategies=("inverse",))
        (entry,) = result.portfolio.slices
        assert entry.direction == "inverse"
        forward = enumerate_first_level(fig1_spec).stats
        inverse = enumerate_first_level(fig1_spec.inverse()).stats
        assert self._applied(result.stats) == (
            self._applied(entry.stats)
            + self._applied(forward)
            + self._applied(inverse)
        )

    def test_worker_metrics_merge_into_parent_registry(self, fig1_spec):
        registry = MetricsRegistry()
        options = SynthesisOptions(
            observers=(MetricsObserver(registry),), portfolio_jobs=2
        )
        result = synthesize(fig1_spec, options)
        assert result.solved
        snapshot = registry.as_dict()
        merged_steps = (snapshot.get("search_steps") or {}).get("value", 0)
        assert merged_steps == sum(
            entry.steps for entry in result.portfolio.slices
        )
        assert merged_steps > 0

    @pytest.mark.parametrize("share_bound", [True, False])
    def test_merged_best_depth_is_the_fleet_answer(
        self, fig1_spec, share_bound
    ):
        registry = MetricsRegistry()
        options = SynthesisOptions(
            observers=(MetricsObserver(registry),), portfolio_jobs=2,
            portfolio_share_bound=share_bound,
        )
        result = synthesize(fig1_spec, options)
        assert result.solved and len(result.portfolio.slices) == 2
        gauge = registry.gauge("search_best_depth")
        assert gauge.value == result.gate_count


class TestServingDegenerateFleets:
    def test_jobs_1_is_serial_with_summary(self, fig1_spec):
        result = synthesize_portfolio(fig1_spec, jobs=1)
        assert result.solved
        assert result.portfolio is not None
        assert result.portfolio.jobs == 1
        assert not result.portfolio.slices

    def test_identity_shortcut_through_portfolio(self):
        result = synthesize(Permutation([0, 1, 2, 3]), portfolio_jobs=4)
        assert result.solved
        assert result.gate_count == 0
        assert result.portfolio.shortcut

    def test_worker_options_never_recurse(self, fig1_spec):
        # A worker's options carry portfolio_seed_ranks, which must
        # suppress the portfolio dispatch even with portfolio_jobs
        # still set — otherwise every worker would fork its own fleet.
        result = synthesize(
            fig1_spec,
            portfolio_jobs=2,
            portfolio_seed_ranks=(0, 1),
            **_DIFF,
        )
        assert result.portfolio is None
        assert result.solved


class TestEarlyCancellation:
    @pytest.mark.flaky_guard
    def test_stop_check_kills_running_workers(self):
        state = {"stop": False}

        def on_final(task, outcome):
            if outcome.status == "ok":
                state["stop"] = True

        pool = WorkerPool(jobs=2, budget=WorkerBudget())
        outcomes = pool.run(
            [
                probe_task("ok", meta={"label": "fast"}),
                probe_task("hang", seconds=60, meta={"label": "stuck"}),
            ],
            on_final=on_final,
            stop_check=lambda: state["stop"],
        )
        by_label = {o.meta["label"]: o for o in outcomes}
        assert by_label["fast"].status == "ok"
        assert by_label["stuck"].status == "interrupted"
        assert "cancelled" in by_label["stuck"].error

    def test_stop_check_drains_pending_tasks(self):
        state = {"stop": False}

        def on_final(task, outcome):
            state["stop"] = True

        pool = WorkerPool(jobs=1, budget=WorkerBudget())
        outcomes = pool.run(
            [
                probe_task("ok", meta={"label": "first"}),
                probe_task("ok", meta={"label": "second"}),
            ],
            on_final=on_final,
            stop_check=lambda: state["stop"],
        )
        by_label = {o.meta["label"]: o for o in outcomes}
        assert by_label["first"].status == "ok"
        assert by_label["second"].status == "interrupted"
        assert "before launch" in by_label["second"].error

    @pytest.mark.parametrize("inline", [False, True], ids=["pooled", "inline"])
    def test_portfolio_cancellation_still_verifies(self, fig1_spec, inline):
        # Cancellation trades determinism for latency, but never
        # soundness: whatever wins must verify.
        if inline:
            result = synthesize_portfolio(
                fig1_spec, jobs=2, inline=True, stop_at_first=True
            )
        else:
            result = synthesize(
                fig1_spec, portfolio_jobs=2, stop_at_first=True
            )
        assert result.solved
        assert result.circuit.implements(fig1_spec)
        # Slices either solve, get cancelled, or exhaust their own
        # restricted queue before the kill lands — all legitimate.
        statuses = [entry.status for entry in result.portfolio.slices]
        for status in statuses:
            assert status in ("ok", "interrupted", "unsolved")
        assert result.portfolio.cancelled == statuses.count("interrupted")
        if inline:
            # Inline cancellation skips every slot after the first
            # arriving solution; fig1's first slice solves.
            assert statuses == ["ok", "interrupted"]
            skipped = result.portfolio.slices[1]
            assert skipped.finish_reason == "interrupted"
            assert skipped.steps == 0
