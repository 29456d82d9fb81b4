"""Hot-op counters: the ``SearchStats.hot_ops`` record, how it
merges, and the search-loop instrumentation that feeds it."""

import pytest

from repro.functions.permutation import Permutation
from repro.obs.observer import SearchObserver
from repro.synth.rmrls import enumerate_first_level, synthesize
from repro.synth.stats import HOT_OP_FIELDS, SearchStats

FIG1 = [1, 0, 7, 2, 3, 4, 5, 6]


class TestHotOpRecord:
    def test_starts_at_zero(self):
        # The identity finishes before any queue traffic.
        stats = synthesize(list(range(8))).stats
        assert tuple(stats.hot_ops) == HOT_OP_FIELDS
        assert all(value == 0 for value in stats.hot_ops.values())

    def test_fields_in_reporting_order(self):
        stats = synthesize(FIG1).stats
        assert tuple(stats.hot_ops) == HOT_OP_FIELDS
        assert tuple(stats.as_dict()["hot_ops"]) == HOT_OP_FIELDS

    def test_merge_adds(self):
        first = SearchStats(hot_ops={"queue_pushes": 3})
        second = SearchStats(hot_ops={"queue_pushes": 4, "dedupe_hits": 1})
        first.merge(second)
        assert first.hot_ops == {"queue_pushes": 7, "dedupe_hits": 1}

    def test_snapshot_is_independent(self):
        # The search writes into stats.hot_ops in place; a snapshot
        # shipped to a report or a parent process must not follow it.
        stats = synthesize(FIG1).stats
        snapshot = stats.as_dict()
        stats.hot_ops["queue_pops"] += 10
        assert snapshot["hot_ops"]["queue_pops"] + 10 == (
            stats.hot_ops["queue_pops"]
        )


class TestSearchInstrumentation:
    @pytest.fixture
    def result(self):
        return synthesize(
            Permutation([1, 0, 3, 2, 5, 7, 4, 6]).to_pprm(),
            dedupe_states=True,
        )

    def test_stats_carry_hot_ops(self, result):
        hot = result.stats.hot_ops
        assert hot["substitutions_applied"] > 0
        assert hot["queue_pops"] > 0
        assert hot["queue_pushes"] >= hot["queue_pops"] > 0
        assert hot["pprm_terms_in"] > 0
        assert hot["pprm_terms_out"] > 0
        assert hot["dedupe_probes"] >= hot["dedupe_hits"]

    def test_hot_ops_in_as_dict(self, result):
        assert "hot_ops" in result.stats.as_dict()

    def test_first_level_seed_path_is_metered(self):
        # The root expansion behind the portfolio's seed ranking is
        # counted exactly like the first step of a serial search.
        spec = Permutation(
            [15, 0, 14, 1, 13, 2, 12, 3, 11, 4, 10, 5, 9, 6, 8, 7]
        )
        first = enumerate_first_level(spec)
        assert first.shortcut is None and len(first.seeds) == 10
        one_step = synthesize(spec, max_steps=1)
        assert first.stats.hot_ops["substitutions_applied"] == 10
        assert first.stats.hot_ops == one_step.stats.hot_ops
        assert first.stats.nodes_created == one_step.stats.nodes_created

    @pytest.mark.parametrize(
        "images, finishes",
        [
            ([0, 1, 2, 3, 4, 5, 6, 7], 1),  # identity shortcut
            ([1, 0, 3, 2, 5, 4, 7, 6], 1),  # single-gate shortcut
            ([1, 0, 7, 2, 3, 4, 5, 6], 0),  # seeds: the search goes on
        ],
    )
    def test_first_level_finishes_observers_at_most_once(
        self, images, finishes
    ):
        class CountFinish(SearchObserver):
            calls = 0

            def on_finish(self, reason, stats):
                CountFinish.calls += 1

        enumerate_first_level(Permutation(images), observers=(CountFinish(),))
        assert CountFinish.calls == finishes

    def test_restart_counters(self):
        # A spec hard enough to trigger restarts under a tiny budget.
        result = synthesize(
            Permutation([7, 0, 1, 2, 3, 4, 5, 6]).to_pprm(),
            restart_steps=3,
            max_steps=40,
        )
        if result.stats.restarts:
            assert result.stats.hot_ops["restart_reseeds"] == (
                result.stats.restarts
            )
