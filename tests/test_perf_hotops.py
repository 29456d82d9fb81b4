"""Hot-op counters: the slots object, global aggregation, and the
search-loop instrumentation that feeds them."""

import pytest

from repro.functions.permutation import Permutation
from repro.obs import MetricsObserver, MetricsRegistry
from repro.perf.hotops import (
    HOT_OP_FIELDS,
    HotOpCounters,
    global_counters,
    reset_global,
    snapshot_global,
)
from repro.obs.observer import SearchObserver
from repro.synth.rmrls import enumerate_first_level, synthesize


class TestHotOpCounters:
    def test_starts_at_zero(self):
        counters = HotOpCounters()
        assert counters.total() == 0
        assert all(value == 0 for value in counters.as_dict().values())

    def test_fields_match_slots(self):
        counters = HotOpCounters()
        assert tuple(counters.as_dict()) == HOT_OP_FIELDS

    def test_merge_adds(self):
        first = HotOpCounters()
        first.queue_pushes = 3
        second = HotOpCounters()
        second.queue_pushes = 4
        second.dedupe_hits = 1
        first.merge(second)
        assert first.queue_pushes == 7
        assert first.dedupe_hits == 1

    def test_merge_dict_ignores_unknown_keys(self):
        counters = HotOpCounters()
        counters.merge_dict({"queue_pops": 2, "not_a_counter": 99})
        assert counters.queue_pops == 2
        assert counters.total() == 2

    def test_diff(self):
        earlier = HotOpCounters()
        earlier.substitutions_applied = 5
        later = earlier.copy()
        later.substitutions_applied = 8
        later.queue_pops = 2
        delta = later.diff(earlier)
        assert delta.substitutions_applied == 3
        assert delta.queue_pops == 2

    def test_copy_is_independent(self):
        counters = HotOpCounters()
        counters.queue_pops = 1
        clone = counters.copy()
        clone.queue_pops = 10
        assert counters.queue_pops == 1

    def test_equality(self):
        first = HotOpCounters()
        second = HotOpCounters()
        assert first == second
        second.dedupe_probes = 1
        assert first != second

    def test_publish_skips_zeros(self):
        counters = HotOpCounters()
        counters.queue_pushes = 5
        registry = MetricsRegistry()
        counters.publish(registry)
        assert registry.counter("hotop_queue_pushes").value == 5
        assert registry.get("hotop_dedupe_hits") is None


class TestGlobalCounters:
    def test_snapshot_is_isolated(self):
        snapshot = snapshot_global()
        global_counters().queue_pops += 1
        assert snapshot_global().queue_pops == snapshot.queue_pops + 1
        # the earlier snapshot did not move
        assert snapshot.queue_pops != global_counters().queue_pops

    def test_reset(self):
        global_counters().queue_pops += 1
        reset_global()
        assert snapshot_global().total() == 0


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

    def test_global_counters_metered(self):
        before = snapshot_global()
        result = synthesize(Permutation([1, 0, 3, 2, 5, 7, 4, 6]).to_pprm())
        delta = snapshot_global().diff(before)
        assert delta.as_dict() == result.stats.hot_ops

    def test_first_level_seed_path_is_metered(self):
        # The root expansion behind the portfolio's seed ranking must
        # reach the process-global meter exactly like the first step
        # of a serial search does.
        spec = Permutation(
            [15, 0, 14, 1, 13, 2, 12, 3, 11, 4, 10, 5, 9, 6, 8, 7]
        )
        before = snapshot_global()
        first = enumerate_first_level(spec)
        delta = snapshot_global().diff(before)
        assert first.shortcut is None and len(first.seeds) == 10
        one_step = synthesize(spec, max_steps=1)
        assert delta.substitutions_applied == 10
        assert delta.as_dict() == one_step.stats.hot_ops

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

    def test_metrics_observer_publishes_hotops(self):
        registry = MetricsRegistry()
        result = synthesize(
            Permutation([1, 0, 3, 2, 5, 7, 4, 6]).to_pprm(),
            observers=(MetricsObserver(registry),),
        )
        assert (
            registry.counter("hotop_substitutions_applied").value
            == result.stats.hot_ops["substitutions_applied"]
        )
