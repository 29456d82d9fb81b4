"""Tests for the in-process metrics registry and MetricsObserver."""

import pytest

from repro.functions.permutation import Permutation
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsObserver,
    MetricsRegistry,
)
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize


class TestCounter:
    def test_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_as_dict(self):
        counter = Counter("c")
        counter.inc(2)
        assert counter.as_dict() == {"kind": "counter", "value": 2}


class TestGauge:
    def test_tracks_current_and_max(self):
        gauge = Gauge("g")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3
        assert gauge.max_value == 7
        assert gauge.as_dict() == {"kind": "gauge", "value": 3, "max": 7}


class TestHistogram:
    def test_bucketing_inclusive_upper_bounds(self):
        histogram = Histogram("h", (0, 2, 4))
        for value in (-1, 0, 1, 2, 3, 4, 5, 100):
            histogram.observe(value)
        # buckets: <=0, <=2, <=4, overflow
        assert histogram.counts == [2, 2, 2, 2]
        assert histogram.count == 8
        assert histogram.minimum == -1
        assert histogram.maximum == 100

    def test_mean_and_dict(self):
        histogram = Histogram("h", (10,))
        histogram.observe(2)
        histogram.observe(4)
        data = histogram.as_dict()
        assert data["mean"] == pytest.approx(3.0)
        assert data["bounds"] == [10]
        assert data["counts"] == [2, 0]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (3, 1))
        with pytest.raises(ValueError):
            Histogram("h", (1, 1))

    def test_render_contains_counts(self):
        histogram = Histogram("elim", (0, 1))
        histogram.observe(1)
        text = histogram.render()
        assert "elim" in text and "<= 1" in text


class TestRegistry:
    def test_idempotent_creation(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h", (1, 2)) is registry.histogram("h")

    def test_kind_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x", (1,))

    def test_histogram_needs_bounds_first_use(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h")

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(2)
        snapshot = registry.as_dict()
        assert set(snapshot) == {"a", "b"}
        assert snapshot["a"]["value"] == 1


class TestMetricsObserver:
    def test_synthesis_populates_search_metrics(self, fig1_spec):
        observer = MetricsObserver()
        result = synthesize(
            fig1_spec,
            SynthesisOptions(
                max_steps=5_000, dedupe_states=True, observers=(observer,)
            ),
        )
        assert result.solved
        registry = observer.registry
        # The root is not an accepted child, hence the -1.
        elim = registry.get("elim")
        assert elim.count == result.stats.nodes_created - 1
        queue = registry.get("queue_size")
        assert queue.count > 0
        assert queue.maximum == result.stats.peak_queue_size
        # Steps, nodes, solutions and hot-op counts live in the
        # search's stats alone.
        assert set(registry.names()) <= {
            "elim", "children_per_expansion", "queue_size",
            "search_pruned_depth", "search_pruned_child_depth",
            "search_pruned_lower_bound",
        }

    def test_children_per_expansion_flushed(self, fig1_spec):
        observer = MetricsObserver()
        result = synthesize(
            fig1_spec,
            SynthesisOptions(max_steps=5_000, observers=(observer,)),
        )
        histogram = observer.registry.get("children_per_expansion")
        assert histogram.count == result.stats.nodes_expanded

    def test_prune_counters_match_stats(self, rng):
        images = list(range(16))
        rng.shuffle(images)
        observer = MetricsObserver()
        result = synthesize(
            Permutation(images),
            SynthesisOptions(
                max_steps=3_000, greedy_k=1, max_gates=12,
                dedupe_states=True, observers=(observer,),
            ),
        )
        registry = observer.registry
        # Greedy and growth prunes have their own stats fields; only
        # the depth bucket's split lives here.
        assert result.stats.children_pruned_greedy > 0
        assert registry.get("search_pruned_greedy") is None
        assert registry.get("search_pruned_growth") is None
        depth_total = sum(
            registry.counter(f"search_pruned_{reason}").value
            for reason in ("depth", "child_depth", "lower_bound")
            if registry.get(f"search_pruned_{reason}") is not None
        )
        assert depth_total == result.stats.nodes_pruned_depth


class TestLabeledMetrics:
    def test_labeled_key_stable_order(self):
        from repro.obs.metrics import labeled_key

        assert labeled_key("m", None) == "m"
        assert (labeled_key("m", {"b": "2", "a": "1"})
                == 'm{a="1",b="2"}')

    def test_labeled_and_unlabeled_coexist(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(1)
        registry.counter("jobs", labels={"worker": "w0"}).inc(2)
        registry.counter("jobs", labels={"worker": "w1"}).inc(3)
        assert registry.counter("jobs").value == 1
        assert registry.counter("jobs", labels={"worker": "w0"}).value == 2
        assert registry.counter("jobs", labels={"worker": "w1"}).value == 3

    def test_unlabeled_snapshot_shape_unchanged(self):
        # Pre-label persisted snapshots must keep loading; unlabeled
        # entries therefore must not grow new keys.
        registry = MetricsRegistry()
        registry.counter("c").inc(1)
        assert registry.as_dict()["c"] == {"kind": "counter", "value": 1}

    def test_labeled_snapshot_roundtrip(self):
        # A labeled entry carries its base name and label set, so a
        # reader need not parse the key.
        source = MetricsRegistry()
        source.counter("c", labels={"worker": "w0"}).inc(4)
        source.gauge("g", labels={"slice": "1"}).set(7)
        snapshot = source.as_dict()
        assert snapshot['c{worker="w0"}'] == {
            "kind": "counter", "value": 4,
            "name": "c", "labels": {"worker": "w0"},
        }
        assert snapshot['g{slice="1"}']["labels"] == {"slice": "1"}
