"""Tests for the SearchObserver protocol and built-in observers."""

import pytest

from repro.functions.permutation import Permutation
from repro.obs.observer import (
    PRUNE_CHILD_DEPTH,
    PRUNE_DEPTH,
    PRUNE_GREEDY,
    PRUNE_GROWTH,
    PRUNE_LOWER_BOUND,
    MultiObserver,
    NullObserver,
    SearchObserver,
    StatsObserver,
    TraceObserver,
)
from repro.pprm.system import PPRMSystem
from repro.synth.node import SearchNode
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize
from repro.synth.stats import SearchStats, TraceRecorder


def _nodes():
    system = PPRMSystem.identity(2)
    state = system.dedupe_key()
    root = SearchNode.root(state, system.term_count(), node_id=0)
    child = SearchNode(
        parent=root, target=0, factor=0b10, state=state,
        terms=2, elim=1, priority=1.5, node_id=1,
    )
    return root, child


class RecordingObserver(SearchObserver):
    def __init__(self):
        self.calls = []

    def on_step(self, step, node, queue_size):
        self.calls.append(("step", step, node.node_id, queue_size))

    def on_expand(self, parent):
        self.calls.append(("expand", parent.node_id))

    def on_child(self, child, parent):
        self.calls.append(
            ("child", child.node_id, None if parent is None else parent.node_id)
        )

    def on_prune(self, node, reason, count=1):
        self.calls.append(("prune", reason, count))

    def on_solution(self, node, parent):
        self.calls.append(("solution", node.node_id))

    def on_restart(self, seed, queue_size):
        self.calls.append(("restart", seed.node_id))

    def on_queue(self, size):
        self.calls.append(("queue", size))

    def on_finish(self, reason, stats):
        self.calls.append(("finish", reason))


class TestProtocol:
    def test_base_and_null_are_noops(self):
        root, child = _nodes()
        for observer in (SearchObserver(), NullObserver()):
            observer.on_step(1, root, 0)
            observer.on_expand(root)
            observer.on_child(child, root)
            observer.on_prune(child, PRUNE_DEPTH)
            observer.on_solution(child, root)
            observer.on_restart(child, 1)
            observer.on_queue(3)
            observer.on_finish("solved", SearchStats())

    def test_multi_observer_fans_out_in_order(self):
        root, child = _nodes()
        first, second = RecordingObserver(), RecordingObserver()
        multi = MultiObserver([first, second])
        multi.on_step(1, root, 2)
        multi.on_child(child, root)
        multi.on_finish("solved", SearchStats())
        assert first.calls == second.calls
        assert [call[0] for call in first.calls] == ["step", "child", "finish"]


class TestStatsObserver:
    def test_counter_mapping(self):
        root, child = _nodes()
        stats = SearchStats()
        observer = StatsObserver(stats)
        observer.on_child(root, None)
        observer.on_child(child, root)
        observer.on_step(1, root, 5)
        observer.on_expand(root)
        observer.on_solution(child, root)
        observer.on_restart(child, 1)
        assert stats.nodes_created == 2
        assert stats.steps == 1
        assert stats.nodes_expanded == 1
        assert stats.solutions_found == 1
        assert stats.restarts == 1

    @pytest.mark.parametrize(
        "reason,field",
        [
            (PRUNE_DEPTH, "nodes_pruned_depth"),
            (PRUNE_CHILD_DEPTH, "nodes_pruned_depth"),
            (PRUNE_LOWER_BOUND, "nodes_pruned_depth"),
            (PRUNE_GROWTH, "children_rejected_growth"),
            (PRUNE_GREEDY, "children_pruned_greedy"),
        ],
    )
    def test_prune_reason_mapping(self, reason, field):
        stats = SearchStats()
        StatsObserver(stats).on_prune(None, reason, 3)
        assert getattr(stats, field) == 3

    def test_peak_queue_tracks_maximum(self):
        stats = SearchStats()
        observer = StatsObserver(stats)
        for size in (2, 9, 4, 0):
            observer.on_queue(size)
        assert stats.peak_queue_size == 9

    def test_finish_sets_budget_flags(self):
        for reason, flag in (("timeout", "timed_out"),
                             ("step_limit", "step_limited")):
            stats = SearchStats()
            StatsObserver(stats).on_finish(reason, stats)
            assert getattr(stats, flag)
        stats = SearchStats()
        StatsObserver(stats).on_finish("solved", stats)
        assert not stats.timed_out and not stats.step_limited


class TestTraceObserver:
    def test_event_stream_matches_recorder_semantics(self):
        root, child = _nodes()
        trace = TraceRecorder()
        observer = TraceObserver(trace)
        observer.on_child(root, None)       # root creation: not recorded
        observer.on_step(1, root, 1)        # pop
        observer.on_child(child, root)      # create
        observer.on_prune(child, PRUNE_GROWTH)       # not recorded
        observer.on_prune(child, PRUNE_CHILD_DEPTH)  # not recorded
        observer.on_prune(child, PRUNE_DEPTH)        # recorded
        observer.on_solution(child, root)
        observer.on_restart(child, 1)
        kinds = [event.kind for event in trace.events]
        assert kinds == ["pop", "create", "prune", "solution", "restart"]


class TestSearchIntegration:
    def test_attached_observer_sees_full_run(self, fig1_spec):
        recorder = RecordingObserver()
        result = synthesize(
            fig1_spec,
            SynthesisOptions(max_steps=5_000, observers=(recorder,)),
        )
        assert result.solved
        kinds = [call[0] for call in recorder.calls]
        assert kinds[0] == "child"          # root creation
        assert kinds[-1] == "finish"
        assert "step" in kinds and "expand" in kinds and "solution" in kinds
        steps_seen = sum(1 for call in recorder.calls if call[0] == "step")
        assert steps_seen == result.stats.steps
        children_seen = sum(1 for call in recorder.calls if call[0] == "child")
        assert children_seen == result.stats.nodes_created

    def test_external_trace_observer_matches_record_trace(self, fig1_spec):
        options = SynthesisOptions(max_steps=5_000, dedupe_states=True)
        builtin = synthesize(fig1_spec, options.with_(record_trace=True))
        external_trace = TraceRecorder()
        external = synthesize(
            fig1_spec,
            options.with_(observers=(TraceObserver(external_trace),)),
        )
        assert external.circuit == builtin.circuit
        assert external_trace.events == builtin.trace.events

    def test_finish_reason_for_identity(self):
        recorder = RecordingObserver()
        result = synthesize(
            Permutation([0, 1, 2, 3]),
            SynthesisOptions(observers=(recorder,)),
        )
        assert result.solved and result.gate_count == 0
        assert recorder.calls[-1] == ("finish", "identity")

    def test_finish_reason_step_limit(self, rng):
        images = list(range(16))
        rng.shuffle(images)
        recorder = RecordingObserver()
        result = synthesize(
            Permutation(images),
            SynthesisOptions(max_steps=3, observers=(recorder,)),
        )
        if not result.solved:
            assert recorder.calls[-1] == ("finish", "step_limit")
            assert result.stats.step_limited
