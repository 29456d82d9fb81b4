"""Tests for search statistics and trace recording."""

from repro.pprm.system import PPRMSystem
from repro.synth.node import SearchNode
from repro.synth.stats import SearchStats, TraceEvent, TraceRecorder


class TestSearchStats:
    def test_defaults(self):
        stats = SearchStats()
        assert stats.steps == 0
        assert not stats.timed_out
        assert not stats.step_limited

    def test_as_dict_round_trip(self):
        stats = SearchStats(steps=5, restarts=2, initial_terms=8)
        data = stats.as_dict()
        assert data["steps"] == 5
        assert data["restarts"] == 2
        assert data["initial_terms"] == 8
        assert set(data) >= {
            "nodes_created",
            "nodes_expanded",
            "peak_queue_size",
            "elapsed_seconds",
        }


class TestTraceRecorder:
    def _nodes(self):
        system = PPRMSystem.identity(2)
        state = system.dedupe_key()
        root = SearchNode.root(state, system.term_count(), node_id=0)
        child = SearchNode(
            parent=root,
            target=0,
            factor=0b10,
            state=state,
            terms=2,
            elim=1,
            priority=1.5,
            node_id=1,
        )
        return root, child

    def test_record_create(self):
        recorder = TraceRecorder()
        root, child = self._nodes()
        recorder.record("create", child, root)
        event = recorder.events[0]
        assert event.kind == "create"
        assert event.parent_id == 0
        assert event.substitution == "a = a + b"

    def test_render_all_kinds(self):
        recorder = TraceRecorder()
        root, child = self._nodes()
        recorder.record("pop", root)
        recorder.record("create", child, root)
        recorder.record("prune", child)
        recorder.record("solution", child, root)
        recorder.record("restart", child)
        text = recorder.render()
        assert "pop node 0" in text
        assert "create node 1" in text
        assert "prune node 1" in text
        assert "* solution at node 1" in text
        assert "restart from first-level node 1" in text

    def test_event_is_frozen(self):
        event = TraceEvent(
            kind="pop", node_id=0, parent_id=None, depth=0,
            substitution="(root)", terms=2, elim=0, priority=0.0,
        )
        import pytest

        with pytest.raises(Exception):
            event.kind = "create"
