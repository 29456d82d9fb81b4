"""Regression tests for the observability satellite fixes:

* ``SearchStats.as_dict`` derives from the dataclass fields;
* the deadline is polled on a stride without losing promptness;
* queue-size gauges see restart clears, and the peak survives them;
* ``TraceRecorder.to_dot`` edge cases (empty, truncated, solution
  beyond the node cap) render well-formed DOT.
"""

import dataclasses

import pytest

from repro.functions.permutation import Permutation
from repro.obs.observer import SearchObserver
from repro.pprm.system import PPRMSystem
from repro.synth.node import SearchNode
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize
from repro.synth.stats import SearchStats, TraceRecorder


class TestStatsAsDict:
    def test_keys_match_dataclass_fields(self):
        stats = SearchStats()
        field_names = {field.name for field in dataclasses.fields(SearchStats)}
        assert set(stats.as_dict()) == field_names

    def test_values_follow_fields(self):
        stats = SearchStats(steps=7, restarts=3, timed_out=True)
        data = stats.as_dict()
        assert data["steps"] == 7
        assert data["restarts"] == 3
        assert data["timed_out"] is True


class TestDeadlinePolling:
    def _spec(self):
        return Permutation([1, 0, 7, 2, 3, 4, 5, 6])

    def test_zero_second_deadline_terminates_promptly(self):
        result = synthesize(self._spec(), SynthesisOptions(time_limit=0))
        assert not result.solved
        assert result.stats.timed_out
        # The first loop iteration checks the clock before any step.
        assert result.stats.steps == 0

    def test_zero_second_deadline_with_large_poll_stride(self):
        result = synthesize(
            self._spec(),
            SynthesisOptions(time_limit=0, deadline_poll_steps=10_000),
        )
        assert result.stats.timed_out
        assert result.stats.steps == 0

    def test_poll_stride_configurable_and_validated(self):
        assert SynthesisOptions().deadline_poll_steps == 16
        assert SynthesisOptions(deadline_poll_steps=1).deadline_poll_steps == 1
        with pytest.raises(ValueError):
            SynthesisOptions(deadline_poll_steps=0)

    def test_poll_stride_does_not_change_untimed_search(self):
        options = SynthesisOptions(max_steps=5_000, dedupe_states=True)
        a = synthesize(self._spec(), options)
        b = synthesize(self._spec(), options.with_(deadline_poll_steps=1))
        assert a.circuit == b.circuit
        assert a.stats.steps == b.stats.steps


class QueueSizeRecorder(SearchObserver):
    def __init__(self):
        self.sizes = []
        self.restart_marks = []

    def on_queue(self, size):
        self.sizes.append(size)

    def on_restart(self, seed, queue_size):
        self.restart_marks.append(len(self.sizes))


class TestPeakQueueAcrossRestarts:
    def _restarting_run(self):
        recorder = QueueSizeRecorder()
        # Gate cap below the optimum (this spec needs >= 5 gates)
        # forces restarts until the cap on restarts trips.
        result = synthesize(
            Permutation([0, 1, 2, 4, 3, 5, 6, 7]),
            SynthesisOptions(
                greedy_k=1, restart_steps=10, max_restarts=3,
                max_steps=5_000, max_gates=4, dedupe_states=True,
                observers=(recorder,),
            ),
        )
        return result, recorder

    def test_gauge_sees_restart_clears(self):
        result, recorder = self._restarting_run()
        assert result.stats.restarts > 0
        # Every restart pushes an explicit 0 (clear) then 1 (reseed).
        assert 0 in recorder.sizes
        for mark in recorder.restart_marks:
            assert recorder.sizes[mark - 2 : mark] == [0, 1]

    def test_peak_survives_restart_clears(self):
        result, recorder = self._restarting_run()
        assert result.stats.peak_queue_size == max(recorder.sizes)
        first_restart = recorder.restart_marks[0]
        peak_before_restart = max(recorder.sizes[:first_restart])
        assert result.stats.peak_queue_size >= peak_before_restart
        assert peak_before_restart > 1


def _chain(length):
    """Build root -> n1 -> n2 -> ... as create-event fodder."""
    system = PPRMSystem.identity(2)
    state = system.dedupe_key()
    nodes = [SearchNode.root(state, system.term_count(), node_id=0)]
    for index in range(1, length + 1):
        nodes.append(
            SearchNode(
                parent=nodes[-1], target=0, factor=0b10, state=state,
                terms=2, elim=1, priority=1.0, node_id=index,
            )
        )
    return nodes


def _declared_and_edges(dot):
    declared = set()
    edges = []
    for line in dot.splitlines():
        line = line.strip()
        if "[label=" in line:
            declared.add(line.split(" ", 1)[0])
        elif "->" in line:
            tail, head = line.rstrip(";").split(" -> ")
            edges.append((tail, head))
    return declared, edges


class TestToDotEdgeCases:
    def test_empty_trace(self):
        dot = TraceRecorder().to_dot()
        assert dot.startswith("digraph search {")
        assert dot.rstrip().endswith("}")
        declared, edges = _declared_and_edges(dot)
        assert declared == {"n0"}
        assert edges == []

    def test_truncation_at_max_nodes(self):
        recorder = TraceRecorder()
        nodes = _chain(6)
        for index in range(1, 7):
            recorder.record("create", nodes[index], nodes[index - 1])
        dot = recorder.to_dot(max_nodes=3)
        declared, edges = _declared_and_edges(dot)
        assert declared == {"n0", "n1", "n2", "n3"}
        for tail, head in edges:
            assert tail in declared and head in declared

    def test_solution_beyond_cap_has_no_dangling_edge(self):
        recorder = TraceRecorder()
        nodes = _chain(6)
        for index in range(1, 7):
            recorder.record("create", nodes[index], nodes[index - 1])
        recorder.record("solution", nodes[6], nodes[5])
        dot = recorder.to_dot(max_nodes=2)
        declared, edges = _declared_and_edges(dot)
        # The solution node's create fell past the cap; nothing may
        # reference nodes that are not drawn.
        for tail, head in edges:
            assert tail in declared and head in declared

    def test_solution_without_create_is_drawn_without_dangling_parent(self):
        recorder = TraceRecorder()
        nodes = _chain(6)
        recorder.record("create", nodes[1], nodes[0])
        # A solution event whose create was never recorded and whose
        # parent (n5) is not drawn: previously rendered `n5 -> n6`
        # against an undeclared n5.
        recorder.record("solution", nodes[6], nodes[5])
        dot = recorder.to_dot(max_nodes=10)
        declared, edges = _declared_and_edges(dot)
        assert "n6" in declared
        assert "peripheries=2" in dot
        for tail, head in edges:
            assert tail in declared and head in declared

    def test_solution_within_cap_keeps_edge(self):
        recorder = TraceRecorder()
        nodes = _chain(2)
        recorder.record("create", nodes[1], nodes[0])
        recorder.record("create", nodes[2], nodes[1])
        recorder.record("solution", nodes[2], nodes[1])
        dot = recorder.to_dot()
        declared, edges = _declared_and_edges(dot)
        assert ("n1", "n2") in edges
        assert "peripheries=2" in dot
