"""Tests for the priority function (equation (4)) and the max-queue."""

import pytest

from repro.synth.node import SearchNode
from repro.synth.options import SynthesisOptions
from repro.synth.priority import MaxPriorityQueue, node_priority


class TestEquation4:
    def test_paper_weights(self):
        options = SynthesisOptions()
        # priority = 0.3*depth + 0.6*elim/depth - 0.1*literals
        assert node_priority(1, 3, 2, options) == pytest.approx(
            0.3 + 1.8 - 0.2
        )

    def test_depth_preference(self):
        """All things being equal, deeper nodes score higher."""
        options = SynthesisOptions()
        shallow = node_priority(1, 0, 0, options)
        deep = node_priority(5, 0, 0, options)
        assert deep > shallow

    def test_elimination_preference(self):
        options = SynthesisOptions()
        assert node_priority(2, 6, 1, options) > node_priority(2, 1, 1, options)

    def test_literal_penalty(self):
        options = SynthesisOptions()
        assert node_priority(2, 3, 0, options) > node_priority(2, 3, 4, options)

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            node_priority(0, 1, 1, SynthesisOptions())

    def test_custom_weights(self):
        options = SynthesisOptions(alpha=1.0, beta=0.0, gamma=0.0)
        assert node_priority(7, 100, 100, options) == pytest.approx(7.0)


def _node(priority, node_id=0):
    import repro.pprm.system as system_module

    system = system_module.PPRMSystem.identity(2)
    node = SearchNode.root(
        system.dedupe_key(), system.term_count(), node_id=node_id
    )
    node.priority = priority
    return node


class TestMaxPriorityQueue:
    def test_pops_highest_first(self):
        queue = MaxPriorityQueue()
        for value in (1.0, 5.0, 3.0):
            queue.push(_node(value))
        assert queue.pop().priority == 5.0
        assert queue.pop().priority == 3.0
        assert queue.pop().priority == 1.0

    def test_fifo_tie_break(self):
        queue = MaxPriorityQueue()
        first = _node(2.0, node_id=1)
        second = _node(2.0, node_id=2)
        queue.push(first)
        queue.push(second)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_infinite_priority_first(self):
        queue = MaxPriorityQueue()
        queue.push(_node(10.0))
        queue.push(_node(float("inf")))
        assert queue.pop().priority == float("inf")

    def test_empty_behaviour(self):
        queue = MaxPriorityQueue()
        assert queue.is_empty()
        assert not queue
        assert len(queue) == 0
        with pytest.raises(IndexError):
            queue.pop()
        with pytest.raises(IndexError):
            queue.peek()

    def test_peek_does_not_remove(self):
        queue = MaxPriorityQueue()
        queue.push(_node(1.0))
        assert queue.peek().priority == 1.0
        assert len(queue) == 1

    def test_clear(self):
        queue = MaxPriorityQueue()
        queue.push(_node(1.0))
        queue.clear()
        assert queue.is_empty()
