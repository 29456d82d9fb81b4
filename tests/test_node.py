"""Tests for search-tree nodes."""

import pytest

from repro.gates.toffoli import ToffoliGate
from repro.pprm.system import PPRMSystem
from repro.synth.node import SearchNode


def _root(num_vars):
    system = PPRMSystem.identity(num_vars)
    return SearchNode.root(system.dedupe_key(), system.term_count())


def _child(parent, target, factor, elim=1, node_id=1):
    return SearchNode(
        parent=parent,
        target=target,
        factor=factor,
        state=parent.state,
        terms=parent.terms - elim,
        elim=elim,
        priority=0.0,
        node_id=node_id,
    )


class TestRoot:
    def test_root_fields(self):
        root = _root(3)
        assert root.is_root()
        assert root.depth == 0
        assert root.progress_depth == 0
        assert root.priority == float("inf")
        assert root.terms == 3
        assert root.substitution_string() == "(root)"

    def test_root_has_no_gate(self):
        root = _root(2)
        with pytest.raises(ValueError):
            root.gate()

    def test_release_state_keeps_root(self):
        root = _root(2)
        root.release_state()
        assert root.state is not None


class TestChildren:
    def test_depth_increments(self):
        root = _root(2)
        child = _child(root, 0, 0b10)
        grandchild = _child(child, 1, 0b01, node_id=2)
        assert child.depth == 1
        assert grandchild.depth == 2

    def test_progress_depth_counts_decreasing_moves(self):
        root = _root(2)
        good = _child(root, 0, 0b10, elim=2)
        junk = _child(good, 1, 0b01, elim=-1, node_id=2)
        good2 = _child(junk, 0, 0b10, elim=1, node_id=3)
        assert good.progress_depth == 1
        assert junk.progress_depth == 1
        assert good2.progress_depth == 2

    def test_gate(self):
        root = _root(2)
        child = _child(root, 1, 0b01)
        assert child.gate() == ToffoliGate(0b01, 1)

    def test_gate_sequence_in_circuit_order(self):
        root = _root(3)
        first = _child(root, 0, 0)
        second = _child(first, 1, 0b101, node_id=2)
        assert second.gate_sequence() == [
            ToffoliGate(0, 0),
            ToffoliGate(0b101, 1),
        ]

    def test_substitution_string(self):
        root = _root(3)
        child = _child(root, 1, 0b101)
        assert child.substitution_string() == "b = b + ac"

    def test_release_state(self):
        root = _root(2)
        child = _child(root, 0, 0b10)
        child.release_state()
        assert child.state is None

    def test_repr(self):
        root = _root(2)
        assert "depth=0" in repr(root)
