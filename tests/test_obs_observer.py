"""Tests for the SearchObserver protocol and built-in observers."""

import ast
import random
import sys
from pathlib import Path

import pytest

from repro.functions.permutation import Permutation
from repro.obs.observer import (
    PRUNE_CHILD_DEPTH,
    PRUNE_DEPTH,
    PRUNE_GREEDY,
    PRUNE_GROWTH,
    PRUNE_LOWER_BOUND,
    FINISH_REASONS,
    MultiObserver,
    NullObserver,
    SearchObserver,
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


def _restarting_search(*observers):
    """A 4-variable search that restarts, solves twice and fires every
    prune reason."""
    images = list(range(16))
    random.Random(4).shuffle(images)
    return synthesize(
        Permutation(images),
        SynthesisOptions(
            max_steps=3_000, greedy_k=1, restart_steps=100,
            observers=observers,
        ),
    )


def _tally(calls, kind):
    return sum(1 for call in calls if call[0] == kind)


class TestStatsObserver:
    """The search keeps ``SearchStats`` itself; every counter must agree
    with the events an attached observer sees."""

    def test_counter_mapping(self):
        recorder = RecordingObserver()
        stats = _restarting_search(recorder).stats
        calls = recorder.calls
        assert stats.restarts > 0 and stats.solutions_found > 1
        assert stats.nodes_created == _tally(calls, "child")
        assert stats.steps == _tally(calls, "step")
        assert stats.nodes_expanded == _tally(calls, "expand")
        assert stats.solutions_found == _tally(calls, "solution")
        assert stats.restarts == _tally(calls, "restart")

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
        buckets = {
            PRUNE_DEPTH: "nodes_pruned_depth",
            PRUNE_CHILD_DEPTH: "nodes_pruned_depth",
            PRUNE_LOWER_BOUND: "nodes_pruned_depth",
            PRUNE_GROWTH: "children_rejected_growth",
            PRUNE_GREEDY: "children_pruned_greedy",
        }
        recorder = RecordingObserver()
        stats = _restarting_search(recorder).stats
        pruned = {}
        for call in recorder.calls:
            if call[0] == "prune":
                pruned[call[1]] = pruned.get(call[1], 0) + call[2]
        assert pruned.get(reason, 0) > 0
        assert getattr(stats, field) == sum(
            count for name, count in pruned.items() if buckets[name] == field
        )

    def test_peak_queue_tracks_maximum(self):
        recorder = RecordingObserver()
        stats = _restarting_search(recorder).stats
        sizes = [call[1] for call in recorder.calls if call[0] == "queue"]
        # Restarts clear the queue, so the last size is not the peak.
        assert 0 in sizes and sizes[-1] < max(sizes)
        assert stats.peak_queue_size == max(sizes)

    def test_finish_sets_budget_flags(self, fig1_spec):
        class Interrupt(SearchObserver):
            def on_step(self, step, node, queue_size):
                if step == 3:
                    raise KeyboardInterrupt

        hard = Permutation(list(range(1, 16)) + [0])
        runs = {
            "identity": (Permutation([0, 1, 2, 3]), {}),
            "solved": (fig1_spec, {}),
            "queue_exhausted": (fig1_spec, {"max_gates": 1}),
            "timeout": (hard, {"time_limit": 0}),
            "step_limit": (hard, {"max_steps": 3}),
            "memory_limit": (hard, {"max_nodes": 2}),
            "interrupted": (hard, {"observers": (Interrupt(),)}),
        }
        assert set(runs) == set(FINISH_REASONS)
        flags = {
            "timeout": "timed_out",
            "step_limit": "step_limited",
            "memory_limit": "memory_limited",
            "interrupted": "interrupted",
        }
        for reason, (spec, changes) in runs.items():
            stats = synthesize(spec, SynthesisOptions(**changes)).stats
            assert stats.finish_reason == reason
            for flag in flags.values():
                assert getattr(stats, flag) == (flags.get(reason) == flag), (
                    reason, flag,
                )


class TestTraceObserver:
    """``TraceRecorder`` is itself the Fig. 5 trace observer."""

    def test_event_stream_matches_recorder_semantics(self):
        root, child = _nodes()
        trace = TraceRecorder()
        trace.on_child(root, None)       # root creation: not recorded
        trace.on_step(1, root, 1)        # pop
        trace.on_child(child, root)      # create
        trace.on_prune(child, PRUNE_GROWTH)       # not recorded
        trace.on_prune(child, PRUNE_CHILD_DEPTH)  # not recorded
        trace.on_prune(child, PRUNE_DEPTH)        # recorded
        trace.on_solution(child, root)
        trace.on_restart(child, 1)
        kinds = [event.kind for event in trace.events]
        assert kinds == ["pop", "create", "prune", "solution", "restart"]


class TestNoObserver:
    def test_untraced_search_without_observers_makes_no_observer_call(
        self, fig1_spec
    ):
        def observer_calls(options):
            seen = []

            def profile(frame, event, arg):
                if event == "call" and frame.f_code.co_name.startswith("on_"):
                    seen.append(frame.f_code.co_name)

            sys.setprofile(profile)
            try:
                result = synthesize(fig1_spec, options)
            finally:
                sys.setprofile(None)
            assert result.solved
            return seen

        assert observer_calls(SynthesisOptions()) == []
        # The probe does see calls once anyone listens.
        assert "on_step" in observer_calls(
            SynthesisOptions(observers=(NullObserver(),))
        )
        assert "on_step" in observer_calls(SynthesisOptions(record_trace=True))


def _observer_classes(root):
    """Names of every class under ``root`` that derives, directly or
    through another such class, from ``SearchObserver``."""
    bases = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                }
    found = {"SearchObserver"}
    grown = True
    while grown:
        grown = False
        for name, parents in bases.items():
            if name not in found and parents & found:
                found.add(name)
                grown = True
    return found - {"SearchObserver"}


class TestObserverRegrowth:
    def test_observer_set_is_pinned(self):
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        assert _observer_classes(src) == {
            "NullObserver",
            "MultiObserver",
            "TraceRecorder",
            "MetricsObserver",
            "JsonlTraceObserver",
            "ProgressObserver",
            "FlightObserver",
        }, (
            "a new SearchObserver subclass: fold it into an existing "
            "observer, or count it in the search's own stats"
        )

    def test_obs_module_set_is_pinned(self):
        obs = Path(__file__).resolve().parent.parent / "src" / "repro" / "obs"
        modules = {
            path.relative_to(obs).with_suffix("").as_posix()
            for path in obs.rglob("*.py")
        }
        assert modules == {
            "__init__",
            "flight",
            "jsonl",
            "metrics",
            "observer",
            "phases",
            "report",
            "trace_summary",
        }, (
            "a new module under repro/obs: a traced run is read through "
            "the run report (--json, --metrics), the JSONL search trace "
            "(--trace-jsonl) or the flight recorder; extend one of those "
            "instead"
        )


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
            fig1_spec, options.with_(observers=(external_trace,)),
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
