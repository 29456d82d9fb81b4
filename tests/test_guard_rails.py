"""In-process guard rails: memory caps, visited-table cap, Ctrl-C.

The search must degrade gracefully, never die: node/queue caps end the
run with finish reason ``memory_limit``, the visited-table cap sheds
new entries (counted, never fatal), and ``KeyboardInterrupt`` yields a
partial result with reason ``interrupted``.
"""

import pytest

from repro.functions.permutation import Permutation
from repro.obs.observer import SearchObserver
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize

HARD_SPEC = Permutation([7, 1, 4, 3, 0, 2, 6, 5])


class TestMemoryLimitFinish:
    def test_max_nodes_trips_memory_limit(self):
        result = synthesize(
            HARD_SPEC,
            SynthesisOptions(dedupe_states=True, max_steps=50_000,
                             max_nodes=25),
        )
        assert result.stats.finish_reason == "memory_limit"
        assert result.stats.memory_limited
        assert result.stats.nodes_created <= 25 + 50

    def test_max_queue_size_trips_memory_limit(self):
        result = synthesize(
            HARD_SPEC,
            SynthesisOptions(dedupe_states=True, max_steps=50_000,
                             max_queue_size=5),
        )
        assert result.stats.finish_reason == "memory_limit"

    def test_generous_caps_do_not_interfere(self):
        capped = synthesize(
            HARD_SPEC,
            SynthesisOptions(dedupe_states=True, max_steps=50_000,
                             max_nodes=10**7, max_queue_size=10**7,
                             max_visited=10**7),
        )
        plain = synthesize(
            HARD_SPEC,
            SynthesisOptions(dedupe_states=True, max_steps=50_000),
        )
        assert capped.solved and plain.solved
        assert capped.gate_count == plain.gate_count
        assert capped.stats.steps == plain.stats.steps

    def test_options_validate_caps(self):
        with pytest.raises(ValueError):
            SynthesisOptions(max_nodes=0)
        with pytest.raises(ValueError):
            SynthesisOptions(max_queue_size=0)
        with pytest.raises(ValueError):
            SynthesisOptions(max_visited=0)


class TestVisitedCap:
    def test_overflow_counted_and_search_survives(self):
        result = synthesize(
            HARD_SPEC,
            SynthesisOptions(dedupe_states=True, max_steps=2_000,
                             max_visited=8),
        )
        assert result.stats.visited_overflows > 0

    def test_no_cap_means_no_overflows(self):
        result = synthesize(
            HARD_SPEC,
            SynthesisOptions(dedupe_states=True, max_steps=2_000),
        )
        assert result.stats.visited_overflows == 0

    def test_overflow_reaches_metrics(self):
        # The overflow count lives in the search's stats alone.
        result = synthesize(
            HARD_SPEC,
            SynthesisOptions(dedupe_states=True, max_steps=2_000,
                             max_visited=8),
        )
        assert result.stats.visited_overflows > 0


class _InterruptAfter(SearchObserver):
    def __init__(self, steps: int):
        self.remaining = steps

    def on_step(self, step, node, queue_size):
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt


class _InterruptAtChild(SearchObserver):
    def __init__(self, children: int):
        self.remaining = children
        self.announced = 0

    def on_child(self, child, parent):
        self.announced += 1
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt


class TestInterrupted:
    @pytest.mark.parametrize("children", [2, 7, 40])
    def test_ctrl_c_mid_expansion_keeps_counters_whole(self, children):
        # An interrupt inside an expansion's child pass still adds that
        # pass's counts: every announced node is counted, and each
        # non-root child was inserted in the duplicate table first.
        observer = _InterruptAtChild(children)
        result = synthesize(
            HARD_SPEC,
            SynthesisOptions(dedupe_states=True, max_steps=50_000,
                             observers=(observer,)),
        )
        stats = result.stats
        assert stats.finish_reason == "interrupted"
        assert observer.announced == children
        assert stats.nodes_created == children
        assert stats.hot_ops["dedupe_inserts"] == (
            children - 1 - stats.solutions_found
        )

    def test_ctrl_c_yields_partial_result(self):
        result = synthesize(
            HARD_SPEC,
            SynthesisOptions(dedupe_states=True, max_steps=50_000,
                             observers=(_InterruptAfter(5),)),
        )
        assert result.stats.finish_reason == "interrupted"
        assert result.stats.interrupted
        assert result.circuit is None
        assert result.stats.steps <= 6

    def test_interrupt_maps_to_interrupted_status(self):
        from repro.harness import status_from_finish_reason

        assert (
            status_from_finish_reason("interrupted", False) == "interrupted"
        )

    def test_sweep_stops_cleanly_and_resume_rides_the_ledger(self, tmp_path):
        from repro.harness import HarnessConfig, probe_task, run_sweep

        path = str(tmp_path / "ledger.jsonl")
        tasks = [
            probe_task("ok", namespace="i0"),
            probe_task("interrupt", namespace="i1"),
            probe_task("ok", namespace="i2"),
        ]
        config = HarnessConfig(ledger_path=path)
        first = run_sweep("interrupt", tasks, config=config)
        assert first.interrupted
        assert first.completed == 1  # the interrupt itself is not recorded

        # On resume the interrupted task re-runs; make it succeed now.
        tasks[1] = probe_task("ok", namespace="i1")
        second = run_sweep("interrupt", tasks, config=config)
        assert not second.interrupted
        assert second.replayed == 1 and second.completed == 3
