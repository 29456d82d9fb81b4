"""Trace summarization: folding JSONL event streams into the
substitution/queue/restart summary behind ``rmrls trace summarize``."""

import io
import json

import pytest

from repro.functions.permutation import Permutation
from repro.obs import (
    JsonlTraceObserver,
    render_trace_summary,
    summarize_trace,
)
from repro.synth.rmrls import synthesize


def lines(*records):
    return io.StringIO(
        "".join(json.dumps(record) + "\n" for record in records)
    )


class TestSummarizeTrace:
    def test_empty_stream(self):
        summary = summarize_trace(io.StringIO(""))
        assert summary["events"] == {}
        assert summary["queue_depth"]["samples"] == 0
        assert summary["queue_depth"]["max"] is None
        assert summary["finish"] is None

    def test_counts_and_substitutions(self):
        summary = summarize_trace(lines(
            {"event": "pop", "step": 1, "queue_size": 3},
            {"event": "child", "step": 1, "sub": "a = a + b"},
            {"event": "child", "step": 1, "sub": "a = a + b"},
            {"event": "child", "step": 1, "sub": "b = b + 1"},
        ))
        assert summary["events"] == {"pop": 1, "child": 3}
        assert summary["top_substitutions"][0] == {
            "substitution": "a = a + b", "count": 2,
        }
        assert summary["distinct_substitutions"] == 2

    def test_top_limit(self):
        records = [
            {"event": "child", "step": 1, "sub": f"s{i}"} for i in range(8)
        ]
        summary = summarize_trace(lines(*records), top=3)
        assert len(summary["top_substitutions"]) == 3
        assert summary["distinct_substitutions"] == 8

    def test_queue_percentiles(self):
        records = [
            {"event": "pop", "step": i, "queue_size": size}
            for i, size in enumerate(range(1, 101))
        ]
        summary = summarize_trace(lines(*records))
        depth = summary["queue_depth"]
        assert depth["p50"] == 50
        assert depth["p90"] == 90
        assert depth["p99"] == 99
        assert depth["max"] == 100
        assert depth["samples"] == 100

    def test_queue_percentiles_round_up_between_ranks(self):
        # Nearest rank is ceil(p * n): 2.5 -> 3 and 4.5 -> 5, where
        # round-half-to-even would give 2 and 4.
        records = [
            {"event": "pop", "step": i, "queue_size": size}
            for i, size in enumerate(range(1, 6))
        ]
        depth = summarize_trace(lines(*records))["queue_depth"]
        assert depth["p50"] == 3
        assert depth["p90"] == 5
        assert depth["p99"] == 5

    def test_restart_timeline_and_solutions(self):
        summary = summarize_trace(lines(
            {"event": "restart", "step": 40, "seed": 3},
            {"event": "solution", "step": 55, "node": 9, "depth": 4},
        ))
        assert summary["restarts"] == [{"step": 40, "seed": 3}]
        assert summary["solutions"] == [
            {"step": 55, "node": 9, "depth": 4}
        ]

    def test_finish_captured(self):
        summary = summarize_trace(lines(
            {"event": "finish", "step": 9, "reason": "solved",
             "stats": {"steps": 9}},
        ))
        assert summary["finish"]["reason"] == "solved"
        assert summary["steps"] == 9

    def test_malformed_json_skipped_and_counted(self):
        summary = summarize_trace(
            io.StringIO('{"event": "pop"}\nnot json\n{"event": "pop"}\n')
        )
        assert summary["events"] == {"pop": 2}
        assert summary["skipped_lines"] == 1

    def test_missing_event_key_skipped_and_counted(self):
        summary = summarize_trace(lines({"step": 1}, {"event": "pop"}))
        assert summary["events"] == {"pop": 1}
        assert summary["skipped_lines"] == 1

    def test_truncated_tail_line_skipped(self):
        # A SIGKILLed writer leaves at most one partial trailing line;
        # the summary must survive it and surface the count.
        summary = summarize_trace(
            io.StringIO('{"event": "pop", "step": 1}\n{"event": "po')
        )
        assert summary["events"] == {"pop": 1}
        assert summary["skipped_lines"] == 1
        assert "skipped 1 malformed line" in render_trace_summary(summary)

    def test_blank_lines_skipped(self):
        summary = summarize_trace(
            io.StringIO('\n{"event": "pop", "step": 1}\n\n')
        )
        assert summary["events"] == {"pop": 1}


class TestAgainstRealTrace:
    @pytest.fixture
    def trace_text(self):
        buffer = io.StringIO()
        synthesize(
            Permutation([1, 0, 3, 2, 5, 7, 4, 6]).to_pprm(),
            observers=(JsonlTraceObserver(buffer),),
        )
        return buffer.getvalue()

    def test_summary_consistent_with_run(self, trace_text):
        summary = summarize_trace(io.StringIO(trace_text))
        assert summary["finish"]["reason"] == "solved"
        stats = summary["finish"]["stats"]
        assert summary["events"]["pop"] == stats["steps"]
        assert summary["queue_depth"]["samples"] == stats["steps"]
        assert stats["hot_ops"]["substitutions_applied"] > 0

    def test_render(self, trace_text):
        summary = summarize_trace(io.StringIO(trace_text))
        text = render_trace_summary(summary)
        assert "queue depth" in text
        assert "top substitutions" in text
        assert "finish: solved" in text
        assert "hot ops:" in text

    def test_render_truncated_trace(self):
        summary = summarize_trace(lines({"event": "pop", "step": 1}))
        assert "truncated" in render_trace_summary(summary)
