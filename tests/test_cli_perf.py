"""CLI coverage for ``rmrls trace summarize``."""

import json

import pytest

from repro.cli import main


class TestTraceSummarizeCommand:
    @pytest.fixture
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["synth", "--spec", "1,0,7,2,3,4,5,6",
                     "--trace-jsonl", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_text_summary(self, trace_path, capsys):
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "queue depth" in out
        assert "finish: solved" in out

    def test_json_summary(self, trace_path, capsys):
        assert main(["trace", "summarize", str(trace_path),
                     "--json", "--top", "3"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["top_substitutions"]) <= 3
        assert summary["finish"]["reason"] == "solved"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["trace", "summarize",
                     str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_lines_skipped_not_fatal(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["trace", "summarize", str(path)]) == 0
        assert "skipped 1 malformed line" in capsys.readouterr().out
