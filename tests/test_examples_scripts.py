"""Smoke tests for the runnable example scripts (fast ones only; the
slower walkthroughs run by hand, ``python examples/<script>.py``)."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, capsys) -> str:
    script = EXAMPLES / name
    assert script.exists(), script
    argv = sys.argv
    sys.argv = [str(script)]
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


class TestQuickstart:
    def test_output(self, capsys):
        out = _run("quickstart.py", capsys)
        assert "TOF1(a) TOF3(a, c, b) TOF3(a, b, c)" in out
        assert "quantum cost: 11" in out


class TestSearchTreeTour:
    def test_output(self, capsys):
        out = _run("search_tree_tour.py", capsys)
        assert "basic (Sec. IV-A): a = a + 1, b = b + c, b = b + ac" in out
        assert "solution" in out
        assert "greedy k=3" in out


class TestExamplesExist:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart.py",
            "adder_design.py",
            "benchmark_tour.py",
            "search_tree_tour.py",
            "nct_mapping.py",
            "pla_flow.py",
        ],
    )
    def test_script_present_and_has_main(self, name):
        text = (EXAMPLES / name).read_text()
        assert '__main__' in text
        assert text.startswith("#!/usr/bin/env python3")
