"""Tests for the versioned machine-readable run report."""

import json

import pytest

from repro.obs.metrics import MetricsObserver, MetricsRegistry
from repro.obs.phases import PhaseTimer
from repro.obs.report import (
    REPORT_SCHEMA,
    REPORT_VERSION,
    build_run_report,
    environment_info,
    options_as_dict,
    validate_run_report,
    write_run_report,
)
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize


def _instrumented_run(spec, **option_changes):
    registry = MetricsRegistry()
    phases = PhaseTimer(stride=1)
    result = synthesize(
        spec,
        SynthesisOptions(
            dedupe_states=True,
            observers=(MetricsObserver(registry),),
            phase_timer=phases,
            **option_changes,
        ),
    )
    return result, registry, phases


class TestEnvironmentInfo:
    def test_fields(self):
        info = environment_info()
        assert info["repro_version"]
        assert info["python"].count(".") == 2
        json.dumps(info)


class TestOptionsSerialization:
    def test_plain_options_round_trip(self):
        data = options_as_dict(SynthesisOptions(greedy_k=3))
        assert data["greedy_k"] == 3
        assert data["observers"] == []
        json.dumps(data)

    def test_live_objects_summarized_by_class_name(self):
        options = SynthesisOptions(
            observers=(MetricsObserver(),), phase_timer=PhaseTimer()
        )
        data = options_as_dict(options)
        assert data["observers"] == ["MetricsObserver"]
        assert data["phase_timer"] == "PhaseTimer"
        json.dumps(data)


class TestBuildAndValidate:
    def test_full_report_passes_schema_check(self, fig1_spec):
        result, registry, phases = _instrumented_run(
            fig1_spec, max_steps=5_000
        )
        assert result.solved
        report = build_run_report(
            result, registry=registry, phases=phases, benchmark="fig1"
        )
        validate_run_report(report)
        assert report["schema"] == REPORT_SCHEMA
        assert report["version"] == REPORT_VERSION
        assert report["solved"] and report["gate_count"] == result.gate_count
        assert report["benchmark"] == "fig1"
        # The acceptance-criteria histograms are present and populated.
        assert report["metrics"]["elim"]["kind"] == "histogram"
        assert report["metrics"]["elim"]["count"] > 0
        assert report["metrics"]["queue_size"]["kind"] == "histogram"
        assert report["metrics"]["queue_size"]["count"] > 0
        assert report["phases"]["phases"]  # per-phase table non-empty
        assert report["stats"] == result.stats.as_dict()
        json.dumps(report)

    def test_unsolved_report(self, rng):
        from repro.functions.permutation import Permutation

        images = list(range(32))
        rng.shuffle(images)
        result, registry, phases = _instrumented_run(
            Permutation(images), max_steps=5
        )
        report = build_run_report(result, registry=registry, phases=phases)
        validate_run_report(report)
        if not result.solved:
            assert report["gate_count"] is None
            assert report["circuit"] is None

    def test_report_without_instruments(self, fig1_spec):
        result = synthesize(fig1_spec, SynthesisOptions(max_steps=5_000))
        report = build_run_report(result)
        validate_run_report(report)
        assert report["metrics"] is None
        assert report["phases"] is None

    def test_engine_is_the_backend_that_ran(self):
        from repro.benchlib.symbolic import graycode_system
        from repro.pprm import PPRMSystem

        narrow = PPRMSystem.from_permutation([1, 0, 3, 2])
        report = build_run_report(synthesize(narrow))
        assert report["engine"] == "lanes"
        wide = synthesize(graycode_system(13), max_steps=2)
        assert build_run_report(wide)["engine"] == "reference"

    def test_extra_annotations(self, fig1_spec):
        result = synthesize(fig1_spec, SynthesisOptions(max_steps=5_000))
        report = build_run_report(result, extra={"seed": 2004})
        assert report["extra"] == {"seed": 2004}
        validate_run_report(report)

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda report: report.pop("stats"),
            lambda report: report.pop("metrics"),
            lambda report: report.update(schema="bogus"),
            lambda report: report.update(version=99),
            lambda report: report.update(solved="yes"),
            lambda report: report["stats"].pop("steps"),
        ],
    )
    def test_schema_violations_rejected(self, fig1_spec, mutation):
        result = synthesize(fig1_spec, SynthesisOptions(max_steps=5_000))
        report = build_run_report(result)
        mutation(report)
        with pytest.raises(ValueError):
            validate_run_report(report)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            validate_run_report([])


class TestWriteRunReport:
    def test_write_and_reload(self, fig1_spec, tmp_path):
        result, registry, phases = _instrumented_run(
            fig1_spec, max_steps=5_000
        )
        report = build_run_report(result, registry=registry, phases=phases)
        path = tmp_path / "run.json"
        write_run_report(report, path)
        reloaded = json.loads(path.read_text())
        validate_run_report(reloaded)
        assert reloaded["stats"]["steps"] == result.stats.steps

    def test_invalid_report_not_written(self, tmp_path):
        path = tmp_path / "run.json"
        with pytest.raises(ValueError):
            write_run_report({"schema": "bogus"}, path)
        assert not path.exists()
