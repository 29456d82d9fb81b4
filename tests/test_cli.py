"""Tests for the rmrls command-line interface."""

import json

import pytest

from repro.cli import main
from repro.functions.permutation import Permutation
from repro.synth import synthesize_bidirectional
from repro.synth.options import SynthesisOptions


class TestSynth:
    def test_spec_synthesis(self, capsys):
        code = main(["synth", "--spec", "1,0,7,2,3,4,5,6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gates: 3" in out
        assert "TOF" in out

    def test_draw_flag(self, capsys):
        main(["synth", "--spec", "1,0", "--draw"])
        out = capsys.readouterr().out
        assert "(+)" in out

    def test_benchmark_synthesis(self, capsys):
        code = main(
            ["synth", "--benchmark", "fig1", "--max-steps", "20000"]
        )
        assert code == 0
        assert "gates:" in capsys.readouterr().out

    def test_spec_and_benchmark_conflict(self, capsys):
        assert main(["synth"]) == 2
        assert main(["synth", "--spec", "1,0", "--benchmark", "fig1"]) == 2

    def test_budget_exhaustion_reports_failure(self, capsys):
        code = main(
            ["synth", "--benchmark", "example4", "--max-steps", "1",
             "--no-dedupe"]
        )
        assert code == 1
        assert "no circuit" in capsys.readouterr().out

    def test_greedy_flags(self, capsys):
        code = main(
            ["synth", "--spec", "1,0,3,2,5,7,4,6",
             "--greedy-k", "3", "--restart-steps", "500"]
        )
        assert code == 0

    def test_bidirectional_flag(self, capsys):
        code = main(
            ["synth", "--spec", "1,0,7,2,3,4,5,6",
             "--direction", "bidirectional",
             "--max-steps", "10000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "direction: forward" in out
        assert "gates: 3" in out

    def test_bidirectional_portfolio_keeps_its_summary(self, capsys):
        code = main(
            ["synth", "--spec", "1,0,7,2,3,4,5,6",
             "--direction", "bidirectional",
             "--jobs", "2", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solved"]
        assert report["portfolio"]["jobs"] == 2
        assert report["portfolio"]["winner_slice"] is not None

    def test_bidirectional_report_counts_both_legs(self, capsys):
        # The forward leg fails on this spec (the second one drawn in
        # test_bidirectional's test_inverse_rescues_forward_failure)
        # and the inverse leg solves; both legs' steps are reported.
        spec = [3, 13, 6, 1, 7, 15, 14, 0, 2, 12, 4, 8, 10, 11, 5, 9]
        options = SynthesisOptions(
            greedy_k=1, restart_steps=500, max_steps=2_500,
            dedupe_states=True, max_gates=40,
        )
        both = synthesize_bidirectional(Permutation(spec), options)
        assert both.direction == "inverse"
        assert not both.forward.solved
        combined = both.as_result()
        assert combined.stats.steps == (
            both.forward.stats.steps + both.inverse.stats.steps
        )
        assert combined.stats.elapsed_seconds == (
            both.forward.stats.elapsed_seconds
            + both.inverse.stats.elapsed_seconds
        )
        assert combined.circuit.implements(Permutation(spec))

        code = main(
            ["synth", "--spec", ",".join(map(str, spec)),
             "--direction", "bidirectional", "--greedy-k", "1",
             "--restart-steps", "500", "--max-steps", "2500",
             "--max-gates", "40", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solved"]
        assert report["stats"]["steps"] == combined.stats.steps

    @pytest.mark.parametrize("name", ["greedy", "inverse"])
    def test_one_variant_deck_runs_its_variant(self, capsys, name):
        # One slot runs the variant's deltas and direction, not the
        # default search; the text report names the deck.
        from repro.benchlib.specs import benchmark
        from repro.parallel.strategy import resolve_strategies
        from repro.synth import synthesize, synthesize_inverse

        (variant,) = resolve_strategies(name)
        options = variant.apply(
            SynthesisOptions(max_steps=3_000, dedupe_states=True)
        )
        spec = benchmark("rd53").permutation
        if variant.direction == "inverse":
            expected = synthesize_inverse(spec, options)
        else:
            expected = synthesize(spec, options)
        assert expected.circuit != synthesize(
            spec, max_steps=3_000, dedupe_states=True
        ).circuit

        code = main(
            ["synth", "--benchmark", "rd53", "--max-steps", "3000",
             "--strategies", name]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"strategies: {name}x1   winner: {name}" in lines
        assert lines[-1] == str(expected.circuit)

    def test_bidirectional_needs_permutation(self, capsys):
        code = main(
            ["synth", "--benchmark", "shift28",
             "--direction", "bidirectional",
             "--max-steps", "10"]
        )
        assert code == 2


class TestObservabilityFlags:
    def test_json_prints_single_machine_parseable_object(self, capsys):
        code = main(["synth", "--spec", "1,0,7,2,3,4,5,6", "--json"])
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out)  # the whole stdout is one JSON document
        assert report["schema"] == "rmrls-run-report"
        assert report["solved"] is True
        assert report["gate_count"] == 3
        assert report["stats"]["steps"] > 0
        assert report["metrics"]["elim"]["count"] > 0
        assert report["phases"]["stride"] >= 1
        # No human-oriented lines around the JSON.
        assert "gates:" not in out

    @pytest.mark.parametrize(
        "extra", [[], ["--jobs", "2"], ["--strategies", "default"]],
        ids=["serial", "jobs2", "deck"],
    )
    def test_metrics_restate_no_stats_field(self, capsys, extra):
        # Each count has one home: steps, nodes, solutions, restarts and
        # hot-op counts live in ``stats``; the registry keeps only the
        # histograms and the per-reason prune split.
        code = main(["synth", "--spec", "1,0,7,2,3,4,5,6", "--json", *extra])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        metrics = report["metrics"]
        allowed = {"elim", "children_per_expansion", "queue_size"} | {
            f"search_pruned_{reason}"
            for reason in ("depth", "child_depth", "lower_bound")
        }
        assert set(metrics) <= allowed, sorted(set(metrics) - allowed)
        if extra:
            # Portfolio workers run without the caller's observers, so
            # per-event views are serial-only.
            assert all(metric["count"] == 0 for metric in metrics.values())
        else:
            pruned = sum(
                metrics.get(f"search_pruned_{reason}", {}).get("value", 0)
                for reason in ("depth", "child_depth", "lower_bound")
            )
            assert pruned == report["stats"]["nodes_pruned_depth"]

    def test_json_unsolved_reports_failure(self, capsys):
        code = main(
            ["synth", "--benchmark", "example4", "--max-steps", "1",
             "--no-dedupe", "--json"]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["solved"] is False
        assert report["gate_count"] is None

    def test_metrics_writes_valid_report(self, capsys, tmp_path):
        from repro.obs import validate_run_report

        path = tmp_path / "run.json"
        code = main(
            ["synth", "--spec", "1,0,7,2,3,4,5,6", "--metrics", str(path)]
        )
        assert code == 0
        report = validate_run_report(json.loads(path.read_text()))
        assert report["metrics"]["queue_size"]["count"] > 0
        assert set(report["phases"]["phases"]) or report["phases"]["stride"]
        # Human output is still printed alongside the report file.
        assert "gates: 3" in capsys.readouterr().out

    def test_trace_jsonl_streams_events(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = main(
            ["synth", "--spec", "1,0,7,2,3,4,5,6",
             "--trace-jsonl", str(path)]
        )
        assert code == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[-1]["event"] == "finish"
        assert any(record["event"] == "solution" for record in records)

    def test_metrics_missing_directory_fails_fast(self, capsys, tmp_path):
        code = main(
            ["synth", "--spec", "1,0",
             "--metrics", str(tmp_path / "nodir" / "run.json")]
        )
        assert code == 2
        assert "directory does not exist" in capsys.readouterr().err

    def test_progress_every(self, capsys):
        code = main(
            ["synth", "--spec", "1,0,7,2,3,4,5,6", "--progress-every", "2"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "[rmrls] step=" in err

    @pytest.mark.parametrize(
        "flag,value", [("--trace-jsonl", None), ("--progress-every", "1")]
    )
    @pytest.mark.parametrize(
        "portfolio", [["--jobs", "2"], ["--strategies", "default"]]
    )
    def test_portfolio_rejects_per_event_flags(
        self, capsys, tmp_path, flag, value, portfolio
    ):
        # Portfolio workers run without the caller's observers, so the
        # flag would silently do nothing.
        path = tmp_path / "trace.jsonl"
        code = main(
            ["synth", "--spec", "1,0,7,2,3,4,5,6", *portfolio,
             flag, value if value is not None else str(path)]
        )
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("serial", [[], ["--jobs", "1"]])
    def test_serial_run_rejects_flight_dir(self, capsys, tmp_path, serial):
        # Only portfolio processes arm a recorder: a serial search would
        # exit 0 and record nothing.
        flight = tmp_path / "flight"
        code = main(["synth", "--spec", "1,0,7,2,3,4,5,6", *serial,
                     "--flight-dir", str(flight)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--flight-dir" in err and "--jobs above 1" in err
        assert not flight.exists()


class TestProfileCommand:
    def test_profile_spec(self, capsys):
        code = main(["profile", "--spec", "1,0,7,2,3,4,5,6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "solved: 3 gates" in out
        assert "phase breakdown" in out
        assert "substitute" in out
        assert "elim" in out and "queue_size" in out

    def test_profile_json(self, capsys):
        code = main(
            ["profile", "--spec", "1,0,7,2,3,4,5,6", "--sample-stride", "1",
             "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["phases"]["stride"] == 1
        assert "substitute" in report["phases"]["phases"]

    def test_profile_requires_one_spec(self, capsys):
        assert main(["profile"]) == 2


class TestInformational:
    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "rd53" in out and "shift28" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3(d)" in out or "Fig. 1" in out
        assert "alu" in out

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestEmbedCommand:
    def test_embed_pla(self, capsys, tmp_path):
        pla = tmp_path / "maj.pla"
        lines = [".i 3", ".o 1"]
        for m in range(8):
            if bin(m).count("1") >= 2:
                lines.append(f"{m:03b} 1")
        pla.write_text("\n".join(lines) + "\n.e\n")
        code = main(["embed", str(pla), "--max-steps", "15000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy" in out
        assert "best (" in out


class TestCircuitFileCommands:
    def _write_real(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    REAL = (".version 2.0\n.numvars 3\n.variables a b c\n"
            ".begin\nt1 a\nt3 a c b\nt3 a b c\n.end\n")

    def test_draw(self, capsys, tmp_path):
        path = self._write_real(tmp_path, "c.real", self.REAL)
        assert main(["draw", path]) == 0
        out = capsys.readouterr().out
        assert "3 gates" in out
        assert "(+)" in out

    def test_verify_equivalent(self, capsys, tmp_path):
        a = self._write_real(tmp_path, "a.real", self.REAL)
        # Same function, different gate order for the commuting prefix.
        b = self._write_real(
            tmp_path, "b.real",
            ".numvars 3\n.begin\nt1 a\nt3 a c b\nt3 a b c\n.end\n",
        )
        assert main(["verify", a, b]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_verify_different(self, capsys, tmp_path):
        a = self._write_real(tmp_path, "a.real", self.REAL)
        c = self._write_real(
            tmp_path, "c.real", ".numvars 3\n.begin\nt1 a\n.end\n"
        )
        assert main(["verify", a, c]) == 1
        assert "DIFFERENT" in capsys.readouterr().out

    def test_decompose(self, capsys, tmp_path):
        wide = self._write_real(
            tmp_path, "w.real",
            ".numvars 5\n.begin\nt4 a b c d\n.end\n",
        )
        assert main(["decompose", wide]) == 0
        out = capsys.readouterr().out
        assert ".numvars 5" in out
        assert "t4" not in out  # all gates mapped to <= t3

    def test_decompose_impossible(self, capsys, tmp_path):
        full = self._write_real(
            tmp_path, "f.real",
            ".numvars 4\n.begin\nt4 a b c d\n.end\n",
        )
        assert main(["decompose", full]) == 1


class TestExperimentCommands:
    def test_table1_small(self, capsys):
        assert main(["table1", "--sample", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "optimal_nct" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--sample", "1"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_table4_named(self, capsys):
        assert main(["table4", "--names", "3_17"]) == 0
        assert "3_17" in capsys.readouterr().out

    def test_scalability_small(self, capsys):
        code = main(
            ["scalability", "--max-gates", "5", "--samples", "2",
             "--variables", "6"]
        )
        assert code == 0
        assert "maximum gate count 5" in capsys.readouterr().out

    def test_scalability_json_carries_the_sweep(self, capsys):
        code = main(
            ["scalability", "--max-gates", "5", "--samples", "2",
             "--variables", "6,7", "--json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["results"]
        sweeps = [row["sweep"] for row in rows.values()]
        assert len(sweeps) == 2 and sweeps[0] == sweeps[1]
        # One sweep over both widths: its stats sum all four searches.
        sweep = sweeps[0]
        assert sweep["name"] == "scalability:5g"
        assert sweep["counts"]["ok"] == sweep["completed"] == 4
        assert sweep["stats"]["solutions_found"] == 4
        assert sweep["stats"]["steps"] > 0

    def test_table4_json_carries_rows(self, capsys):
        assert main(["table4", "--names", "3_17", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        row = document["results"]["3_17"]
        assert row["gate_count"] == 6 and row["raw_gate_count"] == 6
        assert row["quantum_cost"] == 14
        assert row["stats"]["steps"] > 0 and row["unsound_count"] == 0
        # The benchmark task's summed search counters, the record the
        # sweep report sums; the registry restates none of them.
        assert row["stats"]["hot_ops"]["substitutions_applied"] > 0
        assert not any(
            name.startswith("hotop_") for name in document["metrics"]
        )

    def test_table1_jobs_needs_isolate(self, capsys):
        assert main(["table1", "--sample", "2", "--jobs", "2"]) == 2
        assert "--isolate" in capsys.readouterr().err

    def test_sweep_no_longer_runs_tables(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "table2"])
        assert exit_info.value.code == 2


class TestSweep:
    def test_probes_json_reports_taxonomy(self, capsys):
        code = main(
            ["sweep", "probes", "--probes", "ok,unsolved,raise", "--json"]
        )
        assert code == 1  # failures present
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "rmrls-sweep-report"
        counts = document["sweep"]["counts"]
        assert counts["ok"] == 1
        assert counts["unsolved"] == 1
        assert counts["crash"] == 1

    def test_probes_human_summary(self, capsys):
        code = main(["sweep", "probes", "--probes", "ok,ok"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep probes: 2/2 tasks" in out
        assert "ok=2" in out

    @pytest.mark.parametrize("flag,value", [
        ("--flight-dir", "flight"),
        ("--wall-limit", "1"),
        ("--mem-limit", "128"),
        ("--jobs", "2"),
    ])
    def test_isolate_only_flags_need_isolate(
        self, capsys, tmp_path, flag, value
    ):
        if flag == "--flight-dir":
            value = str(tmp_path / value)
        code = main(["sweep", "probes", "--probes", "ok,raise",
                     flag, value])
        assert code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and "--isolate" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "flight").exists()

    def test_table2_limit_then_resume(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        base = ["table2", "--sample", "3", "--seed", "7",
                "--resume", ledger, "--json"]
        assert main(base + ["--limit", "1"]) == 0
        first = json.loads(capsys.readouterr().out)
        sweep = first["results"]["random_4var"]["sweep"]
        assert sweep["interrupted"] and sweep["completed"] == 1

        assert main(base) == 0
        second = json.loads(capsys.readouterr().out)
        sweep = second["results"]["random_4var"]["sweep"]
        assert not sweep["interrupted"]
        assert sweep["completed"] == 3 and sweep["replayed"] == 1

    def test_strict_flag_surfaces_unsound(self, capsys, monkeypatch):
        from repro.circuits.circuit import Circuit

        monkeypatch.setattr(Circuit, "implements", lambda self, spec: False)
        with pytest.raises(AssertionError, match="unsound"):
            main(["table2", "--sample", "1", "--strict"])

    def test_table4_sweep(self, capsys):
        code = main(["table4", "--names", "fig1", "--isolate"])
        assert code == 0
        assert "Table IV" in capsys.readouterr().out


class TestStoreCli:
    def _seed(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(["sweep", "probes", "--probes", "ok", "--store", store])
        assert code == 0
        capsys.readouterr()
        return store

    def test_sweep_seeds_and_store_stats(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code = main(["table2", "--sample", "1", "--seed", "7",
                     "--store", store, "--fsync-ledger",
                     "--resume", str(tmp_path / "ledger.jsonl")])
        assert code == 0
        capsys.readouterr()
        assert main(["store", "stats", store]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["keys"] == 1 and stats["records"] == 1

    def test_verify_repair_round_trip(self, capsys, tmp_path):
        import os

        store = str(tmp_path / "store")
        code = main(["table2", "--sample", "2", "--seed", "7",
                     "--store", store])
        assert code == 0
        capsys.readouterr()
        segment_dir = os.path.join(store, "segments")
        (name,) = os.listdir(segment_dir)
        path = os.path.join(segment_dir, name)
        with open(path, "rb+") as handle:
            handle.truncate(os.path.getsize(path) - 10)

        assert main(["store", "verify", store]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["problems"] == {"torn": 1}

        assert main(["store", "verify", "--repair", "--deep", store]) == 0
        capsys.readouterr()
        assert main(["store", "verify", "--deep", store]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_gc_and_export(self, capsys, tmp_path):
        store = self._seed_table2(tmp_path, capsys)
        assert main(["store", "gc", store]) == 0
        gc_report = json.loads(capsys.readouterr().out)
        assert gc_report["records_after"] == gc_report["keys"]
        out_path = str(tmp_path / "export.jsonl")
        assert main(["store", "export", store, "-o", out_path]) == 0
        capsys.readouterr()
        lines = open(out_path).read().splitlines()
        assert len(lines) == gc_report["keys"]
        assert all(json.loads(line)["sum"] for line in lines)

    def _seed_table2(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["table2", "--sample", "2", "--seed", "7",
                     "--store", store]) == 0
        capsys.readouterr()
        return store
