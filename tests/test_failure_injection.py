"""Failure injection: the guard rails must actually fire.

Every experiment driver re-verifies synthesized circuits and raises on
mismatch; these tests corrupt components deliberately and check the
alarms go off (a reproduction whose checks cannot fail proves nothing).
"""

import pytest

from repro.circuits.circuit import Circuit
from repro.functions.permutation import Permutation
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize


class TestDriverVerificationFires:
    """``strict=True`` preserves the historical hard alarm."""

    def test_table1_driver_detects_bad_circuits(self, monkeypatch):
        from repro.experiments import table1

        monkeypatch.setattr(
            Circuit, "implements", lambda self, spec: False
        )
        with pytest.raises(AssertionError, match="unsound"):
            table1.run_table1(sample=1, include_miller=False, strict=True)

    def test_table23_driver_detects_bad_circuits(self, monkeypatch):
        from repro.experiments import table23

        monkeypatch.setattr(
            Circuit, "implements", lambda self, spec: False
        )
        with pytest.raises(AssertionError, match="unsound"):
            table23.run_random_functions(
                3,
                1,
                SynthesisOptions(dedupe_states=True, max_steps=5000),
                strict=True,
            )

    def test_benchmark_driver_detects_bad_circuits(self, monkeypatch):
        from repro.benchlib.specs import BenchmarkSpec
        from repro.experiments import table4

        monkeypatch.setattr(
            BenchmarkSpec, "verify", lambda self, circuit: False
        )
        with pytest.raises(AssertionError, match="unsound"):
            table4.run_table4(
                ["3_17"],
                SynthesisOptions(dedupe_states=True, max_steps=5000),
                use_portfolio=False,
                strict=True,
            )

    def test_scalability_driver_detects_bad_circuits(self, monkeypatch):
        from repro.experiments import table567

        monkeypatch.setattr(
            table567, "_same_function", lambda found, generator: False
        )
        with pytest.raises(AssertionError, match="unsound"):
            table567.run_scalability(
                3,
                variables=[3],
                samples=2,
                options=SynthesisOptions(
                    dedupe_states=True, max_steps=5000, stop_at_first=True
                ),
                strict=True,
            )


class TestNonStrictRecordsUnsound:
    """Without ``strict``, an unsound circuit becomes a recorded
    failure and the sweep finishes."""

    def test_table23_records_unsound_and_continues(self, monkeypatch):
        from repro.experiments import table23

        monkeypatch.setattr(
            Circuit, "implements", lambda self, spec: False
        )
        result = table23.run_random_functions(
            3, 3, SynthesisOptions(dedupe_states=True, max_steps=5000)
        )
        assert result.attempted == 3
        assert result.failures.get("unsound", 0) >= 1
        assert result.failed == sum(result.failures.values())
        assert not result.histogram

    def test_table1_records_unsound_and_continues(self, monkeypatch):
        from repro.experiments import table1

        monkeypatch.setattr(
            Circuit, "implements", lambda self, spec: False
        )
        results = table1.run_table1(sample=2, include_miller=False)
        ours = results["ours_nct"]
        assert ours.attempted == 2
        assert ours.failures.get("unsound", 0) >= 1

    def test_benchmark_records_unsound_count(self, monkeypatch):
        from repro.benchlib.specs import BenchmarkSpec, benchmark
        from repro.experiments import table4

        monkeypatch.setattr(
            BenchmarkSpec, "verify", lambda self, circuit: False
        )
        outcome = table4.run_benchmark(
            benchmark("3_17"),
            SynthesisOptions(dedupe_states=True, max_steps=5000),
            use_portfolio=False,
            strict=False,
        )
        assert not outcome.solved
        assert outcome.unsound_count >= 1

    def test_dontcare_driver_detects_bad_circuits(self, monkeypatch):
        from repro.functions import dontcare
        from repro.functions.truth_table import TruthTable

        monkeypatch.setattr(
            Circuit, "implements", lambda self, spec: False
        )
        table = TruthTable.from_function(2, 1, lambda m: m & 1)
        with pytest.raises(AssertionError, match="unsound"):
            dontcare.synthesize_with_dont_cares(
                table, SynthesisOptions(dedupe_states=True, max_steps=2000)
            )


class TestResultVerifyCatchesTampering:
    def test_tampered_circuit_fails_verify(self, fig1_spec):
        result = synthesize(
            fig1_spec, SynthesisOptions(dedupe_states=True, max_steps=10000)
        )
        assert result.verify(fig1_spec)
        from repro.gates.toffoli import not_gate

        tampered = result.circuit.appended(not_gate(0))
        assert not tampered.implements(fig1_spec)

    def test_wrong_spec_fails_verify(self, fig1_spec):
        result = synthesize(
            fig1_spec, SynthesisOptions(dedupe_states=True, max_steps=10000)
        )
        assert not result.verify(Permutation.identity(3))

    def test_spec_verify_rejects_wrong_width(self):
        from repro.benchlib.specs import benchmark

        spec = benchmark("fig1")
        assert not spec.verify(Circuit.identity(4))


class TestOptimalBfsSelfCheck:
    def test_wrong_peel_raises(self, monkeypatch):
        """Every exact circuit is simulation-checked before it leaves:
        corrupt the peel so its first gate is wrong, and both entry
        points must raise instead of returning the circuit."""
        from repro.baselines import optimal

        spec = Permutation([1, 0, 3, 2, 5, 7, 4, 6])
        assert optimal.optimal_synthesize(spec).implements(spec)
        real_peel = optimal._peel

        def corrupted_peel(ball, state, found):
            gates = real_peel(ball, state, found)
            wrong = next(g for g in ball.gates if g != gates[0])
            return [wrong] + gates[1:]

        monkeypatch.setattr(optimal, "_peel", corrupted_peel)
        with pytest.raises(AssertionError, match="peeled a wrong circuit"):
            optimal.optimal_synthesize(spec)
        with pytest.raises(AssertionError, match="peeled a wrong circuit"):
            optimal.circuit_for(spec)
