"""Tests for the optimal BFS baseline — reproduces Table I's optimal
columns exactly, and holds the 4-line ball to its exact reach."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import optimal
from repro.baselines.optimal import (
    circuit_for,
    distance,
    optimal_distances,
    optimal_distribution,
    optimal_synthesize,
)
from repro.circuits.random_circuits import random_circuit
from repro.functions.permutation import Permutation
from repro.gates.library import GT, NCT, NCTS
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize

# The paper's Table I optimal columns (Shende et al. [16]).
PAPER_OPTIMAL_NCT = {
    0: 1, 1: 12, 2: 102, 3: 625, 4: 2780,
    5: 8921, 6: 17049, 7: 10253, 8: 577,
}
PAPER_OPTIMAL_NCTS = {
    0: 1, 1: 15, 2: 134, 3: 844, 4: 3752,
    5: 11194, 6: 17531, 7: 6817, 8: 32,
}


class TestExhaustiveSweep:
    def test_table1_nct_column_exact(self):
        assert optimal_distribution(3, NCT) == PAPER_OPTIMAL_NCT

    def test_table1_ncts_column_exact(self):
        assert optimal_distribution(3, NCTS) == PAPER_OPTIMAL_NCTS

    def test_two_variable_sweep_covers_group(self):
        distances = optimal_distances(2, NCT)
        assert len(distances) == 24  # 4! functions

    def test_four_variables_guarded(self):
        with pytest.raises(ValueError):
            optimal_distances(4, NCT)


class TestBidirectionalSynthesis:
    def test_identity(self):
        circuit = optimal_synthesize(Permutation.identity(3), NCT)
        assert circuit.gate_count() == 0

    def test_matches_exhaustive_distances(self, rng):
        distances = optimal_distances(3, NCT)
        images_list = rng.sample(list(distances), 40)
        for images in images_list:
            spec = Permutation(images)
            circuit = optimal_synthesize(spec, NCT, max_gates=9)
            assert circuit is not None
            assert circuit.implements(spec)
            assert circuit.gate_count() == distances[images]

    def test_gives_up_beyond_budget(self):
        # 3_17 needs 6 gates; a 2-gate budget must return None.
        spec = Permutation([7, 1, 4, 3, 0, 2, 6, 5])
        assert optimal_synthesize(spec, NCT, max_gates=2) is None

    def test_four_variable_shallow(self):
        # Example 7 has a known 4-gate realization.
        spec = Permutation(list(range(1, 16)) + [0])
        from repro.gates.library import GT

        circuit = optimal_synthesize(spec, GT, max_gates=4)
        assert circuit is not None
        assert circuit.implements(spec)
        assert circuit.gate_count() == 4


class TestOptimalityCrossChecks:
    def test_rmrls_never_beats_optimal(self, rng):
        """Sanity: no synthesized circuit may undercut the optimum, and
        on average the paper's ordering holds: optimal <= RMRLS <=
        transformation-based [7] (half a gate of slack)."""
        from repro.baselines.transformation import transformation_synthesize
        from repro.synth.options import SynthesisOptions
        from repro.synth.rmrls import synthesize

        distances = optimal_distances(3, NCT)
        options = SynthesisOptions(dedupe_states=True, max_steps=20_000)
        totals = Counter()
        for _ in range(15):
            images = list(range(8))
            rng.shuffle(images)
            spec = Permutation(images)
            result = synthesize(spec, options)
            assert result.solved
            assert result.gate_count >= distances[tuple(images)]
            totals["optimal"] += distances[tuple(images)]
            totals["rmrls"] += result.gate_count
            totals["transformation"] += transformation_synthesize(
                spec, try_output_permutations=True
            ).gate_count()
        assert (totals["optimal"] <= totals["rmrls"]
                <= totals["transformation"] + 0.5 * 15)


def _shallow_circuit(seed: int, num_lines: int = 4):
    """A random GT circuit of at most 5 gates."""
    rng = random.Random(seed)
    return random_circuit(num_lines, rng.randint(0, 5), rng, GT)


class TestFourLineBall:
    def test_gt_layer_sizes_through_depth_4(self):
        # The published counts of optimal 4-bit circuits (Golubitsky,
        # Falconer and Maslov, DAC 2010) up to four gates.
        layers = Counter(optimal._ball(4, GT).values())
        assert [layers[d] for d in range(5)] == [1, 32, 784, 16204, 294507]
        assert len(optimal._ball(4, GT)) == 311528

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_distance_bounded_by_any_circuit(self, seed):
        circuit = _shallow_circuit(seed)
        spec = circuit.to_permutation()
        found = distance(spec)
        assert found is not None and found <= circuit.gate_count()
        assert distance(spec, limit=found - 1) is None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_circuit_for_is_exact(self, seed):
        spec = _shallow_circuit(seed).to_permutation()
        circuit = circuit_for(spec)
        assert circuit.implements(spec)
        assert circuit.gate_count() == distance(spec)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_rmrls_never_beats_distance(self, seed):
        spec = _shallow_circuit(seed).to_permutation()
        result = synthesize(spec, SynthesisOptions(
            dedupe_states=True, max_steps=5_000, greedy_k=3,
        ))
        if result.solved:
            assert result.gate_count >= distance(spec)

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(8))))
    def test_three_lines_agree_with_optimal_distances(self, images):
        assert distance(Permutation(images)) == optimal_distances(3)[images]

    def test_beyond_reach_is_unknown_not_wrong(self):
        # hwb4 needs 11 gates: past B<=4 and past one gate beyond it.
        from repro.benchlib import benchmark

        spec = benchmark("hwb4").permutation
        assert distance(spec) is None and circuit_for(spec) is None
        assert optimal_synthesize(spec, GT, max_gates=5) is None
        with pytest.raises(ValueError, match="exact reach of 5"):
            optimal_synthesize(spec, GT, max_gates=6)
