"""Differential tests: the packed and lane engines against the
reference oracle.

The ``reference`` frozenset backend is the ground truth.  These tests
drive the engines through the same seeded inputs — algebra, queries,
serialization, candidate enumeration, search states, and full
synthesis — and demand bit-identical behaviour everywhere the engine
seam promises it.  Full syntheses force each backend through the
search's one decision point (``search_engine``), so the reference and
packed searches stay oracle-checked at the small widths where the
width rule would pick lanes.
"""

import random

import pytest

from repro.benchlib.symbolic import graycode_system
from repro.functions.permutation import Permutation, random_permutation
from repro.pprm import (
    ENGINES,
    PACKED_MAX_VARS,
    SEARCH_LANES_MAX_VARS,
    PackedExpansion,
    PPRMSystem,
    get_engine,
    lane_engine,
    resolve_engine,
)
from repro.synth import rmrls
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize
from repro.synth.substitutions import enumerate_substitutions

from conftest import SEARCH_BACKENDS

REFERENCE = ENGINES["reference"]
PACKED = ENGINES["packed"]

FAST = SynthesisOptions(dedupe_states=True, max_steps=20_000)


def synthesize_on(name, monkeypatch, specification, options):
    """Run ``synthesize`` with the search forced onto backend ``name``."""
    monkeypatch.setattr(rmrls, "search_engine", SEARCH_BACKENDS[name])
    result = synthesize(specification, options)
    assert result.engine == name
    return result


def _random_terms(rng, num_vars, max_terms=12):
    size = 1 << num_vars
    count = rng.randrange(max_terms + 1)
    return [rng.randrange(size) for _ in range(count)]


def _pair(rng, num_vars):
    """One (reference, packed) expansion pair over the same terms."""
    terms = _random_terms(rng, num_vars)
    return (
        REFERENCE.from_terms(terms, num_vars),
        PACKED.from_terms(terms, num_vars),
    )


def _same(ref, packed):
    """Bit-identical: same terms, same canonical order, same string."""
    assert list(ref.iter_terms()) == list(packed.iter_terms())
    assert str(ref) == str(packed)
    assert len(ref) == len(packed)


class TestAlgebraDifferential:
    def test_xor_matches(self):
        rng = random.Random(11)
        for _ in range(200):
            num_vars = rng.randint(1, 6)
            ref_a, packed_a = _pair(rng, num_vars)
            ref_b, packed_b = _pair(rng, num_vars)
            _same(ref_a ^ ref_b, packed_a ^ packed_b)

    def test_multiply_term_matches(self):
        rng = random.Random(12)
        for _ in range(200):
            num_vars = rng.randint(1, 6)
            ref, packed = _pair(rng, num_vars)
            factor = rng.randrange(1 << num_vars)
            _same(ref.multiply_term(factor), packed.multiply_term(factor))

    def test_substitute_matches(self):
        rng = random.Random(13)
        for _ in range(300):
            num_vars = rng.randint(2, 6)
            ref, packed = _pair(rng, num_vars)
            index = rng.randrange(num_vars)
            factor = rng.randrange(1 << num_vars) & ~(1 << index)
            _same(
                ref.substitute(index, factor),
                packed.substitute(index, factor),
            )

    def test_substitute_rejects_target_in_factor_identically(self):
        ref = REFERENCE.from_terms([3], 2)
        packed = PACKED.from_terms([3], 2)
        with pytest.raises(ValueError) as ref_error:
            ref.substitute(0, 3)
        with pytest.raises(ValueError) as packed_error:
            packed.substitute(0, 3)
        assert str(ref_error.value) == str(packed_error.value)

    def test_queries_match(self):
        rng = random.Random(14)
        for _ in range(200):
            num_vars = rng.randint(1, 6)
            ref, packed = _pair(rng, num_vars)
            assert ref.term_count() == packed.term_count()
            assert ref.is_zero() == packed.is_zero()
            assert ref.support() == packed.support()
            assert ref.degree() == packed.degree()
            for index in range(num_vars):
                assert ref.is_variable(index) == packed.is_variable(index)
            probe = rng.randrange(1 << num_vars)
            assert ref.contains_term(probe) == packed.contains_term(probe)

    def test_evaluate_matches(self):
        rng = random.Random(15)
        for _ in range(100):
            num_vars = rng.randint(1, 5)
            ref, packed = _pair(rng, num_vars)
            for assignment in range(1 << num_vars):
                assert ref.evaluate(assignment) == packed.evaluate(assignment)


class TestSerializationDifferential:
    def test_pack_agrees_across_engines(self):
        rng = random.Random(16)
        for _ in range(100):
            num_vars = rng.randint(1, 6)
            ref, packed = _pair(rng, num_vars)
            assert REFERENCE.pack(ref) == PACKED.pack(packed)

    def test_unpack_round_trips_both_ways(self):
        rng = random.Random(17)
        for _ in range(100):
            num_vars = rng.randint(1, 6)
            ref, packed = _pair(rng, num_vars)
            bits = PACKED.pack(packed)
            _same(REFERENCE.unpack(bits, num_vars), packed)
            _same(ref, PACKED.unpack(REFERENCE.pack(ref), num_vars))

    def test_convert_round_trip(self):
        rng = random.Random(18)
        for _ in range(50):
            num_vars = rng.randint(1, 6)
            ref, packed = _pair(rng, num_vars)
            there = PACKED.convert(ref, num_vars)
            _same(ref, there)
            back = REFERENCE.convert(there, num_vars)
            assert back == ref

    def test_dedupe_keys_discriminate_identically(self):
        rng = random.Random(19)
        pairs = [_pair(rng, 4) for _ in range(100)]
        for ref_a, packed_a in pairs:
            for ref_b, packed_b in pairs:
                same_ref = ref_a.dedupe_key() == ref_b.dedupe_key()
                same_packed = packed_a.dedupe_key() == packed_b.dedupe_key()
                assert same_ref == same_packed


class TestSystemDifferential:
    def test_from_permutation_matches(self):
        rng = random.Random(20)
        for _ in range(40):
            num_vars = rng.randint(2, 5)
            permutation = random_permutation(num_vars, rng)
            ref = PPRMSystem.from_permutation(permutation.images)
            packed = PPRMSystem.from_permutation(
                permutation.images, engine="packed"
            )
            assert ref.engine_name == "reference"
            assert packed.engine_name == "packed"
            assert str(ref) == str(packed)
            assert ref.dedupe_key() != ()  # sanity: keys exist
            for assignment in range(1 << num_vars):
                assert ref.evaluate(assignment) == packed.evaluate(assignment)

    def test_candidate_enumeration_matches(self):
        options = SynthesisOptions(
            extended_substitutions=True, complement_substitutions=True
        )
        rng = random.Random(21)
        for _ in range(25):
            permutation = random_permutation(3, rng)
            ref = PPRMSystem.from_permutation(permutation.images)
            packed = PPRMSystem.from_permutation(
                permutation.images, engine="packed"
            )
            ref_candidates = [
                (c.target, c.factor, c.allow_growth)
                for c in enumerate_substitutions(ref, options)
            ]
            packed_candidates = [
                (c.target, c.factor, c.allow_growth)
                for c in enumerate_substitutions(packed, options)
            ]
            assert ref_candidates == packed_candidates


class TestLaneStateDifferential:
    """The lane engine's one-int state against the system oracle, at
    every width of its band."""

    @pytest.mark.parametrize("num_vars", range(1, SEARCH_LANES_MAX_VARS + 1))
    def test_state_operations_match_the_system(self, num_vars):
        rng = random.Random(30 + num_vars)
        engine = lane_engine(num_vars)
        identity = engine.identity_state(num_vars)
        assert engine.system_from_state(identity) == PPRMSystem.identity(
            num_vars, "packed"
        )
        for _ in range(3):
            system = PPRMSystem(
                [PACKED.from_terms(_random_terms(rng, num_vars), num_vars)
                 for _ in range(num_vars)]
            )
            state = engine.root_state(system)
            assert engine.system_from_state(state) == system
            for _ in range(8):
                target = rng.randrange(num_vars)
                factor = rng.randrange(1 << num_vars) & ~(1 << target)
                child = engine.substitute_state(state, target, factor)
                expected = system.substitute(target, factor)
                assert engine.state_term_count(child) == expected.term_count()
                assert (child == identity) == expected.is_identity()
                assert engine.unsolved_count(child) == (
                    num_vars - expected.solved_outputs()
                )
                assert engine.system_from_state(child) == expected
                assert engine.root_state(expected) == child
                system, state = expected, child

    @pytest.mark.parametrize("num_vars", range(1, SEARCH_LANES_MAX_VARS + 1))
    def test_dedupe_discriminates_like_the_system(self, num_vars):
        rng = random.Random(40 + num_vars)
        engine = lane_engine(num_vars)
        systems = []
        for _ in range(12):
            terms = [_random_terms(rng, num_vars, 3) for _ in range(num_vars)]
            # Each system twice, the copy built from reversed term lists.
            for order in (list, lambda masks: masks[::-1]):
                systems.append(PPRMSystem(
                    [PACKED.from_terms(order(masks), num_vars)
                     for masks in terms]
                ))
        for left in systems:
            for right in systems:
                assert (
                    engine.root_state(left) == engine.root_state(right)
                ) == (left.dedupe_key() == right.dedupe_key())
        assert len({engine.root_state(system) for system in systems}) == len(
            {system.dedupe_key() for system in systems}
        )

    @pytest.mark.parametrize("num_vars", range(1, SEARCH_LANES_MAX_VARS + 1))
    def test_substitution_errors_match_packed(self, num_vars):
        engine = lane_engine(num_vars)
        state = engine.identity_state(num_vars)
        packed_state = PACKED.identity_state(num_vars)
        top = num_vars - 1
        bad = [
            (top, 1 << top),            # factor contains the target
            (0, (1 << num_vars) | 1),   # factor contains the target
            (num_vars, 0),              # index outside the width
            (0, 1 << num_vars),         # factor outside the width
        ]
        for target, factor in bad:
            with pytest.raises(ValueError) as lane_error:
                engine.substitute_state(state, target, factor)
            with pytest.raises(ValueError) as packed_error:
                PACKED.substitute_state(packed_state, target, factor)
            assert str(lane_error.value) == str(packed_error.value)

    def test_bound_to_its_width(self):
        engine = lane_engine(3)
        assert lane_engine(3) is engine
        with pytest.raises(ValueError, match="bound to num_vars=3"):
            engine.identity_state(4)
        with pytest.raises(ValueError, match="bound to num_vars=3"):
            engine.root_state(PPRMSystem.identity(2))


class TestSynthesisDifferential:
    def test_byte_identical_cascades_on_quick_suite(self, monkeypatch):
        """Both engines must produce the same circuit, gate for gate."""
        rng = random.Random(2004)
        suite = [random_permutation(3, rng) for _ in range(12)]
        suite.append(Permutation([1, 0, 7, 2, 3, 4, 5, 6]))  # Example 1
        suite.append(Permutation([7, 0, 1, 2, 3, 4, 5, 6]))
        for permutation in suite:
            ref = synthesize_on("reference", monkeypatch, permutation, FAST)
            for name in ("packed", "lanes"):
                other = synthesize_on(name, monkeypatch, permutation, FAST)
                assert ref.solved == other.solved
                assert ref.stats.steps == other.stats.steps
                assert ref.stats.hot_ops == other.stats.hot_ops
                if ref.circuit is None:
                    continue
                assert str(ref.circuit) == str(other.circuit)
                assert other.circuit.implements(permutation)

    def test_greedy_options_also_match(self, monkeypatch):
        options = FAST.with_(greedy_k=3, restart_steps=5_000)
        rng = random.Random(7)
        for permutation in [random_permutation(3, rng) for _ in range(6)]:
            ref = synthesize_on("reference", monkeypatch, permutation, options)
            for name in ("packed", "lanes"):
                other = synthesize_on(name, monkeypatch, permutation, options)
                assert ref.solved == other.solved
                assert ref.stats.hot_ops == other.stats.hot_ops
                if ref.circuit is not None:
                    assert str(ref.circuit) == str(other.circuit)


class TestEngineResolution:
    def test_get_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            get_engine("turbo")

    def test_resolve_engine_accepts_instances_and_names(self):
        assert resolve_engine("packed") is PACKED
        assert resolve_engine(PACKED) is PACKED
        assert resolve_engine() is REFERENCE
        with pytest.raises(TypeError):
            resolve_engine(42)

    def test_packed_input_is_not_downgraded(self):
        # A 2-variable packed input runs on the lane band, which is
        # packed expansions with a one-int state.
        system = PPRMSystem.from_permutation([0, 1, 3, 2], engine="packed")
        assert synthesize(system, FAST).engine == "lanes"

    @pytest.mark.parametrize(
        "num_vars, expected",
        [
            (2, "lanes"),
            (SEARCH_LANES_MAX_VARS, "lanes"),
            (SEARCH_LANES_MAX_VARS + 1, "packed"),
            (12, "packed"),
            (13, "reference"),
            (20, "reference"),
        ],
    )
    def test_search_runs_on_the_width_rule_backend(self, num_vars, expected):
        # Whichever backend the input was built on, the search
        # converts it by width.
        for engine in ("reference", "packed"):
            if engine == "packed" and num_vars > PACKED_MAX_VARS:
                continue
            system = graycode_system(num_vars, engine=engine)
            result = synthesize(system, max_steps=2)
            assert result.engine == expected

    def test_packed_width_guard(self):
        with pytest.raises(ValueError, match="at most"):
            PackedExpansion(0, PACKED_MAX_VARS + 1)
