"""Differential tests: the packed and lane state engines against the
reference oracle.

The reference :class:`Expansion` algebra is the ground truth.  These
tests drive the bitset engines through the same seeded inputs — the
bitset algebra their states run on, the bitset wire form, candidate
enumeration, search states, and full synthesis — and demand
bit-identical behaviour everywhere the engine seam promises it.
Full syntheses force each backend through the search's one decision
point (``search_engine``), so the reference and packed searches stay
oracle-checked at the small widths where the width rule would pick
lanes.
"""

import random

import pytest

from repro.benchlib.symbolic import graycode_system
from repro.functions.permutation import Permutation, random_permutation
from repro.parallel.portfolio import spec_from_payload
from repro.pprm import (
    ENGINES,
    PACKED_MAX_VARS,
    SEARCH_LANES_MAX_VARS,
    Expansion,
    PPRMSystem,
    lane_engine,
    mobius_transform,
    search_engine,
    tables_for,
)
from repro.synth import rmrls
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize
from repro.synth.substitutions import candidate_lister, enumerate_substitutions

from conftest import SEARCH_BACKENDS

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


def _expansion(rng, num_vars):
    return Expansion(_random_terms(rng, num_vars))


def _system(rng, num_vars):
    return PPRMSystem(
        [_expansion(rng, num_vars) for _ in range(num_vars)]
    )


def _bitset_engines(num_vars):
    """The engines whose outputs are bitsets: packed and lanes."""
    return (PACKED, lane_engine(num_vars))


class TestAlgebraDifferential:
    """The bitset algebra the packed and lane states run on — int XOR,
    the shift/mask folds of :class:`PackedTables` and
    ``substitute_state`` — against the :class:`Expansion` algebra."""

    def test_xor_matches(self):
        rng = random.Random(11)
        for _ in range(200):
            num_vars = rng.randint(1, 6)
            a = _expansion(rng, num_vars)
            b = _expansion(rng, num_vars)
            assert (a ^ b).to_bits() == a.to_bits() ^ b.to_bits()

    def test_multiply_term_matches(self):
        rng = random.Random(12)
        for _ in range(200):
            num_vars = rng.randint(1, 6)
            expansion = _expansion(rng, num_vars)
            factor = rng.randrange(1 << num_vars)
            bits = expansion.to_bits()
            for low, keep, lift in tables_for(num_vars).folds(factor):
                bits = (bits & keep) ^ ((bits & lift) << low)
            assert bits == expansion.multiply_term(factor).to_bits()

    def test_substitute_matches(self):
        rng = random.Random(13)
        for _ in range(150):
            num_vars = rng.randint(2, 6)
            system = _system(rng, num_vars)
            index = rng.randrange(num_vars)
            factor = rng.randrange(1 << num_vars) & ~(1 << index)
            expected = system.substitute(index, factor)
            for engine in _bitset_engines(num_vars):
                child = engine.substitute_state(
                    engine.root_state(system), index, factor
                )
                assert engine.system_from_state(child) == expected

    def test_substitute_rejects_target_in_factor_identically(self):
        system = PPRMSystem([Expansion([3]), Expansion([3])])
        with pytest.raises(ValueError) as ref_error:
            system.substitute(0, 3)
        for engine in _bitset_engines(2):
            with pytest.raises(ValueError) as error:
                engine.substitute_state(engine.root_state(system), 0, 3)
            assert str(error.value) == str(ref_error.value)

    def test_queries_match(self):
        rng = random.Random(14)
        for _ in range(200):
            num_vars = rng.randint(1, 6)
            system = _system(rng, num_vars)
            for engine in _bitset_engines(num_vars):
                state = engine.root_state(system)
                assert engine.state_term_count(state) == system.term_count()
                assert engine.unsolved_count(state) == (
                    num_vars - system.solved_outputs()
                )
                assert (
                    state == engine.identity_state(num_vars)
                ) == system.is_identity()


class TestSerializationDifferential:
    """The :class:`Expansion` ↔ bitset pair: the wire form of the store
    key and the portfolio payload, and the outputs of the packed and
    lane states."""

    def test_pack_agrees_across_engines(self):
        rng = random.Random(16)
        for _ in range(100):
            num_vars = rng.randint(1, 6)
            system = _system(rng, num_vars)
            bits = [output.to_bits() for output in system.outputs]
            for engine in _bitset_engines(num_vars):
                state = engine.root_state(system)
                assert list(engine.state_outputs(state)) == bits

    def test_unpack_round_trips_both_ways(self):
        rng = random.Random(17)
        for _ in range(100):
            num_vars = rng.randint(1, 6)
            expansion = _expansion(rng, num_vars)
            assert Expansion.from_bits(expansion.to_bits()) == expansion
            bits = rng.getrandbits(1 << num_vars)
            assert Expansion.from_bits(bits).to_bits() == bits

    def test_convert_round_trip(self):
        rng = random.Random(18)
        for _ in range(50):
            num_vars = rng.randint(1, 6)
            system = _system(rng, num_vars)
            for engine in _bitset_engines(num_vars):
                state = engine.root_state(system)
                assert engine.system_from_state(state) == system

    def test_dedupe_keys_discriminate_identically(self):
        rng = random.Random(19)
        expansions = [_expansion(rng, 4) for _ in range(100)]
        for a in expansions:
            for b in expansions:
                same_terms = a.dedupe_key() == b.dedupe_key()
                assert (a.to_bits() == b.to_bits()) == same_terms


class TestSystemDifferential:
    def test_from_permutation_matches(self):
        rng = random.Random(20)
        for _ in range(40):
            num_vars = rng.randint(2, 5)
            permutation = random_permutation(num_vars, rng)
            ref = PPRMSystem.from_permutation(permutation.images)
            # Each output's bitset is its Möbius coefficient vector.
            coefficients = [
                mobius_transform(
                    [image >> index & 1 for image in permutation.images]
                )
                for index in range(num_vars)
            ]
            bits = [
                sum(coeff << term for term, coeff in enumerate(vector))
                for vector in coefficients
            ]
            for engine in _bitset_engines(num_vars):
                state = engine.root_state(ref)
                assert list(engine.state_outputs(state)) == bits
                built = engine.system_from_state(state)
                assert built == ref
                assert built.to_images() == list(permutation.images)

    def test_candidate_enumeration_matches(self):
        options = SynthesisOptions(
            extended_substitutions=True, complement_substitutions=True
        )
        rng = random.Random(21)
        for _ in range(25):
            permutation = random_permutation(3, rng)
            ref = PPRMSystem.from_permutation(permutation.images)
            ref_candidates = [
                (c.target, c.factor, c.allow_growth)
                for c in enumerate_substitutions(ref, options)
            ]
            for engine in _bitset_engines(3):
                candidates, _ = candidate_lister(engine, options, 3)(
                    engine.root_state(ref), False
                )
                assert candidates == ref_candidates


class TestLaneStateDifferential:
    """The lane engine's one-int state against the system oracle, at
    every width of its band."""

    @pytest.mark.parametrize("num_vars", range(1, SEARCH_LANES_MAX_VARS + 1))
    def test_state_operations_match_the_system(self, num_vars):
        rng = random.Random(30 + num_vars)
        engine = lane_engine(num_vars)
        identity = engine.identity_state(num_vars)
        assert engine.system_from_state(identity) == PPRMSystem.identity(
            num_vars
        )
        for _ in range(3):
            system = _system(rng, num_vars)
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
                    [Expansion(order(masks)) for masks in terms]
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
    def test_packed_input_is_not_downgraded(self):
        # A 2-variable system rebuilt from the packed wire form runs on
        # the lane band, whose states are the same bitsets in one int.
        system = spec_from_payload({"packed": [6, 4], "num_vars": 2})
        assert system == PPRMSystem.from_permutation([0, 1, 3, 2])
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
        system = graycode_system(num_vars)
        engine = search_engine(num_vars)
        assert engine.name == expected
        assert engine.system_from_state(engine.root_state(system)) == system
        assert synthesize(system, max_steps=2).engine == expected

    def test_packed_width_guard(self):
        with pytest.raises(ValueError, match="at most"):
            tables_for(PACKED_MAX_VARS + 1)
