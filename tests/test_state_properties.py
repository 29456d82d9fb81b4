"""Differential properties of the raw search state.

The search runs on raw states (:meth:`PPRMEngine.substitute_state`
and friends): per-output tuples on reference and packed, one lane int
on the lane engine.  These properties pin the state operations to the
reference system as oracle on all three backends: same term count,
identity test, unsolved outputs and dedupe key for every enumerated
candidate, the same reference system when one is built back, the same
candidate sequence as the expansion-level enumeration, and the same
errors.  The candidate
lister of :mod:`repro.synth.substitutions`, on its full and finishing
paths, is checked against test-side oracles and across the three
engines here too, and so is the batch call the search makes once per
expansion (:meth:`PPRMEngine.children`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions.permutation import Permutation
from repro.pprm import PPRMSystem
from repro.pprm.expansion import Expansion
from repro.pprm.term import CONSTANT_ONE
from repro.synth.options import SynthesisOptions
from repro.synth.substitutions import (
    candidate_lister,
    enumerate_substitutions,
)

from conftest import SEARCH_BACKENDS


def list_candidates(state, engine, options, finishing=False):
    """The bound lister's ``(candidates, others)`` on one state."""
    width = len(engine.state_outputs(state))
    return candidate_lister(engine, options, width)(state, finishing)


@st.composite
def systems(draw):
    """A square reference system over 1-6 variables and a search
    engine for it: the PPRM of a permutation, or arbitrary per-output
    term sets."""
    num_vars = draw(st.integers(1, 6))
    size = 1 << num_vars
    if draw(st.booleans()):
        images = draw(st.permutations(range(size)))
        system = Permutation(images).to_pprm()
    else:
        outputs = draw(st.lists(
            st.frozensets(st.integers(0, size - 1), max_size=12),
            min_size=num_vars, max_size=num_vars,
        ))
        system = PPRMSystem([Expansion(terms) for terms in outputs])
    name = draw(st.sampled_from(sorted(SEARCH_BACKENDS)))
    engine = SEARCH_BACKENDS[name](num_vars)
    return system, engine


option_mixes = st.builds(
    SynthesisOptions,
    extended_substitutions=st.booleans(),
    complement_substitutions=st.booleans(),
    growth_exempt_literals=st.integers(-1, 2),
)


def expansion_enumeration(system, options):
    """The candidate rule read off the expansion API (the oracle)."""
    exempt = options.growth_exempt_literals
    candidates = []
    for target in range(system.num_vars):
        expansion = system.output(target)
        target_bit = 1 << target
        linear_present = expansion.contains_term(target_bit)
        if linear_present and expansion.term_count() == 1:
            continue
        used = linear_present or options.extended_substitutions
        if used:
            for factor in expansion.iter_terms():
                if not factor & target_bit:
                    candidates.append(
                        (target, factor, factor.bit_count() <= exempt)
                    )
        if options.complement_substitutions and not (
            used and expansion.contains_term(CONSTANT_ONE)
        ):
            candidates.append((target, CONSTANT_ONE, 0 <= exempt))
    return candidates


@settings(max_examples=200, deadline=None)
@given(drawn=systems(), options=option_mixes)
def test_child_states_agree_with_substituted_systems(drawn, options):
    system, engine = drawn
    width = system.num_vars
    state = engine.root_state(system)
    identity = engine.identity_state(width)
    assert identity == engine.root_state(PPRMSystem.identity(width))
    assert engine.state_term_count(state) == system.term_count()
    assert engine.unsolved_count(state) == width - system.solved_outputs()
    assert engine.system_from_state(state) == system
    candidates, _ = list_candidates(state, engine, options)
    for target, factor, _ in candidates:
        child = engine.substitute_state(state, target, factor)
        expected = system.substitute(target, factor)
        assert engine.state_term_count(child) == expected.term_count()
        assert (child == identity) == expected.is_identity()
        assert engine.unsolved_count(child) == (
            width - expected.solved_outputs()
        )
        assert child == engine.root_state(expected)
        assert engine.system_from_state(child) == expected


@settings(max_examples=150, deadline=None)
@given(drawn=systems(), options=option_mixes)
def test_one_enumerator_for_tuples_and_candidates(drawn, options):
    system, engine = drawn
    tuples, others = list_candidates(
        engine.root_state(system), engine, options
    )
    assert others == 0
    assert tuples == expansion_enumeration(system, options)
    assert tuples == [
        (c.target, c.factor, c.allow_growth)
        for c in enumerate_substitutions(system, options)
    ]


@settings(max_examples=200, deadline=None)
@given(drawn=systems(), options=option_mixes)
def test_only_finishers_solve_an_output(drawn, options):
    """Every candidate's child keeps the parent's unsolved outputs, but
    a finisher solves one more; the scan names exactly the finishers,
    in candidate order, and counts the rest."""
    system, engine = drawn
    state = engine.root_state(system)
    unsolved = engine.unsolved_count(state)
    candidates, _ = list_candidates(state, engine, options)
    finishers, others = list_candidates(state, engine, options, True)
    assert len(finishers) + others == len(candidates)
    assert finishers == [
        candidate for candidate in candidates if candidate in finishers
    ]
    for candidate in candidates:
        target, factor, _ = candidate
        child = engine.substitute_state(state, target, factor)
        assert engine.unsolved_count(child) == (
            unsolved - 1 if candidate in finishers else unsolved
        )


@settings(max_examples=150, deadline=None)
@given(drawn=systems(), data=st.data())
def test_factor_containing_the_target_raises(drawn, data):
    system, engine = drawn
    target = data.draw(st.integers(0, system.num_vars - 1))
    factor = data.draw(st.integers(0, (1 << system.num_vars) - 1)) | (
        1 << target
    )
    with pytest.raises(ValueError, match="contains the target"):
        engine.substitute_state(engine.root_state(system), target, factor)
    with pytest.raises(ValueError, match="contains the target"):
        system.substitute(target, factor)


@settings(max_examples=150, deadline=None)
@given(drawn=systems(), data=st.data())
def test_out_of_range_substitutions_fail_alike(drawn, data):
    """Packed and lanes reject indices and factors beyond their width;
    reference accepts them, and its state agrees with the system."""
    system, engine = drawn
    width = system.num_vars
    state = engine.root_state(system)
    target = data.draw(st.integers(0, width + 1))
    factor = data.draw(st.integers(0, (1 << (width + 2)) - 1)) & ~(1 << target)
    if engine.name != "reference" and (
        target >= width or factor >> width
    ):
        with pytest.raises(ValueError, match="exceeds"):
            engine.substitute_state(state, target, factor)
    else:
        expected = engine.root_state(system.substitute(target, factor))
        assert engine.substitute_state(state, target, factor) == expected


@st.composite
def search_systems(draw):
    """A random search system over 1-8 variables (every lane size the
    lane engine reads, on both sides of the factor-set table's width):
    each output solved (``x_t``), finishable (``x_t XOR f``) or an
    arbitrary term set."""
    num_vars = draw(st.integers(1, 8))
    size = 1 << num_vars
    outputs = []
    for target in range(num_vars):
        linear = 1 << target
        kind = draw(st.sampled_from(("solved", "finishable", "any")))
        if kind == "solved":
            terms = {linear}
        elif kind == "finishable":
            factor = draw(st.integers(0, size - 1)) & ~linear
            terms = {linear, factor}
        else:
            terms = draw(
                st.frozensets(st.integers(0, size - 1), max_size=12)
            )
        outputs.append(Expansion(terms))
    return PPRMSystem(outputs)


@st.composite
def search_states(draw):
    """A :func:`search_systems` state on one backend."""
    system = draw(search_systems())
    name = draw(st.sampled_from(sorted(SEARCH_BACKENDS)))
    engine = SEARCH_BACKENDS[name](system.num_vars)
    return engine.root_state(system), engine, system.num_vars


batch_options = st.builds(
    SynthesisOptions,
    extended_substitutions=st.booleans(),
    complement_substitutions=st.booleans(),
    growth_exempt_literals=st.integers(0, 2),
)


def finisher_split(system, candidates):
    """The finishing-path oracle: the candidates whose child solves one
    more output than ``system``, in order, and the count of the rest."""
    solved = system.solved_outputs()
    finishers = [
        candidate for candidate in candidates
        if system.substitute(candidate[0], candidate[1]).solved_outputs()
        == solved + 1
    ]
    return finishers, len(candidates) - len(finishers)


@settings(max_examples=300, deadline=None)
@given(system=search_systems(), options=batch_options)
def test_lister_agrees_across_engines_and_with_the_oracles(system, options):
    """On both paths the lister gives the same answer on lanes, packed
    and reference: on the full path the expansion-API enumeration, on
    the finishing path the candidates that solve one more output and
    the count of the others."""
    full = expansion_enumeration(system, options)
    expected = {False: (full, 0), True: finisher_split(system, full)}
    for name in sorted(SEARCH_BACKENDS):
        engine = SEARCH_BACKENDS[name](system.num_vars)
        state = engine.root_state(system)
        for finishing, answer in expected.items():
            assert list_candidates(state, engine, options, finishing) == (
                answer
            ), (name, finishing)


def _per_candidate_children(engine, state, candidates):
    """The oracle: one substitute_state and state_term_count call per
    candidate; the first ValueError's message if one raises."""
    children = []
    for target, factor, _ in candidates:
        try:
            child = engine.substitute_state(state, target, factor)
        except ValueError as error:
            return str(error)
        children.append((child, engine.state_term_count(child)))
    return children


@settings(max_examples=300, deadline=None)
@given(drawn=search_states(), options=batch_options, data=st.data())
def test_batch_children_match_per_candidate_substitution(
    drawn, options, data
):
    """Every child and term count agrees with the per-candidate calls;
    an invalid candidate anywhere in the batch raises the same
    ValueError (a factor holding the target, or a target or factor
    beyond the width on packed and lanes)."""
    state, engine, width = drawn
    candidates, _ = list_candidates(state, engine, options)
    if data.draw(st.booleans()):
        target = data.draw(st.integers(0, width + 1))
        factor = data.draw(st.integers(0, (1 << (width + 1)) - 1))
        position = data.draw(st.integers(0, len(candidates)))
        candidates.insert(position, (target, factor, False))
    expected = _per_candidate_children(engine, state, candidates)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as caught:
            engine.children(state, candidates)
        assert str(caught.value) == expected
    else:
        assert engine.children(state, candidates) == expected
