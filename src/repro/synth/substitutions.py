"""Candidate substitution enumeration (Sec. IV-A and IV-D).

A substitution ``v_i := v_i XOR factor`` is the algebraic image of a
Toffoli gate with target ``v_i`` and the factor's literals as controls.
Three kinds are generated:

1. *basic* — ``factor`` is a term of ``v_out,i``'s expansion not
   containing ``v_i``, and the linear term ``v_i`` is present in
   ``v_out,i`` (Sec. IV-A);
2. *extended* — same factor source with the presence requirement
   dropped (Sec. IV-D, first bullet);
3. *complement* — ``v_i := v_i XOR 1`` even when the constant 1 is not
   a term of ``v_out,i`` (Sec. IV-D, second bullet).

Whether a candidate may *increase* the term count is governed by
``SynthesisOptions.growth_exempt_literals``: the paper's text grants the
exception to the complement substitution only, but that rule provably
cannot synthesize every function (a pure wire swap needs three CNOT
gates whose term counts go 3 -> 4 -> 4 -> 3); the default additionally
exempts CNOT factors, which restores the completeness Table I reports
(verified exhaustively over all three-variable functions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pprm.system import PPRMSystem
from repro.pprm.term import CONSTANT_ONE
from repro.synth.options import SynthesisOptions

__all__ = [
    "Candidate",
    "enumerate_state",
    "enumerate_substitutions",
    "scan_finishers",
]


@dataclass(frozen=True)
class Candidate:
    """A candidate substitution: target variable, factor term, and
    whether term growth is tolerated (see module docstring)."""

    target: int
    factor: int
    allow_growth: bool


def enumerate_state(
    state, engine, options: SynthesisOptions
) -> list[tuple[int, int, bool]]:
    """List the substitutions to try on a search state.

    ``state`` is a search state of ``engine`` (:mod:`repro.pprm.engine`),
    read one output at a time through ``engine.state_outputs``.  Each
    candidate is a plain ``(target, factor, allow_growth)`` tuple.  The
    union of the kinds is *every* legal substitution (the convergence
    argument of Sec. IV-F); the basic configuration restricts to kind 1.
    The search reaches this and :func:`scan_finishers` through
    ``engine.candidates``, which the lane engine overrides with the
    same results.
    """
    exempt = options.growth_exempt_literals
    extended = options.extended_substitutions
    complement = options.complement_substitutions
    output_terms = engine.output_terms
    candidates: list[tuple[int, int, bool]] = []
    for target, raw in enumerate(engine.state_outputs(state)):
        target_bit = 1 << target
        # Canonical increasing-mask order, so every backend enumerates
        # — and therefore tie-breaks — the same way.
        terms = output_terms(raw)
        linear_present = target_bit in terms
        if linear_present and len(terms) == 1:
            # Output already solved; un-solving a line is never
            # productive.
            continue
        factor_terms_used = linear_present or extended
        if factor_terms_used:
            for factor in terms:
                if not factor & target_bit:
                    candidates.append(
                        (target, factor, factor.bit_count() <= exempt)
                    )
        # The complement factor is skipped only when the loop above
        # already emitted it, i.e. when the expansion carries the
        # constant-1 term (it sorts first and never contains the
        # target bit).
        if complement and not (
            factor_terms_used and terms and terms[0] == CONSTANT_ONE
        ):
            candidates.append((target, CONSTANT_ONE, 0 <= exempt))
    return candidates


def scan_finishers(
    state, engine, options: SynthesisOptions
) -> tuple[list[tuple[int, int, bool]], int]:
    """Split :func:`enumerate_state`'s candidates without listing them.

    A substitution changes only its target output, so a candidate's
    child solves one more output than ``state`` exactly when it is its
    target's *finisher*: the factor ``f`` with output
    ``== x_target XOR f``.  Each target has at most one.  Returns the
    finishers, as :func:`enumerate_state` tuples in its order, and the
    number of its other candidates.  Each output is read through
    ``engine.output_scan`` in a few int (or set) operations.
    """
    exempt = options.growth_exempt_literals
    extended = options.extended_substitutions
    complement = options.complement_substitutions
    outputs = engine.state_outputs(state)
    width = len(outputs)
    output_scan = engine.output_scan
    finishers: list[tuple[int, int, bool]] = []
    others = 0
    for target, raw in enumerate(outputs):
        terms, linear, constant, factors, finisher = output_scan(
            raw, target, width
        )
        if linear and terms == 1:
            continue  # solved: enumerate_state proposes nothing
        used = linear or extended
        if finisher >= 0:
            finishers.append(
                (target, finisher, finisher.bit_count() <= exempt)
            )
            factors -= 1
        if used:
            others += factors
        if complement and not (used and constant):
            others += 1
    return finishers, others


def enumerate_substitutions(
    system: PPRMSystem, options: SynthesisOptions
) -> list[Candidate]:
    """:func:`enumerate_state` on ``system``, as :class:`Candidate`
    records."""
    engine = system.engine
    return [
        Candidate(*candidate)
        for candidate in enumerate_state(
            engine.root_state(system), engine, options
        )
    ]
