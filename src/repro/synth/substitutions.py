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

This module is the only place the rule is written.  A substitution
changes only its target output, so the rule is a function of one
output's terms: :func:`candidate_lister` binds it once per search to
an engine, the options and a width, and reads the outputs of a search
state through ``engine.state_outputs``.  Bitset outputs (the lane and
packed engines: bit ``t`` set ⇔ term ``t`` present) are read with
per-target tables; term frozensets (the reference engine) term by
term.  The lister also serves the *finishing* path, which names each
target's finisher and only counts the other candidates.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from repro.pprm.packed import tables_for
from repro.pprm.system import PPRMSystem
from repro.pprm.term import CONSTANT_ONE
from repro.synth.options import SynthesisOptions
from repro.utils.bitops import bits_of, iter_subsets

__all__ = [
    "Candidate",
    "GROUP_TABLE_MAX_VARS",
    "candidate_lister",
    "enumerate_substitutions",
]


@dataclass(frozen=True)
class Candidate:
    """A candidate substitution: target variable, factor term, and
    whether term growth is tolerated (see module docstring)."""

    target: int
    factor: int
    allow_growth: bool


#: Widest input whose every factor set the bitset tables map to its run
#: of candidate tuples: ``2^(2^(n-1))`` sets per target, 256 at 4
#: variables.  Measured (EXPERIMENTS.md, "The factor-set table,
#: measured"): at 3-4 variables the search looks up the same few sets
#: 97-99.9 % of the time and the table takes 8 % off ``table2_slice``'s
#: ``wall_s``; at 6-8 variables a cache of them gained no time and cost
#: 3.5 MB at 8.
GROUP_TABLE_MAX_VARS = 4


@lru_cache(maxsize=32)
def _target_tables(num_vars: int, exempt: int) -> tuple:
    """Per target, what the bitset loop reads an output with:
    ``(linear, factor_mask, by_factor, groups)``.

    ``linear`` is the bitset of the term ``x_target`` (the output's
    whole value once solved) and ``factor_mask`` the positions of the
    candidate factors (terms without ``x_target``).  ``by_factor[f]`` is
    the candidate tuple of factor ``f`` under
    ``growth_exempt_literals=exempt`` (``None`` for the factors holding
    ``x_target``, which are never candidates).  Up to
    :data:`GROUP_TABLE_MAX_VARS` variables ``groups`` maps every set of
    factor bits to its tuples, in increasing-factor order; wider inputs
    have ``groups=None``.  ``by_factor`` holds ``2^(num_vars - 1)``
    tuples per target, about 2 MB over all 12 targets at 12 variables.
    """
    packed = tables_for(num_vars)
    factors = list(range(packed.size))
    tables = []
    for target, selector in enumerate(packed.var_masks):
        factor_mask = packed.full ^ selector
        by_factor = tuple(
            None if factor >> target & 1
            else (target, factor, factor.bit_count() <= exempt)
            for factor in factors
        )
        groups = None
        if num_vars <= GROUP_TABLE_MAX_VARS:
            groups = {
                subset: tuple(by_factor[f] for f in bits_of(subset))
                for subset in iter_subsets(factor_mask)
            }
        tables.append((1 << (1 << target), factor_mask, by_factor, groups))
    return tuple(tables)


def candidate_lister(
    engine, options: SynthesisOptions, num_vars: int
) -> Callable[[object, bool], tuple]:
    """Bind the candidate rule to ``engine``, ``options`` and a width.

    Returns ``list_candidates(state, finishing) -> (candidates,
    others)`` over ``engine``'s search states of ``num_vars``
    variables.  Each candidate is a plain ``(target, factor,
    allow_growth)`` tuple, grouped by target in target order, factors
    in increasing order (the constant 1 first when present), then the
    complement: every backend lists — and therefore tie-breaks — the
    same way.

    On the full path (``finishing`` false) the candidates are every
    substitution the options allow (the union of the kinds is *every*
    legal substitution, the convergence argument of Sec. IV-F) and
    ``others`` is 0.  On the finishing path they are only the
    *finishers* and ``others`` counts the rest: a substitution changes
    only its target output, so a candidate's child solves one more
    output exactly when its factor ``f`` makes the output
    ``x_target XOR f``.  Each target has at most one finisher.

    The loop is picked once, from the representation of the engine's
    outputs: ints are bitsets, anything else a set of term masks.
    """
    extended = options.extended_substitutions
    complement = options.complement_substitutions
    exempt = options.growth_exempt_literals
    outputs_of = engine.state_outputs
    sample = outputs_of(engine.identity_state(num_vars))
    if not all(isinstance(raw, int) for raw in sample):
        return _term_set_lister(outputs_of, extended, complement, exempt)
    tables = _target_tables(num_vars, exempt)

    def list_candidates(state, finishing: bool) -> tuple:
        candidates = []
        outputs = outputs_of(state)
        if finishing:
            others = 0
            for raw, (linear, factor_mask, by_factor, _) in zip(
                outputs, tables
            ):
                if raw == linear:
                    continue  # solved: un-solving a line never helps
                factors = raw & factor_mask
                count = factors.bit_count()
                if count == 1 and raw.bit_count() == 2 and raw & linear:
                    # raw is x_t XOR f: its one factor f finishes it,
                    # and the complement is another candidate unless f
                    # is the constant.
                    candidates.append(by_factor[factors.bit_length() - 1])
                    if complement and factors != 1:
                        others += 1
                    continue
                used = raw & linear or extended
                if used:
                    others += count
                if complement and not (used and raw & 1):
                    others += 1
            return candidates, others
        append = candidates.append
        for raw, (linear, factor_mask, by_factor, groups) in zip(
            outputs, tables
        ):
            if raw == linear:
                continue
            used = raw & linear or extended
            if used:
                factors = raw & factor_mask
                if groups is not None:
                    candidates += groups[factors]
                else:
                    # bits_of, inlined: no generator per output.
                    while factors:
                        low = factors & -factors
                        append(by_factor[low.bit_length() - 1])
                        factors ^= low
            # The complement factor is skipped only when the factors
            # above already hold it, i.e. the constant-1 term.
            if complement and not (used and raw & 1):
                append(by_factor[CONSTANT_ONE])
        return candidates, 0

    return list_candidates


def _term_set_lister(outputs_of, extended, complement, exempt):
    """:func:`candidate_lister`'s rule over outputs that are sets of
    term masks, read term by term (no per-target tables: reference
    runs the inputs too wide for them)."""

    def list_candidates(state, finishing: bool) -> tuple:
        candidates = []
        others = 0
        for target, terms in enumerate(outputs_of(state)):
            var = 1 << target
            count = len(terms)
            linear = var in terms
            if linear and count == 1:
                continue  # solved
            used = linear or extended
            if finishing:
                # term & var is var or 0, so the sum is var times the
                # count of terms holding x_target (one C-level pass).
                factors = count - (sum(map(var.__and__, terms)) >> target)
                if linear and count == 2 and factors == 1:
                    (factor,) = terms - {var}
                    candidates.append(
                        (target, factor, factor.bit_count() <= exempt)
                    )
                    factors = 0
                if used:
                    others += factors
                if complement and not (used and CONSTANT_ONE in terms):
                    others += 1
                continue
            if used:
                candidates += [
                    (target, factor, factor.bit_count() <= exempt)
                    for factor in sorted(terms)
                    if not factor & var
                ]
            if complement and not (used and CONSTANT_ONE in terms):
                candidates.append((target, CONSTANT_ONE, 0 <= exempt))
        return candidates, others

    return list_candidates


def enumerate_substitutions(
    system: PPRMSystem, options: SynthesisOptions
) -> list[Candidate]:
    """The full-path candidates of ``system`` (on the reference
    engine), as :class:`Candidate` records."""
    engine = system.engine
    list_candidates = candidate_lister(engine, options, system.num_vars)
    candidates, _ = list_candidates(engine.root_state(system), False)
    return [Candidate(*candidate) for candidate in candidates]
