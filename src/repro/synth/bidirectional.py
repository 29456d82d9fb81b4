"""Bidirectional RMRLS: synthesize the function or its inverse.

Miller et al.'s method [7] synthesizes from both ends of the cascade;
RMRLS as published works from the inputs only.  The same leverage is
available compositionally: if a cascade ``C`` realizes ``f^-1``, the
reversed cascade ``C^-1`` (Toffoli gates are involutions) realizes
``f``.  The PPRM landscape of ``f`` and ``f^-1`` can differ wildly —
the paper's own 5one013 benchmark resists forward search for hundreds
of thousands of steps yet its inverse synthesizes in seconds (see
EXPERIMENTS.md) — so trying both directions is a cheap, sound
portfolio.

:func:`synthesize_inverse` is the one place that turns an inverse
search into a circuit for the original function; the CLI's
``--direction inverse``, the portfolio deck's inverse slots, Table IV's
last resort and :func:`synthesize_bidirectional` all go through it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.circuits.circuit import Circuit
from repro.functions.permutation import Permutation
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import SynthesisResult, synthesize
from repro.synth.stats import SearchStats

__all__ = [
    "BidirectionalResult",
    "synthesize_bidirectional",
    "synthesize_inverse",
]


def synthesize_inverse(
    permutation: Permutation,
    options: SynthesisOptions | None = None,
    **option_changes,
) -> SynthesisResult:
    """Synthesize ``permutation`` by searching its inverse.

    A cascade realizing ``p^-1``, read backwards, realizes ``p`` with
    the same gate count.  The returned result is the search's own
    (``stats``, ``trace`` and ``portfolio`` describe the search of
    ``p^-1``) with the circuit replaced by the reversed cascade.
    Verification is left to the caller, so each caller keeps its own
    failure taxonomy.
    """
    if options is None:
        options = SynthesisOptions()
    if option_changes:
        options = options.with_(**option_changes)
    result = synthesize(permutation.inverse(), options)
    if result.solved:
        result = dataclasses.replace(
            result, circuit=result.circuit.inverse()
        )
    return result


@dataclass
class BidirectionalResult:
    """Outcome of a two-direction synthesis attempt.

    ``direction`` is ``"forward"`` or ``"inverse"`` for the winning
    attempt (``None`` when both failed); ``forward``/``inverse`` hold
    the underlying per-direction results (``inverse`` comes from
    :func:`synthesize_inverse`, so its circuit already realizes the
    spec; it is ``None`` when that direction was skipped).
    """

    circuit: Circuit | None
    direction: str | None
    forward: SynthesisResult
    inverse: SynthesisResult | None

    @property
    def solved(self) -> bool:
        """True when either direction produced a circuit."""
        return self.circuit is not None

    @property
    def gate_count(self) -> int | None:
        """Gates in the winning circuit (None when unsolved)."""
        return None if self.circuit is None else self.circuit.gate_count()

    def as_result(self) -> SynthesisResult:
        """The whole attempt as one :class:`SynthesisResult`.

        The circuit is the winner's.  The stats count both legs: steps
        and other counters add, and so does wall time, because the
        legs run one after the other.  The finish reason, trace and
        portfolio summary come from the winning leg, or from the last
        leg run when neither solved.
        """
        leg = (
            self.forward
            if self.direction == "forward" or self.inverse is None
            else self.inverse
        )
        stats = SearchStats.from_dict(self.forward.stats.as_dict())
        if self.inverse is not None:
            stats.merge(self.inverse.stats)
            stats.elapsed_seconds = (
                self.forward.stats.elapsed_seconds
                + self.inverse.stats.elapsed_seconds
            )
        stats.finish_reason = leg.stats.finish_reason
        return dataclasses.replace(leg, circuit=self.circuit, stats=stats)


def synthesize_bidirectional(
    specification: Permutation,
    options: SynthesisOptions | None = None,
    always_try_inverse: bool = False,
    **option_changes,
) -> BidirectionalResult:
    """Synthesize ``specification`` trying both cascade directions.

    The forward direction runs first; the inverse runs when the forward
    attempt fails (or always, with ``always_try_inverse=True``, to take
    the shorter of the two circuits).  The returned circuit always
    realizes ``specification`` itself — an inverse-direction win is
    reversed before returning — and is re-verified here.
    """
    if options is None:
        options = SynthesisOptions()
    if option_changes:
        options = options.with_(**option_changes)
    if not isinstance(specification, Permutation):
        raise TypeError(
            "bidirectional synthesis needs an invertible specification "
            "(a Permutation); PPRM-only systems cannot be inverted "
            "symbolically"
        )

    forward = synthesize(specification, options)
    best_circuit = forward.circuit
    direction = "forward" if forward.solved else None

    inverse_result: SynthesisResult | None = None
    if always_try_inverse or not forward.solved:
        inverse_result = synthesize_inverse(specification, options)
        if inverse_result.solved and (
            best_circuit is None
            or inverse_result.gate_count < best_circuit.gate_count()
        ):
            best_circuit = inverse_result.circuit
            direction = "inverse"

    if best_circuit is not None and not best_circuit.implements(
        specification
    ):  # pragma: no cover - inversion algebra is exercised in tests
        raise AssertionError("bidirectional result failed verification")

    return BidirectionalResult(
        circuit=best_circuit,
        direction=direction,
        forward=forward,
        inverse=inverse_result,
    )
