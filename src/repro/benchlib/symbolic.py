"""Symbolically constructed PPRM systems for wide benchmarks.

``shift28`` acts on 30 lines — its truth table has 2^30 rows and can
neither be stored nor Mobius-transformed.  Its PPRM, however, is tiny
(the carry chain of adding a 2-bit shift amount contributes ~4 terms
per output), which is surely how the original tool handled it too.
This module builds such expansions directly.

Correctness is established in the test suite by comparing the symbolic
systems against the numeric ones for small widths, and by sampled
evaluation for large widths (:func:`system_agrees_with_circuit`).
"""

from __future__ import annotations

import random

from repro.circuits.circuit import Circuit
from repro.pprm.expansion import Expansion
from repro.pprm.system import PPRMSystem
from repro.utils.bitops import bit

__all__ = [
    "graycode_system",
    "controlled_shifter_system",
    "system_agrees_with_circuit",
]


def graycode_system(num_vars: int) -> PPRMSystem:
    """PPRM of the binary-to-Gray converter: ``y_i = x_i XOR x_{i+1}``."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    outputs = []
    for index in range(num_vars):
        terms = {bit(index)}
        if index + 1 < num_vars:
            terms.add(bit(index + 1))
        outputs.append(Expansion(frozenset(terms)))
    return PPRMSystem(outputs)


def controlled_shifter_system(data_vars: int) -> PPRMSystem:
    """PPRM of Example 14's shifter: data value plus a 2-bit shift.

    Lines ``0..data_vars-1`` hold the value ``v``; lines ``data_vars``
    (s0) and ``data_vars + 1`` (s1) hold the shift amount ``s = s0 +
    2*s1`` and pass through.  Ripple-carry addition of the two-bit
    constant gives

        y_0 = x_0 + s0                      c_1 = x_0 s0
        y_1 = x_1 + s1 + c_1                c_2 = x_1 s1 + x_1 c_1 + s1 c_1
        y_i = x_i + c_i   (i >= 2)          c_{i+1} = x_i c_i

    and every carry from ``c_2`` on is a 3-term expansion scaled by the
    product of the intervening data literals.
    """
    if data_vars < 1:
        raise ValueError("need at least one data line")
    s0 = bit(data_vars)
    s1 = bit(data_vars + 1)

    outputs: list[Expansion] = []
    # carry into bit 1: one term x0*s0
    carry = Expansion(frozenset((bit(0) | s0,)))
    outputs.append(Expansion(frozenset((bit(0), s0))))
    if data_vars > 1:
        outputs.append(
            Expansion(frozenset((bit(1), s1))) ^ carry
        )
        # carry into bit 2: x1 s1 + x1 c1 + s1 c1
        x1 = Expansion(frozenset((bit(1),)))
        carry = (
            x1.multiply_term(s1)
            ^ carry.multiply_term(bit(1))
            ^ carry.multiply_term(s1)
        )
        for index in range(2, data_vars):
            outputs.append(Expansion.variable(index) ^ carry)
            carry = carry.multiply_term(bit(index))
    outputs.append(Expansion.variable(data_vars))
    outputs.append(Expansion.variable(data_vars + 1))
    return PPRMSystem(outputs)


def system_agrees_with_circuit(
    system: PPRMSystem,
    circuit: Circuit,
    samples: int = 4096,
    seed: int = 0,
) -> bool:
    """Check ``circuit`` against ``system`` on sampled assignments.

    Exhaustive when the assignment space is at most ``samples``;
    otherwise uses ``samples`` uniform random draws.  Wide benchmarks
    (30 lines) cannot be verified exhaustively; sampling gives a
    vanishing escape probability for a wrong cascade.
    """
    if circuit.num_lines != system.num_vars:
        return False
    size = 1 << system.num_vars
    if size <= samples:
        assignments = range(size)
    else:
        rng = random.Random(seed)
        assignments = (rng.randrange(size) for _ in range(samples))
    return all(
        circuit.apply(assignment) == system.evaluate(assignment)
        for assignment in assignments
    )
