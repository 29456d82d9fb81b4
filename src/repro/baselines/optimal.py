"""Optimal reversible synthesis by breadth-first search.

Shende et al. [16] compute provably minimal circuits by enumerating all
circuits of increasing size; Table I quotes their optimal NCT and NCTS
gate-count distributions over the 8! three-variable functions.  This
module reproduces those distributions with a breadth-first search over
the permutation group: starting from the identity, repeatedly append
library gates; the BFS level at which a permutation first appears is
its minimal circuit size.

One ball per process and library holds packed permutations (a nibble
per image, one int each); a gate acts on a whole BFS level as one
``bytes.translate`` through its 256-entry table.  On up to three lines
the ball is the whole group; on four lines it is B<=4 (311 528 states
for GT), which decides every distance up to 5: p is at distance 5 iff
one gate takes it into B<=4.  :func:`circuit_for` peels a minimal
circuit off: at distance d some gate g has dist(g.p) = d - 1.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from collections.abc import Mapping
from itertools import chain, islice

from repro.circuits.circuit import Circuit
from repro.functions.permutation import Permutation
from repro.gates.library import GT, NCT, GateLibrary

__all__ = ["circuit_for", "distance", "optimal_distances",
           "optimal_distribution", "optimal_synthesize"]

_BALLS: dict[tuple, "_Ball"] = {}


class _Ball(Mapping):
    """Exact distances from the identity, keyed by image tuples."""

    def __init__(self, lines: int, library: GateLibrary):
        self.gates = list(library.gates(lines))
        self.tables = [
            bytes(g.apply(b & 15) | g.apply(b >> 4) << 4 for b in range(256))
            for g in self.gates
        ]
        self.size = 1 << (lines - 1)  # bytes per state
        code = next(c for c in "BHILQ" if array(c).itemsize == self.size)
        self.depth = 4 if lines == 4 else None  # None: the whole group
        self.levels = levels = {self.pack(range(1 << lines)): 0}
        level = known = 0
        # Insertion order keeps each level contiguous: the newest level
        # is everything after the first ``known`` keys.
        while len(levels) > known and level != self.depth:
            frontier = array(code, islice(levels, known, None)).tobytes()
            known, level = len(levels), level + 1
            for state in chain.from_iterable(
                memoryview(frontier.translate(table)).cast(code)
                for table in self.tables
            ):
                levels.setdefault(state, level)

    def pack(self, images) -> int:
        pairs = iter(images)
        data = bytes(low | high << 4 for low, high in zip(pairs, pairs))
        return int.from_bytes(data, sys.byteorder)

    def unpack(self, state: int) -> tuple[int, ...]:
        data = state.to_bytes(self.size, sys.byteorder)
        return tuple(n for byte in data for n in (byte & 15, byte >> 4))

    def apply(self, state: int, table: bytes) -> int:
        """Append a gate at the outputs of the circuit computing ``state``."""
        data = state.to_bytes(self.size, sys.byteorder).translate(table)
        return int.from_bytes(data, sys.byteorder)

    def distance(self, state: int) -> int | None:
        found = self.levels.get(state)
        if found is None and self.depth is not None and any(
            self.apply(state, table) in self.levels for table in self.tables
        ):
            return self.depth + 1
        return found

    def __getitem__(self, images) -> int:
        return self.levels[self.pack(images)]

    def __iter__(self):
        return map(self.unpack, self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    def values(self):
        return self.levels.values()


def _ball(lines: int, library: GateLibrary) -> _Ball:
    if not 1 <= lines <= 4:
        raise ValueError("exact distances cover 1 to 4 lines")
    key = (lines, library.toffoli_size_limit(lines), library.include_swap)
    if key not in _BALLS:
        _BALLS[key] = _Ball(lines, library)
    return _BALLS[key]


def _peel(ball: _Ball, state: int, found: int) -> list:
    """Gates of a minimal circuit for ``state``, ``found`` gates away."""
    gates = []
    for level in range(found - 1, -1, -1):
        for gate, table in zip(ball.gates, ball.tables):
            successor = ball.apply(state, table)
            if ball.levels.get(successor) == level:
                break
        gates.append(gate)
        state = successor
    return gates[::-1]


def optimal_distances(num_vars: int, library: GateLibrary = NCT) -> Mapping:
    """Minimal gate count for *every* function on ``num_vars`` variables.

    A read-only view keyed by image tuples over the packed ball (about
    0.1 s to build on three variables, once per process).  Only the
    whole group is a complete sweep, so ``num_vars <= 3``.
    """
    if num_vars > 3:
        raise ValueError(
            "the exhaustive sweep covers (2^n)! functions and is only "
            "tractable for num_vars <= 3"
        )
    return _ball(num_vars, library)


def optimal_distribution(
    num_vars: int, library: GateLibrary = NCT
) -> dict[int, int]:
    """Histogram {minimal size: function count} — Table I's "Optimal"
    columns."""
    return dict(Counter(optimal_distances(num_vars, library).values()))


def distance(
    specification: Permutation, limit: int | None = None,
    library: GateLibrary = GT,
) -> int | None:
    """Exact minimal gate count of ``specification``, or ``None`` when it
    exceeds ``limit`` or the ball's reach (5 gates on four lines)."""
    ball = _ball(specification.num_vars, library)
    found = ball.distance(ball.pack(specification.images))
    return found if found is None or limit is None or found <= limit else None


def circuit_for(
    specification: Permutation, limit: int | None = None,
    library: GateLibrary = GT,
) -> Circuit | None:
    """A minimal circuit for ``specification``, simulation-checked, or
    ``None`` when :func:`distance` gives none."""
    found = distance(specification, limit, library)
    if found is None:
        return None
    ball = _ball(specification.num_vars, library)
    gates = _peel(ball, ball.pack(specification.images), found)
    circuit = Circuit(specification.num_vars, gates)
    if not circuit.implements(specification):
        raise AssertionError(f"peeled a wrong circuit for {specification}")
    return circuit


def optimal_synthesize(
    specification: Permutation,
    library: GateLibrary = NCT,
    max_gates: int = 12,
) -> Circuit | None:
    """Provably minimal circuit for one function, or ``None`` if it
    needs more than ``max_gates`` gates.

    Answered from the ball, so any function on up to three lines.  On
    four lines a function beyond the 5-gate reach raises ``ValueError``
    unless ``max_gates <= 5``: "more than ``max_gates``" is unknown.
    """
    circuit = circuit_for(specification, max_gates, library)
    depth = _ball(specification.num_vars, library).depth
    if circuit is None and depth is not None and max_gates > depth + 1:
        raise ValueError(
            f"{specification} is beyond the exact reach of {depth + 1} "
            f"gates on {specification.num_vars} lines"
        )
    return circuit
