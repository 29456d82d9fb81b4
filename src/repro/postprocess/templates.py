"""Template-style circuit simplification (Sec. V-A, refs [17], [19]-[22]).

The paper recommends template-based post-processing (it improved the
Table I average from 6.10 to 6.05 in the authors' experiment with
Maslov's tool).  This module implements the two classic mechanisms:

* **duplicate cancellation with the moving rule** — Toffoli gates are
  involutions, so two equal gates cancel when every gate between them
  commutes with them (sufficient commutation test in
  :meth:`ToffoliGate.commutes_with`);
* **peephole resynthesis** — the local optimization of Shende et al.
  [17]: any run of consecutive gates touching at most three distinct
  lines is simulated and replaced by a provably minimal realization
  found by BFS, when shorter.

Both rewrites preserve the circuit's function exactly.
"""

from __future__ import annotations

from repro.baselines.optimal import optimal_synthesize
from repro.circuits.circuit import Circuit
from repro.functions.permutation import Permutation
from repro.gates.library import NCT
from repro.gates.toffoli import ToffoliGate
from repro.utils.bitops import bit, bits_of

__all__ = ["cancel_duplicates", "peephole_optimize", "simplify"]


def cancel_duplicates(circuit: Circuit) -> Circuit:
    """Cancel equal gate pairs separated only by commuting gates.

    Repeats until no pair cancels.  Runs in O(passes * gates^2) with
    tiny constants; synthesis outputs are short cascades.
    """
    gates = list(circuit.gates)

    def cancel_one() -> bool:
        for index, gate in enumerate(gates):
            if not isinstance(gate, ToffoliGate):
                continue
            for scan in range(index + 1, len(gates)):
                other = gates[scan]
                if gate == other:
                    del gates[scan]
                    del gates[index]
                    return True
                if not isinstance(
                    other, ToffoliGate
                ) or not gate.commutes_with(other):
                    break
        return False

    while cancel_one():
        pass
    return Circuit(circuit.num_lines, gates)


def _window_support(gates: list[ToffoliGate]) -> int:
    mask = 0
    for gate in gates:
        mask |= gate.lines
    return mask


def _local_permutation(gates: list[ToffoliGate], lines: list[int]):
    """Simulate ``gates`` restricted to ``lines`` (their full support)."""
    position = {line: slot for slot, line in enumerate(lines)}
    size = 1 << len(lines)
    images = []
    for local in range(size):
        word = 0
        for line, slot in position.items():
            if local >> slot & 1:
                word |= bit(line)
        for gate in gates:
            word = gate.apply(word)
        local_out = 0
        for line, slot in position.items():
            if word >> line & 1:
                local_out |= 1 << slot
        images.append(local_out)
    return Permutation(images)


def peephole_optimize(
    circuit: Circuit,
    max_window_gates: int = 6,
    max_window_lines: int = 3,
    _cache: dict | None = None,
) -> Circuit:
    """Replace narrow gate runs by provably minimal sub-circuits [17].

    Scans windows of up to ``max_window_gates`` consecutive gates whose
    combined support fits in ``max_window_lines`` lines (at most 3,
    where the exact ball of :mod:`repro.baselines.optimal` is the whole
    group), resynthesizes the window's permutation optimally, and
    substitutes the result when strictly shorter.  Windows containing
    non-Toffoli gates are skipped.
    """
    if max_window_lines > 3:
        raise ValueError(
            "peephole windows span at most 3 lines; 4-line windows "
            "(within the ball's 5-gate reach) are not wired in yet"
        )
    cache = {} if _cache is None else _cache
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        for start in range(len(gates)):
            if changed:
                break
            for stop in range(
                min(len(gates), start + max_window_gates), start + 1, -1
            ):
                window = gates[start:stop]
                if not all(isinstance(g, ToffoliGate) for g in window):
                    continue
                support = _window_support(window)
                lines = list(bits_of(support))
                if len(lines) > max_window_lines:
                    continue
                local = _local_permutation(window, lines)
                key = tuple(local.images)
                if key not in cache:
                    cache[key] = optimal_synthesize(
                        local, NCT, max_gates=max_window_gates
                    )
                replacement = cache[key]
                if replacement is None:
                    continue
                if replacement.gate_count() < len(window):
                    rebuilt = [
                        ToffoliGate(
                            _relift_mask(g.controls, lines),
                            lines[g.target],
                        )
                        for g in replacement.gates
                    ]
                    gates[start:stop] = rebuilt
                    changed = True
                    break
    return Circuit(circuit.num_lines, gates)


def _relift_mask(local_mask: int, lines: list[int]) -> int:
    mask = 0
    for slot, line in enumerate(lines):
        if local_mask >> slot & 1:
            mask |= bit(line)
    return mask


def simplify(
    circuit: Circuit,
    max_window_gates: int = 6,
    use_peephole: bool = True,
) -> Circuit:
    """Run all rewrites to a fixpoint; the result computes the same
    function with never more gates."""
    cache: dict = {}
    current = circuit
    while True:
        before = current.gate_count()
        current = cancel_duplicates(current)
        if use_peephole:
            current = peephole_optimize(
                current, max_window_gates=max_window_gates, _cache=cache
            )
        if current.gate_count() >= before:
            return current
