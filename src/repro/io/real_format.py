"""RevLib ``.real`` circuit files.

The reversible-logic community (including Maslov's benchmark page [13],
the paper's comparison source) exchanges circuits in the RevLib *real*
format::

    # comment
    .version 2.0
    .numvars 3
    .variables a b c
    .begin
    t1 a
    t3 a b c
    f3 a b c
    .end

``t<n>`` is an n-bit Toffoli gate (last variable = target), ``f<n>`` an
n-bit Fredkin gate (last two variables = targets).  Negative controls
(``t2 -a b``) are accepted on input and rewritten as NOT sandwiches —
published RevLib files use them; this library's positive-polarity gate
set does not.  The writer emits positive-control gates only.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from repro.circuits.circuit import Circuit
from repro.gates.fredkin import FredkinGate
from repro.gates.toffoli import ToffoliGate
from repro.pprm.term import variable_name
from repro.utils.bitops import bit, indices_of

__all__ = ["dump_real", "load_real", "RealFormatError"]


class RealFormatError(ValueError):
    """Raised on malformed ``.real`` input."""


# Memoized: a serving process formats the same few hundred gate lines
# again and again.
@lru_cache(maxsize=4096)
def _gate_line(gate, names: tuple[str, ...]) -> str:
    if isinstance(gate, ToffoliGate):
        involved = [names[i] for i in indices_of(gate.controls)]
        involved.append(names[gate.target])
        return f"t{gate.size} " + " ".join(involved)
    if isinstance(gate, FredkinGate):
        involved = [names[i] for i in indices_of(gate.controls)]
        involved.extend(names[t] for t in gate.targets)
        return f"f{gate.size} " + " ".join(involved)
    raise TypeError(f"unsupported gate type: {type(gate).__name__}")


def dump_real(
    circuit: Circuit,
    names: list[str] | None = None,
    header_comments: Iterable[str] = (),
) -> str:
    """Serialize ``circuit`` as RevLib *real* text."""
    if names is None:
        names = [variable_name(i) for i in range(circuit.num_lines)]
    if len(names) != circuit.num_lines:
        raise ValueError(
            f"need {circuit.num_lines} names, got {len(names)}"
        )
    lines = [f"# {comment}" for comment in header_comments]
    lines.append(".version 2.0")
    lines.append(f".numvars {circuit.num_lines}")
    lines.append(".variables " + " ".join(names))
    lines.append(".begin")
    names = tuple(names)
    lines.extend(_gate_line(gate, names) for gate in circuit.gates)
    lines.append(".end")
    return "\n".join(lines) + "\n"


def load_real(text: str) -> Circuit:
    """Parse RevLib *real* text into a :class:`Circuit`.

    Supports ``t<n>`` and ``f<n>`` gates; other gate kinds raise
    :class:`RealFormatError`.  The ``.numvars``/``.variables`` headers
    are honoured; ``.inputs``/``.outputs``/``.constants``/``.garbage``
    annotations are accepted and ignored (they describe embeddings, not
    structure).
    """
    num_vars: int | None = None
    names: list[str] = []
    gates: list = []
    in_body = False
    ended = False

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def fail(message: str):
            raise RealFormatError(f"line {line_number}: {message}")

        if line.startswith("."):
            directive, _, rest = line.partition(" ")
            rest = rest.strip()
            if directive == ".numvars":
                try:
                    num_vars = int(rest)
                except ValueError:
                    fail(f"bad .numvars value {rest!r}")
                if num_vars < 1:
                    fail(".numvars must be positive")
            elif directive == ".variables":
                names = rest.split()
            elif directive == ".begin":
                if num_vars is None:
                    fail(".begin before .numvars")
                if not names:
                    names = [variable_name(i) for i in range(num_vars)]
                if len(names) != num_vars:
                    fail(
                        f".variables lists {len(names)} names for "
                        f".numvars {num_vars}"
                    )
                in_body = True
            elif directive == ".end":
                ended = True
                in_body = False
            # .version, .inputs, .outputs, .constants, .garbage,
            # .inputbus, etc. are metadata; skip them.
            continue

        if not in_body:
            fail(f"gate line outside .begin/.end: {line!r}")
        kind, *operands = line.split()
        index_of = {name: i for i, name in enumerate(names)}
        # RevLib marks negative controls with a leading '-'; they are
        # translated to NOT sandwiches around the positive-control gate
        # (x' as control == NOT x; gate; NOT x), preserving semantics in
        # the positive-polarity gate set this library works in.
        negatives: list[int] = []
        wires: list[int] = []
        for operand in operands:
            negative = operand.startswith("-")
            name = operand[1:] if negative else operand
            if name not in index_of:
                fail(f"unknown variable {name!r}")
            wire = index_of[name]
            wires.append(wire)
            if negative:
                negatives.append(wire)
        if not kind or kind[0] not in "tf" or not kind[1:].isdigit():
            fail(f"unsupported gate kind {kind!r}")
        size = int(kind[1:])
        if size != len(wires):
            fail(f"{kind} expects {size} operands, got {len(wires)}")
        if kind[0] == "t":
            if size < 1:
                fail("t gates need at least a target")
            if wires[-1] in negatives:
                fail("a target cannot be negated")
            controls = 0
            for wire in wires[:-1]:
                controls |= bit(wire)
            core = ToffoliGate(controls, wires[-1])
        else:
            if size < 2:
                fail("f gates need two targets")
            if wires[-1] in negatives or wires[-2] in negatives:
                fail("a target cannot be negated")
            controls = 0
            for wire in wires[:-2]:
                controls |= bit(wire)
            core = FredkinGate(controls, wires[-2], wires[-1])
        sandwich = [ToffoliGate(0, wire) for wire in negatives]
        gates.extend(sandwich)
        gates.append(core)
        gates.extend(reversed(sandwich))

    if num_vars is None:
        raise RealFormatError("missing .numvars header")
    if not ended:
        raise RealFormatError("missing .end")
    return Circuit(num_vars, gates)
