"""Parsing and formatting of PPRM expansions in the paper's notation.

The paper writes expansions like ``b (+) c (+) ac`` (equation (3)).  The
parser accepts ``+``, ``^``, ``(+)`` and the Unicode XOR sign as
separators, single-letter variable names ``a``-``z`` (and ``x<k>`` for
larger indices), and the constant ``1``.  Multi-output systems are
written one line per output, e.g. ``c_out = b + ab + ac``.
"""

from __future__ import annotations

import re

from repro.pprm.expansion import Expansion
from repro.pprm.system import PPRMSystem
from repro.pprm.term import CONSTANT_ONE, variable_index, variable_name
from repro.utils.bitops import bit

__all__ = [
    "parse_term",
    "parse_expansion",
    "parse_system",
    "format_expansion",
    "format_system",
]

_XOR_SEPARATORS = re.compile(r"\(\+\)|⊕|\^|\+")
_TERM_TOKEN = re.compile(r"x\d+|[a-z]|1|0")


def parse_term(text: str) -> int:
    """Parse a single product term such as ``abc``, ``x12ab``, or ``1``."""
    text = text.replace(" ", "").replace("*", "").replace("·", "")
    if not text:
        raise ValueError("empty product term")
    mask = 0
    position = 0
    saw_constant = False
    while position < len(text):
        match = _TERM_TOKEN.match(text, position)
        if not match:
            raise ValueError(f"unrecognized token at {text[position:]!r}")
        token = match.group()
        position = match.end()
        if token == "1":
            saw_constant = True
        elif token == "0":
            raise ValueError("0 is not a valid product term; omit the term")
        else:
            literal = bit(variable_index(token))
            if mask & literal:
                raise ValueError(f"duplicate literal {token!r} in {text!r}")
            mask |= literal
    if saw_constant and mask:
        # "1ab" is legal algebra (1 * ab == ab) but almost certainly a typo.
        raise ValueError(f"constant 1 mixed with literals in {text!r}")
    return CONSTANT_ONE if saw_constant else mask


def parse_expansion(text: str) -> Expansion:
    """Parse an expansion such as ``b + c + ac`` or ``a ^ 1``.

    Repeated terms cancel in pairs, consistent with XOR algebra, and the
    text ``0`` denotes the empty (constant-0) expansion.
    """
    text = text.strip()
    if text in ("", "0"):
        return Expansion.zero()
    terms = []
    for chunk in _XOR_SEPARATORS.split(text):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty XOR operand in {text!r}")
        terms.append(parse_term(chunk))
    return Expansion(terms)


def parse_system(text: str) -> PPRMSystem:
    """Parse a multi-line, multi-output PPRM system.

    Each non-empty line must have the form ``<var>_out = <expansion>``
    (``<var>out`` and a bare ``<var>`` on the left are also accepted).
    Every output variable of the system must be given exactly once, and
    the system is square: the number of lines fixes the variable count.
    """
    assignments: dict[int, Expansion] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"expected '<var>_out = ...', got {line!r}")
        left, right = line.split("=", 1)
        name = left.strip()
        for suffix in ("_out", "out", "_o"):
            if name.endswith(suffix) and len(name) > len(suffix):
                name = name[: -len(suffix)]
                break
        index = variable_index(name)
        if index in assignments:
            raise ValueError(f"output {name!r} defined twice")
        assignments[index] = parse_expansion(right)
    if not assignments:
        raise ValueError("no output definitions found")
    num_vars = len(assignments)
    missing = [variable_name(i) for i in range(num_vars) if i not in assignments]
    if missing:
        raise ValueError(
            f"system of {num_vars} outputs is missing definitions for "
            f"{', '.join(missing)}"
        )
    return PPRMSystem([assignments[i] for i in range(num_vars)])


def format_expansion(expansion: Expansion, xor: str = " + ") -> str:
    """Format an expansion with a configurable XOR separator."""
    if expansion.is_zero():
        return "0"
    return xor.join(str(expansion).split(" + "))


def format_system(system: PPRMSystem, xor: str = " + ") -> str:
    """Format a system one output per line, most significant first."""
    lines = []
    for index in reversed(range(system.num_vars)):
        name = variable_name(index)
        lines.append(f"{name}_out = {format_expansion(system.output(index), xor)}")
    return "\n".join(lines)
