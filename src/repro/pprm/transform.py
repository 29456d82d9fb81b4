"""Conversions between truth tables and PPRM expansions.

For a completely specified Boolean function the PPRM expansion is
canonical, and its coefficients are given by the binary Mobius (positive
Reed-Muller) transform of the truth vector:

    a_S = XOR over T subset of S of f(T)

computed here with the standard in-place butterfly in O(n * 2^n).  The
paper obtains PPRMs by running EXORCISM-4 and converting the resulting
ESOP; for completely specified functions both routes yield the same
canonical expansion (see DESIGN.md, substitutions table), and the ESOP
route is also available via :mod:`repro.esop`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.pprm.expansion import Expansion

__all__ = [
    "mobius_transform",
    "inverse_mobius_transform",
    "truth_vector_to_expansion",
    "expansion_to_truth_vector",
]


def _validated_num_vars(vector_length: int) -> int:
    num_vars = (vector_length - 1).bit_length() if vector_length else -1
    if vector_length <= 0 or vector_length != 1 << num_vars:
        raise ValueError(
            f"truth vector length must be a power of two, got {vector_length}"
        )
    return num_vars


def mobius_transform(values: Sequence[int]) -> list[int]:
    """Return the PPRM coefficient vector of a truth vector.

    ``values[m]`` is the function value on assignment ``m``; the result's
    entry ``m`` is the coefficient of the product term with mask ``m``.
    The transform is an involution over GF(2).
    """
    num_vars = _validated_num_vars(len(values))
    coeffs = [value & 1 for value in values]
    for level in range(num_vars):
        step = 1 << level
        for base in range(0, len(coeffs), step << 1):
            for offset in range(base, base + step):
                coeffs[offset + step] ^= coeffs[offset]
    return coeffs


def inverse_mobius_transform(coeffs: Sequence[int]) -> list[int]:
    """Return the truth vector of a PPRM coefficient vector.

    Over GF(2) the Mobius transform is self-inverse, so this is the same
    butterfly; the separate name keeps call sites readable.
    """
    return mobius_transform(coeffs)


def truth_vector_to_expansion(values: Sequence[int]) -> Expansion:
    """Convert a single-output truth vector into an expansion."""
    coeffs = mobius_transform(values)
    return Expansion._make(
        frozenset(mask for mask, coeff in enumerate(coeffs) if coeff)
    )


def expansion_to_truth_vector(expansion: Expansion, num_vars: int) -> list[int]:
    """Evaluate ``expansion`` on every assignment over ``num_vars``.

    Uses the inverse transform rather than per-assignment evaluation, so
    the cost is O(n * 2^n) regardless of how many terms the expansion
    has.
    """
    size = 1 << num_vars
    coeffs = [0] * size
    for term in expansion.iter_terms():
        if term >= size:
            raise ValueError(
                f"term mask {term:#x} uses variables beyond num_vars={num_vars}"
            )
        coeffs[term] = 1
    return inverse_mobius_transform(coeffs)
