"""Shift/mask tables for the bitset form of PPRM expansions.

A PPRM expansion over ``n`` variables is a dense GF(2) vector of length
``2^n`` — one coefficient per product term.  Its bitset form
(:meth:`repro.pprm.expansion.Expansion.to_bits`) stores the whole
vector in a single Python big integer: **bit ``t`` is set exactly when
the term with mask ``t`` has coefficient 1**.  The packed and lane
search states of :mod:`repro.pprm.engine` are made of these ints, and
on them the paper's inner-loop substitution ``v := v XOR factor``
becomes a short sequence of shift/mask folds instead of a per-term set
rewrite.

The shift/mask identities (all positions are term masks):

* ``t -> t ^ var`` for terms containing ``var`` is a right shift of the
  selected bits by ``2^index`` (= the ``var`` mask itself);
* ``t -> t | bit_j`` is the fold ``(x & S_j) ^ ((x & ~S_j) << 2^j)``
  where ``S_j`` selects the positions whose mask contains bit ``j`` —
  positions that already contain the literal stay put, the rest shift
  up onto them, and the XOR performs the pairwise term cancellation
  of the frozenset algebra for free.

The per-variable selector masks ``S_j`` depend only on ``num_vars``;
:func:`tables_for` builds them once per variable count and caches them
(`the table cache` of docs/architecture.md).
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "PACKED_MAX_VARS",
    "PackedTables",
    "tables_for",
]

#: Widest system the bitset tables accept.  An expansion over ``n``
#: variables is a ``2^n``-bit integer, so the encoding is dense in the
#: term space: 24 variables already means 2 MiB per selector mask.
#: Wider systems (e.g. the 30-line shift28 benchmark, whose PPRM is
#: sparse but whose term space is 2^30) must stay on the reference
#: frozenset backend.
PACKED_MAX_VARS = 24

#: Most factors one :class:`PackedTables` caches folds for: every
#: factor of a 12-variable search (the widest the search runs packed).
FOLD_CACHE_SIZE = 1 << 12


class PackedTables:
    """Shift/mask tables for one variable count.

    ``var_masks[i]`` selects every bit position (term mask) containing
    variable ``i``; ``full`` selects all ``2^num_vars`` positions.
    """

    __slots__ = ("num_vars", "size", "full", "var_masks", "_folds")

    def __init__(self, num_vars: int):
        if num_vars < 1:
            raise ValueError("packed expansions need num_vars >= 1")
        if num_vars > PACKED_MAX_VARS:
            raise ValueError(
                f"the packed backend supports at most {PACKED_MAX_VARS} "
                f"variables (dense 2^n-bit encoding), got {num_vars}; "
                f"use the reference engine for wider systems"
            )
        self.num_vars = num_vars
        self.size = 1 << num_vars
        self.full = (1 << self.size) - 1
        masks = []
        for index in range(num_vars):
            block = 1 << index  # 2^index positions per half-period
            pattern = ((1 << block) - 1) << block
            period = block << 1
            mask = 0
            for base in range(0, self.size, period):
                mask |= pattern << base
            masks.append(mask)
        self.var_masks = tuple(masks)
        self._folds: dict[int, tuple] = {}

    def folds(self, factor: int) -> tuple:
        """The ``t -> t | bit_j`` folds that multiply by ``factor``.

        One ``(2^j, S_j, full ^ S_j)`` triple per literal ``j`` of the
        factor, lowest first.  Cached per factor because the search
        applies the same few factors to every state it expands; the
        cache is capped so wide tables cannot grow it without bound.
        """
        folds = self._folds.get(factor)
        if folds is None:
            folds = []
            remaining = factor
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                keep = self.var_masks[low.bit_length() - 1]
                folds.append((low, keep, self.full ^ keep))
            folds = tuple(folds)
            if len(self._folds) < FOLD_CACHE_SIZE:
                self._folds[factor] = folds
        return folds


@lru_cache(maxsize=None)
def tables_for(num_vars: int) -> PackedTables:
    """Return the (cached) shift/mask tables for ``num_vars``."""
    return PackedTables(num_vars)
