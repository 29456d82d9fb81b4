"""Packed big-integer PPRM expansions.

A PPRM expansion over ``n`` variables is a dense GF(2) vector of length
``2^n`` — one coefficient per product term.  :class:`PackedExpansion`
stores the whole vector in a single Python big integer: **bit ``t`` is
set exactly when the term with mask ``t`` has coefficient 1**.  XOR of
two expansions is then one machine-level integer XOR, and the paper's
inner-loop substitution ``v := v XOR factor`` becomes a short sequence
of shift/mask folds instead of a per-term set rewrite.

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

from collections.abc import Iterable, Iterator
from functools import lru_cache

from repro.pprm.term import CONSTANT_ONE, format_term, term_sort_key
from repro.utils.bitops import bits_of

__all__ = [
    "PACKED_MAX_VARS",
    "PackedExpansion",
    "PackedTables",
    "tables_for",
]

#: Widest system the packed backend accepts.  An expansion over ``n``
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


class PackedExpansion:
    """An XOR-of-product-terms expression stored as one big integer.

    API-compatible with :class:`repro.pprm.expansion.Expansion` (same
    queries, same algebra, same string form) so the two backends are
    interchangeable behind the :mod:`repro.pprm.engine` seam.  Unlike
    the frozenset backend an instance is bound to a variable count,
    which sizes its shift/mask tables; the bit encoding itself is
    independent of ``num_vars``, so equality and dedupe keys compare
    raw integers.

    Equality with the frozenset backend is deliberately *not*
    supported: cross-backend ``==`` would force the packed hash to
    match ``hash(frozenset(terms))`` and forfeit the O(1) dedupe key
    that is the point of this backend.  Convert explicitly through an
    engine instead.
    """

    __slots__ = ("_bits", "_tables")

    def __init__(self, bits: int, num_vars: int):
        tables = tables_for(num_vars)
        if not isinstance(bits, int) or bits < 0 or bits > tables.full:
            raise ValueError(
                f"bits must be an int in [0, 2^{tables.size}) for "
                f"num_vars={num_vars}"
            )
        self._bits = bits
        self._tables = tables

    @classmethod
    def _make(cls, bits: int, tables: PackedTables) -> "PackedExpansion":
        # Trusted fast path for algebra results: bits already validated
        # by construction (shifts never escape the table's range).
        self = object.__new__(cls)
        self._bits = bits
        self._tables = tables
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_terms(
        cls, terms: Iterable[int], num_vars: int
    ) -> "PackedExpansion":
        """Build from term masks with XOR semantics (pairs cancel)."""
        tables = tables_for(num_vars)
        bits = 0
        for term in terms:
            if not isinstance(term, int) or term < 0 or term >= tables.size:
                raise ValueError(
                    f"term mask {term!r} is not valid over "
                    f"num_vars={num_vars}"
                )
            bits ^= 1 << term
        return cls._make(bits, tables)

    @classmethod
    def zero(cls, num_vars: int) -> "PackedExpansion":
        """Return the constant-0 expansion (no bits set)."""
        return cls._make(0, tables_for(num_vars))

    @classmethod
    def one(cls, num_vars: int) -> "PackedExpansion":
        """Return the constant-1 expansion (bit of term mask 0)."""
        return cls._make(1 << CONSTANT_ONE, tables_for(num_vars))

    @classmethod
    def variable(cls, index: int, num_vars: int) -> "PackedExpansion":
        """Return the expansion of the single literal ``x_index``."""
        tables = tables_for(num_vars)
        if not 0 <= index < num_vars:
            raise ValueError(
                f"variable index {index} out of range for "
                f"num_vars={num_vars}"
            )
        return cls._make(1 << (1 << index), tables)

    # -- basic queries --------------------------------------------------

    @property
    def bits(self) -> int:
        """The raw bitset (bit ``t`` set ⇔ term ``t`` present) — the
        backend's serialization and dedupe form."""
        return self._bits

    @property
    def num_vars(self) -> int:
        """The variable count this expansion's tables are sized for."""
        return self._tables.num_vars

    @property
    def terms(self) -> frozenset[int]:
        """The set of term masks with coefficient 1 (materialized)."""
        return frozenset(bits_of(self._bits))

    def term_count(self) -> int:
        """Return the number of terms — one popcount."""
        return self._bits.bit_count()

    def is_zero(self) -> bool:
        """Return ``True`` for the constant-0 expansion."""
        return not self._bits

    def is_variable(self, index: int) -> bool:
        """Return ``True`` if the expansion is exactly ``x_index``."""
        return self._bits == 1 << (1 << index)

    def contains_term(self, term: int) -> bool:
        """Return ``True`` if ``term`` has coefficient 1."""
        return bool(self._bits >> term & 1)

    def support(self) -> int:
        """Return the mask of variables appearing in any term."""
        bits = self._bits
        mask = 0
        for index, selector in enumerate(self._tables.var_masks):
            if bits & selector:
                mask |= 1 << index
        return mask

    def degree(self) -> int:
        """Return the largest literal count over all terms (0 if empty)."""
        return max(
            (term.bit_count() for term in bits_of(self._bits)), default=0
        )

    def dedupe_key(self) -> int:
        """Canonical hashable identity: the raw bitset."""
        return self._bits

    def iter_terms(self) -> Iterator[int]:
        """Yield term masks in increasing mask order (the canonical
        enumeration order shared by every backend)."""
        return bits_of(self._bits)

    # -- algebra ---------------------------------------------------------

    def __xor__(self, other: "PackedExpansion") -> "PackedExpansion":
        if not isinstance(other, PackedExpansion):
            return NotImplemented
        tables = self._tables
        if other._tables.num_vars > tables.num_vars:
            tables = other._tables
        return PackedExpansion._make(self._bits ^ other._bits, tables)

    def multiply_term(self, term: int) -> "PackedExpansion":
        """Return the product with a single term (pairs cancel)."""
        tables = self._tables
        if term < 0 or term >= tables.size:
            raise ValueError(
                f"term mask {term:#x} uses variables beyond "
                f"num_vars={tables.num_vars}"
            )
        bits = self._bits
        for low, keep, lift in tables.folds(term):
            # t -> t | bit_j: positions already containing the literal
            # stay, the rest shift onto them; XOR cancels collisions.
            bits = (bits & keep) ^ ((bits & lift) << low)
        return PackedExpansion._make(bits, tables)

    def substitute(self, index: int, factor: int) -> "PackedExpansion":
        """Apply ``x_index := x_index XOR factor`` (see
        :meth:`repro.pprm.expansion.Expansion.substitute`)."""
        var = 1 << index
        if factor & var:
            raise ValueError(
                f"factor {format_term(factor)} contains the target "
                f"variable {format_term(var)}"
            )
        tables = self._tables
        if index >= tables.num_vars or factor >= tables.size:
            raise ValueError(
                f"substitution x{index} ^= {format_term(factor)} exceeds "
                f"num_vars={tables.num_vars}"
            )
        selected = self._bits & tables.var_masks[index]
        if not selected:
            return self
        # Drop the target literal: position t moves to t - 2^index.
        moved = selected >> var
        for low, keep, lift in tables.folds(factor):
            moved = (moved & keep) ^ ((moved & lift) << low)
        return PackedExpansion._make(self._bits ^ moved, tables)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, assignment: int) -> int:
        """Evaluate the expansion (0 or 1) on an input assignment.

        A term contributes exactly when it is a subset of the
        assignment, so the value is the parity of the bits surviving
        the subset mask.
        """
        tables = self._tables
        mask = tables.full
        for index, selector in enumerate(tables.var_masks):
            if not assignment >> index & 1:
                mask &= ~selector
        return (self._bits & mask).bit_count() & 1

    # -- container protocol / dunder -------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(bits_of(self._bits), key=term_sort_key))

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __contains__(self, term: int) -> bool:
        return bool(self._bits >> term & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedExpansion):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __str__(self) -> str:
        if not self._bits:
            return "0"
        return " + ".join(format_term(term) for term in self)

    def __repr__(self) -> str:
        return f"PackedExpansion({str(self)!r})"
