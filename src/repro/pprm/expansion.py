"""Single-output PPRM expansions.

The positive-polarity Reed-Muller (PPRM) expansion of a Boolean function
(equation (2) of the paper) is an XOR of product terms with coefficients
in {0, 1}.  Because the expansion is canonical, it is fully described by
the *set* of terms with coefficient 1.  :class:`Expansion` is an
immutable wrapper around a ``frozenset`` of term masks with the algebra
the synthesis algorithm needs: XOR, multiplication by a term, and the
substitution ``v := v XOR factor``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.pprm.term import (
    CONSTANT_ONE,
    evaluate_term,
    format_term,
    term_sort_key,
)
from repro.utils.bitops import bit, bits_of

__all__ = ["Expansion"]


class Expansion:
    """An XOR-of-product-terms expression over positive literals.

    Instances are immutable and hashable; all operations return new
    expansions.  The empty expansion represents the constant 0.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[int] = ()):
        if isinstance(terms, frozenset):
            # A frozenset of *distinct* masks is already canonical (no
            # term can appear twice), so no XOR-cancellation pass is
            # needed — but the contents still have to be term masks.
            # Internal algebra bypasses this check via ``_make``.
            for term in terms:
                if type(term) is not int or term < 0:
                    raise ValueError(
                        f"term masks must be non-negative ints, got {term!r}"
                    )
            self._terms = terms
        else:
            # XOR semantics: a term appearing an even number of times
            # cancels.  Build by symmetric difference so that callers can
            # pass raw term lists from algebraic expansion.
            acc: set[int] = set()
            for term in terms:
                if type(term) is not int or term < 0:
                    raise ValueError(
                        f"term masks must be non-negative ints, got {term!r}"
                    )
                if term in acc:
                    acc.discard(term)
                else:
                    acc.add(term)
            self._terms = frozenset(acc)

    @classmethod
    def _make(cls, terms: frozenset) -> "Expansion":
        # Trusted fast path for algebra results whose terms are already
        # validated masks; skips ``__init__`` entirely.
        self = object.__new__(cls)
        self._terms = terms
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Expansion":
        """Return the constant-0 expansion (no terms)."""
        return cls._make(frozenset())

    @classmethod
    def one(cls) -> "Expansion":
        """Return the constant-1 expansion."""
        return cls._make(frozenset((CONSTANT_ONE,)))

    @classmethod
    def variable(cls, index: int) -> "Expansion":
        """Return the expansion consisting of the single literal
        ``x_index``."""
        return cls._make(frozenset((bit(index),)))

    @classmethod
    def from_bits(cls, bits: int) -> "Expansion":
        """Inverse of :meth:`to_bits`."""
        return cls._make(frozenset(bits_of(bits)))

    # -- basic queries --------------------------------------------------

    @property
    def terms(self) -> frozenset[int]:
        """The set of term masks with coefficient 1."""
        return self._terms

    def term_count(self) -> int:
        """Return the number of terms (the paper's ``terms`` counter)."""
        return len(self._terms)

    def is_zero(self) -> bool:
        """Return ``True`` for the constant-0 expansion."""
        return not self._terms

    def is_variable(self, index: int) -> bool:
        """Return ``True`` if the expansion is exactly the literal
        ``x_index`` — the per-output identity condition."""
        return self._terms == frozenset((bit(index),))

    def contains_term(self, term: int) -> bool:
        """Return ``True`` if ``term`` has coefficient 1."""
        return term in self._terms

    def support(self) -> int:
        """Return the mask of variables appearing in any term."""
        mask = 0
        for term in self._terms:
            mask |= term
        return mask

    def degree(self) -> int:
        """Return the largest literal count over all terms (0 if empty)."""
        return max((term.bit_count() for term in self._terms), default=0)

    def dedupe_key(self) -> frozenset[int]:
        """Canonical hashable identity: the term frozenset."""
        return self._terms

    def to_bits(self) -> int:
        """The bitset form: bit ``t`` set exactly when term ``t`` has
        coefficient 1.  It is the store key's and the portfolio
        payload's wire form, and the packed and lane search states are
        built from it."""
        return sum(1 << term for term in self._terms)

    def iter_terms(self) -> Iterator[int]:
        """Yield term masks in increasing mask order (the canonical
        enumeration order)."""
        return iter(sorted(self._terms))

    # -- algebra ---------------------------------------------------------

    def __xor__(self, other: "Expansion") -> "Expansion":
        if not isinstance(other, Expansion):
            return NotImplemented
        return Expansion._make(self._terms ^ other._terms)

    def multiply_term(self, term: int) -> "Expansion":
        """Return the product of this expansion with a single term.

        Multiplication distributes over XOR; the per-term product is the
        union of literal sets.  Distinct terms can collide after the
        union, in which case they cancel pairwise.
        """
        result: set[int] = set()
        for own in self._terms:
            product = own | term
            if product in result:
                result.discard(product)
            else:
                result.add(product)
        return Expansion._make(frozenset(result))

    def substitute(self, index: int, factor: int) -> "Expansion":
        """Apply the substitution ``x_index := x_index XOR factor``.

        Every term ``t`` containing ``x_index`` rewrites as
        ``t XOR (t \\ x_index) * factor``; terms without ``x_index`` are
        unchanged.  ``factor`` is a term mask that must not contain
        ``x_index`` (a Toffoli gate's target cannot also be a control).
        """
        var = bit(index)
        if factor & var:
            raise ValueError(
                f"factor {format_term(factor)} contains the target variable "
                f"{format_term(var)}"
            )
        if not any(term & var for term in self._terms):
            return self
        delta: set[int] = set()
        for term in self._terms:
            if term & var:
                new_term = (term ^ var) | factor
                if new_term in delta:
                    delta.discard(new_term)
                else:
                    delta.add(new_term)
        return Expansion._make(self._terms ^ frozenset(delta))

    # -- evaluation -------------------------------------------------------

    def evaluate(self, assignment: int) -> int:
        """Evaluate the expansion (0 or 1) on an input assignment."""
        value = 0
        for term in self._terms:
            value ^= evaluate_term(term, assignment)
        return value

    # -- container protocol / dunder -------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._terms, key=term_sort_key))

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: int) -> bool:
        return term in self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expansion):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(format_term(term) for term in self)

    def __repr__(self) -> str:
        return f"Expansion({str(self)!r})"
