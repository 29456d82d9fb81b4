"""Backend-agnostic PPRM engine seam.

Everything above the PPRM algebra (search, portfolio, kernels, CLI)
talks to expansions through a :class:`PPRMEngine`: a factory plus the
handful of operations the paper's search actually needs — xor,
``multiply_term``, ``substitute``, canonical term iteration, a
canonical hashable dedupe key, and a serialization form shared by all
backends (the packed big-integer bitset, bit ``t`` set ⇔ term ``t``
present).

The search itself runs on raw **states**: the per-output tuple that is
a system's dedupe key (bitset ints for packed, term frozensets for
reference).  :meth:`PPRMEngine.substitute_state` applies one
substitution to every output of a state in a single call,
:meth:`PPRMEngine.state_term_count` counts its terms, and
:meth:`PPRMEngine.system_from_state` builds a :class:`PPRMSystem` only
for the children a search keeps (see "Count before you materialize" in
``docs/architecture.md``).

Two engines ship:

* ``reference`` — the frozenset algebra of
  :class:`repro.pprm.expansion.Expansion`; the differential oracle.
* ``packed`` — :class:`repro.pprm.packed.PackedExpansion`; one big int
  per expansion, shift/mask substitution (see
  ``docs/architecture.md``).

Construction helpers default to ``reference`` so spec-building code
stays backend-stable.  The backend a *search* runs on is picked from
the input width by :func:`search_engine`, whose one caller is
``repro.synth.rmrls._as_system``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Sequence

from repro.pprm.expansion import Expansion
from repro.pprm.packed import PackedExpansion, tables_for
from repro.pprm.system import PPRMSystem
from repro.pprm.term import format_term
from repro.pprm.transform import mobius_transform
from repro.utils.bitops import bits_of

__all__ = [
    "ENGINES",
    "PPRMEngine",
    "PackedEngine",
    "ReferenceEngine",
    "SEARCH_PACKED_MAX_VARS",
    "get_engine",
    "resolve_engine",
    "search_engine",
]


class PPRMEngine(ABC):
    """The operations a PPRM backend must provide.

    An "expansion" here is whatever the backend's :meth:`from_terms`
    returns; the search only relies on the shared expansion API
    (``substitute``/``multiply_term``/``__xor__``/queries) plus the
    engine-level constructors and the serialization pair
    :meth:`pack`/:meth:`unpack`.
    """

    name: str

    # -- constructors ---------------------------------------------------

    @abstractmethod
    def zero(self, num_vars: int):
        """Return the constant-0 expansion."""

    @abstractmethod
    def one(self, num_vars: int):
        """Return the constant-1 expansion."""

    @abstractmethod
    def variable(self, index: int, num_vars: int):
        """Return the single-literal expansion ``x_index``."""

    @abstractmethod
    def from_terms(self, terms: Iterable[int], num_vars: int):
        """Build an expansion from term masks (pairs XOR-cancel)."""

    @abstractmethod
    def from_truth_vector(self, values: Sequence[int]):
        """Möbius-transform a truth vector into an expansion."""

    # -- algebra (delegates; here so the protocol is self-contained) ----

    def xor(self, a, b):
        """GF(2) sum of two same-backend expansions."""
        return a ^ b

    def multiply_term(self, a, term: int):
        """Product of an expansion with one term mask."""
        return a.multiply_term(term)

    def substitute(self, a, index: int, factor: int):
        """Apply ``x_index := x_index XOR factor`` to ``a``."""
        return a.substitute(index, factor)

    # -- queries --------------------------------------------------------

    def iter_terms(self, a) -> Iterator[int]:
        """Term masks in the canonical (increasing-mask) order."""
        return a.iter_terms()

    def term_count(self, a) -> int:
        """Number of terms with coefficient 1."""
        return a.term_count()

    def dedupe_key(self, a):
        """Canonical hashable identity for visited-set probes."""
        return a.dedupe_key()

    # -- serialization --------------------------------------------------

    @abstractmethod
    def pack(self, a) -> int:
        """Serialize to the shared wire form: the big-int bitset."""

    @abstractmethod
    def unpack(self, bits: int, num_vars: int):
        """Deserialize the big-int bitset into this backend."""

    # -- conversion -----------------------------------------------------

    @abstractmethod
    def convert(self, expansion, num_vars: int):
        """Re-express an any-backend expansion in this backend."""

    def convert_system(self, system):
        """Return ``system`` with every output in this backend.

        No-op (same object) when the system already uses this engine.
        """
        if system.engine_name == self.name:
            return system
        num_vars = system.num_vars
        return type(system)(
            [self.convert(output, num_vars) for output in system.outputs]
        )

    def unpack_system(self, packed_outputs: Sequence[int], num_vars: int):
        """Rebuild a system from per-output big-int bitsets."""
        return PPRMSystem(
            [self.unpack(bits, num_vars) for bits in packed_outputs]
        )

    # -- search states --------------------------------------------------
    #
    # A state is ``system.dedupe_key()``: one raw backend value per
    # output.  Reversible systems are square, so ``len(state)`` is the
    # variable count.

    def identity_state(self, num_vars: int) -> tuple:
        """The state of the identity system ``v_out,i = v_i``."""
        return tuple(
            self.variable(index, num_vars).dedupe_key()
            for index in range(num_vars)
        )

    @abstractmethod
    def substitute_state(self, state: tuple, index: int, factor: int) -> tuple:
        """Apply ``x_index := x_index XOR factor`` to every output of
        ``state``; same result and same ``ValueError`` checks as
        :meth:`PPRMSystem.substitute`."""

    @abstractmethod
    def state_term_count(self, state: tuple) -> int:
        """Total number of terms across the outputs of ``state``."""

    @abstractmethod
    def output_terms(self, raw) -> list[int]:
        """One output's term masks in increasing order."""

    @abstractmethod
    def system_from_state(self, state: tuple) -> PPRMSystem:
        """Build the :class:`PPRMSystem` whose dedupe key is ``state``."""


class ReferenceEngine(PPRMEngine):
    """The frozenset-of-masks algebra — the differential oracle."""

    name = "reference"

    def zero(self, num_vars: int) -> Expansion:
        return Expansion.zero()

    def one(self, num_vars: int) -> Expansion:
        return Expansion.one()

    def variable(self, index: int, num_vars: int) -> Expansion:
        return Expansion.variable(index)

    def from_terms(self, terms: Iterable[int], num_vars: int) -> Expansion:
        return Expansion(terms)

    def from_truth_vector(self, values: Sequence[int]) -> Expansion:
        coefficients = mobius_transform(list(values))
        return Expansion._make(
            frozenset(
                term for term, coeff in enumerate(coefficients) if coeff
            )
        )

    def substitute_state(self, state: tuple, index: int, factor: int) -> tuple:
        var = 1 << index
        if factor & var:
            raise ValueError(
                f"factor {format_term(factor)} contains the target "
                f"variable {format_term(var)}"
            )
        children = []
        for terms in state:
            # Same rewrite as Expansion.substitute: every term holding
            # the target moves to (term \ target) * factor, colliding
            # images cancel pairwise, and the moved set is XORed in.
            delta = None
            for term in terms:
                if term & var:
                    image = (term ^ var) | factor
                    if delta is None:
                        delta = {image}
                    elif image in delta:
                        delta.discard(image)
                    else:
                        delta.add(image)
            children.append(terms if delta is None else terms ^ delta)
        return tuple(children)

    def state_term_count(self, state: tuple) -> int:
        return sum(map(len, state))

    def output_terms(self, raw: frozenset) -> list[int]:
        return sorted(raw)

    def system_from_state(self, state: tuple) -> PPRMSystem:
        make = Expansion._make
        return PPRMSystem([make(terms) for terms in state])

    def pack(self, a: Expansion) -> int:
        bits = 0
        for term in a.terms:
            bits |= 1 << term
        return bits

    def unpack(self, bits: int, num_vars: int) -> Expansion:
        return Expansion._make(frozenset(bits_of(bits)))

    def convert(self, expansion, num_vars: int) -> Expansion:
        if isinstance(expansion, Expansion):
            return expansion
        return Expansion._make(frozenset(expansion.iter_terms()))


class PackedEngine(PPRMEngine):
    """The big-integer bitset backend of :mod:`repro.pprm.packed`."""

    name = "packed"

    def zero(self, num_vars: int) -> PackedExpansion:
        return PackedExpansion.zero(num_vars)

    def one(self, num_vars: int) -> PackedExpansion:
        return PackedExpansion.one(num_vars)

    def variable(self, index: int, num_vars: int) -> PackedExpansion:
        return PackedExpansion.variable(index, num_vars)

    def from_terms(
        self, terms: Iterable[int], num_vars: int
    ) -> PackedExpansion:
        return PackedExpansion.from_terms(terms, num_vars)

    def from_truth_vector(self, values: Sequence[int]) -> PackedExpansion:
        coefficients = mobius_transform(list(values))
        num_vars = max(1, (len(values) - 1).bit_length())
        bits = 0
        for term, coeff in enumerate(coefficients):
            if coeff:
                bits |= 1 << term
        return PackedExpansion._make(bits, tables_for(num_vars))

    def substitute_state(self, state: tuple, index: int, factor: int) -> tuple:
        var = 1 << index
        if factor & var:
            raise ValueError(
                f"factor {format_term(factor)} contains the target "
                f"variable {format_term(var)}"
            )
        tables = tables_for(len(state))
        if index >= tables.num_vars or factor >= tables.size:
            raise ValueError(
                f"substitution x{index} ^= {format_term(factor)} exceeds "
                f"num_vars={tables.num_vars}"
            )
        selector = tables.var_masks[index]
        folds = tables.folds(factor)
        children = []
        for bits in state:
            moved = bits & selector
            if moved:
                # Same shift/mask folds as PackedExpansion.substitute.
                moved >>= var
                for low, keep, lift in folds:
                    moved = (moved & keep) ^ ((moved & lift) << low)
                bits ^= moved
            children.append(bits)
        return tuple(children)

    def state_term_count(self, state: tuple) -> int:
        return sum(map(int.bit_count, state))

    def output_terms(self, raw: int) -> list[int]:
        return list(bits_of(raw))

    def system_from_state(self, state: tuple) -> PPRMSystem:
        tables = tables_for(len(state))
        make = PackedExpansion._make
        return PPRMSystem([make(bits, tables) for bits in state])

    def pack(self, a: PackedExpansion) -> int:
        return a.bits

    def unpack(self, bits: int, num_vars: int) -> PackedExpansion:
        return PackedExpansion(bits, num_vars)

    def convert(self, expansion, num_vars: int) -> PackedExpansion:
        if isinstance(expansion, PackedExpansion):
            if expansion.num_vars == num_vars:
                return expansion
            return PackedExpansion(expansion.bits, num_vars)
        return PackedExpansion.from_terms(expansion.terms, num_vars)


ENGINES: dict[str, PPRMEngine] = {
    engine.name: engine for engine in (ReferenceEngine(), PackedEngine())
}


def get_engine(name: str) -> PPRMEngine:
    """Look up an engine by name; raise ``ValueError`` on unknowns."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown PPRM engine {name!r}; "
            f"known: {', '.join(sorted(ENGINES))}"
        ) from None


def resolve_engine(engine=None) -> PPRMEngine:
    """Resolve an engine argument: name, instance, or ``None``.

    ``None`` means ``reference``, the construction-time default.
    """
    if engine is None:
        return ENGINES["reference"]
    if isinstance(engine, str):
        return get_engine(engine)
    if isinstance(engine, PPRMEngine):
        return engine
    raise TypeError(f"cannot resolve a PPRM engine from {engine!r}")


#: Widest input the search runs on the packed backend.  Packed
#: substitution shifts whole ``2^n``-bit integers, so its cost grows
#: with the term space while reference's grows with the live terms.
#: Crossover table (docs/architecture.md, ``TABLE4_OPTIONS``, equal
#: steps and gates), packed ÷ reference steps/s: 1.42–2.47× at 11–12
#: variables (graycode, shifter, mod64adder, shift10), 0.92–1.37× at
#: 13, 0.03–0.65× at 14–20 (graycode20: 0.03×).
#: :data:`~repro.pprm.packed.PACKED_MAX_VARS` is the encoding's hard
#: limit, not a speed rule.
SEARCH_PACKED_MAX_VARS = 12


def search_engine(num_vars: int) -> PPRMEngine:
    """The backend a search over ``num_vars`` variables runs on."""
    if num_vars <= SEARCH_PACKED_MAX_VARS:
        return ENGINES["packed"]
    return ENGINES["reference"]
