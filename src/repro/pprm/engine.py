"""The search-state engines.

The search runs on raw **states**, from the root to the result, and
talks to them through a :class:`PPRMEngine`.
:meth:`PPRMEngine.root_state` turns the specification's system (a
:class:`PPRMSystem` of reference :class:`Expansion` outputs, the one
expansion type) into a state, :meth:`PPRMEngine.substitute_state`
applies one substitution to every output of a state in a single call,
and :meth:`PPRMEngine.state_term_count` counts its terms.
:meth:`PPRMEngine.state_outputs` reads a state's outputs, a bitset each
(bit ``t`` set ⇔ term ``t`` present) on packed and lanes, a term
frozenset on reference.  That is all the candidate rule reads of a
state; the rule itself lives only in :mod:`repro.synth.substitutions`.
Per expansion the search makes one engine call,
:meth:`PPRMEngine.children`, which computes every candidate's child
state and term count (see "Count before you materialize" in
``docs/architecture.md``).  :meth:`PPRMEngine.system_from_state` builds
the reference system back from a state; the tests use it as the
oracle hook.

Three engines ship:

* ``reference`` — the frozenset algebra of
  :class:`repro.pprm.expansion.Expansion`; the differential oracle.
  Its state is the tuple of per-output term frozensets.
* ``packed`` — one bitset int per output, substituted with the
  shift/mask folds of :mod:`repro.pprm.packed` (see
  ``docs/architecture.md``).  Its state is the tuple of those ints.
* ``lanes`` — :class:`LaneEngine`, the packed bitsets in one int per
  *state*: output ``i`` in lane ``i`` of ``2^n`` bits.  It is bound to
  one width (:func:`lane_engine`), because a lone int does not carry
  its own.

The backend a search runs on is picked from the input width by
:func:`search_engine`: lanes up to :data:`SEARCH_LANES_MAX_VARS`
variables, packed up to :data:`SEARCH_PACKED_MAX_VARS`, reference
above.  Its callers are ``repro.synth.rmrls._Search``, which runs on
the engine it returns, and the portfolio driver, which names it in its
result.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from functools import lru_cache
from operator import eq

from repro.pprm.expansion import Expansion
from repro.pprm.packed import PackedTables, tables_for
from repro.pprm.system import PPRMSystem
from repro.pprm.term import format_term
from repro.utils.bitops import bits_of

__all__ = [
    "ENGINES",
    "LaneEngine",
    "PPRMEngine",
    "PackedEngine",
    "ReferenceEngine",
    "SEARCH_LANES_MAX_VARS",
    "SEARCH_PACKED_MAX_VARS",
    "lane_engine",
    "search_engine",
]


class PPRMEngine(ABC):
    """The state operations a search backend must provide.

    Reversible systems are square, so a state of ``n`` outputs is over
    ``n`` variables.
    """

    name: str

    @abstractmethod
    def root_state(self, system: PPRMSystem):
        """The state of ``system`` on this engine."""

    @lru_cache(maxsize=32)
    def identity_state(self, num_vars: int):
        """The state of the identity system ``v_out,i = v_i``."""
        return self.root_state(PPRMSystem.identity(num_vars))

    @abstractmethod
    def substitute_state(self, state, index: int, factor: int):
        """Apply ``x_index := x_index XOR factor`` to every output of
        ``state``; same result and same "contains the target"
        ``ValueError`` as :meth:`PPRMSystem.substitute`.  Packed and
        lanes also raise on a target or factor beyond their width."""

    @abstractmethod
    def state_term_count(self, state) -> int:
        """Total number of terms across the outputs of ``state``."""

    def state_outputs(self, state) -> Sequence:
        """The raw value of each output of ``state``, in output order:
        a bitset on packed and lanes, a term frozenset on reference."""
        return state

    def unsolved_count(self, state) -> int:
        """How many outputs of ``state`` differ from their identity
        output (the search's lower bound on the remaining gates)."""
        return len(state) - sum(
            map(eq, state, self.identity_state(len(state)))
        )

    @abstractmethod
    def system_from_state(self, state) -> PPRMSystem:
        """Build the reference :class:`PPRMSystem` whose state is
        ``state``."""

    # -- one expansion in batch -----------------------------------------
    #
    # The search makes one call per expansion.  This default runs the
    # per-state code above; :class:`LaneEngine` overrides it.

    def children(self, state, candidates) -> list[tuple]:
        """``(child_state, terms)`` of each candidate, in order: what
        :meth:`substitute_state` and :meth:`state_term_count` give,
        with the same ``ValueError`` on an invalid candidate."""
        substitute_state = self.substitute_state
        state_term_count = self.state_term_count
        children = []
        for target, factor, _ in candidates:
            child = substitute_state(state, target, factor)
            children.append((child, state_term_count(child)))
        return children


class ReferenceEngine(PPRMEngine):
    """The frozenset-of-masks algebra — the differential oracle."""

    name = "reference"

    def root_state(self, system: PPRMSystem) -> tuple:
        return system.dedupe_key()

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

    def system_from_state(self, state: tuple) -> PPRMSystem:
        make = Expansion._make
        return PPRMSystem([make(terms) for terms in state])


def _bitsets(system: PPRMSystem, tables: PackedTables) -> list[int]:
    """The bitset of each output of ``system``, checked against the
    width of ``tables``."""
    bitsets = [output.to_bits() for output in system.outputs]
    for bits in bitsets:
        if bits > tables.full:
            raise ValueError(
                f"a term of the system lies outside "
                f"num_vars={tables.num_vars}"
            )
    return bitsets


class PackedEngine(PPRMEngine):
    """One bitset int per output, substituted with the shift/mask folds
    of :mod:`repro.pprm.packed`."""

    name = "packed"

    def root_state(self, system: PPRMSystem) -> tuple:
        return tuple(_bitsets(system, tables_for(system.num_vars)))

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
                # Drop the target literal (position t moves to t - var),
                # multiply by the factor, and XOR the image in.
                moved >>= var
                for low, keep, lift in folds:
                    moved = (moved & keep) ^ ((moved & lift) << low)
                bits ^= moved
            children.append(bits)
        return tuple(children)

    def state_term_count(self, state: tuple) -> int:
        return sum(map(int.bit_count, state))

    def system_from_state(self, state) -> PPRMSystem:
        from_bits = Expansion.from_bits
        return PPRMSystem(
            [from_bits(bits) for bits in self.state_outputs(state)]
        )


class LaneEngine(PackedEngine):
    """The packed bitsets with one int per search state.

    The state of an ``n``-variable system is a single int of ``n``
    lanes of ``2^n`` bits, output ``i`` in lane ``i`` (bits
    ``i * 2^n`` up), each lane the output's packed bitset.  Term
    positions never leave their lane under the substitution folds, so
    one substitution is one mask, shift and fold sequence over the
    whole state with lane-replicated selector masks; the term count is
    one ``bit_count``, the identity test and the dedupe key are the int
    itself.  The fold runs over every lane, including lanes with no
    terms to move, so it loses to per-output :class:`PackedEngine` on
    wide sparse systems (see :data:`SEARCH_LANES_MAX_VARS`).

    A lone int does not carry its own width, so an instance is bound
    to one; get it from :func:`lane_engine`.
    """

    name = "lanes"
    state_term_count = staticmethod(int.bit_count)

    def __init__(self, num_vars: int):
        tables = tables_for(num_vars)
        size = tables.size
        self.num_vars = num_vars
        self._tables = tables
        self._offsets = tuple(range(0, num_vars * size, size))
        # Bit 0 of every lane; multiplying a one-lane mask by it
        # replicates the mask into every lane (no carries: the copies
        # do not overlap).
        bases = sum(1 << offset for offset in self._offsets)
        full = (1 << (num_vars * size)) - 1
        self._selectors = tuple(mask * bases for mask in tables.var_masks)
        # One (2^j, S_j, ~S_j) fold per literal j, lane-replicated.
        self._literal_folds = tuple(
            (1 << j, keep, full ^ keep)
            for j, keep in enumerate(self._selectors)
        )
        # Per target, the folds of each factor substituted on it so far;
        # only valid factors (no target literal, inside the width) get
        # in, so each holds at most 2^(num_vars - 1) entries.
        self._fold_tables = tuple({} for _ in range(num_vars))
        self._identity = sum(
            1 << ((1 << index) + offset)
            for index, offset in enumerate(self._offsets)
        )
        # Unsolved lanes are counted by carries: adding 2^M - 1 to a
        # lane of M bits carries out of it exactly when the lane is
        # nonzero.  Only every other lane is added at a time, so each
        # carry lands in an empty lane instead of the next lane's sum.
        even = sum(1 << offset for offset in self._offsets[::2])
        self._even_lanes = even * tables.full
        self._even_carries = even << size
        # state_outputs reads every lane in one expression, one shift
        # and mask per lane, compiled once per width: no loop and no
        # comprehension frame.  On the states of an 8-variable search
        # that takes 0.46 us against a list comprehension's 0.83 us
        # (Intel Xeon, CPython 3.11).
        reads = ", ".join(
            f"state >> {offset} & full" if offset else "state & full"
            for offset in self._offsets
        )
        self.state_outputs = eval(
            f"lambda state, full={tables.full}: ({reads},)"
        )

    def _check_width(self, num_vars: int) -> None:
        if num_vars != self.num_vars:
            raise ValueError(
                f"this lane engine is bound to num_vars={self.num_vars}, "
                f"got {num_vars}"
            )

    def root_state(self, system: PPRMSystem) -> int:
        self._check_width(system.num_vars)
        state = 0
        for offset, bits in zip(
            self._offsets, _bitsets(system, self._tables)
        ):
            state |= bits << offset
        return state

    def identity_state(self, num_vars: int) -> int:
        self._check_width(num_vars)
        return self._identity

    def substitute_state(self, state: int, index: int, factor: int) -> int:
        var = 1 << index
        if factor & var:
            raise ValueError(
                f"factor {format_term(factor)} contains the target "
                f"variable {format_term(var)}"
            )
        if index >= self.num_vars or factor >= self._tables.size:
            raise ValueError(
                f"substitution x{index} ^= {format_term(factor)} exceeds "
                f"num_vars={self.num_vars}"
            )
        folds = self._fold_tables[index].get(factor)
        if folds is None:
            folds = self._fold_tables[index][factor] = tuple(
                self._literal_folds[j] for j in bits_of(factor)
            )
        moved = state & self._selectors[index]
        if not moved:
            return state
        # PackedEngine.substitute_state on every lane at once.
        moved >>= var
        for low, keep, lift in folds:
            moved = (moved & keep) ^ ((moved & lift) << low)
        return state ^ moved

    def children(self, state: int, candidates) -> list[tuple]:
        """:meth:`PPRMEngine.children` with each target's selected and
        shifted terms computed once for all of its candidates."""
        fold_tables = self._fold_tables
        selectors = self._selectors
        num_vars = self.num_vars
        children = []
        append = children.append
        current = None
        for target, factor, _ in candidates:
            if target != current:
                current = target
                if 0 <= target < num_vars:
                    folds_by_factor = fold_tables[target]
                    shifted = (state & selectors[target]) >> (1 << target)
                else:
                    folds_by_factor = {}
            try:
                folds = folds_by_factor[factor]
            except KeyError:
                # A factor not substituted on this target yet, or not a
                # valid one: the scalar path caches its folds or raises.
                child = self.substitute_state(state, target, factor)
            else:
                moved = shifted
                for low, keep, lift in folds:
                    moved = (moved & keep) ^ ((moved & lift) << low)
                child = state ^ moved
            append((child, child.bit_count()))
        return children

    def unsolved_count(self, state: int) -> int:
        differ = state ^ self._identity
        lanes = self._even_lanes
        carries = self._even_carries
        return (
            ((differ & lanes) + lanes) & carries
        ).bit_count() + (
            (((differ >> self._tables.size) & lanes) + lanes) & carries
        ).bit_count()



ENGINES: dict[str, PPRMEngine] = {
    engine.name: engine for engine in (ReferenceEngine(), PackedEngine())
}


@lru_cache(maxsize=None)
def lane_engine(num_vars: int) -> LaneEngine:
    """The :class:`LaneEngine` bound to ``num_vars``, built once per
    width (at most :data:`~repro.pprm.packed.PACKED_MAX_VARS`)."""
    return LaneEngine(num_vars)


#: Widest input the search runs on the lane backend.  Every lane
#: operation covers all ``n`` lanes of ``2^n`` bits, while packed skips
#: outputs with no terms to move, so lanes win while the state is small
#: and lose on wide sparse systems.  Crossover table
#: (docs/architecture.md, ``TABLE4_OPTIONS`` capped at 2,000 steps,
#: equal steps and gates), lanes ÷ packed steps/s: 1.18–1.78× at 4–8
#: variables (hwb4, 5one013, mod5adder, ham7, mod15adder), 1.10–1.14×
#: at 9 (shifter, graycode; 0.95–1.06× when this bound was set),
#: 0.74–0.82× at 10 (mod32adder, graycode10, shifter), 0.31–0.39× at 12
#: (mod64adder, shift10).
SEARCH_LANES_MAX_VARS = 8

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
    if num_vars <= SEARCH_LANES_MAX_VARS:
        return lane_engine(num_vars)
    if num_vars <= SEARCH_PACKED_MAX_VARS:
        return ENGINES["packed"]
    return ENGINES["reference"]
