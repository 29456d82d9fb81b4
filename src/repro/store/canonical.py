"""Canonical keys for reversible specifications, modulo wire relabeling.

At production scale most synthesis requests are repeats of the same
small functions up to a renaming of the wires, so the cache key must
identify the whole *equivalence class* under simultaneous input/output
relabeling — the conjugation orbit the permutation-group treatments of
reversible synthesis formalize.  Relabeling the ``n`` wires by a
permutation ``pi`` acts on assignments as the bit permutation
``sigma_pi`` (bit ``i`` moves to bit ``pi[i]``) and on a specification
``P`` by conjugation::

    P_pi = sigma_pi o P o sigma_pi^{-1}

:func:`canonicalize` picks the lexicographically smallest image vector
over all ``n!`` relabelings as the class representative, records the
*witness* relabeling ``pi`` that maps the caller's wires onto the
canonical ones, and derives the key from the representative's PPRM
system in its big-int bitset form
(:meth:`~repro.pprm.expansion.Expansion.to_bits`, bit ``t`` set when
term ``t`` is present), which does not depend on any in-memory
representation.

Circuits relabel contravariantly: renaming the lines of a cascade ``C``
by ``rho`` yields a cascade computing ``sigma_rho o C o sigma_rho^{-1}``.
A circuit synthesized for the canonical representative therefore
replays onto the caller's wire order by relabeling its lines with the
*inverse* witness (:meth:`CanonicalSpec.from_canonical`) — no
re-synthesis, just gate renaming.

The exhaustive ``n!`` sweep is capped (:data:`DEFAULT_RELABEL_MAX_VARS`
variables, override per call with ``relabel_max_vars``, never per
process, so every process mints the same keys); wider specs fall back
to the identity relabeling, which is still sound — it just keys a finer
equivalence (exact function instead of its relabeling orbit), so wide
caches dedupe less, never wrongly.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import lru_cache

from repro.circuits.circuit import Circuit
from repro.functions.permutation import Permutation
from repro.gates.fredkin import FredkinGate
from repro.gates.toffoli import ToffoliGate

__all__ = [
    "CANONICAL_SCHEMA",
    "CANONICAL_VERSION",
    "DEFAULT_RELABEL_MAX_VARS",
    "IMAGES_MAX_VARS",
    "CanonicalSpec",
    "CanonicalizationError",
    "canonicalize",
    "relabel_circuit",
    "bit_permutation",
]

#: Stamped into the key material so a future change of the canonical
#: form can never collide with keys minted under the old one.
CANONICAL_SCHEMA = "rmrls-canonical-key"
CANONICAL_VERSION = 1

#: Exhaustive relabeling search runs through ``n!`` bit permutations.
#: Up to this width their tables are built once per process (about
#: 20 ms at 6 variables), after which the 720 conjugates of a
#: 6-variable spec take about 1 ms and a 3-variable spec about 8 us.
#: Above it the tables are built as they are consumed: 7! = 5040
#: candidates take about 0.3 s and 8! = 40320 about 5 s (CPython 3.11,
#: 2-core Xeon).  The cache's sweet spot is exactly the small recurring
#: functions, so the default stays low.
DEFAULT_RELABEL_MAX_VARS = 6

#: Beyond this width a dense image vector (2^n entries) is not a
#: sensible object to build; canonicalization refuses rather than
#: silently allocating gigabytes.
IMAGES_MAX_VARS = 16


class CanonicalizationError(ValueError):
    """The specification cannot be canonicalized (e.g. too wide)."""


def bit_permutation(relabel) -> list[int]:
    """The table of ``sigma_pi``: bit ``i`` of ``x`` moves to bit
    ``relabel[i]``, for every assignment ``x`` of ``len(relabel)``
    wires."""
    n = len(relabel)
    table = [0] * (1 << n)
    for x in range(1 << n):
        y = 0
        for i in range(n):
            if (x >> i) & 1:
                y |= 1 << relabel[i]
        table[x] = y
    return table


def _inverse(relabel) -> tuple[int, ...]:
    inverse = [0] * len(relabel)
    for i, j in enumerate(relabel):
        inverse[j] = i
    return tuple(inverse)


def _tables(pi) -> tuple:
    """``(pi, (sigma_pi, sigma_pi^{-1}))``, both tables as tuples."""
    sigma = tuple(bit_permutation(pi))
    return pi, (sigma, _inverse(sigma))


@lru_cache(maxsize=DEFAULT_RELABEL_MAX_VARS + 1)
def _width_tables(num_vars: int) -> dict:
    """``pi -> (sigma_pi, sigma_pi^{-1})`` for every relabeling of
    ``num_vars`` wires, in :func:`itertools.permutations` order, built
    once per width.  Only widths up to :data:`DEFAULT_RELABEL_MAX_VARS`
    come here (720 pairs of 64-entry tables at the cap)."""
    return dict(map(_tables, itertools.permutations(range(num_vars))))


def _relabelings(num_vars: int):
    """Every ``(pi, (sigma, sigma^{-1}))``: the per-width tables up to
    the default cap, computed as they are consumed above it."""
    if num_vars <= DEFAULT_RELABEL_MAX_VARS:
        return _width_tables(num_vars).items()
    return map(_tables, itertools.permutations(range(num_vars)))


def _sigma(relabel: tuple[int, ...]):
    """``relabel``'s bit-permutation table, from the per-width tables
    when the width has them."""
    if len(relabel) <= DEFAULT_RELABEL_MAX_VARS:
        tables = _width_tables(len(relabel)).get(relabel)
        if tables is not None:
            return tables[0]
    return bit_permutation(relabel)


def relabel_circuit(circuit: Circuit, relabel) -> Circuit:
    """Rename the lines of ``circuit``: line ``i`` becomes
    ``relabel[i]``.

    The returned cascade computes ``sigma o C o sigma^{-1}`` where
    ``sigma`` is ``relabel``'s bit permutation — renaming wires
    conjugates the implemented function.  The identity relabeling
    returns ``circuit`` itself.
    """
    if circuit.num_lines != len(relabel):
        raise ValueError(
            f"relabeling names {len(relabel)} lines for a "
            f"{circuit.num_lines}-line circuit"
        )
    relabel = tuple(relabel)
    if relabel == tuple(range(len(relabel))):
        return circuit
    sigma = _sigma(relabel)
    gates = []
    for gate in circuit.gates:
        controls = sigma[gate.controls]
        if isinstance(gate, ToffoliGate):
            gates.append(ToffoliGate(controls, relabel[gate.target]))
        elif isinstance(gate, FredkinGate):
            a, b = gate.targets
            gates.append(FredkinGate(controls, relabel[a], relabel[b]))
        else:  # pragma: no cover - Circuit enforces the gate set
            raise TypeError(f"unsupported gate type: {type(gate).__name__}")
    return Circuit(circuit.num_lines, gates)


@dataclass(frozen=True)
class CanonicalSpec:
    """One specification resolved to its equivalence-class identity.

    ``key`` names the class; ``images`` is the canonical representative
    (the lex-min conjugate); ``relabel`` is the witness ``pi`` carrying
    the *caller's* wire ``i`` to canonical wire ``pi[i]``; ``exhaustive``
    says whether the full orbit was searched (``False`` above the cap,
    where ``relabel`` is the identity and the key is
    correspondingly finer).
    """

    key: str
    num_vars: int
    images: tuple[int, ...]
    relabel: tuple[int, ...]
    exhaustive: bool = True

    def canonical_permutation(self) -> Permutation:
        """The class representative, as a synthesizable specification."""
        return Permutation(self.images)

    def canonical_form(self) -> "CanonicalSpec":
        """The same class, viewed from the canonical wire order.

        Useful when a circuit was synthesized directly for
        :attr:`images` (a cache miss): storing it needs the identity
        witness, not the witness of whoever triggered the miss.
        """
        identity = tuple(range(self.num_vars))
        if self.relabel == identity:
            return self
        return CanonicalSpec(
            key=self.key,
            num_vars=self.num_vars,
            images=self.images,
            relabel=identity,
            exhaustive=self.exhaustive,
        )

    def to_canonical(self, circuit: Circuit) -> Circuit:
        """Relabel a circuit for the caller's wires onto the canonical
        order (the form the store keeps)."""
        return relabel_circuit(circuit, self.relabel)

    def from_canonical(self, circuit: Circuit) -> Circuit:
        """Replay a stored canonical circuit onto the caller's wires."""
        return relabel_circuit(circuit, _inverse(self.relabel))

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "num_vars": self.num_vars,
            "relabel": list(self.relabel),
            "exhaustive": self.exhaustive,
        }


def _spec_images(spec) -> tuple[int, ...]:
    """Coerce any accepted spec form to a dense image vector."""
    if isinstance(spec, Permutation):
        return spec.images
    if isinstance(spec, Circuit):
        if spec.num_lines > IMAGES_MAX_VARS:
            raise CanonicalizationError(
                f"cannot canonicalize a {spec.num_lines}-line circuit "
                f"(cap is {IMAGES_MAX_VARS} lines)"
            )
        return spec.to_permutation().images
    # PPRMSystem, without importing it eagerly (keeps this module's
    # import cost trivial for CLI paths that never canonicalize).
    to_images = getattr(spec, "to_images", None)
    if callable(to_images) and hasattr(spec, "outputs"):
        if spec.num_vars > IMAGES_MAX_VARS:
            raise CanonicalizationError(
                f"cannot canonicalize a {spec.num_vars}-variable system "
                f"(cap is {IMAGES_MAX_VARS} variables)"
            )
        return tuple(to_images())
    return Permutation(spec).images  # raw image sequence


@lru_cache(maxsize=IMAGES_MAX_VARS + 1)
def _low_masks(num_vars: int) -> tuple[int, ...]:
    """Mask ``j`` has bit ``m`` set for every assignment ``m`` of
    ``num_vars`` wires whose bit ``j`` is clear."""
    full = (1 << (1 << num_vars)) - 1
    return tuple(
        full // ((1 << (1 << j)) + 1) for j in range(num_vars)
    )


def _key_material(images, num_vars: int) -> str:
    """Key material: the representative's PPRM outputs as hex bitsets
    (the persistent analogue of the in-memory ``dedupe_key``, whose
    frozensets have no stable byte form).

    Output ``i``'s truth-table column is an int (bit ``m`` is bit ``i``
    of ``images[m]``); the Mobius butterfly runs on it a level at a
    time, ``col ^= (col & low_j) << 2^j``, leaving bit ``t`` set exactly
    when term ``t`` has coefficient 1 — the bitset
    :meth:`~repro.pprm.expansion.Expansion.to_bits` gives for the same
    output.
    """
    columns = [0] * num_vars
    for m, image in enumerate(images):
        point = 1 << m
        i = 0
        while image:
            if image & 1:
                columns[i] |= point
            image >>= 1
            i += 1
    lows = _low_masks(num_vars)
    packed = []
    for column in columns:
        for j, low in enumerate(lows):
            column ^= (column & low) << (1 << j)
        packed.append(format(column, "x"))
    return (
        f"{CANONICAL_SCHEMA}:v{CANONICAL_VERSION}:n{num_vars}:"
        + ",".join(packed)
    )


def canonicalize(
    spec, relabel_max_vars: int = DEFAULT_RELABEL_MAX_VARS
) -> CanonicalSpec:
    """Resolve ``spec`` to its canonical key plus the witness relabeling.

    ``spec`` may be a :class:`~repro.functions.permutation.Permutation`,
    a raw image sequence, a :class:`~repro.circuits.circuit.Circuit`
    (simulated first), or a PPRM system.  Two specs get the same key
    exactly when one is a wire relabeling of the other (below the
    exhaustive cap) or when they are the same function (above it).
    """
    images = _spec_images(spec)
    num_vars = (len(images) - 1).bit_length()

    best = images
    witness = tuple(range(num_vars))
    exhaustive = num_vars <= relabel_max_vars
    if exhaustive:
        # P_pi[y] = sigma[P[sigma^{-1}[y]]]: each conjugate is one pass
        # over the precomputed tables.
        for pi, (sigma, inverse) in _relabelings(num_vars):
            candidate = tuple([sigma[images[x]] for x in inverse])
            if candidate < best:
                best = candidate
                witness = pi
    digest = hashlib.sha256(
        _key_material(best, num_vars).encode("utf-8")
    ).hexdigest()[:32]
    return CanonicalSpec(
        key=digest,
        num_vars=num_vars,
        images=best,
        relabel=witness,
        exhaustive=exhaustive,
    )
