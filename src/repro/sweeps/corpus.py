"""The coverage corpus: best-known gate counts per canonical class.

A coverage file (``results/coverage3.jsonl``) is the merged product of
a sharded sweep: one checksummed JSONL record per canonical class of
the universe, sorted by class rank, under a header whose ``body_digest``
commits to every record byte.  It is the repository's standing
regression oracle — "no engine change may synthesize any 3-variable
function worse than this file says is achievable".

Determinism is the load-bearing property: a coverage file is a pure
function of the *outcome set*, never of how the sweep was scheduled.
Records carry no timestamps, no shard indices, and no wall-clock data,
and conflicting claims resolve by a deterministic rule (minimum gate
count, provenance of every distinct claim retained in sorted order) —
so merging the same ledgers in any order, or re-sharding the same plan
into a different shard count, reproduces the file byte for byte.

Record fields (canonical JSON, sorted keys, compact separators, plus a
``crc`` field: the append-log checksum of :mod:`repro.applog` under the
corpus's own committed field name):

``class_rank``, ``perm_rank``, ``images``, ``class_size``
    The class identity, straight from the universe enumeration.
``status``
    The merged outcome status (``ok`` when any claim solved the class).
``gates``, ``quantum_cost``, ``toffoli``
    The best-known circuit: gate count, quantum cost, and the cascade
    as ``[controls_mask, target]`` pairs (compact; rebuild a
    :class:`~repro.circuits.Circuit` with :func:`circuit_from_record`).
``claims``
    Every distinct ``(status, gates)`` claim the shards made, sorted —
    the provenance of conflict resolution.
"""

from __future__ import annotations

import hashlib
import json

from repro.applog import atomic_write, canonical_json, checksum, encode_line
from repro.circuits import Circuit
from repro.functions.permutation import Permutation
from repro.gates import ToffoliGate
from repro.sweeps.universe import get_universe

__all__ = [
    "COVERAGE_SCHEMA",
    "COVERAGE_VERSION",
    "CoverageError",
    "encode_circuit",
    "circuit_from_record",
    "coverage_lines",
    "write_coverage",
    "load_coverage",
    "validate_coverage",
    "coverage_histogram",
]

COVERAGE_SCHEMA = "rmrls-coverage"
COVERAGE_VERSION = 1


class CoverageError(ValueError):
    """A coverage file failed schema, checksum, or coverage validation."""


def encode_circuit(circuit: Circuit) -> list[list[int]]:
    """Compact wire form of a Toffoli cascade: ``[controls, target]``
    per gate.  Keeps the 6,828-record corpus around a megabyte where
    full ``.real`` text would triple it."""
    return [[gate.controls, gate.target] for gate in circuit]


def circuit_from_record(record: dict) -> Circuit:
    """Rebuild the best-known circuit of one coverage record."""
    toffoli = record.get("toffoli")
    if toffoli is None:
        raise CoverageError(
            f"class {record.get('class_rank')} has no recorded circuit "
            f"(status {record.get('status')!r})"
        )
    num_vars = (len(record["images"]) - 1).bit_length()
    return Circuit(
        num_vars,
        (ToffoliGate(controls, target) for controls, target in toffoli),
    )


def coverage_lines(header_fields: dict, records) -> list[str]:
    """Assemble the full deterministic line list of a coverage file.

    ``records`` must already be conflict-resolved, one dict per class;
    they are sorted by ``class_rank`` here so callers cannot leak
    arrival order into the bytes.  The header gains ``records`` and the
    ``body_digest`` (SHA-256 over every record line including its
    newline), so the file self-authenticates end to end.
    """
    lines = [
        encode_line(record, "crc")
        for record in sorted(records, key=lambda r: r["class_rank"])
    ]
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    header = {"schema": COVERAGE_SCHEMA, "version": COVERAGE_VERSION}
    header.update(header_fields)
    header["records"] = len(lines)
    header["body_digest"] = digest.hexdigest()
    return [canonical_json(header)] + lines


def write_coverage(path: str, header_fields: dict, records) -> str:
    """Write a coverage file atomically; returns its body digest."""
    lines = coverage_lines(header_fields, records)
    atomic_write(path, "".join(line + "\n" for line in lines))
    return json.loads(lines[0])["body_digest"]


def load_coverage(path: str, verify: bool = True):
    """Load ``(header, records)`` from a coverage file.

    With ``verify`` (the default), every line's CRC and the header's
    body digest are checked — a flipped bit anywhere raises
    :class:`CoverageError` rather than silently weakening the oracle.
    """
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        raise CoverageError(f"cannot read coverage file: {error}") from None
    if not lines:
        raise CoverageError(f"{path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        raise CoverageError(f"{path}: header line is not JSON") from None
    if not isinstance(header, dict) or header.get("schema") != COVERAGE_SCHEMA:
        raise CoverageError(f"{path} is not a {COVERAGE_SCHEMA} file")
    if header.get("version") != COVERAGE_VERSION:
        raise CoverageError(
            f"{path}: unsupported coverage version {header.get('version')!r}"
        )
    records = []
    digest = hashlib.sha256()
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise CoverageError(f"{path}:{number}: blank line in body")
        if verify:
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            raise CoverageError(
                f"{path}:{number}: record is not JSON"
            ) from None
        if verify and record.get("crc") != checksum(record, "crc"):
            raise CoverageError(f"{path}:{number}: checksum mismatch")
        records.append(record)
    if verify:
        if len(records) != header.get("records"):
            raise CoverageError(
                f"{path}: header says {header.get('records')} records, "
                f"file has {len(records)}"
            )
        if digest.hexdigest() != header.get("body_digest"):
            raise CoverageError(f"{path}: body digest mismatch")
    return header, records


def validate_coverage(path: str, replay: int | None = 0) -> dict:
    """Full structural validation of a coverage file; returns a report.

    Checks, in order: schema/version, per-line checksums and the body
    digest (via :func:`load_coverage`), rank ordering and uniqueness,
    class identity against the universe enumeration (images, orbit
    sizes), and completeness (every class present, function counts
    summing to the universe).  ``replay`` simulation-replays that many
    recorded circuits against their class representatives spread evenly
    across the file (``None`` replays everything) — the cross-check
    that the corpus's circuits actually compute what they claim.

    Raises :class:`CoverageError` on the first violation.
    """
    header, records = load_coverage(path, verify=True)
    universe = get_universe(header.get("universe", ""))
    classes = universe.classes
    limit = header.get("items", universe.size)
    if len(records) != limit:
        raise CoverageError(
            f"{path}: {len(records)} records for {limit} classes"
        )
    functions = 0
    solved = 0
    for position, record in enumerate(records):
        rank = record.get("class_rank")
        if rank != position:
            raise CoverageError(
                f"{path}: record {position} has class_rank {rank} "
                f"(ranks must be dense and sorted)"
            )
        cls = classes[rank]
        if tuple(record.get("images", ())) != cls.images:
            raise CoverageError(
                f"{path}: class {rank} images do not match the universe "
                f"enumeration"
            )
        if record.get("class_size") != cls.class_size:
            raise CoverageError(
                f"{path}: class {rank} orbit size "
                f"{record.get('class_size')} != {cls.class_size}"
            )
        functions += cls.class_size
        if record.get("status") == "ok":
            solved += 1
            if not isinstance(record.get("gates"), int):
                raise CoverageError(
                    f"{path}: solved class {rank} has no gate count"
                )
            if record.get("toffoli") is None:
                raise CoverageError(
                    f"{path}: solved class {rank} has no circuit"
                )
    replayed = 0
    if replay is None:
        targets = range(len(records))
    elif replay <= 0:
        targets = ()
    else:
        step = max(1, len(records) // replay)
        targets = range(0, len(records), step)
    for position in targets:
        record = records[position]
        if record.get("status") != "ok":
            continue
        circuit = circuit_from_record(record)
        spec = Permutation(list(record["images"]))
        if not circuit.implements(spec):
            raise CoverageError(
                f"{path}: class {record['class_rank']}: recorded circuit "
                f"does not implement its representative (replay failed)"
            )
        if circuit.gate_count() != record["gates"]:
            raise CoverageError(
                f"{path}: class {record['class_rank']}: recorded circuit "
                f"has {circuit.gate_count()} gates, record says "
                f"{record['gates']}"
            )
        replayed += 1
    return {
        "path": path,
        "universe": universe.name,
        "records": len(records),
        "solved": solved,
        "functions": functions,
        "complete": (
            len(records) == universe.size
            and functions == universe.function_count
        ),
        "replayed": replayed,
        "body_digest": header["body_digest"],
    }


def coverage_histogram(records, weighted: bool = True) -> dict[int, int]:
    """Gate-count distribution of a coverage record set.

    ``weighted`` (the default) counts every *function* — each class
    contributes its orbit size — which is the Table I view; unweighted
    counts classes.
    """
    histogram: dict[int, int] = {}
    for record in records:
        if record.get("status") != "ok":
            continue
        weight = record.get("class_size", 1) if weighted else 1
        gates = record["gates"]
        histogram[gates] = histogram.get(gates, 0) + weight
    return dict(sorted(histogram.items()))
