"""Deterministic sweep manifests: one plan, many shards, stable ids.

A manifest is the *entire* coordination contract of a distributed
sweep.  It names a spec universe, pins the synthesis options, and
partitions the universe's canonical ranks into ``N`` contiguous
shards.  Everything in it is a pure function of its inputs
— no timestamps, no hostnames — so two nodes that load the same
manifest file (or rebuild it from the same arguments) agree bit for
bit on what shard ``k`` contains.

Identity is content-addressed at two levels:

* each shard's **fingerprint** is a digest of the ordered task ids of
  that shard (task ids already hash kind, payload, options, and the
  sweep namespace — see :mod:`repro.harness.tasks`), so any change to
  the universe slice or the options changes the fingerprint;
* the **manifest fingerprint** folds the shard fingerprints together
  with the identity fields, so ``merge`` can refuse ledgers produced
  under a different plan.

Because the namespace deliberately excludes the shard count, a task
keeps its id under any re-sharding of the same plan — that is what
makes resume *across* shard layouts possible (run 4 shards today,
re-plan as 2 shards tomorrow, adopt the old ledgers, only the missing
work runs).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.applog import atomic_write, canonical_json

from repro.harness.tasks import Task, options_payload
from repro.sweeps.universe import CanonicalClass, Universe, get_universe
from repro.synth.options import SynthesisOptions

__all__ = [
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "ManifestError",
    "ShardSpec",
    "SweepManifest",
    "build_manifest",
    "load_manifest",
    "write_manifest",
    "parse_shard_ref",
]

MANIFEST_SCHEMA = "rmrls-sweep-manifest"
MANIFEST_VERSION = 1


class ManifestError(ValueError):
    """The manifest file is malformed, or a shard reference is invalid."""


@dataclass(frozen=True)
class ShardSpec:
    """One shard's share of the universe: ranks ``start <= r < stop``."""

    index: int
    start: int
    stop: int
    fingerprint: str

    @property
    def items(self) -> int:
        return self.stop - self.start

    def as_dict(self) -> dict:
        return {
            "shard": self.index,
            "start": self.start,
            "stop": self.stop,
            "items": self.items,
            "fingerprint": self.fingerprint,
        }


def _digest(data) -> str:
    canonical = canonical_json(data, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _partition(total: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous near-equal ranges; the first ``total % shards`` shards
    take one extra item."""
    base, extra = divmod(total, shards)
    ranges = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


@dataclass(frozen=True)
class SweepManifest:
    """The loaded (or freshly built) plan of one sharded sweep."""

    universe: str
    num_vars: int
    namespace: str
    options: dict
    limit: int | None
    items: int
    functions: int
    shards: tuple[ShardSpec, ...]
    fingerprint: str

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def universe_object(self) -> Universe:
        return get_universe(self.universe)

    def shard(self, index: int) -> ShardSpec:
        if not 0 <= index < len(self.shards):
            raise ManifestError(
                f"shard {index + 1}/{len(self.shards)} out of range"
            )
        return self.shards[index]

    def classes_for_shard(self, index: int) -> tuple[CanonicalClass, ...]:
        spec = self.shard(index)
        return self.universe_object().slice(spec.start, spec.stop)

    def task_for_class(self, cls: CanonicalClass) -> Task:
        """The (deterministic, shard-independent) task of one class."""
        return Task(
            kind="permutation",
            payload={"images": list(cls.images)},
            options=dict(self.options),
            meta={
                "label": f"{self.universe}:class{cls.class_rank}",
                "class_rank": cls.class_rank,
                "class_size": cls.class_size,
                "perm_rank": cls.perm_rank,
                "images": list(cls.images),
            },
            namespace=self.namespace,
        )

    def tasks_for_shard(self, index: int) -> list[Task]:
        return [
            self.task_for_class(cls) for cls in self.classes_for_shard(index)
        ]

    def as_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "version": MANIFEST_VERSION,
            "universe": self.universe,
            "num_vars": self.num_vars,
            "namespace": self.namespace,
            "options": dict(self.options),
            "limit": self.limit,
            "items": self.items,
            "functions": self.functions,
            "shards": len(self.shards),
            "shard_table": [spec.as_dict() for spec in self.shards],
            "fingerprint": self.fingerprint,
        }


def _manifest_fingerprint(identity: dict, shard_fingerprints) -> str:
    return _digest({"identity": identity, "shards": list(shard_fingerprints)})


def build_manifest(
    universe: str = "perm3",
    shards: int = 1,
    options: SynthesisOptions | dict | None = None,
    limit: int | None = None,
    namespace: str | None = None,
) -> SweepManifest:
    """Plan a sharded sweep over ``universe``.

    ``options`` pins the synthesis configuration (default: the Table I
    protocol, :data:`repro.experiments.common.TABLE1_OPTIONS`).
    ``limit`` restricts the plan to the first ``limit`` canonical
    ranks — the CI smoke slice.
    """
    if shards < 1:
        raise ManifestError("shards must be >= 1")
    uni = get_universe(universe)
    if options is None:
        from repro.experiments.common import TABLE1_OPTIONS

        options = TABLE1_OPTIONS
    if isinstance(options, SynthesisOptions):
        payload = options_payload(options)
    else:
        payload = dict(options)
    total = uni.size
    if limit is not None:
        if limit < 1:
            raise ManifestError("limit must be >= 1")
        total = min(limit, total)
    if shards > total:
        raise ManifestError(
            f"cannot split {total} item(s) into {shards} shards"
        )
    if namespace is None:
        namespace = f"coverage:{universe}:v{MANIFEST_VERSION}"
    classes = uni.classes[:total]
    functions = sum(cls.class_size for cls in classes)

    identity = {
        "schema": MANIFEST_SCHEMA,
        "version": MANIFEST_VERSION,
        "universe": universe,
        "num_vars": uni.num_vars,
        "namespace": namespace,
        # Plans written while the backend was an option pinned it here;
        # keeping the key lets their fingerprints still verify.
        "engine": payload.get("engine"),
        "options": payload,
        "limit": limit,
        "items": total,
    }
    shard_specs = []
    for index, (start, stop) in enumerate(_partition(total, shards)):
        task_ids = [
            Task(
                kind="permutation",
                payload={"images": list(cls.images)},
                options=payload,
                namespace=namespace,
            ).task_id
            for cls in classes[start:stop]
        ]
        fingerprint = _digest(
            {"identity": identity, "start": start, "stop": stop,
             "task_ids": task_ids}
        )
        shard_specs.append(ShardSpec(index, start, stop, fingerprint))
    return SweepManifest(
        universe=universe,
        num_vars=uni.num_vars,
        namespace=namespace,
        options=payload,
        limit=limit,
        items=total,
        functions=functions,
        shards=tuple(shard_specs),
        fingerprint=_manifest_fingerprint(
            identity, (spec.fingerprint for spec in shard_specs)
        ),
    )


def write_manifest(manifest: SweepManifest, path: str) -> None:
    """Atomically write the manifest as deterministic, human-readable
    JSON."""
    atomic_write(
        path, json.dumps(manifest.as_dict(), indent=2, sort_keys=True) + "\n"
    )


def load_manifest(path: str) -> SweepManifest:
    """Load and re-verify a manifest file.

    The shard table and fingerprints are rebuilt from the identity
    fields and compared — a manifest edited by hand (or corrupted in
    transit) is rejected rather than silently planning different work.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ManifestError(f"cannot load manifest {path}: {error}") from None
    if not isinstance(data, dict) or data.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(f"{path} is not a {MANIFEST_SCHEMA} file")
    if data.get("version") != MANIFEST_VERSION:
        raise ManifestError(
            f"{path}: unsupported manifest version {data.get('version')!r}"
        )
    for field in ("universe", "namespace", "options", "shards", "items"):
        if field not in data:
            raise ManifestError(f"{path}: missing manifest field {field!r}")
    rebuilt = build_manifest(
        universe=data["universe"],
        shards=data["shards"],
        options=data["options"],
        limit=data.get("limit"),
        namespace=data["namespace"],
    )
    if rebuilt.fingerprint != data.get("fingerprint"):
        raise ManifestError(
            f"{path}: fingerprint mismatch — the manifest does not match "
            f"the plan its identity fields describe "
            f"(expected {rebuilt.fingerprint}, file says "
            f"{data.get('fingerprint')!r})"
        )
    return rebuilt


def parse_shard_ref(ref: str, manifest: SweepManifest | None = None) -> tuple[int, int]:
    """Parse a ``k/N`` shard reference (1-based ``k``) into
    ``(index, count)`` with 0-based ``index``."""
    parts = ref.split("/")
    if len(parts) != 2:
        raise ManifestError(
            f"shard reference must look like k/N (e.g. 2/8), got {ref!r}"
        )
    try:
        k, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise ManifestError(f"shard reference {ref!r} is not numeric") from None
    if n < 1 or not 1 <= k <= n:
        raise ManifestError(
            f"shard reference {ref!r} out of range (need 1 <= k <= N)"
        )
    if manifest is not None and n != manifest.shard_count:
        raise ManifestError(
            f"shard reference {ref!r} names {n} shards but the manifest "
            f"has {manifest.shard_count}"
        )
    return k - 1, n
