"""Sweep manifests: deterministic partitions with stable fingerprints."""

import json

import pytest

from repro.sweeps import (
    ManifestError,
    build_manifest,
    get_universe,
    load_manifest,
    parse_shard_ref,
    write_manifest,
)


class TestBuildManifest:
    def test_partition_is_contiguous_and_near_equal(self):
        manifest = build_manifest("perm2", shards=3)
        spans = [(spec.start, spec.stop) for spec in manifest.shards]
        assert spans == [(0, 5), (5, 10), (10, 14)]
        assert sum(spec.items for spec in manifest.shards) == 14

    def test_fingerprints_are_reproducible(self):
        first = build_manifest("perm2", shards=3)
        second = build_manifest("perm2", shards=3)
        assert first.fingerprint == second.fingerprint
        assert [s.fingerprint for s in first.shards] == [
            s.fingerprint for s in second.shards
        ]

    def test_engine_and_shards_change_the_fingerprint(self):
        base = build_manifest("perm2", shards=2)
        assert build_manifest("perm2", shards=3).fingerprint \
            != base.fingerprint

    def test_task_ids_are_shard_layout_independent(self):
        two = build_manifest("perm2", shards=2)
        three = build_manifest("perm2", shards=3)

        def all_ids(manifest):
            return {
                task.task_id
                for index in range(manifest.shard_count)
                for task in manifest.tasks_for_shard(index)
            }

        assert all_ids(two) == all_ids(three)

    def test_limit_truncates_by_class_rank(self):
        manifest = build_manifest("perm2", shards=2, limit=6)
        assert manifest.items == 6
        classes = get_universe("perm2").classes
        assert manifest.functions == sum(
            cls.class_size for cls in classes[:6]
        )

    def test_task_meta_carries_class_identity(self):
        manifest = build_manifest("perm2", shards=1)
        task = manifest.tasks_for_shard(0)[3]
        cls = get_universe("perm2").item(3)
        assert task.meta["class_rank"] == 3
        assert task.meta["class_size"] == cls.class_size
        assert tuple(task.payload["images"]) == cls.images

    def test_invalid_plans_rejected(self):
        with pytest.raises(ManifestError):
            build_manifest("perm2", shards=0)
        with pytest.raises(ManifestError):
            build_manifest("perm2", shards=20)  # more shards than items
        with pytest.raises(ManifestError):
            build_manifest("perm2", limit=0)


class TestManifestFile:
    def test_write_load_round_trip(self, tmp_path):
        manifest = build_manifest("perm2", shards=3)
        path = str(tmp_path / "manifest.json")
        write_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded == manifest

    def test_tampered_manifest_rejected(self, tmp_path):
        manifest = build_manifest("perm2", shards=2)
        path = str(tmp_path / "manifest.json")
        write_manifest(manifest, path)
        data = json.load(open(path))
        data["shards"] = 3  # silently replanning different work
        json.dump(data, open(path, "w"))
        with pytest.raises(ManifestError, match="fingerprint mismatch"):
            load_manifest(path)

    def test_non_manifest_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"schema": "other"}\n')
        with pytest.raises(ManifestError, match="not a"):
            load_manifest(str(path))
        path.write_text("not json")
        with pytest.raises(ManifestError, match="cannot load"):
            load_manifest(str(path))


class TestShardRef:
    def test_parses_one_based_refs(self):
        assert parse_shard_ref("1/4") == (0, 4)
        assert parse_shard_ref("4/4") == (3, 4)

    def test_rejects_malformed_refs(self):
        for ref in ["", "3", "0/4", "5/4", "a/b", "1/2/3"]:
            with pytest.raises(ManifestError):
                parse_shard_ref(ref)

    def test_checks_manifest_shard_count(self):
        manifest = build_manifest("perm2", shards=2)
        assert parse_shard_ref("2/2", manifest) == (1, 2)
        with pytest.raises(ManifestError, match="names 4 shards"):
            parse_shard_ref("2/4", manifest)
