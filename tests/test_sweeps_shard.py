"""Shard execution: per-shard ledgers, adoption, resume."""

import json
import os

from repro.experiments.common import TABLE1_OPTIONS
from repro.sweeps import (
    build_manifest,
    run_shard,
    shard_ledger_path,
    shard_summary_path,
)


def _run_all(manifest, out_dir, **kwargs):
    return [
        run_shard(manifest, index, out_dir, **kwargs)
        for index in range(manifest.shard_count)
    ]


class TestRunShard:
    def test_shard_runs_its_slice_and_writes_sidecars(self, tmp_path):
        manifest = build_manifest("perm2", shards=2)
        out = str(tmp_path / "shards")
        summary = run_shard(manifest, 0, out)
        assert summary["report"]["counts"]["ok"] == 7
        assert summary["manifest_fingerprint"] == manifest.fingerprint
        assert summary["shard"] == manifest.shard(0).as_dict()
        assert os.path.exists(shard_ledger_path(out, manifest, 0))
        sidecar = json.load(open(shard_summary_path(out, manifest, 0)))
        assert sidecar["report"]["counts"]["ok"] == 7

    def test_rerun_replays_from_own_ledger(self, tmp_path):
        manifest = build_manifest("perm2", shards=2)
        out = str(tmp_path / "shards")
        run_shard(manifest, 1, out)
        again = run_shard(manifest, 1, out)
        assert again["report"]["replayed"] == 7
        assert again["report"]["counts"]["ok"] == 7

    def test_limit_interrupts_then_resume_completes(self, tmp_path):
        manifest = build_manifest("perm2", shards=1)
        out = str(tmp_path / "shards")
        partial = run_shard(manifest, 0, out, limit=5)
        assert partial["report"]["interrupted"]
        assert partial["report"]["completed"] == 5
        finished = run_shard(manifest, 0, out)
        assert finished["report"]["replayed"] == 5
        assert finished["report"]["counts"]["ok"] == 14


class TestAdoption:
    def test_adopts_across_shard_layouts_without_rerunning(self, tmp_path):
        four = build_manifest("perm2", shards=4)
        out4 = str(tmp_path / "four")
        _run_all(four, out4)
        ledgers = [
            shard_ledger_path(out4, four, index) for index in range(4)
        ]
        # Re-plan the same universe as 2 shards: every outcome adopts.
        two = build_manifest("perm2", shards=2)
        out2 = str(tmp_path / "two")
        for index, summary in enumerate(
            _run_all(two, out2, adopt=ledgers)
        ):
            items = two.shard(index).items
            assert summary["adopted"] == items
            assert summary["report"]["replayed"] == items

    def test_adoption_ignores_foreign_and_unreadable_sources(
        self, tmp_path
    ):
        manifest = build_manifest("perm2", shards=1)
        other = build_manifest(
            "perm2", shards=1, options=TABLE1_OPTIONS.with_(max_steps=999)
        )
        out_other = str(tmp_path / "other")
        _run_all(other, out_other)
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("not a ledger\n")
        summary = run_shard(
            manifest, 0, str(tmp_path / "mine"),
            # Different options -> different task ids -> nothing matches;
            # the unreadable file is skipped, not fatal.
            adopt=[shard_ledger_path(out_other, other, 0), str(bogus)],
        )
        assert summary["adopted"] == 0
        assert summary["report"]["counts"]["ok"] == 14

    def test_adoption_is_idempotent(self, tmp_path):
        manifest = build_manifest("perm2", shards=1)
        out = str(tmp_path / "a")
        _run_all(manifest, out)
        ledger = shard_ledger_path(out, manifest, 0)
        out_b = str(tmp_path / "b")
        first = run_shard(manifest, 0, out_b, adopt=[ledger])
        assert first["adopted"] == 14
        second = run_shard(manifest, 0, out_b, adopt=[ledger])
        assert second["adopted"] == 0
        assert second["report"]["replayed"] == 14
