"""Deterministic replay: a crash dump is a reproducible test case.

The in-process tests record a real search with the worker's own
arming helper, recover its ring into a dump the way the pool does, and
replay it; the property test kills
a real worker at a parametrized acknowledged event and asserts the
recovered dump replays bit-identically — the end-to-end guarantee
``rmrls replay`` sells.
"""

import json
import os
import random
import shutil

import pytest

from repro.functions.permutation import Permutation
from repro.harness import WorkerPool, permutation_task
from repro.harness.tasks import options_from_payload
from repro.obs.flight import (
    DUMP_STATUSES,
    EVERY_ENV_VAR,
    FAULTS_ENV_VAR,
    FlightObserver,
    arm_worker_recorder,
    dump_checksum,
    load_dump,
    recover_ring_to_file,
    replay_dump,
    replayable,
)
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize


def _record_search(tmp_path, images, max_steps=2000, every=1):
    """Run one recorded synthesis exactly the way a worker arms it."""
    task = permutation_task(
        images, options=SynthesisOptions(max_steps=max_steps)
    )
    flight = {"dir": str(tmp_path), "task_id": task.task_id}
    recorder = arm_worker_recorder(
        flight, task.kind, task.payload, task.options, attempt=1,
        every=every,
    )
    observer = FlightObserver(recorder, every=every)
    options = options_from_payload(task.options).with_(
        observers=(observer,)
    )
    result = synthesize(Permutation(images).to_pprm(), options)
    recorder.close()
    return recorder, result


def _shuffled(seed: int, size: int = 16) -> list[int]:
    images = list(range(size))
    random.Random(seed).shuffle(images)
    return images


class TestInProcessReplay:
    def test_replay_reaches_every_recorded_state(self, tmp_path):
        recorder, result = _record_search(tmp_path, _shuffled(7))
        path = recover_ring_to_file(recorder.path, reason="crash",
                                    error="synthetic")
        document = load_dump(path)
        assert replayable(document)
        verdict = replay_dump(document)
        assert verdict["ok"] is True
        assert verdict["checked"] > 0
        assert verdict["mismatches"] == []
        assert verdict["steps_replayed"] == result.stats.steps

    def test_strided_recording_still_replays(self, tmp_path):
        recorder, _ = _record_search(tmp_path, _shuffled(8), every=16)
        document = load_dump(
            recover_ring_to_file(recorder.path, reason="oom")
        )
        verdict = replay_dump(document)
        assert verdict["ok"] is True
        assert verdict["checked"] > 0

    def test_tampered_digest_diverges(self, tmp_path):
        recorder, _ = _record_search(tmp_path, _shuffled(9))
        path = recover_ring_to_file(recorder.path, reason="crash")
        with open(path) as handle:
            document = json.load(handle)
        steps = [event for event in document["events"]
                 if event.get("k") == "step"]
        steps[len(steps) // 2]["digest"] ^= 1
        document["checksum"] = dump_checksum(document)
        verdict = replay_dump(document)
        assert verdict["ok"] is False
        assert len(verdict["mismatches"]) >= 1

    def test_unreplayable_kind_is_refused(self, tmp_path):
        recorder, _ = _record_search(tmp_path, _shuffled(10))
        path = recover_ring_to_file(recorder.path, reason="crash")
        with open(path) as handle:
            document = json.load(handle)
        document["meta"]["kind"] = "probe"
        document["checksum"] = dump_checksum(document)
        assert not replayable(document)
        with pytest.raises(ValueError, match="not replayable"):
            replay_dump(document)


class TestSigkillReplayProperty:
    """Record → SIGKILL at a random acknowledged event → replay."""

    @pytest.mark.parametrize("kill_at", [6, 19, 41])
    def test_recovered_dump_replays_bit_identically(
        self, tmp_path, monkeypatch, kill_at
    ):
        monkeypatch.setenv(EVERY_ENV_VAR, "1")
        monkeypatch.setenv(FAULTS_ENV_VAR, f"sigkill@{kill_at}")
        task = permutation_task(
            _shuffled(kill_at),
            options=SynthesisOptions(max_steps=4000),
        )
        pool = WorkerPool(flight_dir=str(tmp_path))
        [outcome] = pool.run([task])
        assert outcome.status in DUMP_STATUSES
        dumps = [name for name in os.listdir(tmp_path)
                 if name.endswith(".dump.json")]
        assert len(dumps) == 1
        document = load_dump(os.path.join(str(tmp_path), dumps[0]))
        assert document["recovered"] is True
        verdict = replay_dump(document)
        assert verdict["ok"] is True, verdict
        assert verdict["checked"] > 0
        assert verdict["mismatches"] == []


#: A dump from the retired in-process writer (``recovered: false``):
#: the document format did not change when every dump moved to ring
#: recovery, so such dumps must keep loading and replaying.
_INPROCESS_DUMP = os.path.join(
    os.path.dirname(__file__), "data", "flight_dump_inprocess_v1.json"
)


class TestInProcessDumpCompat:
    def test_loads_renders_and_replays(self, tmp_path, capsys):
        from repro.cli import main

        path = shutil.copy(_INPROCESS_DUMP, tmp_path / "w-a1.dump.json")
        document = load_dump(str(path))
        assert document["recovered"] is False
        assert replayable(document)
        assert main(["postmortem", str(tmp_path)]) == 0
        rendered = capsys.readouterr().out
        assert "1 dump(s)" in rendered and "crash" in rendered
        assert main(["replay", str(path)]) == 0
        assert "replay: DETERMINISTIC" in capsys.readouterr().out
