"""The crash-safe canonical circuit store (repro.store.store).

Covers the durable lifecycle — put/get with canonical-key dedup,
segment rolling, reload — and the damage path: every
injectable fault kind, tolerant scanning, verify/repair quarantine
semantics, gc compaction, and export.
"""

import json
import os

import pytest

from repro.circuits.circuit import Circuit
from repro.functions.permutation import Permutation
from repro.gates.toffoli import ToffoliGate
from repro.io.real_format import load_real
from repro.store import (
    CircuitStore,
    FaultPlan,
    InjectedFault,
    StoreReadOnly,
    StoreRecord,
    canonicalize,
    scan_segment,
)

NOT_A = Circuit(3, [ToffoliGate(0, 0)])
SWAP_AB = Circuit(3, [ToffoliGate(0b001, 1), ToffoliGate(0b010, 0),
                      ToffoliGate(0b001, 1)])


def put_circuit(store, circuit, **provenance):
    canonical = canonicalize(circuit.to_permutation())
    return store.put(canonical, circuit, provenance=provenance or None)


def fill(store, rng, count, num_lines=3):
    """Append ``count`` random *distinct-function* circuits."""
    seen = set()
    while len(seen) < count:
        gates = []
        for _ in range(rng.randint(1, 6)):
            target = rng.randrange(num_lines)
            controls = rng.randrange(1 << num_lines) & ~(1 << target)
            gates.append(ToffoliGate(controls, target))
        circuit = Circuit(num_lines, gates)
        canonical = canonicalize(circuit.to_permutation())
        if canonical.key in seen:
            continue
        record, stored = store.put(canonical, circuit)
        if stored:
            seen.add(canonical.key)
    return seen


class TestLifecycle:
    def test_put_get_round_trip(self, tmp_path):
        store = CircuitStore(str(tmp_path / "s"))
        record, stored = put_circuit(store, NOT_A, source="test")
        assert stored
        again = store.get(record.key)
        assert again is not None
        assert again.circuit().implements(NOT_A.to_permutation())
        assert again.provenance["source"] == "test"

    def test_relabeled_duplicates_share_one_key(self, tmp_path):
        store = CircuitStore(str(tmp_path / "s"))
        # NOT(a) and NOT(b) are the same function up to relabeling.
        not_b = Circuit(3, [ToffoliGate(0, 1)])
        _, first = put_circuit(store, NOT_A)
        _, second = put_circuit(store, not_b)
        assert first and not second
        assert len(store) == 1

    def test_only_improvements_are_stored(self, tmp_path):
        store = CircuitStore(str(tmp_path / "s"))
        padded = Circuit(3, list(SWAP_AB.gates) + [ToffoliGate(0, 2),
                                                   ToffoliGate(0, 2)])
        record, stored = put_circuit(store, padded)
        assert stored and record.gates == 5
        better, improved = put_circuit(store, SWAP_AB)
        assert improved and better.gates == 3
        worse, stored_again = put_circuit(store, padded)
        assert not stored_again
        assert worse.gates == 3  # the best-known record comes back

    def test_stored_record_replays_onto_caller_wires(self, tmp_path):
        store = CircuitStore(str(tmp_path / "s"))
        canonical = canonicalize(SWAP_AB.to_permutation())
        store.put(canonical, SWAP_AB)
        stored = store.get(canonical.key)
        replayed = canonical.from_canonical(stored.circuit())
        assert replayed.implements(SWAP_AB.to_permutation())

    def test_record_parses_its_circuit_once(self, tmp_path, monkeypatch):
        root = str(tmp_path / "s")
        with CircuitStore(root) as store:
            put_circuit(store, SWAP_AB)
        record = CircuitStore(root, read_only=True).get(
            canonicalize(SWAP_AB.to_permutation()).key
        )
        fresh = StoreRecord.from_record(record.as_record(),
                                        record.segment, record.line)
        parses = []
        import repro.store.store as store_module

        def counting_load(text):
            parses.append(text)
            return load_real(text)

        monkeypatch.setattr(store_module, "load_real", counting_load)
        first = record.circuit()
        assert record.circuit() is first and len(parses) == 1
        assert first.gates == load_real(record.real).gates
        # The kept circuit is no part of the record's value.
        assert record == fresh and repr(record) == repr(fresh)
        assert record.as_record() == fresh.as_record()
        assert "Circuit" not in repr(record)

    def test_reload_sees_everything(self, tmp_path, rng):
        root = str(tmp_path / "s")
        store = CircuitStore(root)
        keys = fill(store, rng, 10)
        store.close()
        reopened = CircuitStore(root, read_only=True)
        assert set(reopened.keys()) == keys

    def test_segments_roll(self, tmp_path, rng):
        root = str(tmp_path / "s")
        store = CircuitStore(root, segment_max_records=3)
        fill(store, rng, 8)
        store.close()
        segments = os.listdir(os.path.join(root, "segments"))
        assert len(segments) >= 3
        assert len(CircuitStore(root, read_only=True)) == 8

    def test_read_only_refuses_writes(self, tmp_path):
        root = str(tmp_path / "s")
        CircuitStore(root).close()
        store = CircuitStore(root, read_only=True)
        with pytest.raises(StoreReadOnly):
            put_circuit(store, NOT_A)
        with pytest.raises(StoreReadOnly):
            store.repair()

    def test_stats_shape(self, tmp_path, rng):
        store = CircuitStore(str(tmp_path / "s"))
        fill(store, rng, 4)
        stats = store.stats()
        assert stats["keys"] == 4
        assert stats["records"] >= 4
        assert stats["segments"] == 1
        assert stats["bytes"] > 0
        assert stats["quarantined_lines"] == 0

    def test_export_emits_valid_segment_lines(self, tmp_path, rng):
        root = str(tmp_path / "s")
        store = CircuitStore(root)
        fill(store, rng, 5)
        out = tmp_path / "export.jsonl"
        with open(out, "w") as handle:
            count = store.export(handle)
        assert count == 5
        scan = scan_segment(str(out))
        assert len(scan.records) == 5 and not scan.problems


class TestDamage:
    def _segment_path(self, root):
        segment_dir = os.path.join(root, "segments")
        (name,) = os.listdir(segment_dir)
        return os.path.join(segment_dir, name)

    def test_torn_tail_detected_and_repaired(self, tmp_path, rng):
        root = str(tmp_path / "s")
        store = CircuitStore(root)
        fill(store, rng, 5)
        store.close()
        path = self._segment_path(root)
        with open(path, "rb+") as handle:
            handle.truncate(os.path.getsize(path) - 10)
        store = CircuitStore(root)
        assert len(store) == 4  # the torn record is not served
        report = store.verify()
        assert not report["ok"] and report["problems"] == {"torn": 1}
        repaired = store.repair()
        assert repaired["quarantined"] == 1
        assert store.verify(deep=True)["ok"]
        assert store.stats()["quarantined_lines"] == 1

    def test_bit_flip_fails_checksum(self, tmp_path, rng):
        root = str(tmp_path / "s")
        store = CircuitStore(root)
        fill(store, rng, 3)
        store.close()
        path = self._segment_path(root)
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"gates"', b'"gatez"', 1)
        open(path, "wb").write(b"".join(lines))
        store = CircuitStore(root)
        report = store.verify()
        assert report["problems"] == {"checksum": 1}
        store.repair()
        assert store.verify(deep=True)["ok"]

    def test_quarantine_preserves_raw_lines(self, tmp_path, rng):
        root = str(tmp_path / "s")
        store = CircuitStore(root)
        fill(store, rng, 3)
        store.close()
        path = self._segment_path(root)
        with open(path, "rb+") as handle:
            handle.truncate(os.path.getsize(path) - 10)
        store = CircuitStore(root)
        store.repair()
        quarantine_dir = os.path.join(root, "quarantine")
        files = os.listdir(quarantine_dir)
        assert len(files) == 1
        content = open(os.path.join(quarantine_dir, files[0])).read()
        assert "torn" in content

    def test_deep_repair_quarantines_lying_records(self, tmp_path, rng):
        root = str(tmp_path / "s")
        store = CircuitStore(root)
        fill(store, rng, 3)
        store.close()
        # Re-checksum a record whose body claims the wrong key: it is
        # structurally valid, so only deep verification catches it.
        from repro.store.segments import encode_record

        path = self._segment_path(root)
        lines = open(path).read().splitlines()
        record = json.loads(lines[0])
        record["key"] = "0" * 32
        record.pop("sum")
        lines[0] = encode_record(record).rstrip("\n")
        open(path, "w").write("\n".join(lines) + "\n")
        store = CircuitStore(root)
        assert store.verify()["ok"]  # shallow scan cannot see the lie
        deep = store.verify(deep=True)
        assert not deep["ok"] and len(deep["replay_failures"]) == 1
        store.repair(deep=True)
        assert store.verify(deep=True)["ok"]

    def test_gc_compacts_to_best_per_key(self, tmp_path, rng):
        root = str(tmp_path / "s")
        store = CircuitStore(root, segment_max_records=2)
        padded = Circuit(3, list(SWAP_AB.gates) + [ToffoliGate(0, 2),
                                                   ToffoliGate(0, 2)])
        put_circuit(store, padded)
        put_circuit(store, SWAP_AB)
        fill(store, rng, 4)
        before = store.stats()
        report = store.gc()
        after = store.stats()
        assert report["dropped"] >= 1  # the superseded 5-gate record
        assert after["records"] == after["keys"] == before["keys"]
        assert store.get(canonicalize(SWAP_AB.to_permutation()).key).gates == 3
        assert store.verify(deep=True)["ok"]


class TestFaultInjection:
    def test_torn_write_fault_leaves_recoverable_store(self, tmp_path, rng):
        root = str(tmp_path / "s")
        store = CircuitStore(root, faults=FaultPlan("torn_write@3"))
        with pytest.raises(InjectedFault):
            fill(store, rng, 5)
        store.close()
        recovered = CircuitStore(root)
        assert len(recovered) == 2  # everything before the tear survives
        assert recovered.verify()["problems"] == {"torn": 1}
        recovered.repair()
        assert recovered.verify(deep=True)["ok"]

    def test_checksum_flip_fault_is_caught_on_reload(self, tmp_path, rng):
        root = str(tmp_path / "s")
        store = CircuitStore(root, faults=FaultPlan("checksum_flip@2"))
        fill(store, rng, 4)
        store.close()
        recovered = CircuitStore(root)
        assert len(recovered) == 3
        assert recovered.verify()["problems"] == {"checksum": 1}
        recovered.repair()
        assert recovered.verify(deep=True)["ok"]

    def test_short_read_fault_truncates_the_scan(self, tmp_path, rng):
        root = str(tmp_path / "s")
        store = CircuitStore(root)
        fill(store, rng, 6)
        store.close()
        hobbled = CircuitStore(
            root, read_only=True, faults=FaultPlan("short_read@1")
        )
        assert len(hobbled) < 6  # the short read hides tail records...
        clean = CircuitStore(root, read_only=True)
        assert len(clean) == 6  # ...but the bytes on disk are intact

    def test_fault_plan_from_env(self, tmp_path, monkeypatch, rng):
        monkeypatch.setenv("RMRLS_STORE_FAULTS", "torn_write@2")
        store = CircuitStore(str(tmp_path / "s"))
        with pytest.raises(InjectedFault):
            fill(store, rng, 4)

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan("explode@1")
        with pytest.raises(ValueError):
            FaultPlan("torn_write@zero")
