"""Crash-recovery property tests for the circuit store.

The property: a writer killed with SIGKILL mid-append — at injected,
randomized append offsets, or externally at an arbitrary moment —
never corrupts the store *silently*.  After reopening, every damaged
line is detected and quarantined by ``verify``/``repair``, every
record written before the kill survives (appends are fsynced), and
every surviving record replays bit-identically and simulation-verifies
against its canonical key.  Finally, a cache service warmed from the
recovered store answers from cache, byte-identically, without search.
"""

import os
import signal
import subprocess
import sys

from repro.functions.permutation import Permutation
from repro.io.real_format import dump_real, load_real
from repro.obs import MetricsRegistry
from repro.store import CircuitStore, SynthesisService
from repro.synth.options import SynthesisOptions

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

#: Appends random 3-line circuits to the store at argv[1] until argv[3]
#: records are stored (argv[2] seeds the RNG), acknowledging each
#: *durable* append on stdout.  Faults arrive via RMRLS_STORE_FAULTS.
WRITER = """
import random, sys
from repro.circuits.circuit import Circuit
from repro.gates.toffoli import ToffoliGate
from repro.store import CircuitStore, canonicalize

root, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rng = random.Random(seed)
store = CircuitStore(root)
written = 0
while written < count:
    gates = []
    for _ in range(rng.randint(1, 6)):
        target = rng.randrange(3)
        controls = rng.randrange(8) & ~(1 << target)
        gates.append(ToffoliGate(controls, target))
    circuit = Circuit(3, gates)
    record, stored = store.put(
        canonicalize(circuit.to_permutation()), circuit,
        provenance={"n": written},
    )
    if stored:
        written += 1
        print(written, flush=True)
store.close()
print("done", flush=True)
"""


def spawn_writer(root, seed, count, faults=None, **popen_kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("RMRLS_STORE_FAULTS", None)
    if faults:
        env["RMRLS_STORE_FAULTS"] = faults
    return subprocess.Popen(
        [sys.executable, "-c", WRITER, str(root), str(seed), str(count)],
        env=env, stdout=subprocess.PIPE, text=True, **popen_kwargs,
    )


def assert_no_silent_corruption(root):
    """The recovery invariant: damage is detected, survivors are real."""
    store = CircuitStore(str(root))
    shallow = store.verify()
    # Whatever the kill tore is *reported*, never served: torn or
    # half-fsynced lines may exist, checksum-valid-but-wrong ones may
    # not, and every intact record replays exactly.
    deep = store.verify(deep=True)
    assert deep["replay_failures"] == []
    store.repair()
    repaired = store.verify(deep=True)
    assert repaired["ok"], repaired
    for key in store.keys():
        record = store.get(key)
        circuit = load_real(record.real)
        assert dump_real(circuit) == record.real  # bit-identical replay
        assert circuit.gate_count() == record.gates
        assert circuit.implements(
            Permutation(circuit.to_permutation().images)
        )
    survivors = len(store)
    store.close()
    return survivors, shallow["problems"]


class TestSigkillMidAppend:
    def test_randomized_kill_offsets(self, tmp_path, rng):
        for trial in range(3):
            offset = rng.randint(2, 10)
            root = tmp_path / f"store-{trial}"
            writer = spawn_writer(root, seed=trial, count=50,
                                  faults=f"sigkill@{offset}")
            acknowledged = sum(
                1 for line in writer.stdout if line.strip().isdigit()
            )
            assert writer.wait(timeout=60) == -signal.SIGKILL
            # Every acknowledged append was fsynced before the kill.
            survivors, problems = assert_no_silent_corruption(root)
            assert survivors >= acknowledged == offset - 1
            # The SIGKILL fault fires after half the line hit the file,
            # so the tear itself must have been seen and quarantined.
            assert problems.get("torn", 0) == 1

    def test_external_kill_between_appends(self, tmp_path, rng):
        root = tmp_path / "store"
        writer = spawn_writer(root, seed=7, count=10_000)
        acknowledged = 0
        stop_after = rng.randint(3, 15)
        for line in writer.stdout:
            if line.strip().isdigit():
                acknowledged += 1
            if acknowledged >= stop_after:
                writer.kill()
                break
        assert writer.wait(timeout=60) == -signal.SIGKILL
        survivors, _problems = assert_no_silent_corruption(root)
        assert survivors >= acknowledged

    def test_clean_writer_leaves_clean_store(self, tmp_path):
        writer = spawn_writer(tmp_path / "store", seed=1, count=8)
        assert writer.wait(timeout=120) == 0
        writer.stdout.close()
        store = CircuitStore(str(tmp_path / "store"), read_only=True)
        report = store.verify(deep=True)
        assert report["ok"] and report["records"] >= 8


class TestWarmCacheAfterRecovery:
    def test_recovered_store_serves_bit_identical_hits(self, tmp_path, rng):
        root = tmp_path / "store"
        writer = spawn_writer(root, seed=11, count=50, faults="sigkill@6")
        writer.stdout.read()
        assert writer.wait(timeout=60) == -signal.SIGKILL

        store = CircuitStore(str(root))
        store.repair()
        assert store.verify(deep=True)["ok"]
        registry = MetricsRegistry()
        service = SynthesisService(
            store=store, metrics=registry,
            options=SynthesisOptions(dedupe_states=True, max_steps=40_000),
        )
        try:
            for key in store.keys():
                record = store.get(key)
                spec = list(load_real(record.real).to_permutation().images)
                response = service.synthesize(spec)
                assert response["status"] == "ok"
                assert response["cache"] == "hit"
                assert response["key"] == key
                assert response["real"] == record.real  # byte-identical
            metrics = registry.as_dict()
            assert metrics["store_cache_hits_total"]["value"] == len(store)
            assert "store_cache_misses_total" not in metrics  # no search
        finally:
            service.close()
