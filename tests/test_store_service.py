"""The cache-through synthesis service and its unix-socket daemon.

Covers the four cache outcomes (miss, hit, coalesced, bypass), hit
verification with quarantine-on-mismatch, graceful degradation when
the store misbehaves, one full daemon round trip over the socket
with its ``stats`` op, and the daemon's connection model (reused
connection threads, never blocked by an idle client).
"""

import json
import multiprocessing
import os
import socket
import sys
import threading
import time

from repro.circuits.circuit import Circuit
from repro.functions.permutation import Permutation
from repro.gates.toffoli import ToffoliGate
from repro.harness.taxonomy import TaskOutcome
from repro.io.real_format import dump_real
from repro.obs import MetricsRegistry
from repro.store import (
    CircuitStore,
    StoreServer,
    SynthesisService,
    canonicalize,
    parse_images,
    request_over_socket,
)
from repro.synth.options import SynthesisOptions

QUICK = SynthesisOptions(dedupe_states=True, max_steps=40_000)

#: A 2-line swap embedded in 3 lines, and a relabeling of it — same
#: canonical key, different caller wire order.
SWAP_01 = [0, 2, 1, 3, 4, 6, 5, 7]
SWAP_02 = [0, 4, 2, 6, 1, 5, 3, 7]


#: Three more 3-variable classes, each distinct from SWAP_01's.
OTHER_CLASSES = (
    [1, 0, 3, 2, 5, 4, 7, 6],
    [0, 1, 2, 3, 4, 5, 7, 6],
    [1, 0, 7, 2, 3, 4, 5, 6],
)


def counter(registry, name) -> int:
    metric = registry.as_dict().get(name)
    return 0 if metric is None else metric["value"]


def wait_until(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.005)


class HeldPool:
    """Wraps the service's real pool; its first run blocks until the
    test sets ``release``, so requests can queue behind it."""

    def __init__(self, pool):
        self.pool = pool
        self.entered = threading.Event()
        self.release = threading.Event()

    def run(self, tasks, on_final=None):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(timeout=60)
        return self.pool.run(tasks, on_final=on_final)

    def close(self):
        self.pool.close()


class WrongCircuitPool:
    """A pool whose every task comes back ``ok`` with a circuit that
    computes something else."""

    def run(self, tasks, on_final=None):
        wrong = dump_real(Circuit(3, [ToffoliGate(0, 2)]))
        for task in tasks:
            on_final(task, TaskOutcome(
                task_id=task.task_id, status="ok", gate_count=1,
                circuit=wrong,
            ))

    def close(self):
        pass


def make_service(tmp_path, **kwargs):
    registry = MetricsRegistry()
    store = CircuitStore(str(tmp_path / "store"))
    service = SynthesisService(
        store=store, options=QUICK, metrics=registry, **kwargs,
    )
    return service, store, registry


def start_daemon(tmp_path):
    """A real :class:`StoreServer` serving on a background thread."""
    service, _store, _registry = make_service(tmp_path)
    socket_path = str(tmp_path / "rmrls.sock")
    server = StoreServer(socket_path, service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    return service, server, thread, socket_path


def stop_daemon(service, server, thread, socket_path):
    request_over_socket(socket_path, {"op": "shutdown"}, timeout=10)
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.close()
    service.close()


def connection_threads(exclude=frozenset()):
    return [
        t for t in threading.enumerate()
        if t.name == "rmrls-serve-connection" and t.ident not in exclude
    ]


class TestCacheOutcomes:
    def test_miss_then_hit(self, tmp_path):
        service, _store, registry = make_service(tmp_path)
        try:
            first = service.synthesize(SWAP_01)
            assert first["status"] == "ok" and first["cache"] == "miss"
            second = service.synthesize(SWAP_01)
            assert second["cache"] == "hit"
            assert second["real"] == first["real"]
            assert counter(registry, "store_cache_misses_total") == 1
            assert counter(registry, "store_cache_hits_total") == 1
        finally:
            service.close()

    def test_provenance_names_the_engine_that_ran(self, tmp_path):
        service, store, _registry = make_service(tmp_path)
        try:
            assert service.synthesize(SWAP_01)["cache"] == "miss"
            record = store.get(canonicalize(SWAP_01).key)
            assert record.provenance["engine"] == "lanes"
            assert "trace_id" not in record.provenance
        finally:
            service.close()

    def test_older_provenance_with_a_trace_id_still_serves(self, tmp_path):
        # Records written before the span tracer was removed carry a
        # ``trace_id`` provenance key; they must still load and hit.
        store = CircuitStore(str(tmp_path / "store"))
        circuit = Circuit(2, [ToffoliGate(0b01, 1), ToffoliGate(0b10, 0),
                              ToffoliGate(0b01, 1)])
        store.put(canonicalize(circuit.to_permutation()), circuit,
                  provenance={"source": "serve", "trace_id": "0123abcd"})
        store.close()
        service, store, _registry = make_service(tmp_path)
        try:
            response = service.synthesize(circuit.to_permutation().images)
            assert response["cache"] == "hit"
            record = store.get(response["key"])
            assert record.provenance["trace_id"] == "0123abcd"
        finally:
            service.close()

    def test_relabeled_spec_hits_and_replays(self, tmp_path):
        service, _store, registry = make_service(tmp_path)
        try:
            first = service.synthesize(SWAP_01)
            assert first["cache"] == "miss"
            second = service.synthesize(SWAP_02)
            assert second["cache"] == "hit"
            assert second["key"] == first["key"]
            from repro.io.real_format import load_real

            replayed = load_real(second["real"])
            assert replayed.implements(Permutation(SWAP_02))
        finally:
            service.close()

    def test_concurrent_duplicates_are_single_flighted(self, tmp_path):
        service, _store, registry = make_service(tmp_path)
        service._pool = held = HeldPool(service._pool)
        try:
            responses = [None] * 6
            def work(i):
                responses[i] = service.synthesize(SWAP_01)
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            # Release the search only once all six have joined its flight.
            wait_until(lambda: counter(registry, "store_cache_misses_total")
                       + counter(registry,
                                 "store_singleflight_coalesced_total") == 6)
            held.release.set()
            for t in threads:
                t.join()
            assert all(r["status"] == "ok" for r in responses)
            assert len({r["real"] for r in responses}) == 1
            assert counter(registry, "store_cache_misses_total") == 1
            assert counter(
                registry, "store_singleflight_coalesced_total"
            ) == 5
        finally:
            held.release.set()
            service.close()

    def test_misses_during_a_pool_run_share_the_next_run(self, tmp_path):
        keys = {canonicalize(spec).key for spec in (SWAP_01, *OTHER_CLASSES)}
        assert len(keys) == 4
        service, _store, registry = make_service(tmp_path)
        service._pool = held = HeldPool(service._pool)
        try:
            responses = []
            def work(spec):
                responses.append(service.synthesize(spec))
            threads = [threading.Thread(target=work, args=(SWAP_01,))]
            threads[0].start()
            assert held.entered.wait(timeout=60)  # batch of one is running
            for spec in OTHER_CLASSES:
                threads.append(threading.Thread(target=work, args=(spec,)))
                threads[-1].start()
            wait_until(
                lambda: counter(registry, "store_cache_misses_total") == 4
            )
            held.release.set()
            for t in threads:
                t.join()
            assert [r["status"] for r in responses] == ["ok"] * 4
            assert counter(registry, "serve_batches_total") == 2
            assert counter(registry, "serve_batch_tasks_total") == 4
        finally:
            held.release.set()
            service.close()

    def test_no_store_means_bypass(self):
        registry = MetricsRegistry()
        service = SynthesisService(
            store=None, options=QUICK, metrics=registry,
        )
        try:
            response = service.synthesize(SWAP_01)
            assert response["status"] == "ok"
            assert response["cache"] == "bypass"
            assert counter(registry, "store_cache_bypass_total") == 1
        finally:
            service.close()

    def test_string_specs_are_accepted(self, tmp_path):
        assert parse_images("0,2, 1,3") == [0, 2, 1, 3]
        service, _store, _registry = make_service(tmp_path)
        try:
            response = service.synthesize("0,2,1,3,4,6,5,7")
            assert response["status"] == "ok"
        finally:
            service.close()

    def test_bad_spec_is_an_error_response(self, tmp_path):
        service, _store, _registry = make_service(tmp_path)
        try:
            response = service.synthesize([0, 0, 1, 1])
            assert response["status"] == "error"
            assert response["error"]
        finally:
            service.close()


class TestWorkerReuse:
    def test_sequential_misses_share_one_worker(self, tmp_path):
        before = set(multiprocessing.active_children())
        service, _store, registry = make_service(tmp_path)
        try:
            pids = []
            for spec in (SWAP_01, *OTHER_CLASSES, [7, 6, 5, 4, 3, 2, 1, 0]):
                response = service.synthesize(spec)
                assert response["status"] == "ok", response
                assert response["cache"] == "miss"
                pids.append([w.process.pid for w in service._pool._idle])
            assert counter(registry, "store_cache_misses_total") == 5
            assert len(pids[0]) == 1 and pids == [pids[0]] * 5
        finally:
            service.close()
        assert [
            p for p in multiprocessing.active_children() if p not in before
        ] == []


class TestHitVerification:
    def test_lying_record_is_quarantined_not_served(self, tmp_path):
        service, store, registry = make_service(tmp_path)
        try:
            # Plant a record under SWAP_01's key whose circuit computes
            # something else entirely.
            canonical = canonicalize(SWAP_01)
            wrong = Circuit(3, [ToffoliGate(0, 2)])
            _record_for(store, canonical, wrong)
            response = service.synthesize(SWAP_01)
            assert response["status"] == "ok"
            assert response["cache"] == "miss"  # the lie was not served
            from repro.io.real_format import load_real

            assert load_real(response["real"]).implements(
                Permutation(SWAP_01)
            )
            assert counter(
                registry, "store_cache_quarantined_total"
            ) == 1
        finally:
            service.close()


    def test_every_hit_is_simulated(self, tmp_path, monkeypatch):
        # The parsed record and the relabeling tables are cached; the
        # simulation check of what is served is not.
        swap = Circuit(3, [ToffoliGate(0b01, 1), ToffoliGate(0b10, 0),
                           ToffoliGate(0b01, 1)])
        service, store, registry = make_service(tmp_path)
        calls = []
        implements = Circuit.implements

        def counting(circuit, specification):
            calls.append(specification.images)
            return implements(circuit, specification)

        try:
            store.put(canonicalize(SWAP_01), swap)
            monkeypatch.setattr(Circuit, "implements", counting)
            for spec in (SWAP_01, SWAP_01, SWAP_02):
                response = service.synthesize(spec)
                assert response["cache"] == "hit"
            assert calls == [tuple(SWAP_01), tuple(SWAP_01), tuple(SWAP_02)]
            assert counter(registry, "store_cache_hits_total") == 3
        finally:
            service.close()


class TestMissVerification:
    def test_wrong_worker_circuit_is_unsound_and_not_stored(self, tmp_path):
        service, store, registry = make_service(tmp_path)
        service._pool = WrongCircuitPool()
        try:
            response = service.synthesize(SWAP_01)
            assert response["status"] == "unsound"
            assert response["cache"] == "miss"
            assert "real" not in response
            assert counter(registry, "serve_errors_total") == 1
            assert store.get(canonicalize(SWAP_01).key) is None
            assert len(store) == 0
        finally:
            service.close()

    def test_wrong_relabeling_is_unsound(self, tmp_path, monkeypatch):
        service, store, registry = make_service(tmp_path)
        try:
            monkeypatch.setattr(
                type(canonicalize(SWAP_01)), "from_canonical",
                lambda self, circuit: Circuit(3, [ToffoliGate(0, 2)]),
            )
            response = service.synthesize(SWAP_02)
            assert response["status"] == "unsound"
            assert "real" not in response
            assert counter(registry, "serve_errors_total") == 1
        finally:
            service.close()


def _record_for(store, canonical, circuit):
    """Append a record claiming ``canonical``'s key for ``circuit``
    (which need not implement it) — simulating silent store poison."""
    forged = canonicalize(circuit.to_permutation())
    lying = type(forged)(
        key=canonical.key,
        num_vars=forged.num_vars,
        images=forged.images,
        relabel=forged.relabel,
        exhaustive=forged.exhaustive,
    )
    record, stored = store.put(lying, circuit)
    assert stored
    return record


class TestDaemon:
    def test_socket_round_trip_with_metrics(self, tmp_path):
        service, _store, registry = make_service(tmp_path)
        socket_path = str(tmp_path / "rmrls.sock")
        server = StoreServer(socket_path, service)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            assert request_over_socket(
                socket_path, {"op": "ping"}
            )["status"] == "ok"
            first = request_over_socket(
                socket_path, {"op": "synth", "spec": SWAP_01}
            )
            assert first["status"] == "ok" and first["cache"] == "miss"
            second = request_over_socket(
                socket_path, {"op": "synth", "spec": SWAP_01}
            )
            assert second["cache"] == "hit"
            assert second["real"] == first["real"]
            stats = request_over_socket(socket_path, {"op": "stats"})
            assert stats["stats"]["store"]["keys"] >= 1
            metrics = stats["stats"]["metrics"]
            assert metrics["store_cache_hits_total"]["value"] == 1
            assert metrics["store_cache_misses_total"]["value"] == 1
            bad = request_over_socket(socket_path, {"op": "nonsense"})
            assert bad["status"] == "error"
            down = request_over_socket(socket_path, {"op": "shutdown"})
            assert down["shutting_down"]
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            server.close()
            service.close()
        assert not os.path.exists(socket_path)

    def test_sequential_pings_leave_one_spare_thread(self, tmp_path):
        before = {t.ident for t in threading.enumerate()}
        daemon = start_daemon(tmp_path)
        _service, _server, thread, socket_path = daemon

        def extra_threads():
            return [
                t for t in threading.enumerate()
                if t.ident not in before and t is not thread
                and t.name != "rmrls-serve-batcher"
            ]

        try:
            for _ in range(50):
                assert request_over_socket(
                    socket_path, {"op": "ping"}, timeout=10
                )["status"] == "ok"
            # A connection may outrun the previous one's thread to the
            # spare slot; any such extra thread exits once it is done.
            wait_until(lambda: len(extra_threads()) <= 1, timeout=10)
            assert [t.name for t in extra_threads()] in (
                [], ["rmrls-serve-connection"]
            )
        finally:
            stop_daemon(*daemon)

    def test_parked_thread_serves_the_next_connection(self, tmp_path):
        before = {t.ident for t in connection_threads()}
        daemon = start_daemon(tmp_path)
        _service, server, _thread, socket_path = daemon
        served = set()
        try:
            for _ in range(20):
                request_over_socket(socket_path, {"op": "ping"}, timeout=10)
                wait_until(lambda: server._spare is not None, timeout=10)
                served.update(t.ident for t in connection_threads(before))
            assert len(served) == 1
        finally:
            stop_daemon(*daemon)

    def test_concurrent_clients_lose_no_handoff(self, tmp_path):
        # More clients than cores and a short switch interval: a lost
        # handoff to the spare would leave a client without an answer.
        before = {t.ident for t in connection_threads()}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        daemon = start_daemon(tmp_path)
        _service, _server, _thread, socket_path = daemon
        answered = []

        def client():
            for _ in range(25):
                response = request_over_socket(
                    socket_path, {"op": "ping"}, timeout=10
                )
                answered.append(response["status"])

        try:
            clients = [threading.Thread(target=client) for _ in range(8)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=60)
                assert not t.is_alive()
            assert answered == ["ok"] * 200
            wait_until(
                lambda: len(connection_threads(before)) <= 1, timeout=10
            )
        finally:
            sys.setswitchinterval(interval)
            stop_daemon(*daemon)

    def test_idle_client_does_not_block_a_hit(self, tmp_path):
        daemon = start_daemon(tmp_path)
        service, server, _thread, socket_path = daemon
        # Warm the store in-process: a worker forked while a client
        # socket of this process is open would hold that socket's end.
        assert service.synthesize(SWAP_01)["cache"] == "miss"
        idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            request_over_socket(socket_path, {"op": "ping"}, timeout=10)
            # The idle client takes the parked spare and sends nothing.
            wait_until(lambda: server._spare is not None, timeout=10)
            idle.connect(socket_path)
            wait_until(lambda: server._spare is None, timeout=10)
            started = time.monotonic()
            hit = request_over_socket(
                socket_path, {"op": "synth", "spec": SWAP_02}, timeout=5
            )
            assert hit["status"] == "ok" and hit["cache"] == "hit"
            assert time.monotonic() - started < 5
        finally:
            idle.close()
            stop_daemon(*daemon)

    def test_close_ends_the_spare_thread(self, tmp_path):
        before = {t.ident for t in connection_threads()}
        daemon = start_daemon(tmp_path)
        _service, server, _thread, socket_path = daemon
        for _ in range(3):
            request_over_socket(socket_path, {"op": "ping"}, timeout=10)
        # A connection still open at close ends its thread afterwards;
        # that thread must exit rather than park.
        wait_until(lambda: server._spare is not None, timeout=10)
        idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        idle.connect(socket_path)
        wait_until(lambda: server._spare is None, timeout=10)
        stop_daemon(*daemon)
        idle.close()
        for leftover in connection_threads(before):
            leftover.join(timeout=5)
            assert not leftover.is_alive()

    def test_stats_document_shape(self, tmp_path):
        service, _store, _registry = make_service(tmp_path)
        try:
            service.synthesize(SWAP_01)
            document = service.stats()
            assert document["schema"] == "rmrls-serve-stats"
            assert document["inflight"] == 0
            json.dumps(document)  # JSON-safe end to end
        finally:
            service.close()
