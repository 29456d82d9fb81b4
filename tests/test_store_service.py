"""The cache-through synthesis service and its unix-socket daemon.

Covers the four cache outcomes (miss, hit, coalesced, bypass), hit
verification with quarantine-on-mismatch, graceful degradation when
the store misbehaves, and one full daemon round trip over the socket
with OpenMetrics export.
"""

import json
import os
import threading

from repro.circuits.circuit import Circuit
from repro.functions.permutation import Permutation
from repro.gates.toffoli import ToffoliGate
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


def counter(registry, name) -> int:
    metric = registry.as_dict().get(name)
    return 0 if metric is None else metric["value"]


def make_service(tmp_path, **kwargs):
    registry = MetricsRegistry()
    store = CircuitStore(str(tmp_path / "store"))
    service = SynthesisService(
        store=store, options=QUICK, metrics=registry,
        batch_window_seconds=0.01, **kwargs,
    )
    return service, store, registry


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
        try:
            responses = [None] * 6
            def work(i):
                responses[i] = service.synthesize(SWAP_01)
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r["status"] == "ok" for r in responses)
            assert len({r["real"] for r in responses}) == 1
            assert counter(registry, "store_cache_misses_total") == 1
            assert counter(
                registry, "store_singleflight_coalesced_total"
            ) == 5
        finally:
            service.close()

    def test_no_store_means_bypass(self):
        registry = MetricsRegistry()
        service = SynthesisService(
            store=None, options=QUICK, metrics=registry,
            batch_window_seconds=0.01,
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
        metrics_path = str(tmp_path / "metrics.txt")
        server = StoreServer(socket_path, service,
                             openmetrics=metrics_path)
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
            bad = request_over_socket(socket_path, {"op": "nonsense"})
            assert bad["status"] == "error"
            down = request_over_socket(socket_path, {"op": "shutdown"})
            assert down["shutting_down"]
            thread.join(timeout=10)
            assert not thread.is_alive()
            text = open(metrics_path).read()
            assert "store_cache_hits_total" in text
            assert "store_cache_misses_total" in text
        finally:
            server.close()
            service.close()
        assert not os.path.exists(socket_path)

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
