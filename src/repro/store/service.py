"""The cache-through synthesis service.

:class:`SynthesisService` is the layer that turns the circuit store
into *synthesis as a service*: a request is canonicalized, answered
from the store when the class is known (with the cached canonical
circuit relabeled back onto the caller's wires and re-verified by
simulation before it is served), and otherwise synthesized on the PR-2
:class:`~repro.harness.pool.WorkerPool` — with all concurrently
arriving requests for the same canonical class *single-flighted* onto
one search.  An idle batcher starts a miss the moment it arrives;
misses that arrive while a pool run is in flight share the next run.
The pool's workers outlive a miss: each is forked at the first miss
that needs it and serves every later one until an unclean end retires
it or :meth:`SynthesisService.close` does.
A synthesized circuit is simulation-verified against the canonical
class before it is stored, and again on the caller's wires before it
is served; a circuit failing either check is answered ``unsound``.

The service never fails a request because of the cache:

* no store configured, or the store directory unopenable — requests
  are synthesized with ``cache="bypass"``;
* store readable but not writable (``read_only``, full disk, injected
  fault) — results are served and ``store_write_errors_total`` counts
  the loss;
* a cached record that fails replay verification is *never served*:
  it is dropped from the serving index, counted in
  ``store_cache_quarantined_total``, and the request proceeds as a
  miss (``rmrls store repair --deep`` moves the bad record aside
  durably).

Observability: hit/miss/coalesce/quarantine counters in a PR-1
:class:`~repro.obs.metrics.MetricsRegistry` (read through the daemon's
``stats`` op).

:func:`serve` wraps the service in a long-running unix-socket daemon
speaking newline-delimited JSON (ops ``synth``/``stats``/``ping``/
``shutdown``); :func:`request_over_socket` is the matching one-call
client used by ``rmrls client`` and the CI smoke job.  The daemon
(:class:`StoreServer`) serves each connection on its own thread but
reuses threads: a finished connection's thread parks as the one spare
and takes the next connection, so a hit costs no thread start.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import socketserver
import threading
import time

from repro.functions.permutation import Permutation
from repro.harness.pool import WorkerBudget, WorkerPool
from repro.harness.retry import RetryPolicy
from repro.harness.tasks import (
    options_from_payload,
    options_payload,
    permutation_task,
)
from repro.io.real_format import dump_real, load_real
from repro.obs.flight import FlightRecorder, end_recording
from repro.obs.metrics import MetricsRegistry
from repro.store.canonical import CanonicalizationError, canonicalize
from repro.store.store import CircuitStore, StoreError

__all__ = [
    "SERVICE_SCHEMA",
    "SERVICE_VERSION",
    "SynthesisService",
    "StoreServer",
    "default_service_options",
    "serve",
    "request_over_socket",
    "parse_images",
]

SERVICE_SCHEMA = "rmrls-serve"
SERVICE_VERSION = 1

#: Request-latency histogram buckets (seconds): cache hits land in the
#: sub-10ms buckets, synthesis misses spread over the right tail.
LATENCY_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)


def default_service_options():
    """The service's synthesis defaults for unadorned requests.

    The library-wide defaults (no dedupe table, no step cap) are right
    for a caller who owns the process and wants the paper's exact
    search, but a daemon must bound every request: visited-state
    deduplication plus a hard step cap keeps worst-case 3/4-variable
    functions in milliseconds and turns pathological requests into
    clean ``unsolved`` responses instead of a wedged worker.  Requests
    override any field via their ``options`` object.
    """
    from repro.synth.options import SynthesisOptions

    return SynthesisOptions(dedupe_states=True, max_steps=200_000)


def parse_images(spec) -> list[int]:
    """Accept a JSON image list or the CLI's ``"1,0,7,..."`` string."""
    if isinstance(spec, str):
        parts = [part for part in spec.replace(",", " ").split() if part]
        return [int(part) for part in parts]
    if isinstance(spec, (list, tuple)):
        return [int(value) for value in spec]
    raise ValueError(f"cannot parse specification {spec!r}")


class _Flight:
    """One in-flight canonical class: a result slot plus its latch."""

    __slots__ = ("event", "result")

    def __init__(self):
        self.event = threading.Event()
        self.result = None


class SynthesisService:
    """Canonicalize → store lookup → single-flighted batched synthesis."""

    def __init__(
        self,
        store: CircuitStore | None = None,
        options=None,
        jobs: int = 1,
        metrics: MetricsRegistry | None = None,
        wall_seconds: float | None = None,
        mem_limit_mb: int | None = None,
        retry: RetryPolicy | None = None,
        flight_dir: str | None = None,
    ):
        self.store = store
        self.default_options = options_payload(
            options if options is not None else default_service_options()
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.flight = None
        if flight_dir:
            # The daemon's black box: the tail of recent request
            # outcomes, dumped only on an abnormal daemon exit.  Fault
            # injection stays with synthesis workers.
            self.flight = FlightRecorder(
                os.path.join(flight_dir, "serve.ring"),
                meta={"process": "serve", "jobs": jobs},
                faults="none",
            )
        self._pool = WorkerPool(
            jobs=jobs,
            budget=WorkerBudget(
                wall_seconds=wall_seconds, mem_limit_mb=mem_limit_mb
            ),
            retry=retry if retry is not None else RetryPolicy(),
            flight_dir=flight_dir,
        )
        self._git_sha = self._resolve_git_sha()
        self._lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}
        self._queue: list[dict] = []
        self._cond = threading.Condition(self._lock)
        self._stopped = False
        self._batcher = threading.Thread(
            target=self._batch_loop, name="rmrls-serve-batcher", daemon=True
        )
        self._batcher.start()

    @staticmethod
    def _resolve_git_sha():
        try:
            from repro.perf.report import git_info

            return git_info().get("sha")
        except Exception:  # pragma: no cover - provenance is best-effort
            return None

    # -- the request path -----------------------------------------------------

    def synthesize(self, spec, options: dict | None = None) -> dict:
        """Answer one request; returns the JSON-safe response dict.

        ``spec`` is an image list (or comma string); ``options`` is an
        optional JSON-safe overrides dict merged over the service
        defaults.  The response's ``cache`` field says how the request
        was satisfied: ``hit``, ``miss`` (this request led the
        search), ``coalesced`` (another in-flight request led it), or
        ``bypass`` (no usable store).
        """
        started = time.monotonic()
        self.metrics.counter("serve_requests_total").inc()
        try:
            response = self._synthesize(spec, options)
        except (ValueError, CanonicalizationError) as error:
            self.metrics.counter("serve_errors_total").inc()
            response = {
                "status": "error",
                "cache": None,
                "error": str(error),
            }
        response.setdefault("schema", SERVICE_SCHEMA)
        response.setdefault("version", SERVICE_VERSION)
        elapsed = time.monotonic() - started
        response["elapsed_seconds"] = elapsed
        # Per-outcome latency histogram: hits should sit in the sub-10ms
        # buckets; a hit latency drifting into the miss bands is the
        # first sign of store trouble.
        outcome = response.get("cache") or response["status"]
        self.metrics.histogram(
            "serve_request_seconds", LATENCY_BOUNDS,
            labels={"outcome": str(outcome)},
        ).observe(elapsed)
        if self.flight is not None:
            try:
                self.flight.record(
                    "request",
                    status=response["status"],
                    cache=response.get("cache"),
                    key=(response.get("key") or "")[:16] or None,
                    gates=response.get("gates"),
                    elapsed=round(elapsed, 6),
                )
            except Exception:  # recording must not fail a request
                pass
        return response

    def _synthesize(self, spec, options: dict | None) -> dict:
        images = parse_images(spec)
        permutation = Permutation(images)
        canonical = canonicalize(permutation)
        merged = dict(self.default_options)
        merged.update(options or {})
        base = {
            "key": canonical.key,
            "num_vars": canonical.num_vars,
            "relabel": list(canonical.relabel),
        }

        cached = self._lookup(canonical, permutation)
        if cached is not None:
            circuit, gates = cached
            self.metrics.counter("store_cache_hits_total").inc()
            return {
                **base,
                "status": "ok",
                "cache": "hit",
                "gates": gates,
                "circuit": str(circuit),
                "real": dump_real(circuit),
            }

        flight, leader = self._join_flight(canonical, merged)
        if not leader:
            self.metrics.counter("store_singleflight_coalesced_total").inc()
            cache = "coalesced"
        elif self.store is None:
            self.metrics.counter("store_cache_bypass_total").inc()
            cache = "bypass"
        else:
            self.metrics.counter("store_cache_misses_total").inc()
            cache = "miss"
        flight.event.wait()
        result = flight.result
        if result["status"] == "ok":
            circuit = canonical.from_canonical(result["circuit"])
            if not circuit.implements(permutation):
                result = {"status": "unsound",
                          "error": "relabeled circuit fails simulation"}

        if result["status"] != "ok":
            if result["status"] == "unsolved":
                self.metrics.counter("serve_unsolved_total").inc()
            else:
                self.metrics.counter("serve_errors_total").inc()
            return {
                **base,
                "status": result["status"],
                "cache": cache,
                "gates": None,
                "error": result.get("error"),
            }
        return {
            **base,
            "status": "ok",
            "cache": cache,
            "gates": circuit.gate_count(),
            "circuit": str(circuit),
            "real": dump_real(circuit),
        }

    def _lookup(self, canonical, permutation):
        """Store lookup plus replay verification; ``None`` on any miss.

        A record that fails verification is quarantined from serving
        (dropped from the live index and counted); the caller proceeds
        as a miss, so a corrupted store degrades to slower requests,
        never to wrong circuits.
        """
        if self.store is None:
            return None
        try:
            record = self.store.get(canonical.key)
        except (StoreError, OSError):
            self.metrics.counter("store_read_errors_total").inc()
            return None
        if record is None:
            return None
        try:
            circuit = canonical.from_canonical(record.circuit())
            if circuit.implements(permutation):
                return circuit, circuit.gate_count()
        except (ValueError, KeyError):
            pass
        self.metrics.counter("store_cache_quarantined_total").inc()
        try:
            self.store.discard(canonical.key)
        except StoreError:  # pragma: no cover - discard is in-memory
            pass
        return None

    def _join_flight(self, canonical, options: dict):
        """Join (or open) the single flight for a canonical class."""
        with self._cond:
            flight = self._flights.get(canonical.key)
            if flight is not None:
                return flight, False
            flight = _Flight()
            self._flights[canonical.key] = flight
            self._queue.append(
                {"canonical": canonical, "options": options, "flight": flight}
            )
            self._cond.notify_all()
            return flight, True

    # -- the miss batcher ------------------------------------------------------

    def _batch_loop(self):
        # Everything queued when the batcher wakes is one pool run; misses
        # arriving during that run queue up as the next one.
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if not self._queue:
                    return
                jobs, self._queue = self._queue, []
            try:
                self._run_batch(jobs)
            except BaseException as error:  # the batcher must survive
                self._resolve_all(
                    jobs, {"status": "error", "error": repr(error)}
                )

    def _run_batch(self, jobs) -> None:
        self.metrics.counter("serve_batches_total").inc()
        self.metrics.counter("serve_batch_tasks_total").inc(len(jobs))
        by_task: dict[str, dict] = {}
        tasks = []
        for job in jobs:
            options = options_from_payload(job["options"])
            task = permutation_task(
                list(job["canonical"].images),
                options=options,
                meta={"label": f"serve:{job['canonical'].key[:12]}"},
                namespace="serve",
            )
            by_task[task.task_id] = job
            tasks.append(task)

        def on_final(task, outcome):
            job = by_task.get(task.task_id)
            if job is None:  # pragma: no cover - pool invariant
                return
            self._finish_job(job, outcome)

        try:
            self._pool.run(tasks, on_final=on_final)
        finally:
            remaining = [
                job for job in jobs if not job["flight"].event.is_set()
            ]
            if remaining:
                self._resolve_all(
                    remaining,
                    {"status": "error", "error": "worker pool dropped task"},
                )

    def _finish_job(self, job, outcome) -> None:
        canonical = job["canonical"]
        result = {"status": outcome.status, "error": outcome.error}
        if outcome.status == "ok":
            try:
                circuit = load_real(outcome.circuit or "")
                sound = circuit.implements(canonical.canonical_permutation())
            except ValueError:
                sound = False
            if sound:
                self._store_result(job, outcome, circuit)
                result = {"status": "ok", "circuit": circuit}
            else:
                result = {"status": "unsound",
                          "error": "worker circuit fails simulation"}
        with self._cond:
            self._flights.pop(canonical.key, None)
        job["flight"].result = result
        job["flight"].event.set()

    def _store_result(self, job, outcome, circuit) -> None:
        """Persist a verified result; a failing store never fails the job."""
        if self.store is None:
            return
        canonical = job["canonical"]
        try:
            provenance = {
                "source": "serve",
                "engine": outcome.extra.get("engine"),
                "options": dict(job["options"]),
                "git_sha": self._git_sha,
                "task_id": outcome.task_id,
            }
            # The worker synthesized the canonical representative
            # directly, so the record is stored under the identity
            # witness, not the triggering caller's relabeling.
            self.store.put(
                canonical.canonical_form(), circuit, provenance=provenance
            )
            self.metrics.gauge("store_keys").set(len(self.store))
        except (StoreError, ValueError, OSError):
            self.metrics.counter("store_write_errors_total").inc()

    def _resolve_all(self, jobs, result: dict) -> None:
        for job in jobs:
            with self._cond:
                self._flights.pop(job["canonical"].key, None)
            if not job["flight"].event.is_set():
                job["flight"].result = dict(result)
                job["flight"].event.set()

    # -- reporting / lifecycle --------------------------------------------------

    def stats(self) -> dict:
        with self._cond:
            inflight = len(self._flights)
        store_stats = None
        if self.store is not None:
            try:
                store_stats = self.store.stats()
            except (StoreError, OSError):
                self.metrics.counter("store_read_errors_total").inc()
        return {
            "schema": f"{SERVICE_SCHEMA}-stats",
            "version": SERVICE_VERSION,
            "inflight": inflight,
            "store": store_stats,
            "metrics": self.metrics.as_dict(),
        }

    def close(self, error: BaseException | None = None) -> None:
        """Stop the batcher and retire the pool's workers; fail any
        still-queued flights loudly.  ``error`` is the exception the
        daemon is ending on: it turns the flight ring into a crash dump
        (see :func:`~repro.obs.flight.end_recording`)."""
        with self._cond:
            self._stopped = True
            pending, self._queue = self._queue, []
            self._cond.notify_all()
        self._resolve_all(
            pending, {"status": "error", "error": "service closed"}
        )
        self._batcher.join(timeout=10.0)
        self._pool.close()
        end_recording(self.flight, error)
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "SynthesisService":
        return self

    def __exit__(self, exc_type, error, traceback) -> None:
        self.close(error)


# -- the unix-socket daemon ----------------------------------------------------


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            request = None
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except (ValueError, UnicodeDecodeError) as error:
                response = {"status": "error", "error": f"bad request: {error}"}
            else:
                response = self.server.dispatch(request)
            self.wfile.write(
                (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
            )
            self.wfile.flush()
            if isinstance(request, dict) and request.get("op") == "shutdown":
                return


class StoreServer(socketserver.UnixStreamServer):
    """Newline-delimited-JSON synthesis daemon over a unix socket.

    Every connection runs on its own daemon thread, but threads are
    reused: one that finishes a connection parks as the single spare,
    and the next accepted connection is handed to it instead of
    starting a thread.  A connection that arrives while no thread is
    parked gets a new one, so concurrency stays unbounded and an idle
    client never blocks another; after a burst, every thread but the
    spare exits."""

    allow_reuse_address = True
    # A burst of clients must queue, not fail: once socketserver's
    # default backlog of 5 is full, a client's connect() with a timeout
    # gets EAGAIN instead of waiting.
    request_queue_size = socket.SOMAXCONN

    def __init__(self, socket_path: str, service: SynthesisService):
        self.socket_path = str(socket_path)
        self.service = service
        self._spare_lock = threading.Lock()
        self._spare: queue.SimpleQueue | None = None
        self._closed = False
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        super().__init__(self.socket_path, _Handler)

    def process_request(self, request, client_address):
        with self._spare_lock:
            spare, self._spare = self._spare, None
        if spare is not None:
            spare.put((request, client_address))
            return
        threading.Thread(
            target=self._connection_loop,
            args=(request, client_address),
            name="rmrls-serve-connection",
            daemon=True,
        ).start()

    def _connection_loop(self, request, client_address):
        inbox = queue.SimpleQueue()
        while request is not None:
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._spare_lock:
                if self._closed or self._spare is not None:
                    return
                self._spare = inbox
            request, client_address = inbox.get()

    def server_close(self):
        super().server_close()
        with self._spare_lock:
            self._closed = True
            spare, self._spare = self._spare, None
        if spare is not None:
            spare.put((None, None))

    def dispatch(self, request: dict) -> dict:
        op = request.get("op", "synth")
        if op == "ping":
            return {"status": "ok", "op": "ping"}
        if op == "stats":
            return {"status": "ok", "stats": self.service.stats()}
        if op == "shutdown":
            threading.Thread(target=self.shutdown, daemon=True).start()
            return {"status": "ok", "shutting_down": True}
        if op != "synth":
            return {"status": "error", "error": f"unknown op {op!r}"}
        if "spec" not in request:
            return {
                "status": "error",
                "error": "synth request needs a 'spec' field",
            }
        return self.service.synthesize(request["spec"], request.get("options"))

    def close(self) -> None:
        self.server_close()
        if os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:  # pragma: no cover - unlink race
                pass


def serve(
    socket_path: str,
    service: SynthesisService,
    ready=None,
) -> None:
    """Run the daemon until a ``shutdown`` request (or KeyboardInterrupt).

    ``ready`` is an optional callable invoked once the socket is bound
    and accepting — the tests and the CI job use it to synchronize
    instead of polling."""
    server = StoreServer(socket_path, service)
    error = None
    try:
        if ready is not None:
            ready(server)
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    except BaseException as caught:
        error = caught
        raise
    finally:
        server.close()
        service.close(error)


def request_over_socket(
    socket_path: str, request: dict, timeout: float = 600.0
) -> dict:
    """Send one JSON request to a running daemon; return its response."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(str(socket_path))
        sock.sendall(
            (json.dumps(request, sort_keys=True) + "\n").encode("utf-8")
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        data = b"".join(chunks)
    if not data:
        raise ConnectionError(f"no response from daemon at {socket_path}")
    return json.loads(data.decode("utf-8"))
