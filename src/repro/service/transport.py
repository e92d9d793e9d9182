"""SHA-256-framed JSON over stdlib HTTP: the multi-host wire protocol.

ROADMAP item 5's scale step — many hosts feeding one store — needs a
transport, and this module is deliberately the *smallest* one that can
carry the lease protocol safely:

* **framing** — every request and response body is
  ``REPRO-WIRE-1\\n<sha256 hex>\\n<canonical JSON>``, the same
  digest-before-payload frame as the content store's entries
  (:mod:`repro.store`).  A truncated or bit-flipped body fails
  :func:`unframe_payload` and reads as *no* message, never as a
  different message — the property every torn-write recovery below
  leans on;
* **canonical JSON** — ``sort_keys`` + compact separators, so one
  logical payload has exactly one byte encoding and
  :func:`aggregate_state_digest` of a shard aggregate's
  ``to_state()`` is a stable identity the lease table can compare for
  idempotent completion;
* **client retries** — :class:`TransportClient` retries transient
  failures (connection refused, timeouts, 4xx/5xx, torn frames) with
  an exponential-backoff-plus-deterministic-jitter schedule
  (:func:`backoff_delay`), counts
  each retry on the always-on ``transport_retry`` resilience counter,
  and surfaces exhaustion as :exc:`CoordinatorUnreachable`, the
  worker's terminal exit 5;
* **chaos hooks** — an optional
  :class:`~repro.resilience.NetworkFaultInjector` sits *inside* the
  client: each logical request gets a stable fault key
  (``endpoint#<per-endpoint sequence>``) and each attempt of it draws
  its own deterministic fate (drop / drop-response / delay / duplicate
  / truncate), so the chaos suite storms the protocol reproducibly;
* **server** — :class:`CoordinatorServer`, the one HTTP server in the
  package: a ThreadingHTTPServer with POST endpoints (``/submit``,
  ``/claim``, ``/renew``, ``/upload``) dispatched to a coordinator's
  ``handle()``, plus ``GET /status`` (framed JSON) and ``GET /metrics``
  (Prometheus text from the live registry, so one port serves both
  protocol and scrape).

The transport carries *state dictionaries*, as the store and the shard
logs persist them: shard aggregates cross the wire as their JSON-safe
``to_state()`` form and are rebuilt with ``from_state`` on the
coordinator — no remote peer can make this process run code it sent.

See MODELING.md §15 for the protocol and failure matrix.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

import numpy as np

from repro.ioutil import canonical_json, frame, unframe
from repro.obs import trace as obs
from repro.resilience import faults as fault_mod

__all__ = [
    "CoordinatorServer",
    "CoordinatorUnreachable",
    "LeaseQuarantinedError",
    "METRICS_CONTENT_TYPE",
    "TransportClient",
    "TransportError",
    "WIRE_MAGIC",
    "WireError",
    "aggregate_state_digest",
    "frame_payload",
    "unframe_payload",
]

#: Leading bytes of every wire frame (versioned, like the store's).
WIRE_MAGIC = b"REPRO-WIRE-1\n"

#: Wire bodies are framed bytes, not naked JSON.
WIRE_CONTENT_TYPE = "application/x-repro-wire"

#: The POST endpoints a coordinator serves (also its ``handle`` verbs).
ENDPOINTS = ("submit", "claim", "renew", "upload")

#: Client retry schedule: the first delay (s), the ceiling (s) and the
#: largest extra fraction the deterministic jitter adds.
BACKOFF_BASE = 0.02
BACKOFF_CAP = 0.5
BACKOFF_JITTER = 0.25


def backoff_delay(seq: int, attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1, 2, ...) of request
    ``seq``: doubling from :data:`BACKOFF_BASE` up to
    :data:`BACKOFF_CAP`, plus a jitter drawn from ``(seq, attempt)``
    alone — it decorrelates retry storms and replays exactly."""
    base = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** max(0, attempt - 1)))
    jitter = np.random.default_rng(
        np.random.SeedSequence([seq, attempt, 0xBACC0FF])
    ).random()
    return base * (1.0 + BACKOFF_JITTER * jitter)


class TransportError(RuntimeError):
    """A transient transport failure — safe (and expected) to retry."""


class WireError(TransportError):
    """A frame failed its integrity check (torn, truncated, foreign)."""


class CoordinatorUnreachable(TransportError):
    """Every retry of a request failed; the coordinator is gone."""


class LeaseQuarantinedError(RuntimeError):
    """The coordinator quarantined this worker's upload: its shard
    digest disagreed with an already-recorded completion.  Terminal —
    two exact computations of one shard can only disagree if the worker
    (or the wire, past the framing check) is broken."""


def frame_payload(obj: Any) -> bytes:
    """Encode ``obj`` as a digest-framed canonical-JSON wire body."""
    return frame(WIRE_MAGIC, canonical_json(obj).encode("utf-8"))


def unframe_payload(data: bytes) -> Any:
    """Decode a wire body, or raise :exc:`WireError` if it fails any
    of: magic, digest-line shape, SHA-256 match, JSON parse."""
    try:
        return json.loads(unframe(WIRE_MAGIC, data).decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError/UnicodeDecodeError too
        raise WireError(f"bad wire frame: {exc}") from exc


def aggregate_state_digest(state: Any) -> str:
    """Canonical identity of one shard aggregate's ``to_state()``.

    Both ends compute it — the worker to claim what it uploads, the
    coordinator to verify before merging — so the lease table's
    byte-identical idempotence check compares like with like.
    """
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


class TransportClient:
    """Retrying, fault-injectable POST client for one coordinator.

    Each logical request gets a per-endpoint sequence number; the fault
    key handed to the injector is ``"<endpoint>#<seq>"`` and the attempt
    number is the retry index, so a request dropped on attempt 0
    deterministically succeeds on a later attempt — storms stall
    progress, never wedge it.
    """

    def __init__(
        self,
        base_url: str,
        *,
        retries: int = 5,
        timeout: float = 10.0,
        fault_injector: Optional[fault_mod.NetworkFaultInjector] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.retries = int(retries)
        self.timeout = float(timeout)
        self.faults = fault_injector
        self._seq: Dict[str, int] = {}

    def call(self, endpoint: str, payload: Any) -> Any:
        """POST ``payload`` to ``/<endpoint>``; returns the unframed
        response.  Retries every :exc:`TransportError` up to
        ``retries`` times, then raises :exc:`CoordinatorUnreachable`.
        """
        seq = self._seq[endpoint] = self._seq.get(endpoint, 0) + 1
        fault_key = f"{endpoint}#{seq}"
        body = frame_payload(payload)
        last: Optional[TransportError] = None
        for attempt in range(self.retries + 1):
            if attempt:
                obs.record_resilience_event(
                    "transport_retry",
                    detail=f"{fault_key} attempt={attempt}: {last}",
                )
                time.sleep(backoff_delay(seq, attempt))
            try:
                return self._attempt(endpoint, body, fault_key, attempt)
            except TransportError as exc:
                last = exc
        raise CoordinatorUnreachable(
            f"{self.base_url}/{endpoint} failed "
            f"{self.retries + 1} attempts: {last}"
        )

    def _attempt(
        self, endpoint: str, body: bytes, fault_key: str, attempt: int
    ) -> Any:
        fault = (
            self.faults.decide(fault_key, attempt)
            if self.faults is not None
            else None
        )
        if fault == fault_mod.DROP:
            # The bytes never leave: indistinguishable (to us) from a
            # connection that died pre-send.
            raise TransportError(f"injected drop of {fault_key}")
        send = body
        if fault == fault_mod.TRUNCATE:
            send = self.faults.truncate_bytes(body)
        if fault == fault_mod.DELAY:
            time.sleep(self.faults.spec.delay_seconds)
        raw = self._post(endpoint, send)
        if fault == fault_mod.DUPLICATE:
            # A retransmit: the server sees the request twice; the
            # caller acts on the second response (both must agree — that
            # is what endpoint idempotence means).
            raw = self._post(endpoint, send)
        if fault == fault_mod.DROP_RESPONSE:
            # The server executed the request; we never learn.  The
            # retry re-executes it — endpoints must tolerate that.
            raise TransportError(f"injected response drop of {fault_key}")
        return unframe_payload(raw)

    def _post(self, endpoint: str, body: bytes) -> bytes:
        request = urllib.request.Request(
            f"{self.base_url}/{endpoint}",
            data=body,
            headers={"Content-Type": WIRE_CONTENT_TYPE},
            method="POST",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            # 400 is the server rejecting a torn frame (we may have
            # truncated it ourselves); 5xx is the server hurting.  Both
            # are retried — idempotent endpoints make that safe.
            raise TransportError(
                f"HTTP {exc.code} from /{endpoint}"
            ) from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise TransportError(f"/{endpoint}: {exc}") from exc


#: Prometheus text exposition content type (``GET /metrics``).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class CoordinatorServer:
    """Background HTTP front end for one coordinator.

    A ``ThreadingHTTPServer`` on a daemon thread, ``port=0`` for an
    ephemeral port, request logging suppressed.  POST bodies are
    unframed (400 on a torn frame — the client retries), dispatched to
    ``coordinator.handle(endpoint, payload)`` under the coordinator's
    own lock, and the response framed back.  ``GET /metrics`` serves
    the live registry so the coordinator port is also the scrape port.
    """

    def __init__(
        self,
        coordinator: Any,
        *,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        coord = coordinator

        class Handler(BaseHTTPRequestHandler):
            def _reply(
                self, code: int, body: bytes, content_type: str
            ) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
                endpoint = self.path.split("?", 1)[0].strip("/")
                if endpoint not in ENDPOINTS:
                    self.send_error(404, f"no such endpoint /{endpoint}")
                    return
                length = int(self.headers.get("Content-Length", 0))
                data = self.rfile.read(length)
                try:
                    payload = unframe_payload(data)
                except WireError as exc:
                    obs.record_resilience_event(
                        "wire_reject", detail=f"{endpoint}: {exc}"
                    )
                    self.send_error(400, f"bad frame: {exc}")
                    return
                try:
                    response = coord.handle(endpoint, payload)
                except Exception as exc:  # noqa: BLE001 - wire boundary
                    # A handler bug must not kill the server thread;
                    # 500 lets the worker retry.
                    self.send_error(500, f"{type(exc).__name__}: {exc}")
                    return
                self._reply(
                    200, frame_payload(response), WIRE_CONTENT_TYPE
                )

            def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    tracer = obs.TRACER
                    registry = (
                        tracer.metrics if tracer is not None else None
                    )
                    body = (
                        registry.render_text()
                        if registry is not None
                        else ""
                    ).encode("utf-8")
                    self._reply(200, body, METRICS_CONTENT_TYPE)
                    return
                if path == "/status":
                    self._reply(
                        200,
                        frame_payload(coord.status()),
                        WIRE_CONTENT_TYPE,
                    )
                    return
                self.send_error(404, "serves /status and /metrics")

            def log_message(self, format: str, *args) -> None:
                pass  # the lease chatter must not spam the service log

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-coordinator-http",
            daemon=True,
        )
        self._thread.start()
        self.host = host

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "CoordinatorServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
