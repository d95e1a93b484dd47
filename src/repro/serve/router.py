"""Fleet serving: a consistent-hash router over N :class:`AssertHttpServer`
backends, speaking the exact wire protocol of :mod:`repro.serve.http`.

A single instance (PR 5/6) is fast; the router makes N of them behave
like one bigger instance without forking the protocol or the bytes:

- **Consistent-hash routing on the request content key.**  The ring
  hashes ``SolveRequest.cache_key()`` — the same digest the service
  dedups and caches on — so repeat designs land on the backend whose
  ``ResultCache`` already holds them.  The fleet's per-instance caches
  then compose into one aggregate cache ~N times the size, which is
  where the fleet's throughput win comes from even before multi-core
  compute scaling (measured by ``benchmarks/bench_fleet.py``).
- **Health ejection with probed re-admission.**  A background probe
  hits every backend's ``/healthz``; failures eject the backend from
  *routing* but never from the *ring*, so when it is re-admitted the
  key->backend map — and therefore cache affinity — is exactly what it
  was before the blip.
- **429 spillover.**  A backend answering 429 (queue full) is healthy
  but busy: the router walks the key's ring order and offers the
  request to the next distinct backend.  Only if every backend refuses
  does the client see the final 429 (Retry-After relayed).  Spillover
  and connection-error failover are sound because responses are pure
  functions of the content key — re-executing a request elsewhere
  yields byte-identical bytes.
- **Fleet-wide ``/statsz``.**  Numeric fields of every backend's
  snapshot are summed into one fleet view (``service`` / ``store`` /
  ``solve_profile``), with per-backend snapshots and router counters
  alongside — ratios only make sense per backend, so read them there.
- **Graceful drain that propagates.**  ``close()`` stops accepting,
  lets in-flight forwards finish against still-live backends (handler
  threads are joined), and only then drains the backends themselves
  (when ``manage_backends=True``) — in-flight clients get real
  responses end to end.

The router is a pure execution layer: bodies it relays are the
backend's bytes verbatim, and bodies it must synthesize itself (400,
404, 413) reuse the single-instance handler's serialization so they
stay byte-identical too.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from bisect import bisect_right, insort
from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union
from urllib.parse import unquote, urlsplit

from repro import cov
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.codecs import eval_request_from_json, request_from_json
from repro.serve.http import (
    PROMETHEUS_CONTENT_TYPE,
    AssertHttpServer,
    _Handler,
    _query_int_params,
    _ThreadedHTTPServer,
)
from repro.serve.service import ServiceClosed

__all__ = [
    "FleetRouter",
    "HashRing",
    "RouterConfig",
]


# -- consistent-hash ring ------------------------------------------------------


class HashRing:
    """Consistent-hash ring with virtual nodes (sha256 points).

    Nodes and keys hash onto one 64-bit circle; a key is owned by the
    first node point clockwise of its own hash.  ``replicas`` virtual
    points per node keep the shares balanced, and adding or removing a
    node only moves the ~1/N of keys on the arcs it gains or cedes —
    every other key keeps its owner, which is what keeps fleet cache
    affinity stable as backends come and go (asserted by tests).
    """

    def __init__(self, nodes: Iterable[str] = (), replicas: int = 64):
        if not isinstance(replicas, int) or isinstance(replicas, bool) \
                or replicas < 1:
            raise ValueError(f"replicas must be an integer >= 1, "
                             f"got {replicas!r}")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = []
        self._nodes: set = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(sha256(value.encode("utf-8")).digest()[:8],
                              "big")

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            insort(self._points, (self._hash(f"{node}#{replica}"), node))

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [point for point in self._points if point[1] != node]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def candidates(self, key: str) -> Iterator[str]:
        """Every node exactly once, in ring order from ``key``'s point:
        the owner first, then the spillover/failover order."""
        if not self._points:
            return
        start = bisect_right(self._points, (self._hash(key), "\U0010ffff"))
        seen: set = set()
        total = len(self._points)
        for step in range(total):
            node = self._points[(start + step) % total][1]
            if node not in seen:
                seen.add(node)
                yield node
                if len(seen) == len(self._nodes):
                    return

    def node_for(self, key: str) -> Optional[str]:
        """The owning node for ``key`` (``None`` on an empty ring)."""
        return next(self.candidates(key), None)


# -- config --------------------------------------------------------------------


@dataclass
class RouterConfig:
    """Router knobs (per-backend knobs live in ``ServeConfig``/``HttpConfig``)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral: read the bound port off the router
    #: Bodies above this are refused with 413 before being read (same
    #: default as ``HttpConfig`` so router and backend agree).
    max_body_bytes: int = 1 << 20
    #: How long one forwarded solve may take before the router gives up
    #: on that backend and fails over to the next ring candidate.
    forward_timeout_s: float = 300.0
    #: Socket budget for ``/healthz`` and ``/statsz`` probes.
    probe_timeout_s: float = 2.0
    #: Background health-probe period.  Probes are also how ejected
    #: backends get re-admitted, so this bounds the re-admission lag.
    health_interval_s: float = 1.0
    #: Virtual points per backend on the hash ring.
    ring_replicas: int = 64

    def validate(self) -> None:
        if not isinstance(self.port, int) or isinstance(self.port, bool) \
                or not 0 <= self.port <= 65535:
            raise ValueError(f"port must be an integer in [0, 65535], "
                             f"got {self.port!r}")
        for name in ("max_body_bytes", "ring_replicas"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}")
        for name in ("forward_timeout_s", "probe_timeout_s",
                     "health_interval_s"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or value <= 0:
                raise ValueError(
                    f"{name} must be a number > 0, got {value!r}")


# -- backend slots -------------------------------------------------------------


class _BackendSlot:
    """One routed backend: its address, health, and counters."""

    __slots__ = ("server", "host", "port", "name", "healthy", "forwarded",
                 "ejections", "readmissions", "last_error")

    def __init__(self, host: str, port: int,
                 server: Optional[AssertHttpServer] = None,
                 name: Optional[str] = None):
        self.server = server
        self.host = host
        self.port = port
        self.name = name
        self.healthy = True
        self.forwarded = 0
        self.ejections = 0
        self.readmissions = 0
        self.last_error = ""

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def node(self) -> str:
        """Ring identity: the stable name when one was given (so the
        key->backend map survives a backend restarting on a new port),
        else the address."""
        return self.name or self.address


#: Anything the router can front: a (managed or external) server object,
#: a "host:port" string, or a (host, port) tuple.
BackendSpec = Union[AssertHttpServer, str, Tuple[str, int]]


def _resolve_backend(spec: BackendSpec,
                     name: Optional[str] = None) -> _BackendSlot:
    if isinstance(spec, AssertHttpServer):
        host, port = spec.address  # raises if the server never started
        return _BackendSlot(host, port, server=spec, name=name)
    if isinstance(spec, str):
        host, _, port_text = spec.rpartition(":")
        if not host or not port_text.isdigit():
            raise ValueError(f"backend address must look like "
                             f"'host:port', got {spec!r}")
        return _BackendSlot(host, int(port_text), name=name)
    if isinstance(spec, tuple) and len(spec) == 2:
        return _BackendSlot(str(spec[0]), int(spec[1]), name=name)
    raise TypeError(f"backend must be an AssertHttpServer, 'host:port' "
                    f"string, or (host, port) tuple, got {type(spec).__name__}")


# -- handler -------------------------------------------------------------------


class _RouterHandler(_Handler):
    """Wire-compatible front door: same codes, same bodies.

    Inherits the single-instance handler's serialization helpers so any
    body the router synthesizes itself (400/404/413/503) is built by
    the very code a lone backend would use.
    """

    server_version = "repro-fleet/1"

    @property
    def ctx(self) -> "FleetRouter":  # type: ignore[override]
        return self.server.ctx

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/v1/solve":
            parse = request_from_json
        elif self.path == "/v1/eval":
            parse = eval_request_from_json
        else:
            self._send_error_json(404, f"no such endpoint: {self.path}")
            return
        ctx = self.ctx
        if ctx.draining:
            self.close_connection = True
            self._send_error_json(503, "server is draining")
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            self._send_error_json(400, "missing or invalid Content-Length")
            return
        if length > ctx.config.max_body_bytes:
            self.close_connection = True
            self._send_error_json(
                413, f"body of {length} bytes exceeds the "
                     f"{ctx.config.max_body_bytes}-byte limit")
            return
        body = self.rfile.read(length)

        # Validate locally with the backend's own parser: malformed
        # bodies get the identical 400 a lone instance would send, and
        # well-formed ones yield the content key the ring routes on —
        # eval repeats therefore land on the backend whose store memo
        # already holds their per-case outcomes.
        try:
            request = parse(body)
        except ValueError as exc:
            self._send_error_json(400, str(exc))
            return

        # The router roots (or continues) the request's trace; every
        # forward below injects X-Repro-Trace-Id, so the backend's
        # server span — and everything under it — joins this trace.
        incoming_id, incoming_parent = obs_trace.parse_trace_header(
            self.headers.get(obs_trace.TRACE_HEADER, ""))
        trace_id = incoming_id or obs_trace.trace_id_for(
            request.cache_key(), request.request_id)
        with obs_trace.span("fleet.route", parent=incoming_parent,
                            trace_id=trace_id, root=True) as route_span:
            routed = ctx.route_post(self.path, request.cache_key(), body)
            if routed is None:
                self.close_connection = True
                self._send_error_json(503, "no healthy backends")
                return
            status, headers, data = routed
            if route_span is not None:
                route_span.attrs["code"] = status
            relay: Dict[str, str] = {}
            if "retry-after" in headers:
                relay["Retry-After"] = headers["retry-after"]
            # The backend's bytes, verbatim: routing never re-serializes.
            self._send_body(status, data, relay or None)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        ctx = self.ctx
        parsed = urlsplit(self.path)
        try:
            params = _query_int_params(parsed.query)
        except ValueError as exc:
            self._send_error_json(400, str(exc))
            return
        route = parsed.path
        if route == "/healthz":
            healthy, total = ctx.health()
            fleet = {"healthy": healthy, "total": total}
            if ctx.draining:
                self.close_connection = True
                self._send_json(503, {"status": "draining",
                                      "backends": fleet})
            elif healthy == 0:
                self._send_json(503, {"status": "unavailable",
                                      "backends": fleet})
            else:
                self._send_json(200, {"status": "ok", "backends": fleet})
        elif route == "/statsz":
            self._send_json(200, ctx.statsz())
        elif route == "/metricsz":
            self._send_body(200, ctx.metricsz().encode("utf-8"),
                            content_type=PROMETHEUS_CONTENT_TYPE)
        elif route == "/tracez":
            self._send_json(200, ctx.tracez(limit=params.get("limit"),
                                            slowest=params.get("slowest")))
        elif route == "/covz":
            self._send_json(200, ctx.covz(limit=params.get("limit")))
        else:
            self._send_error_json(404, f"no such endpoint: {self.path}")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        for prefix in ("/v1/solve/", "/v1/eval/"):
            if self.path.startswith(prefix):
                break
        else:
            self._send_error_json(404, f"no such endpoint: {self.path}")
            return
        request_id = unquote(self.path[len(prefix):])
        if not request_id:
            self._send_error_json(400, "missing request_id")
            return
        cancelled = self.ctx.cancel_broadcast(request_id)
        self._send_json(200 if cancelled else 404,
                        {"request_id": request_id, "cancelled": cancelled})


# -- router --------------------------------------------------------------------


def _merge_numeric(total: Dict[str, float], payload: Dict[str, object]) -> None:
    """Sum ``payload``'s numeric fields into ``total`` (bools/strings skipped)."""
    for key, value in payload.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        total[key] = total.get(key, 0) + value


def _diag_query(**params: Optional[int]) -> str:
    """Rebuild the ``?limit=N&slowest=N`` suffix a fan-out forwards."""
    parts = [f"{name}={value}" for name, value in params.items()
             if value is not None]
    return f"?{'&'.join(parts)}" if parts else ""


class FleetRouter:
    """A consistent-hash HTTP router over N solve backends.

    Lifecycle::

        router = FleetRouter(backends, RouterConfig())   # or make_fleet()
        with router as r:
            client = AssertClient.for_server(r)          # same protocol
            ...
        # close(): stop accepting, finish in-flight forwards, then
        # drain the backends themselves (when manage_backends=True).

    ``backends`` may be server objects, ``"host:port"`` strings, or
    ``(host, port)`` tuples.  With ``manage_backends=True`` the router
    starts and drains the server objects with itself; address-only
    backends are always externally owned.

    ``node_names`` (optional, one per backend) fixes each backend's
    identity on the hash ring.  Without names the ring hashes the
    backend's ``host:port``; with names the key->backend map is
    independent of which (possibly ephemeral) port a backend bound, so
    cache affinity survives a backend restarting on a new address —
    ``make_fleet()`` names its backends ``backend-0..N-1``.
    """

    def __init__(self, backends: Sequence[BackendSpec],
                 config: Optional[RouterConfig] = None,
                 manage_backends: bool = False,
                 node_names: Optional[Sequence[str]] = None):
        if not backends:
            raise ValueError("FleetRouter needs at least one backend")
        if node_names is not None:
            names = list(node_names)
            if len(names) != len(backends):
                raise ValueError(
                    f"node_names must match backends: {len(names)} names "
                    f"for {len(backends)} backends")
            if any(not isinstance(name, str) or not name for name in names):
                raise ValueError("node_names must be non-empty strings")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate node names: {names}")
            self._node_names: Optional[List[str]] = names
        else:
            self._node_names = None
        self.config = config or RouterConfig()
        self.config.validate()
        self.manage_backends = manage_backends
        self.draining = False
        self._backends: List[BackendSpec] = list(backends)
        self._slots: List[_BackendSlot] = []
        self._by_node: Dict[str, _BackendSlot] = {}
        self._ring: Optional[HashRing] = None
        self._lock = threading.Lock()
        self._routed = 0
        self._spillovers = 0
        self._failovers = 0
        self._no_backend = 0
        self._cancel_broadcasts = 0
        self._httpd: Optional[_ThreadedHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._health_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False
        self.metrics = obs_metrics.MetricsRegistry()
        self._http_requests = self.metrics.counter_family(
            "repro_http_requests_total", "HTTP responses sent.",
            ("handler", "code"))
        self._http_seconds = self.metrics.histogram(
            "repro_http_request_seconds",
            "Request handling time, request line to body written.")
        self._forward_seconds = self.metrics.histogram(
            "repro_router_forward_seconds",
            "Solve-forward round trip to a backend (success or failure).")
        for name in ("routed", "spillovers", "failovers", "no_backend",
                     "cancel_broadcasts"):
            self.metrics.counter_callback(
                f"repro_router_{name}_total", f"Router {name} count.",
                (lambda attr: lambda: getattr(self, attr))(f"_{name}"))
        # Health-churn counters live on the slots (stats() sums them the
        # same way), so operators see ejections/readmissions next to
        # spillovers/failovers on /metricsz.
        for name in ("ejections", "readmissions"):
            self.metrics.counter_callback(
                f"repro_router_{name}_total",
                f"Backend {name} across the fleet.",
                (lambda attr: lambda: self._slot_total(attr))(name))
        self.metrics.gauge_callback(
            "repro_router_backends_healthy", "Backends currently routed to.",
            lambda: self.health()[0])
        self.metrics.gauge_callback(
            "repro_router_backends_total", "Backends on the ring.",
            lambda: self.health()[1])

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FleetRouter":
        if self._closed:
            raise ServiceClosed("fleet router is closed")
        if self._httpd is not None:
            return self
        if self.manage_backends:
            for spec in self._backends:
                if isinstance(spec, AssertHttpServer):
                    spec.start()
        self._slots = [
            _resolve_backend(
                spec,
                self._node_names[i] if self._node_names else None)
            for i, spec in enumerate(self._backends)]
        addresses = [slot.address for slot in self._slots]
        if len(set(addresses)) != len(addresses):
            raise ValueError(f"duplicate backend addresses: {addresses}")
        nodes = [slot.node for slot in self._slots]
        self._by_node = {slot.node: slot for slot in self._slots}
        self._ring = HashRing(nodes, replicas=self.config.ring_replicas)
        self.probe()  # address-only backends that are down start ejected
        self._httpd = _ThreadedHTTPServer(
            (self.config.host, self.config.port), _RouterHandler)
        self._httpd.ctx = self  # type: ignore[assignment]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="fleet-router-accept",
            daemon=True)
        self._thread.start()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="fleet-router-health", daemon=True)
        self._health_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("router not started")
        host, port = self._httpd.server_address[:2]
        return host, port

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def backends(self) -> List[BackendSpec]:
        return list(self._backends)

    def close(self) -> None:
        """Graceful drain, propagated: stop accepting, let in-flight
        forwards finish against still-live backends (``server_close``
        joins the non-daemon handler threads), then drain the backends
        themselves — so a client mid-solve gets its real response from
        the backend, through the router, before anything shuts down."""
        if self._closed:
            return
        self._closed = True
        self.draining = True
        self._stop.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            if self._thread is not None:
                self._thread.join(timeout=30)
            self._httpd.server_close()  # joins in-flight handler threads
        if self._health_thread is not None:
            self._health_thread.join(timeout=10)
        if self.manage_backends:
            for spec in self._backends:
                if isinstance(spec, AssertHttpServer):
                    spec.close()

    def __enter__(self) -> "FleetRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- health --------------------------------------------------------------

    def _health_loop(self) -> None:
        while not self._stop.wait(self.config.health_interval_s):
            if self.draining:
                return
            self.probe()

    def probe(self) -> Tuple[int, int]:
        """One synchronous health round over every backend.

        Ejects backends whose ``/healthz`` fails, re-admits ones that
        answer again, and returns ``(healthy, total)``.  The background
        loop calls this every ``health_interval_s``; tests and drains
        can call it directly for a deterministic round."""
        for slot in self._slots:
            try:
                status, _, _ = self._forward(
                    slot, "GET", "/healthz", None,
                    self.config.probe_timeout_s)
                ok = status == 200
                error = "" if ok else f"healthz returned {status}"
            except (OSError, http.client.HTTPException) as exc:
                ok = False
                error = f"healthz probe failed: {type(exc).__name__}"
            if ok:
                self._readmit(slot)
            else:
                self._eject(slot, error)
        return self.health()

    def health(self) -> Tuple[int, int]:
        """``(healthy, total)`` backend counts, from current state."""
        with self._lock:
            healthy = sum(1 for slot in self._slots if slot.healthy)
            return healthy, len(self._slots)

    def _slot_total(self, attr: str) -> int:
        with self._lock:
            return sum(getattr(slot, attr) for slot in self._slots)

    def _eject(self, slot: _BackendSlot, reason: str) -> None:
        with self._lock:
            slot.last_error = reason
            if slot.healthy:
                slot.healthy = False
                slot.ejections += 1

    def _readmit(self, slot: _BackendSlot) -> None:
        with self._lock:
            if not slot.healthy:
                slot.healthy = True
                slot.readmissions += 1
                slot.last_error = ""

    # -- routing -------------------------------------------------------------

    def candidates_for(self, key: str) -> List[str]:
        """The full ring order for ``key`` — owner first, then the
        spillover order (health is applied at routing time, not here)."""
        if self._ring is None:
            raise RuntimeError("router not started")
        return list(self._ring.candidates(key))

    def _forward(self, slot: _BackendSlot, method: str, path: str,
                 body: Optional[bytes], timeout: float
                 ) -> Tuple[int, Dict[str, str], bytes]:
        conn = http.client.HTTPConnection(slot.host, slot.port,
                                          timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            # Trace continuation: when this forward happens inside a
            # request span (fleet.route / fleet.forward), tell the
            # backend the trace it belongs to.  Health and stats probes
            # run outside any span and stay headerless.
            trace_ctx = obs_trace.current()
            if trace_ctx is not None:
                headers[obs_trace.TRACE_HEADER] = \
                    obs_trace.format_trace_header(trace_ctx)
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            lowered = {name.lower(): value
                       for name, value in response.getheaders()}
            return response.status, lowered, data
        finally:
            conn.close()

    def route_post(self, path: str, key: str, body: bytes
                   ) -> Optional[Tuple[int, Dict[str, str], bytes]]:
        """Forward one POST body along ``key``'s ring order.

        Works for both wire kinds (``/v1/solve`` and ``/v1/eval``) —
        the ring hashes the request's content key either way, so solve
        repeats find their owner's ``ResultCache`` and eval repeats find
        their owner's per-case store memo.  Healthy candidates are tried
        in ring order: the owner first, then spillover on 429 and
        failover on connection errors — both sound because responses are
        pure functions of the content key.  Returns the first non-429
        backend answer, the last 429 if every backend is saturated, or
        ``None`` when no healthy backend answered at all (mapped to
        503)."""
        last_overloaded: Optional[Tuple[int, Dict[str, str], bytes]] = None
        for node in self.candidates_for(key):
            slot = self._by_node[node]
            if not slot.healthy:
                continue
            started = time.perf_counter()
            try:
                with obs_trace.span("fleet.forward",
                                    attrs={"node": slot.node}):
                    status, headers, data = self._forward(
                        slot, "POST", path, body,
                        self.config.forward_timeout_s)
            except (OSError, http.client.HTTPException) as exc:
                # Dead or wedged: eject now (the probe re-admits after
                # recovery) and re-offer the request to the next node.
                self._forward_seconds.observe(time.perf_counter() - started)
                self._eject(slot, f"forward failed: {type(exc).__name__}")
                with self._lock:
                    self._failovers += 1
                continue
            self._forward_seconds.observe(time.perf_counter() - started)
            if status == 429:
                last_overloaded = (status, headers, data)
                with self._lock:
                    self._spillovers += 1
                continue
            with self._lock:
                self._routed += 1
                slot.forwarded += 1
            return status, headers, data
        if last_overloaded is not None:
            return last_overloaded
        with self._lock:
            self._no_backend += 1
        return None

    def cancel_broadcast(self, request_id: str) -> int:
        """``DELETE`` fan-out: the router cannot recover the content key
        from a request id, so cancellation asks every backend and sums
        the ``cancelled`` counts (at most one backend holds the id)."""
        with self._lock:
            self._cancel_broadcasts += 1
        total = 0
        for slot in self._slots:
            try:
                status, _, data = self._forward(
                    slot, "DELETE", f"/v1/solve/{request_id}", None,
                    self.config.probe_timeout_s)
            except (OSError, http.client.HTTPException) as exc:
                self._eject(slot, f"cancel failed: {type(exc).__name__}")
                continue
            if status in (200, 404):
                try:
                    total += int(json.loads(data).get("cancelled", 0))
                except (ValueError, TypeError):
                    pass
        return total

    # -- observability -------------------------------------------------------

    def observe_http(self, handler: str, code: int,
                     started: Optional[float]) -> None:
        """Per-response bookkeeping, called by the handler on every send."""
        self._http_requests.labels(handler=handler, code=str(code)).inc()
        if started is not None:
            self._http_seconds.observe(time.perf_counter() - started)

    def metricsz(self) -> str:
        """The fleet-wide ``GET /metricsz`` exposition.

        Every backend's own exposition is fetched and merged — samples
        with identical ``name{labels}`` sum, so counters and histogram
        buckets aggregate fleet-wide — then the router's registry is
        appended.  The router's copy of the process-global provider
        section is left out: backends already expose their own, and in
        the single-process ``make_fleet()`` shape those are one shared
        set of counters (so, as with the summed ``/statsz`` profile,
        N co-located backends count shared state N times)."""
        texts: List[str] = []
        for slot in self._slots:
            try:
                status, _, data = self._forward(
                    slot, "GET", "/metricsz", None,
                    self.config.probe_timeout_s)
                if status == 200:
                    texts.append(data.decode("utf-8"))
            except (OSError, http.client.HTTPException) as exc:
                self._eject(slot, f"metricsz probe failed: "
                                  f"{type(exc).__name__}")
        texts.append(obs_metrics.render_prometheus(
            [self.metrics], include_providers=False))
        return obs_metrics.merge_expositions(texts)

    def tracez(self, limit: Optional[int] = None,
               slowest: Optional[int] = None) -> Dict[str, object]:
        """The fleet-wide ``GET /tracez`` payload.

        Backend trace summaries merge with the router's own buffer by
        trace id (span-deduplicated), so a routed request — one trace
        spread across the router and a backend — reads as a single
        record with the router, HTTP, service, and solve spans.
        ``limit`` / ``slowest`` cap the merged lists and are forwarded
        to every backend, bounding the fan-out payloads too."""
        local = obs_trace.buffer().snapshot()
        recent = list(local["recent"])
        slow_records = list(local["slowest"])
        reached = 0
        query = _diag_query(limit=limit, slowest=slowest)
        for slot in self._slots:
            try:
                status, _, data = self._forward(
                    slot, "GET", f"/tracez{query}", None,
                    self.config.probe_timeout_s)
                payload = json.loads(data) if status == 200 else None
            except (OSError, http.client.HTTPException) as exc:
                self._eject(slot, f"tracez probe failed: "
                                  f"{type(exc).__name__}")
                continue
            except ValueError:
                continue
            if not isinstance(payload, dict):
                continue
            reached += 1
            recent.extend(payload.get("recent") or ())
            slow_records.extend(payload.get("slowest") or ())
        merged_recent = obs_trace.merge_trace_records(recent)
        merged_slowest = obs_trace.merge_trace_records(slow_records)
        merged_slowest.sort(key=lambda r: -float(r.get("duration_ms") or 0.0))
        if limit is not None:
            merged_recent = merged_recent[:limit]
        if slowest is not None:
            merged_slowest = merged_slowest[:slowest]
        return {
            "enabled": local["enabled"],
            "backends_reached": reached,
            "recent": merged_recent,
            "slowest": merged_slowest,
        }

    def covz(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The fleet-wide ``GET /covz`` payload.

        Every backend's retained per-design reports fold into one view —
        same design on several backends merges (counts add, covered bits
        max), so fleet-wide toggle/block/vacuity counters sum exactly
        once per backend.  ``limit`` caps the merged design list and is
        forwarded on the fan-out."""
        payloads: List[Dict[str, object]] = [cov.buffer().snapshot()]
        reached = 0
        query = _diag_query(limit=limit)
        for slot in self._slots:
            try:
                status, _, data = self._forward(
                    slot, "GET", f"/covz{query}", None,
                    self.config.probe_timeout_s)
                payload = json.loads(data) if status == 200 else None
            except (OSError, http.client.HTTPException) as exc:
                self._eject(slot, f"covz probe failed: "
                                  f"{type(exc).__name__}")
                continue
            except ValueError:
                continue
            if not isinstance(payload, dict):
                continue
            reached += 1
            payloads.append(payload)
        merged = cov.merge_covz_payloads(payloads, limit=limit)
        merged["backends_reached"] = reached
        return merged

    def stats(self) -> Dict[str, object]:
        """Router-local counters (no network calls)."""
        with self._lock:
            return {
                "backends_total": len(self._slots),
                "backends_healthy": sum(
                    1 for slot in self._slots if slot.healthy),
                "routed": self._routed,
                "spillovers": self._spillovers,
                "failovers": self._failovers,
                "no_backend": self._no_backend,
                "ejections": sum(slot.ejections for slot in self._slots),
                "readmissions": sum(
                    slot.readmissions for slot in self._slots),
                "cancel_broadcasts": self._cancel_broadcasts,
            }

    def statsz(self) -> Dict[str, object]:
        """The fleet-wide ``/statsz`` payload.

        Shape mirrors a single backend's ``statsz()`` — ``service`` /
        ``store`` / ``solve_profile`` with numeric fields summed across
        backends — plus ``router`` (routing counters) and ``backends``
        (per-backend health + unsummed snapshots, where ratio fields
        like ``cache_hit_rate`` remain meaningful)."""
        service_total: Dict[str, float] = {}
        store_total: Dict[str, float] = {}
        profile_total: Dict[str, float] = {}
        store_seen = False
        backends_payload: List[Dict[str, object]] = []
        for slot in self._slots:
            snapshot = None
            try:
                status, _, data = self._forward(
                    slot, "GET", "/statsz", None,
                    self.config.probe_timeout_s)
                if status == 200:
                    snapshot = json.loads(data)
            except (OSError, http.client.HTTPException) as exc:
                self._eject(slot, f"statsz probe failed: "
                                  f"{type(exc).__name__}")
            if isinstance(snapshot, dict):
                _merge_numeric(service_total,
                               snapshot.get("service") or {})
                store = snapshot.get("store")
                if isinstance(store, dict):
                    store_seen = True
                    _merge_numeric(store_total, store)
                _merge_numeric(profile_total,
                               snapshot.get("solve_profile") or {})
            with self._lock:
                backends_payload.append({
                    "node": slot.node,
                    "address": slot.address,
                    "healthy": slot.healthy,
                    "forwarded": slot.forwarded,
                    "ejections": slot.ejections,
                    "readmissions": slot.readmissions,
                    "last_error": slot.last_error,
                    "statsz": snapshot,
                })
        return {
            "router": self.stats(),
            "service": service_total,
            "store": store_total if store_seen else None,
            "solve_profile": profile_total,
            "backends": backends_payload,
        }
