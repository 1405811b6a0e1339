"""Live serving: a stdlib HTTP ``/metrics`` + ``/status`` endpoint.

The ROADMAP's aggregation-as-a-service item needs a running campaign to
be *watchable*: a Prometheus scrape target plus a human/JSON status
view, with zero dependencies beyond ``http.server``.

- ``GET /metrics`` — exactly the text
  :meth:`repro.obs.metrics.MetricsRegistry.render_prometheus` produces
  (Prometheus text exposition 0.0.4).
- ``GET /status`` — JSON: active round, per-subgroup progress, armed
  chaos faults, crashed nodes, the link matrix, and lifetime counts.

:class:`StatusBoard` is a bus subscriber that distills the event stream
into that status document; :class:`MetricsServer` owns the HTTP
listener on a daemon thread.  Wire-up::

    with observe(causal=True) as obs:
        board = StatusBoard().attach(obs.bus)
        link = obs.attach_link()
        server = MetricsServer(metrics=obs.metrics, status=board,
                               link=link, port=9090)
        server.start()
        ...   # run rounds; curl localhost:9090/metrics meanwhile
        server.stop()

The CLI front-ends are ``python -m repro serve-metrics`` (a chaos
campaign with the full stack attached) and ``--metrics-port`` on any
figure command.
"""

from __future__ import annotations

import errno
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional

from .bus import Event, EventBus
from .export import _json_default
from .metrics import MetricsRegistry

__all__ = ["StatusBoard", "MetricsServer", "MetricsBindError"]


class MetricsBindError(RuntimeError):
    """Raised by :meth:`MetricsServer.start` when the bind fails.

    Any ``OSError`` of the bind — port taken, no permission, a host
    that does not resolve — becomes this one typed error naming host,
    port and the OS reason, so CLI front-ends can print one line
    instead of a traceback.  A taken or forbidden port adds the
    ``--metrics-port 0`` hint.
    """

    def __init__(self, host: str, port: int, exc: OSError) -> None:
        self.host = host
        self.port = port
        reason = exc.strerror or str(exc)
        if exc.errno in (errno.EADDRINUSE, errno.EACCES):
            hint = " (pass --metrics-port 0 to bind an ephemeral port)"
        else:
            hint = ""
        super().__init__(
            f"cannot bind metrics server to {host}:{port}: "
            f"{reason}{hint}"
        )

#: Content-Type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class StatusBoard:
    """Distills the event stream into a ``/status`` JSON document."""

    def __init__(self) -> None:
        self.events_seen = 0
        self.rounds_completed = 0
        self.rounds_failed = 0
        self.active_round: Optional[dict] = None
        self.last_round: Optional[dict] = None
        self.subgroup_progress: Dict[int, float] = {}
        self.crashed: set = set()
        self.loss_rate: float = 0.0
        self.armed_chaos: Optional[dict] = None
        self.safety_violations = 0
        self.retransmit_exhaustions = 0
        # -- campaign (multi-round churn) section ------------------------
        self.campaign_rounds: Dict[str, int] = {}
        self.campaign_last: Optional[dict] = None
        self.campaign_reshards = 0
        self.campaign_invariant_violations = 0

    # ----------------------------------------------------------- subscription
    def attach(self, bus: EventBus) -> "StatusBoard":
        bus.subscribe(self)
        return self

    def detach(self, bus: EventBus) -> None:
        bus.unsubscribe(self)

    def __call__(self, event: Event) -> None:
        self.events_seen += 1
        name = event.name
        if name == "sac.shares_out":
            if self.active_round is None:
                self.active_round = {"started_t_ms": event.t_ms, "groups": {}}
        elif name == "round.subgroup_done":
            group = event.fields.get("group")
            if group is not None:
                self.subgroup_progress[group] = event.t_ms
                if self.active_round is not None:
                    self.active_round["groups"][str(group)] = event.t_ms
        elif name == "round.complete":
            completed = bool(event.fields.get("completed"))
            if completed:
                self.rounds_completed += 1
            else:
                self.rounds_failed += 1
            self.last_round = {
                "t_ms": event.t_ms,
                "completed": completed,
                "outcome": event.fields.get("outcome"),
                "bits": event.fields.get("bits"),
                "messages": event.fields.get("messages"),
            }
            self.active_round = None
            self.subgroup_progress = {}
        elif name == "net.crash":
            if event.node is not None:
                self.crashed.add(event.node)
        elif name == "net.recover":
            self.crashed.discard(event.node)
        elif name == "net.loss_rate":
            self.loss_rate = event.fields.get("rate", 0.0)
        elif name == "chaos.armed":
            self.armed_chaos = {
                "description": event.fields.get("description"),
                "faults": event.fields.get("faults"),
            }
        elif name == "chaos.safety_violation":
            self.safety_violations += 1
        elif name == "net.retransmit_exhausted":
            self.retransmit_exhaustions += 1
        elif name == "campaign.round":
            outcome = str(event.fields.get("outcome"))
            self.campaign_rounds[outcome] = (
                self.campaign_rounds.get(outcome, 0) + 1
            )
            self.campaign_last = {
                "index": event.fields.get("index"),
                "outcome": outcome,
                "n_alive": event.fields.get("n_alive"),
                "groups": event.fields.get("groups"),
                "resharded": event.fields.get("resharded"),
            }
        elif name == "campaign.reshard":
            self.campaign_reshards += 1
        elif name == "campaign.invariant_violation":
            self.campaign_invariant_violations += 1

    # -------------------------------------------------------------- read side
    def snapshot(self) -> dict:
        return {
            "events_seen": self.events_seen,
            "rounds": {
                "completed": self.rounds_completed,
                "failed": self.rounds_failed,
            },
            "active_round": self.active_round,
            "last_round": self.last_round,
            "subgroup_progress": {
                str(g): t for g, t in sorted(self.subgroup_progress.items())
            },
            "crashed_nodes": sorted(self.crashed),
            "loss_rate": self.loss_rate,
            "armed_chaos": self.armed_chaos,
            "safety_violations": self.safety_violations,
            "retransmit_exhaustions": self.retransmit_exhaustions,
            "campaign": {
                "rounds_by_outcome": dict(sorted(self.campaign_rounds.items())),
                "last_round": self.campaign_last,
                "reshards": self.campaign_reshards,
                "invariant_violations": self.campaign_invariant_violations,
            },
        }


class MetricsServer:
    """Stdlib HTTP server exposing ``/metrics`` and ``/status``.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after :meth:`start` — the tests do).  The listener runs on a daemon
    thread; :meth:`stop` shuts it down cleanly.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        status: Optional[StatusBoard] = None,
        link: Any = None,
        host: str = "127.0.0.1",
        port: int = 0,
        resources: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.metrics = metrics
        self.status = status
        self.link = link
        self.host = host
        self.port = port
        #: optional provider whose return value becomes the ``resources``
        #: section of ``/status`` (see :func:`repro.obs.scale.resource_snapshot`).
        self.resources = resources
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            raise RuntimeError("server already started")
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                try:
                    if self.path.split("?")[0] == "/metrics":
                        body = server.metrics.render_prometheus().encode()
                        self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
                    elif self.path.split("?")[0] == "/status":
                        body = json.dumps(
                            server.status_document(), default=_json_default
                        ).encode()
                        self._reply(200, "application/json", body)
                    else:
                        self._reply(404, "text/plain; charset=utf-8",
                                    b"not found: try /metrics or /status\n")
                except Exception as exc:  # noqa: BLE001 - surface as 500
                    self._reply(500, "text/plain; charset=utf-8",
                                f"error: {exc}\n".encode())

            def _reply(self, code: int, ctype: str, body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt: str, *args: Any) -> None:
                pass  # quiet: scrapes would spam stderr

        try:
            self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        except OSError as exc:
            raise MetricsBindError(self.host, self.port, exc) from exc
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -------------------------------------------------------------- documents
    def status_document(self) -> dict:
        doc: dict = {"endpoints": ["/metrics", "/status"]}
        if self.status is not None:
            doc.update(self.status.snapshot())
        if self.link is not None:
            doc["link"] = self.link.snapshot()
        if self.resources is not None:
            doc["resources"] = self.resources()
        return doc
