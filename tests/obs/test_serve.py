"""The live HTTP endpoint: ``/metrics`` serves exactly what the
registry renders, ``/status`` serves the StatusBoard document, and the
board itself distills the event stream correctly."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import runtime as _runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsBindError,
    MetricsServer,
    StatusBoard,
)
from repro.secure.protocol import run_sac_protocol


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.counter("demo_total", "A demo counter.").labels().inc(3)
    reg.gauge("demo_gauge", "A demo gauge.", labels=("g",)) \
        .labels(g="x").set(1.5)
    return reg


class TestMetricsServer:
    def test_metrics_endpoint_is_byte_exact(self, registry):
        with MetricsServer(metrics=registry) as server:
            status, ctype, body = _get(f"{server.url}/metrics")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        assert body == registry.render_prometheus().encode()
        assert b"demo_total 3" in body

    def test_metrics_reflect_live_updates(self, registry):
        with MetricsServer(metrics=registry) as server:
            _, _, before = _get(f"{server.url}/metrics")
            registry.counter("demo_total").labels().inc()
            _, _, after = _get(f"{server.url}/metrics")
        assert b"demo_total 3" in before
        assert b"demo_total 4" in after

    def test_status_endpoint_serves_board_and_link(self, registry):
        rng = np.random.default_rng(0)
        models = [rng.normal(size=16) for _ in range(4)]
        with _runtime.observe(causal=True) as obs:
            board = StatusBoard().attach(obs.bus)
            link = obs.attach_link()
            run_sac_protocol(models, k=3, seed=0)
            server = MetricsServer(
                metrics=obs.metrics, status=board, link=link,
            ).start()
            try:
                status, ctype, body = _get(f"{server.url}/status")
            finally:
                server.stop()
        assert status == 200
        assert ctype == "application/json"
        doc = json.loads(body)
        assert doc["endpoints"] == ["/metrics", "/status"]
        assert doc["events_seen"] == board.events_seen > 0
        assert doc["link"]["pairs"]
        assert doc["rounds"] == {"completed": 0, "failed": 0}

    def test_unknown_path_is_404(self, registry):
        with MetricsServer(metrics=registry) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/nope")
        assert err.value.code == 404

    def test_ephemeral_port_and_restart_guard(self, registry):
        server = MetricsServer(metrics=registry)
        assert server.port == 0
        server.start()
        try:
            assert server.port != 0
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()

    def test_port_in_use_raises_typed_error(self, registry):
        with MetricsServer(metrics=registry) as first:
            second = MetricsServer(metrics=registry, port=first.port)
            with pytest.raises(MetricsBindError) as err:
                second.start()
        assert err.value.port == first.port
        assert "already in use" in str(err.value)
        assert "--metrics-port 0" in str(err.value)
        # The failed server holds no listener; an ephemeral retry works.
        second.port = 0
        with second:
            assert second.port != 0

    def test_status_resources_section(self, registry):
        from repro.obs import runtime as _runtime
        from repro.obs.scale import resource_snapshot

        with _runtime.observe() as obs:
            obs.emit("tick", t_ms=0.0)
            server = MetricsServer(
                metrics=obs.metrics,
                resources=lambda: resource_snapshot(obs=obs),
            ).start()
            try:
                _, _, body = _get(f"{server.url}/status")
            finally:
                server.stop()
        doc = json.loads(body)
        assert doc["resources"]["obs"]["events_held"] == 1


class TestStatusBoard:
    def test_round_lifecycle(self):
        with _runtime.observe() as obs:
            board = StatusBoard().attach(obs.bus)
            obs.emit("sac.shares_out", t_ms=0.0, node=1)
            assert board.active_round is not None
            obs.emit("round.subgroup_done", t_ms=30.0, group=0)
            assert board.subgroup_progress == {0: 30.0}
            obs.emit("round.complete", t_ms=75.0, completed=True,
                     outcome="completed", bits=1e6, messages=42)
        assert board.rounds_completed == 1
        assert board.active_round is None
        snap = board.snapshot()
        assert snap["last_round"]["completed"] is True
        assert snap["subgroup_progress"] == {}

    def test_failure_crash_and_chaos_accounting(self):
        with _runtime.observe() as obs:
            board = StatusBoard().attach(obs.bus)
            obs.emit("net.crash", t_ms=1.0, node=4)
            obs.emit("chaos.armed", t_ms=0.0,
                     description="crash(4)@10", faults=1)
            obs.emit("round.complete", t_ms=99.0, completed=False,
                     outcome="unrecoverable_dropout")
            obs.emit("chaos.safety_violation", t_ms=None,
                     outcome="completed", detail="aggregate mismatch")
            obs.emit("net.retransmit_exhausted", t_ms=50.0, node=2, dst=3)
            obs.emit("net.recover", t_ms=60.0, node=4)
        snap = board.snapshot()
        assert snap["rounds"]["failed"] == 1
        assert snap["crashed_nodes"] == []
        assert snap["armed_chaos"]["description"] == "crash(4)@10"
        assert snap["safety_violations"] == 1
        assert snap["retransmit_exhaustions"] == 1
