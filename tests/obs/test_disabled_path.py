"""The disabled pipeline is inert on every simulator path.

Instrumentation sites guard on ``runtime.OBS.enabled``; when nothing is
installed that guard must stop *all* telemetry work, not just most of
it.  This pins the contract as counts instead of timings: under the
default disabled pipeline, a two-layer wire round (fire-and-forget, and
reliable under 20 % loss), an X-layer wave round, a lossy scale trial
under chaos and a Raft-backed campaign make no ``EventBus.emit`` call
and allocate no :class:`~repro.obs.causal.TraceContext`.  An unguarded emission added anywhere on these paths
fails here deterministically.
"""

import numpy as np
import pytest

from repro.campaign.runner import run_campaign
from repro.chaos import FaultSchedule, LossWindow
from repro.chaos.scale import run_scale_trial
from repro.core.multi_layer import MultiLayerTopology
from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.core.xlayer_wire import run_xlayer_wire_round
from repro.obs import runtime
from repro.obs.bus import EventBus
from repro.obs.causal import TraceContext


def _two_layer(**kw):
    topo = Topology.by_group_size(12, 4)
    rng = np.random.default_rng(1)
    models = [rng.normal(size=32) for _ in range(topo.n_peers)]
    assert run_two_layer_wire_round(topo, models, k=2, seed=1, **kw).outcome.ok


def _xlayer():
    topo = MultiLayerTopology(4, 4)
    models = np.random.default_rng(2).normal(size=(topo.n_peers, 8))
    run_xlayer_wire_round(topo, models, seed=2)


RUNS = {
    "two_layer": lambda: _two_layer(),
    "two_layer_reliable_lossy": lambda: _two_layer(
        transport="reliable",
        schedule=FaultSchedule([LossWindow(0.0, 10_000.0, 0.2)])),
    "xlayer_wave": _xlayer,
    "scale_trial_chaos": lambda: run_scale_trial(
        1_000, depth=4, loss_rate=0.2, seed=3, chaos=True),
    "campaign_raft": lambda: run_campaign(
        seed=4, rounds=4, n_peers=20, group_size=5, raft=True),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_disabled_pipeline_does_no_telemetry_work(name, monkeypatch):
    counts = {"emit": 0, "trace_context": 0}
    emit, init = EventBus.emit, TraceContext.__init__

    def counting_emit(self, *args, **kwargs):
        counts["emit"] += 1
        return emit(self, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["trace_context"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(EventBus, "emit", counting_emit)
    monkeypatch.setattr(TraceContext, "__init__", counting_init)
    monkeypatch.setattr(runtime, "OBS", runtime.Observability(enabled=False))
    obs = runtime.get()
    RUNS[name]()
    assert runtime.get() is obs
    assert counts == {"emit": 0, "trace_context": 0}
