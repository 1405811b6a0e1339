"""Cross-module property-based tests (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Topology, TwoLayerAggregator
from repro.secure.protocol import run_sac_protocol
from repro.simnet import FixedLatency, Network, SimNode, Simulator


class Echo(SimNode):
    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.log = []

    def on_message(self, src, msg):
        self.log.append((self.sim.now, src, msg))


class TestSimnetProperties:
    @given(
        delays=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=20),
        latency=st.floats(0.1, 50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_causality_and_fifo(self, delays, latency):
        """Messages never arrive before send_time + latency, and a fixed
        latency preserves per-link FIFO order."""
        sim = Simulator()
        network = Network(sim, latency=FixedLatency(latency))
        a = Echo(0, sim, network)
        b = Echo(1, sim, network)
        send_times = []
        t = 0.0
        for i, gap in enumerate(delays):
            t += gap
            sim.schedule_at(t, lambda i=i: a.send(1, i))
            send_times.append(t)
        sim.run()
        assert len(b.log) == len(delays)
        for (arrival, _, payload), sent in zip(b.log, send_times):
            assert arrival == pytest.approx(sent + latency)
        payloads = [p for _, _, p in b.log]
        assert payloads == sorted(payloads)


class TestProtocolProperties:
    @given(
        n=st.integers(2, 6),
        data=st.data(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_sac_protocol_exact_under_random_tolerable_crashes(
        self, n, data, seed
    ):
        """For any (n, k), leader, and crash set of size <= n-k injected
        after the share phase, the wire protocol reconstructs the exact
        mean."""
        k = data.draw(st.integers(1, n))
        max_crashes = n - k
        crash_ids = data.draw(
            st.lists(st.integers(0, n - 1), max_size=max_crashes, unique=True)
        )
        alive = sorted(set(range(n)) - set(crash_ids))
        leader = data.draw(st.sampled_from(alive))
        rng = np.random.default_rng(seed)
        models = [rng.normal(size=4) for _ in range(n)]
        # Crash strictly after the share bundles landed (delay 15 ms).
        crash_at = {pid: 20.0 for pid in crash_ids}
        result = run_sac_protocol(
            models, k=k, leader=leader, crash_at=crash_at,
            subtotal_timeout_ms=40.0, round_timeout_ms=5_000.0,
        )
        assert result.outcome.ok
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-8, atol=1e-8
        )


class TestTwoLayerProperties:
    @given(
        n_peers=st.integers(4, 16),
        data=st.data(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_absent_peers_average_over_present_only(self, n_peers, data, seed):
        """With arbitrary absent sets (leaders kept alive), the aggregate
        equals the mean over the present members of surviving groups."""
        n = data.draw(st.integers(2, max(2, n_peers // 2)))
        topo = Topology.by_group_size(n_peers, n)
        # Absent: any non-leader peers.
        non_leaders = [
            p for p in range(n_peers) if p not in topo.leaders
        ]
        absent = set(
            data.draw(
                st.lists(
                    st.sampled_from(non_leaders) if non_leaders else st.nothing(),
                    max_size=max(0, len(non_leaders) - 1),
                    unique=True,
                )
            )
        ) if non_leaders else set()
        rng = np.random.default_rng(seed)
        models = [rng.normal(size=3) for _ in range(n_peers)]
        agg = TwoLayerAggregator(topo)
        result = agg.aggregate(models, rng, absent=absent)
        included = [p for p in result.included_peers]
        expected = np.mean([models[p] for p in included], axis=0)
        np.testing.assert_allclose(result.average, expected, rtol=1e-8)
        assert set(included).isdisjoint(absent)
