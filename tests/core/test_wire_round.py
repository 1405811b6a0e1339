"""End-to-end tests of the on-the-wire two-layer round."""

import gc
import weakref

import numpy as np
import pytest

from repro.chaos import Crash, FaultSchedule, LossWindow
from repro.core import Topology, two_layer_cost_from_topology
from repro.core.costs import two_layer_ft_cost_from_topology
from repro.core.latency import two_layer_round_latency_ms
from repro.core.wire_round import run_two_layer_wire_round
from repro.secure.protocol import SacProtocolPeer, run_sac_protocol

RNG = lambda seed=0: np.random.default_rng(seed)


def make_models(n, size=12, seed=0):
    rng = RNG(seed)
    return [rng.normal(size=size) for _ in range(n)]


class TestCorrectness:
    def test_global_average_exact(self):
        topo = Topology.by_group_size(12, 3)
        models = make_models(12)
        result = run_two_layer_wire_round(topo, models, k=2)
        assert result.outcome.ok
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_every_peer_receives_global_model(self):
        topo = Topology.by_group_size(9, 3)
        result = run_two_layer_wire_round(topo, make_models(9), k=None)
        assert result.outcome.ok

    def test_uneven_groups(self):
        topo = Topology.by_group_size(10, 3)  # 4, 3, 3
        models = make_models(10)
        result = run_two_layer_wire_round(topo, models, k=2)
        assert result.outcome.ok
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_single_group_degenerates(self):
        topo = Topology.single_group(5)
        models = make_models(5)
        result = run_two_layer_wire_round(topo, models)
        assert result.outcome.ok
        np.testing.assert_allclose(result.average, np.mean(models, axis=0))

    def test_deterministic(self):
        topo = Topology.by_group_size(9, 3)
        a = run_two_layer_wire_round(topo, make_models(9), k=2, seed=3)
        b = run_two_layer_wire_round(topo, make_models(9), k=2, seed=3)
        np.testing.assert_array_equal(a.average, b.average)
        assert a.bits_sent == b.bits_sent
        assert a.finish_time_ms == b.finish_time_ms

    def test_wrong_model_count(self):
        with pytest.raises(ValueError):
            run_two_layer_wire_round(Topology.by_group_size(6, 3), [np.ones(2)])

    def test_ragged_models_rejected_before_the_simulation(self):
        # Used to die mid-round inside the fused kernel ("cannot reshape
        # array of size 3 into shape (1,8)").
        models = make_models(6, size=8)
        models[4] = np.ones(3)
        with pytest.raises(ValueError, match="all models must share a shape"):
            run_two_layer_wire_round(
                Topology.by_group_size(6, 3), models, k=2
            )


class TestCostValidation:
    def test_wire_bits_equal_closed_form_even_groups(self):
        size = 40
        topo = Topology.by_group_size(15, 5)
        models = make_models(15, size=size)
        result = run_two_layer_wire_round(topo, models, k=3)
        assert result.bits_sent == two_layer_ft_cost_from_topology(topo, 3, size)

    def test_wire_bits_equal_closed_form_plain(self):
        size = 25
        topo = Topology.by_group_size(12, 4)
        models = make_models(12, size=size)
        result = run_two_layer_wire_round(topo, models, k=None)
        assert result.bits_sent == two_layer_cost_from_topology(topo, size)

    def test_traffic_breakdown_by_kind(self):
        topo = Topology.by_group_size(9, 3)
        result = run_two_layer_wire_round(topo, make_models(9, size=10), k=2)
        kinds = result.bits_by_kind
        assert kinds["fed.upload"] == 2 * 10 * 32       # m-1 = 2 uploads
        assert kinds["fed.bcast"] == 2 * 10 * 32        # m-1 = 2 downs
        assert kinds["sub.bcast"] == 6 * 10 * 32        # sum (n_i - 1)
        assert "sac.share" in kinds and "sac.subtotal" in kinds


class TestSeededCodecOnWire:
    def test_seeded_bits_equal_closed_form_plain(self):
        from repro.core import two_layer_seeded_cost_from_topology

        size = 25
        topo = Topology.by_group_size(12, 4)
        models = make_models(12, size=size)
        result = run_two_layer_wire_round(
            topo, models, k=None, share_codec="seed"
        )
        assert result.outcome.ok
        assert result.bits_sent == two_layer_seeded_cost_from_topology(
            topo, None, size
        )
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_seeded_bits_equal_closed_form_ft(self):
        from repro.core import two_layer_seeded_cost_from_topology

        size = 40
        topo = Topology.by_group_size(15, 5)
        models = make_models(15, size=size)
        result = run_two_layer_wire_round(
            topo, models, k=3, share_codec="seed"
        )
        assert result.bits_sent == two_layer_seeded_cost_from_topology(
            topo, 3, size
        )

    def test_seeded_bits_equal_closed_form_uneven_groups(self):
        from repro.core import two_layer_seeded_cost_from_topology

        size = 16
        topo = Topology.by_group_size(10, 3)  # 4, 3, 3
        models = make_models(10, size=size)
        result = run_two_layer_wire_round(
            topo, models, k=None, share_codec="seed"
        )
        assert result.bits_sent == two_layer_seeded_cost_from_topology(
            topo, None, size
        )

    def test_seed_vs_seed_dense_average_bit_identical(self):
        topo = Topology.by_group_size(9, 3)
        models = make_models(9)
        a = run_two_layer_wire_round(
            topo, models, k=None, seed=5, share_codec="seed"
        )
        b = run_two_layer_wire_round(
            topo, models, k=None, seed=5, share_codec="seed-dense"
        )
        np.testing.assert_array_equal(a.average, b.average)
        assert a.bits_sent < b.bits_sent

    def test_seeded_share_traffic_is_the_only_delta(self):
        """Only the sac.share kind shrinks; every other traffic class is
        byte-identical to the dense round."""
        topo = Topology.by_group_size(12, 4)
        models = make_models(12, size=30)
        dense = run_two_layer_wire_round(topo, models, k=None, seed=2)
        seed = run_two_layer_wire_round(
            topo, models, k=None, seed=2, share_codec="seed"
        )
        for kind in ("sac.subtotal", "fed.upload", "fed.bcast", "sub.bcast"):
            assert dense.bits_by_kind[kind] == seed.bits_by_kind[kind]
        assert seed.bits_by_kind["sac.share"] < dense.bits_by_kind["sac.share"]


class TestLatencyValidation:
    def test_completion_time_tracks_latency_model(self):
        """With uplink serialization, the wire round's completion time
        matches the analytic model within 20%."""
        size = 1000
        bw = 1e6
        topo = Topology.by_group_size(9, 3)
        models = make_models(9, size=size)
        result = run_two_layer_wire_round(
            topo, models, k=2, bandwidth_bps=bw, serialize_uplink=True
        )
        assert result.outcome.ok
        predicted = two_layer_round_latency_ms(topo, 2, size, bw).total_ms
        assert result.finish_time_ms == pytest.approx(predicted, rel=0.2)

    def test_infinite_bandwidth_two_plus_three_hops(self):
        # SAC finishes after 2 hops; upload, fed bcast, sub bcast add 3.
        topo = Topology.by_group_size(9, 3)
        result = run_two_layer_wire_round(topo, make_models(9), k=2)
        assert result.finish_time_ms == pytest.approx(5 * 15.0)


#: 3 of 4 in one group die before share-out: the liveness watch ends the
#: round, and it is released like the rest.
UNRECOVERABLE = {"schedule": FaultSchedule([Crash(0.0, p) for p in (1, 2, 3)])}


class TestRoundStateIsReleased:
    """A returned round leaves nothing for the cyclic collector.

    ``sim <-> network <-> peers <-> delivery closures`` used to be one
    reference cycle that kept every peer (bundles, subtotals, ``|w|``
    arrays) alive until ``gc`` ran; ``Network.close`` breaks it on the
    way out, so refcounting frees the round as it returns.
    """

    @pytest.fixture
    def peer_refs(self, monkeypatch):
        refs = []
        init = SacProtocolPeer.__init__

        def tracking_init(self, *args, **kw):
            init(self, *args, **kw)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(SacProtocolPeer, "__init__", tracking_init)
        gc.collect()
        gc.disable()
        yield refs
        gc.enable()

    @staticmethod
    def assert_released(refs, expected):
        assert len(refs) == expected
        assert all(ref() is None for ref in refs)
        assert not any(
            isinstance(obj, SacProtocolPeer) for obj in gc.get_objects()
        )

    @pytest.mark.parametrize("kw, peers", [
        ({}, 12),
        ({"share_codec": "seed"}, 12),
        ({"transport": "reliable",
          "schedule": FaultSchedule([LossWindow(0, 10_000, 0.2)])}, 12),
        ({"schedule": FaultSchedule([Crash(20.0, 5)])}, 12),
        # The window holds the t=0 share-out: at 0.2 a bundle of the
        # victim's is lost and dies with it before its 60 ms RTO (a typed
        # unrecoverable_dropout); at 0.1 the round completes.
        ({"transport": "reliable",
          "schedule": FaultSchedule([Crash(20.0, 5), LossWindow(0, 90, 0.1)])},
         12),
        (UNRECOVERABLE, 12),
    ])
    def test_two_layer_round(self, peer_refs, kw, peers):
        topo = Topology.by_group_size(12, 4)
        result = run_two_layer_wire_round(
            topo, make_models(12, size=64), k=3, seed=1, **kw
        )
        assert result.outcome.ok == (kw is not UNRECOVERABLE)
        self.assert_released(peer_refs, peers)

    @pytest.mark.parametrize("kw", [
        {}, {"crash_at": {4: 20.0}},
        {"transport": "reliable", "loss_rate": 0.2},
    ])
    def test_sac_round(self, peer_refs, kw):
        result = run_sac_protocol(make_models(5, size=64), k=3, seed=1, **kw)
        assert result.outcome.ok
        self.assert_released(peer_refs, 5)
