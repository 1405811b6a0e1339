"""What one wave *firing* does: the run cut and the bulk run.

``tests/simnet/test_waves.py`` and ``test_reliable_waves.py`` pin the
wave engine end to end (wave == scalar == actor).  The tests here pin
the two pieces a firing is made of against their obvious references —
``_cut`` against a linear scan of ``(time, seq)`` keys, and
``ItemWave._bulk_run`` against replaying ``_apply_item`` item by item —
plus a same-process timing ratio showing that equal-time runs cost no
more to replay than runs that never tie.
"""

import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import runtime as _runtime
from repro.simnet import (
    FixedLatency,
    Network,
    SimNode,
    Simulator,
    WaveRecord,
)
from repro.simnet import waves as W
from repro.simnet.reliable import ACK_BITS


# ---------------------------------------------------------------- the cut
def _cut_reference(times, seqs, i, head):
    if head is None:
        return len(times)
    j = i
    while j < len(times) and (times[j], seqs[j]) < (head.time, head.seq):
        j += 1
    return j


@st.composite
def _cut_cases(draw):
    n = draw(st.integers(1, 40))
    # Few distinct instants: heavy ties.
    times = np.sort(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    times = times.astype(np.float64)
    if draw(st.booleans()):
        # ItemWave: one contiguous block in position order.
        seq0 = draw(st.integers(0, 50))
        seqs = seq0 + np.arange(n, dtype=np.int64)
    else:
        # DeliveryWave: ``seq0 + stable-argsort position`` — ascending
        # within an equal-time run, not across runs.
        seqs = np.empty(n, dtype=np.int64)
        seqs[np.argsort(draw(st.permutations(range(n))), kind="stable")] = \
            np.arange(n)
        order = np.lexsort((seqs, times))
        seqs = seqs[order] + draw(st.integers(0, 50))
    i = draw(st.integers(0, n - 1))
    if draw(st.integers(0, 9)) == 0:
        head = None
    else:
        # Times between, before and after the lattice points; seqs
        # before, inside and after the wave's block.
        head = SimpleNamespace(
            time=draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0,
                                       4.0, 5.0, 6.0])),
            seq=draw(st.integers(-1, 100)),
        )
    return times, seqs, i, head


@settings(max_examples=400, deadline=None)
@given(_cut_cases())
def test_cut_equals_linear_scan(case):
    times, seqs, i, head = case
    assert W._cut(times, seqs, i, head) == _cut_reference(times, seqs, i, head)


def test_zero_delay_timer_inside_an_equal_time_run():
    """A handler that schedules a zero-delay event while its message's
    equal-time run is half delivered: the rest of the run still precedes
    that event (lower seqs), exactly as under per-message scheduling."""
    logs = {}
    for engine in ("wave", "scalar"):
        sim = Simulator()
        net = Network(sim, latency=FixedLatency(5.0),
                      rng=np.random.default_rng(0))
        log = logs[engine] = []

        class Echo(SimNode):
            def on_message(self, src, msg):
                log.append(("msg", msg))
                self.sim.schedule(0.0, lambda: log.append(("timer", msg)))

        for node_id in range(4):
            Echo(node_id, sim, net)
        net.send_batch([0, 1, 2], [1, 2, 3], msgs=["a", "b", "c"],
                       engine=engine)
        sim.run(max_events=100)
    assert logs["wave"] == logs["scalar"]
    assert [kind for kind, _ in logs["wave"]] == ["msg"] * 3 + ["timer"] * 3


# ----------------------------------------------------------- the bulk run
_RELIABLE_TYPES = [
    W._T_RETRANS, W._T_LINKDOWN, W._T_LOST, W._T_DEPART, W._T_FRAME_MID,
    W._T_ARR_ACKUP, W._T_ARR_ACKLOST, W._T_ACK_MID, W._T_ACK_ARR,
    W._T_EXHAUST,
]
_PLAIN_TYPES = [
    W._T_LINKDOWN, W._T_LOST, W._T_DEPART, W._T_FRAME_MID, W._T_ARR_PLAIN,
]


def _random_wave(seed, reliable, n_items, n_instants):
    """An ``ItemWave`` over a random item mix, on a fresh network."""
    rng = np.random.default_rng(seed)
    m, n_nodes = 12, 6
    sim = Simulator()
    net = Network(
        sim, latency=FixedLatency(10.0), rng=np.random.default_rng(0),
        transport="reliable" if reliable else "fire_and_forget",
    )
    net.trace.keep_records = True
    src = rng.integers(0, n_nodes, size=m)
    dst = (src + 1 + rng.integers(0, n_nodes - 1, size=m)) % n_nodes
    it_t = np.sort(rng.integers(1, n_instants + 1, size=n_items)) * 5.0
    it_type = rng.choice(
        _RELIABLE_TYPES if reliable else _PLAIN_TYPES, size=n_items
    ).astype(np.int8)
    it_idx = rng.integers(0, m, size=n_items).astype(np.int32)
    it_flag = np.isin(it_type, W._ARR_TYPES) & (rng.random(n_items) < 0.6)
    first_arr = np.where(rng.random(m) < 0.3, np.nan,
                         rng.integers(0, n_instants + 2, size=m) * 5.0)
    wave = W.ItemWave(
        net, "x", 64.0, 128.0, "wave", first_arr, ~np.isnan(first_arr),
        rng.integers(1, 9, size=m), src, dst, None,
        it_t, it_type, it_idx, it_flag,
    )
    return net, wave


def _state(net):
    rel = net.reliable
    trace = net.trace
    return (
        net.sim.now, net.in_flight, net.peak_in_flight,
        None if rel is None else (
            rel.retransmits, rel.acks_sent, rel.duplicates_suppressed,
            list(rel.exhausted), rel.exhausted_undelivered,
        ),
        trace.total_bits, trace.total_messages, trace.total_dropped,
        trace.by_kind(), dict(trace._msgs_by_kind),
        dict(trace._dropped_by_kind),
    )


#: what a bulk run publishes, in its order: (types, kind, bits, delivered).
#: Mid-flight kills are silent in the trace; exhaustions publish nothing.
_RECORDED = [
    ((W._T_LINKDOWN,), "x", 128.0, False),
    ((W._T_LOST,), "x", 128.0, False),
    (W._ARR_TYPES, "x", 128.0, True),
    ((W._T_ARR_ACKLOST,), "net.ack", ACK_BITS, False),
    ((W._T_ACK_ARR,), "net.ack", ACK_BITS, True),
]


def _expected_records(wave, a, b):
    """One ``WaveRecord`` per category present in ``a..b-1``, stamped
    with that category's last item time."""
    out = []
    for typs, kind, bits, delivered in _RECORDED:
        at = [p for p in range(a, b) if wave._it_type[p] in typs]
        if at:
            out.append(WaveRecord(float(wave._it_t[at[-1]]), kind, len(at),
                                  len(at) * bits, delivered))
    return out


def _link_totals(obs):
    """(event, kind, src, dst) -> count over every net event so far."""
    totals = Counter()
    for e in obs.events:
        if not e.name.startswith("net."):
            continue
        f = e.fields
        if "links" in f:
            for s, d, c in zip(*f["links"]):
                totals[e.name, f["kind"], int(s), int(d)] += int(c)
        else:
            totals[e.name, f["kind"], e.node, f["dst"]] += 1
    return totals


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    reliable=st.booleans(),
    n_items=st.integers(1, 60),
    n_instants=st.integers(1, 4),
    mode=st.sampled_from(["plain", "obs", "links"]),
    n_cuts=st.integers(0, 4),
)
def test_bulk_run_equals_item_replay(seed, reliable, n_items, n_instants,
                                     mode, n_cuts):
    """Runs of random item mixes — one instant or several, with
    exhaustions, mid-flight kills and (timeline mode) plain arrivals —
    leave the network, the transport and the trace where item-by-item
    replay leaves them; with obs on, the same metrics and link totals."""
    cuts = np.random.default_rng(seed + 1).integers(0, n_items + 1,
                                                    size=n_cuts)
    bounds = sorted({0, n_items, *map(int, cuts)})

    def replay(bulk):
        net, wave = _random_wave(seed, reliable, n_items, n_instants)
        net.link_accounting = mode == "links"
        states = []
        for a, b in zip(bounds, bounds[1:]):
            if bulk:
                net.trace.records.clear()
                wave._bulk_run(a, b)
                assert net.trace.records == _expected_records(wave, a, b)
            else:
                for p in range(a, b):
                    wave._apply_item(p)
            states.append(_state(net))
        return states

    if mode == "plain":
        assert replay(bulk=True) == replay(bulk=False)
        return
    with _runtime.observe() as obs_bulk:
        bulk = replay(bulk=True)
    with _runtime.observe() as obs_item:
        item = replay(bulk=False)
    assert bulk == item
    assert obs_bulk.metrics.snapshot() == obs_item.metrics.snapshot()
    if mode == "links":
        assert _link_totals(obs_bulk) == _link_totals(obs_item)


# ------------------------------------------------------- the ratio guard
def _drain_seconds(offset_ms):
    """Best-of-three ``sim.run`` time for two ~50k-message reliable
    accounting waves on one network, the second ``offset_ms`` late."""
    rng = np.random.default_rng(3)
    src = rng.integers(0, 1000, size=50_000)
    dst = (src + 1 + rng.integers(0, 999, size=50_000)) % 1000
    best, firings = float("inf"), None
    for _ in range(3):
        sim = Simulator()
        net = Network(
            sim, latency=FixedLatency(10.0), rng=np.random.default_rng(4),
            loss_rate=0.2, transport="reliable",
            transport_opts={"base_rto_ms": 40.0, "max_attempts": 12},
        )
        net.send_batch(src, dst, size_bits=64.0, kind="a")
        net.send_batch(src, dst, size_bits=64.0, kind="b",
                       at_times=np.full(len(src), offset_ms))
        t0 = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - t0)
        firings = sim.heap_stats()["events_processed"]
    return best, firings, net.trace.total_messages


def test_tied_runs_cost_no_more_than_untied_runs():
    """Machine-independent guard on the cut: (A) two waves departing
    together tie on every point of the time lattice, (B) the second
    half a latency step late never ties — the same items and about the
    same firings either way, so the drains must cost about the same.
    A cut that walks the tied items one by one makes A several times B.
    """
    tied, firings_a, msgs_a = _drain_seconds(0.0)
    apart, firings_b, msgs_b = _drain_seconds(5.0)
    assert msgs_a == msgs_b
    assert 0.5 < firings_a / firings_b < 2.0
    assert tied / apart < 2.0, (tied, apart)
