"""Prometheus text reduced from events: counters, gauges, summaries."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import Event, to_prometheus
from repro.obs.export import EXPORT_QUANTILES


def _events(*specs):
    """Events from ``(name, t_ms, node, dur_ms, fields)`` tuples, in seq order."""
    return [
        Event(seq=i, name=name, t_ms=t_ms, wall_s=0.0, node=node,
              dur_ms=dur_ms, fields=fields)
        for i, (name, t_ms, node, dur_ms, fields) in enumerate(specs)
    ]


def _sac_rounds(durations):
    return _events(*[
        ("sac.complete", 0.0, 1, d, {"group": 0}) for d in durations
    ])


def _series(text, family):
    """``{series line head: value text}`` of one family's samples."""
    return dict(
        line.rsplit(" ", 1) for line in text.splitlines()
        if line.startswith(family) and not line.startswith("#")
    )


def test_counter_is_monotonic():
    # Each event adds its ``count`` (1 when absent): over growing
    # prefixes of the event list the counter never goes down.
    events = _events(*[
        ("net.retransmit", float(t), 0, None,
         {"kind": "sac.share", **({"count": t} if t % 2 else {})})
        for t in range(6)
    ])
    seen = [
        float(_series(to_prometheus(events[:n]), "net_retransmits_total")
              ['net_retransmits_total{kind="sac.share"}'])
        for n in range(1, len(events) + 1)
    ]
    assert seen == [1, 2, 3, 6, 7, 12]


def test_counter_sums_count_and_bits():
    # A wave event's ``count`` carries its run; a per-message event counts 1.
    text = to_prometheus(_events(
        ("net.deliver", 5.0, None, None, {"kind": "sac.share", "bits": 30.0,
                                          "count": 3}),
        ("net.deliver", 6.0, 2, None, {"kind": "sac.share", "bits": 10.0}),
        ("net.deliver", 7.0, 2, None, {"kind": "net.ack", "bits": 1.0}),
        ("net.drop", 8.0, 2, None, {"kind": "sac.share", "bits": 10.0,
                                    "reason": "loss", "count": 2}),
    ))
    assert _series(text, "net_messages_total") == {
        'net_messages_total{kind="net.ack"}': "1",
        'net_messages_total{kind="sac.share"}': "4",
    }
    assert _series(text, "net_bits_total") == {
        'net_bits_total{kind="net.ack"}': "1",
        'net_bits_total{kind="sac.share"}': "40",
    }
    assert _series(text, "net_dropped_total") == {
        'net_dropped_total{reason="loss",kind="sac.share"}': "2",
    }


def test_gauge_keeps_the_last_value():
    text = to_prometheus(_events(
        ("campaign.round", None, None, None, {"outcome": "ok", "n_alive": 10,
                                              "groups": 3}),
        ("raft.election.win", 1.0, 4, None, {"cluster": "fed", "term": 1}),
        ("campaign.round", None, None, None, {"outcome": "ok", "n_alive": 7,
                                              "groups": 2}),
        ("raft.election.win", 9.0, 4, None, {"cluster": "fed", "term": 3}),
    ))
    assert "# TYPE campaign_membership_size gauge" in text
    assert "campaign_membership_size 7\n" in text
    assert "campaign_groups 2\n" in text
    assert 'raft_term{cluster="fed",node="4"} 3\n' in text
    assert 'campaign_round_outcome_total{outcome="ok"} 2\n' in text


@given(
    values=st.lists(
        st.floats(min_value=-1e9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=200,
    ),
)
def test_histogram_quantile_matches_numpy(values):
    """Summary quantiles are numpy.quantile(..., method="linear")."""
    series = _series(to_prometheus(_sac_rounds(values)), "sac_round_ms")
    for q in EXPORT_QUANTILES:
        expected = float(np.quantile(values, q, method="linear"))
        assert series[f'sac_round_ms{{group="0",quantile="{q}"}}'] \
            == f"{expected:g}"


def test_histogram_bit_identical_to_numpy_at_2048_values():
    # Raw values are never summarized: the property holds at any size.
    values = np.random.default_rng(0).normal(size=2048).tolist()
    series = _series(to_prometheus(_sac_rounds(values)), "sac_round_ms")
    quantiles = np.quantile(values, EXPORT_QUANTILES, method="linear")
    for q, expected in zip(EXPORT_QUANTILES, quantiles):
        assert series[f'sac_round_ms{{group="0",quantile="{q}"}}'] \
            == f"{expected:g}"
    assert series['sac_round_ms_count{group="0"}'] == "2048"


def test_summary_count_and_sum():
    text = to_prometheus(_events(*[
        ("round.subgroup_done", t, 1, None, {"group": g})
        for t, g in ((1.0, 0), (2.0, 0), (3.0, 0), (4.0, 0), (9.0, 1))
    ]))
    assert "# TYPE subgroup_sac_complete_ms summary" in text
    assert 'subgroup_sac_complete_ms{group="0",quantile="0.5"} 2.5\n' in text
    assert 'subgroup_sac_complete_ms_sum{group="0"} 10\n' in text
    assert 'subgroup_sac_complete_ms_count{group="0"} 4\n' in text
    assert 'subgroup_sac_complete_ms_count{group="1"} 1\n' in text


def test_prometheus_rendering():
    text = to_prometheus(_events(
        ("raft.election.start", 0.0, 1, None, {"cluster": "sub0", "term": 1}),
        ("raft.election.start", 5.0, 2, None, {"cluster": "sub0", "term": 2}),
        ("net.crash", 6.0, 3, None, {}),
    ))
    assert text == (
        "# HELP net_crashes_total Crash injections.\n"
        "# TYPE net_crashes_total counter\n"
        "net_crashes_total 1\n"
        "# HELP raft_elections_total Elections started.\n"
        "# TYPE raft_elections_total counter\n"
        'raft_elections_total{cluster="sub0"} 2\n'
    )


def test_prometheus_label_escaping():
    text = to_prometheus(_events(
        ("agg.group_failed", None, None, None,
         {"group": 0, "reason": 'a"b\\c\nd'}),
    ))
    assert r'reason="a\"b\\c\nd"' in text


def test_wall_only_span_and_sim_span_but_not_sac_complete():
    # What Span emits: a wall duration with no sim clock, or a sim
    # duration with its wall_ms beside; sac.complete is neither.
    text = to_prometheus(_events(
        ("ftsac.reconstruct", None, None, 2.5, {"n": 5}),
        ("xlayer.round", 0.0, None, 40.0, {"wall_ms": 3.0}),
        ("sac.complete", 0.0, 1, 75.0, {"group": 0}),
    ))
    spans = _series(text, "span_duration_ms_count")
    assert spans == {
        'span_duration_ms_count{span="ftsac.reconstruct"}': "1",
        'span_duration_ms_count{span="xlayer.round"}': "1",
    }
    assert 'span_duration_ms_sum{span="xlayer.round"} 40\n' in text
    assert 'sac_round_ms_count{group="0"} 1\n' in text


def test_events_without_a_family_render_nothing():
    assert to_prometheus([]) == "\n"
    assert to_prometheus(_events(("tick", 1.0, 0, None, {}))) == "\n"
    # A family whose value an event lacks skips that event.
    text = to_prometheus(_events(
        ("campaign.round", None, None, None, {"outcome": "ok"})))
    assert "campaign_membership_size" not in text
    assert 'campaign_round_outcome_total{outcome="ok"} 1\n' in text
