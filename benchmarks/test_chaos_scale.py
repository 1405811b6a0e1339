"""Chaos at 10^5 peers: lossy reliable wave engine vs per-item replay.

The acceptance benchmark of the vectorized lossy + reliable delivery
path: one X-layer round at depth 10 (n=4, N=118,096 peers) with 20 %
random frame loss, the stop-and-wait reliable transport and the
deterministic scale fault schedule (loss window, delay spike, leaf
crash/recover pairs), run through the wave engine and through the
per-item replay model (``tests/simnet/per_item.py``: one heap entry per
item).  Every sim-side :class:`~repro.chaos.scale.ScaleReport` field —
finish time, aggregate checksum, bit/message totals,
retransmit/ACK/duplicate/exhausted/drop counters, typed outcome — must
be byte-identical across the two at the same seed, and the wave engine
must beat the per-item replay by >= 10x wall-clock.  Wall numbers are
printed; the cross-PR comparison is the ``xlayer_lossy`` workload of
``bench/run.py``.

Not part of tier-1 (``testpaths`` excludes ``benchmarks/``): the
per-item leg schedules one heap event per attempt item (~4M at this
scale) and takes a minute or two.  Run from the repo root
(``PYTHONPATH=src python -m pytest ...``) so ``tests`` imports.
"""

from dataclasses import fields

from conftest import emit

from repro.chaos.scale import run_scale_trial
from tests.simnet.per_item import per_item

TARGET_PEERS = 100_000
DEPTH = 10
LOSS_RATE = 0.2
SEED = 0
#: 0.2^8 exhaustion odds across ~700k sends make the default 8-attempt
#: budget a near-certain (typed, replay-identical) timeout; 12 attempts
#: make completion the expected outcome.
MAX_ATTEMPTS = 12
MIN_SPEEDUP = 10.0

#: measured per run, never part of the identity; heap telemetry differs
#: by design (the wave engine's whole point is scheduling ~1000x fewer
#: heap events).
_NON_SIM_FIELDS = ("wall_s", "heap")


def test_chaos_wave_vs_scalar_at_1e5_peers():
    kw = dict(
        target_peers=TARGET_PEERS, depth=DEPTH, loss_rate=LOSS_RATE,
        seed=SEED, chaos=True, max_attempts=MAX_ATTEMPTS,
    )
    wave = run_scale_trial(**kw)
    assert wave.n_peers >= TARGET_PEERS
    with per_item():
        item = run_scale_trial(**kw)

    # Same sim fingerprint: the delivery schedule, the aggregate, the
    # transport counters and the typed outcome, bit for bit.
    for f in fields(type(wave)):
        if f.name in _NON_SIM_FIELDS:
            continue
        assert getattr(wave, f.name) == getattr(item, f.name), (
            f"per-item mismatch on {f.name}: "
            f"wave={getattr(wave, f.name)!r} "
            f"per_item={getattr(item, f.name)!r}"
        )
    assert wave.outcome == "completed"
    assert wave.retransmits > 0 and wave.acks > 0

    speedup = item.wall_s / wave.wall_s
    emit(
        f"chaos_scale: N={wave.n_peers:,} peers, loss={LOSS_RATE}, "
        f"{wave.messages_sent:,} messages, "
        f"{wave.retransmits:,} retransmits, {wave.acks:,} ACKs\n"
        f"  wave   {wave.wall_s * 1e3:9.1f} ms "
        f"({wave.heap['events_processed']:,} heap events)\n"
        f"  item   {item.wall_s * 1e3:9.1f} ms "
        f"({item.heap['events_processed']:,} heap events)\n"
        f"  speedup {speedup:.1f}x  "
        f"({wave.n_peers / wave.wall_s:,.0f} peers/s)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"wave engine only {speedup:.1f}x faster than per-item replay "
        f"(need >= {MIN_SPEEDUP}x)"
    )
