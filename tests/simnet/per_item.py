"""Per-item replay: the model the delivery waves are tested against.

:mod:`repro.simnet.waves` replays a whole batch from one heap entry — a
:class:`~repro.simnet.waves.DeliveryWave` re-queuing itself, item
batches (:class:`~repro.simnet.waves.ItemWave`) from their network's
``_ItemLedger``.  Each wave class queues
that replay in one ``_launch`` method.  Inside :func:`per_item` the
launch is swapped for plain discrete-event scheduling: one heap entry
per message and per item, each at the ``(time, seq)`` key the wave
reserved for it, each running the wave's own one-step semantics
(``DeliveryWave._deliver_one``, ``ItemWave._apply_item``); an item
batch's replay-order columns come from the very blocks the wave would
hand its ledger (:func:`item_columns`).  A fire-and-forget wave drops
nothing (its faults, like an item wave's, come from a ``FaultTimeline``
only), so every message is one delivery.  Fates, RNG
draws, delivery times and seq blocks are all fixed before launch, so
running one workload both ways compares only the waves' runs, merges
and cuts against one-event-per-step replay: clock, in-flight gauge and
peak, trace totals, transport counters, obs metrics, heap keys.

Usage — every equality test is a loop over :data:`REPLAYS`::

    for side, replay in REPLAYS:
        with replay():
            wave = net.send_batch(...)   # per_item: one entry per item
            sim.run()
"""

from contextlib import contextmanager, nullcontext
from functools import partial

import numpy as np

from repro.simnet import waves as W

def _deliver(wave, i):
    wave._deliver_one(i)
    wave._pos += 1


def _launch_messages(wave):
    """One heap entry per message, at its reserved key."""
    push = wave.net.sim._queue.push_at
    for i in range(wave.count):
        push(float(wave._times[i]), int(wave._seqs[i]),
             partial(_deliver, wave, i))


def item_columns(blocks):
    """The items of a batch's emitted ``blocks`` as replay-order columns
    (time, type, message, first-arrival flag): a stable sort on time of
    the blocks' creation order."""
    n = [len(b[2]) for b in blocks]
    t = np.concatenate([b[0] for b in blocks])
    typ = np.concatenate([np.broadcast_to(np.int8(b[1]), k)
                          for b, k in zip(blocks, n)])
    idx = np.concatenate([b[2] for b in blocks])
    first = np.concatenate([np.ones(k, dtype=bool) if b[3] is None else b[3]
                            for b, k in zip(blocks, n)])
    order = np.argsort(t, kind="stable")
    return t[order], typ[order], idx[order], first[order]


def _apply(wave, cols, p):
    t, typ, idx, first = cols
    wave._apply_item(float(t[p]), int(typ[p]), int(idx[p]), bool(first[p]))


def _launch_items(wave, seq0, blocks):
    """One heap entry per item: item ``p`` of the batch's stable time
    order at seq ``seq0 + p``, the key the ledger gives it."""
    cols = item_columns(blocks)
    push = wave.net.sim._queue.push_at
    for p, t in enumerate(cols[0].tolist()):
        push(t, seq0 + p, partial(_apply, wave, cols, p))


@contextmanager
def per_item():
    """Launch every wave issued inside the block per message / per item."""
    saved = W.DeliveryWave._launch, W.ItemWave._launch
    W.DeliveryWave._launch = _launch_messages
    W.ItemWave._launch = _launch_items
    try:
        yield
    finally:
        W.DeliveryWave._launch, W.ItemWave._launch = saved


def actor_arrivals(nodes, m):
    """The actor loop's side of a wave == actor test: each message's
    arrival time at its node (NaN: never arrived), where message ``i``
    carried the payload ``i`` and each node records ``(time, src, msg)``
    — comparable with ``wave.delivery_times``."""
    times = np.full(m, np.nan)
    for nd in nodes:
        for t, _, i in nd.received:
            times[i] = t
    return times


#: the two columns of every wave == model test.
REPLAYS = (("wave", nullcontext), ("per_item", per_item))
