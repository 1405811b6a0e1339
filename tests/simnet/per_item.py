"""Per-item replay: the model the delivery waves are tested against.

:mod:`repro.simnet.waves` replays a whole batch from one heap entry — a
:class:`~repro.simnet.waves.DeliveryWave` re-queuing itself, item
batches (:class:`~repro.simnet.waves.ItemWave`) from their network's
``_ItemLedger``.  Each wave class queues
that replay in one ``_launch`` method.  Inside :func:`per_item` the
launch is swapped for plain discrete-event scheduling: one heap entry
per delivered message and per item, each at the ``(time, seq)`` key the
wave reserved for it, each running the wave's own one-step semantics
(``DeliveryWave._deliver_one``, ``ItemWave._apply_item``).  Fates, RNG
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

_ITEM_COLUMNS = ("_it_t", "_it_type", "_it_idx", "_it_flag")


def _deliver(wave, i):
    wave._deliver_one(i)
    wave._pos += 1


def _launch_messages(wave):
    """One heap entry per delivered message, at its reserved key."""
    push = wave.net.sim._queue.push_at
    for i in range(wave.count):
        push(float(wave._times[i]), int(wave._seqs[i]),
             partial(_deliver, wave, i))


def _launch_items(wave, seq0):
    """One heap entry per item: item ``p`` of the batch's stable time
    order at seq ``seq0 + p``, the key the ledger gives it."""
    # The batch keeps creation order for the ledger's merge; put it in
    # replay order.
    order = np.argsort(wave._it_t, kind="stable")
    for name in _ITEM_COLUMNS:
        setattr(wave, name, getattr(wave, name)[order])
    push = wave.net.sim._queue.push_at
    for p in range(wave._n_items):
        push(float(wave._it_t[p]), seq0 + p, partial(wave._apply_item, p))


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
