"""Discrete-event network simulation substrate.

This package replaces the paper's single-machine deployment of virtual
peers over TCP with ``tc``-injected latency (Sec. VI-B1).  It provides:

- a virtual millisecond clock and cancellable event heap (:mod:`.events`),
- a message-passing network with pluggable latency models, crash and
  partition injection (:mod:`.network`),
- an actor base class for protocol nodes (:mod:`.node`), and
- per-message byte accounting used by the communication-cost experiments
  (:mod:`.trace`).

All randomness flows through explicit :class:`numpy.random.Generator`
instances so that every simulation is reproducible bit-for-bit.
"""

from .events import Event, EventQueue, Simulator, TimerHandle
from .network import (
    FixedLatency,
    LatencyModel,
    Network,
)
from .node import SimNode
from .outcome import (
    COMPLETED,
    LEADER_ISOLATED,
    OUTCOME_COMPLETED,
    ROUND_STATUSES,
    TIMED_OUT,
    UNRECOVERABLE_DROPOUT,
    RoundOutcome,
)
from .reliable import (
    ACK_BITS,
    FRAME_HEADER_BITS,
    TRANSPORTS,
    ReliableTransport,
    check_transport,
)
from .trace import MessageRecord, TraceRecorder, WaveRecord
from .waves import DeliveryWave, ItemWave

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "TimerHandle",
    "LatencyModel",
    "FixedLatency",
    "Network",
    "SimNode",
    "MessageRecord",
    "TraceRecorder",
    "WaveRecord",
    "DeliveryWave",
    "ItemWave",
    "ReliableTransport",
    "TRANSPORTS",
    "ACK_BITS",
    "FRAME_HEADER_BITS",
    "check_transport",
    "RoundOutcome",
    "ROUND_STATUSES",
    "COMPLETED",
    "TIMED_OUT",
    "UNRECOVERABLE_DROPOUT",
    "LEADER_ISOLATED",
    "OUTCOME_COMPLETED",
]
