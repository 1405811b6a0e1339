"""Partitions for network tests, armed as chaos schedules."""

from repro.chaos import FaultSchedule, PartitionWindow


def partition(sim, network, groups, ms: float = 1e9) -> None:
    """Split ``network`` into ``groups`` for the next ``ms``: a
    :class:`PartitionWindow` from now, after which the network heals."""
    FaultSchedule([
        PartitionWindow(sim.now, sim.now + ms, tuple(map(tuple, groups))),
    ]).arm(sim, network)
