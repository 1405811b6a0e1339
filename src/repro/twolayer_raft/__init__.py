"""Two-layer Raft — the backend of the two-layer aggregation system (Sec. V).

Every peer runs a Raft instance for its subgroup; the subgroup leaders
form a second Raft cluster (the FedAvg layer).  A post-leader-election
callback makes a newly elected subgroup leader join the FedAvg layer
using the FedAvg-layer configuration that the previous leader
periodically committed to the subgroup log (Sec. V-A1).

:mod:`.system` builds the whole thing on the simulated network;
:mod:`.scenarios` reproduces the four failure cases and the timing
measurements behind Figs. 10-12.
"""

from .config import FEDAVG_CONFIG, JoinRedirect, JoinRequest
from .scenarios import (
    fedavg_leader_recovery_trial,
    run_trials,
    subgroup_leader_recovery_trial,
)
from .system import PeerProcess, SystemEvent, TwoLayerRaftSystem

__all__ = [
    "TwoLayerRaftSystem",
    "PeerProcess",
    "SystemEvent",
    "FEDAVG_CONFIG",
    "JoinRequest",
    "JoinRedirect",
    "subgroup_leader_recovery_trial",
    "fedavg_leader_recovery_trial",
    "run_trials",
]
