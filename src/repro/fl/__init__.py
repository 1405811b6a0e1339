"""Federated-learning substrate: FedAvg, local-training peers, metrics."""

from .central import CentralConfig, CentralServer, run_central_session
from .fedavg import fedavg
from .metrics import MetricsHistory, RoundMetrics, moving_average
from .peer import FLPeer

__all__ = [
    "fedavg",
    "FLPeer",
    "moving_average",
    "RoundMetrics",
    "MetricsHistory",
    "CentralConfig",
    "CentralServer",
    "run_central_session",
]
