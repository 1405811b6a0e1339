"""Federated-learning substrate: FedAvg, local-training peers, metrics."""

from .central import CentralConfig, CentralServer, run_central_session
from .fedavg import fedavg
from .gossip import GossipConfig, run_gossip_session
from .metrics import (
    MetricsHistory,
    RoundMetrics,
    confusion_matrix,
    moving_average,
    per_class_accuracy,
)
from .peer import FLPeer
from .privacy import GaussianMechanism, PrivacyAccountant, clip_to_norm

__all__ = [
    "fedavg",
    "FLPeer",
    "moving_average",
    "RoundMetrics",
    "MetricsHistory",
    "confusion_matrix",
    "per_class_accuracy",
    "GaussianMechanism",
    "PrivacyAccountant",
    "clip_to_norm",
    "GossipConfig",
    "run_gossip_session",
    "CentralConfig",
    "CentralServer",
    "run_central_session",
]
