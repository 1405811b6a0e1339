"""repro — scalable, secure, fault-tolerant aggregation for P2P federated learning.

Reproduction of Yahata, Sugiura & Matsutani, *A Scalable Secure Fault
Tolerant Aggregation for P2P Federated Learning* (IPDPS Workshops 2024).

Subpackages
-----------
``repro.core``
    The paper's contribution: the two-layer (SAC + FedAvg) aggregation
    system, subgroup topology, communication-cost models and the X-layer
    generalization.
``repro.secure``
    Additive and replicated (k-out-of-n) secret sharing, Secure Average
    Computation (SAC), and its fault-tolerant variant — both as pure
    functions and as message-passing protocol actors.
``repro.raft`` / ``repro.twolayer_raft``
    A full Raft consensus implementation and the paper's two-layer Raft
    backend with post-election FedAvg-layer re-join.
``repro.nn`` / ``repro.data`` / ``repro.fl``
    NumPy neural-network, synthetic dataset, and federated-learning
    substrates (standing in for PyTorch + MNIST/CIFAR-10).
``repro.simnet``
    Discrete-event network simulator with crash/partition injection and
    per-message byte accounting.
``repro.obs``
    Unified observability: typed event bus, span timers, and JSONL /
    Prometheus / Chrome-trace exporters over the collected events.
``repro.analysis``
    Closed-form fault-tolerance thresholds (paper Sec. VII-D) and Monte
    Carlo validation.
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "core",
    "data",
    "experiments",
    "fl",
    "nn",
    "obs",
    "raft",
    "secure",
    "simnet",
    "twolayer_raft",
]
