"""Federated-learning session driver (the engine behind Figs. 6-9).

Each communication round:

1. every peer overwrites its model with the current global weights and
   trains locally (1 epoch, batch size 50, Adam @ 1e-4 by default);
2. models are aggregated by the configured scheme — ``two-layer``
   (Alg. 3), ``one-layer-sac`` (Alg. 2 baseline) or plain ``fedavg``;
3. the global model is evaluated on the shared test set and per-round
   metrics (accuracy, losses, measured communication bits) are recorded.

The fraction ``p`` (Fig. 8) selects a random subset of subgroups each
round to simulate slow subgroups missing the FedAvg leader's timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from ..data.partition import peer_datasets
from ..data.synthetic import Dataset
from ..fl.fedavg import fedavg
from ..fl.metrics import MetricsHistory, RoundMetrics
from ..fl.peer import FLPeer
from ..nn.model import Sequential
from ..nn.serialize import get_flat_params, set_flat_params
from ..secure.sac import DEFAULT_BITS_PER_PARAM, sac_average
from .topology import Topology
from .two_layer import TwoLayerAggregator

AGGREGATORS = ("two-layer", "one-layer-sac", "fedavg")


@dataclass(frozen=True)
class SessionConfig:
    """Hyper-parameters of one FL experiment (defaults per Sec. VI-A1)."""

    n_peers: int = 10
    rounds: int = 50
    aggregator: str = "two-layer"
    #: subgroup size n (two-layer only); the paper sweeps 3, 5, N
    group_size: int = 3
    #: k-out-of-n threshold; None = plain n-out-of-n SAC in subgroups
    threshold: int | None = None
    #: fraction p of subgroups reaching the FedAvg leader per round (Fig. 8)
    fraction: float = 1.0
    distribution: str = "iid"
    batch_size: int = 50
    lr: float = 1e-4
    seed: int = 0
    #: optional per-round dropout injection: round -> {group: {peer ids}}
    dropout_schedule: Mapping[int, Mapping[int, set[int]]] | None = None

    def __post_init__(self) -> None:
        if self.aggregator not in AGGREGATORS:
            raise ValueError(
                f"unknown aggregator {self.aggregator!r}; expected one of {AGGREGATORS}"
            )
        if self.n_peers < 1 or self.rounds < 1:
            raise ValueError("n_peers and rounds must be >= 1")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.aggregator == "two-layer" and not 1 <= self.group_size <= self.n_peers:
            raise ValueError("group_size must be in [1, n_peers]")


def run_session(
    model_factory: Callable[[np.random.Generator], Sequential],
    dataset: Dataset,
    config: SessionConfig,
    on_round: Callable[[RoundMetrics], None] | None = None,
    initial_weights: np.ndarray | None = None,
    start_round: int = 0,
    on_weights: Callable[[int, np.ndarray], None] | None = None,
) -> MetricsHistory:
    """Run a full FL session; returns the per-round metric history.

    ``model_factory`` builds one model per peer (plus one for evaluation);
    all peers start from identical weights (peer 0's initialization), as
    FL assumes a shared initial model.

    ``initial_weights`` / ``start_round`` resume from a checkpoint (see
    :mod:`repro.core.checkpoint`): the session runs rounds
    ``start_round .. config.rounds - 1`` starting from the given global
    model.  ``on_weights(round, global_weights)`` fires after every
    aggregation — the natural place to write checkpoints.
    """
    rng = np.random.default_rng(config.seed)
    peers, eval_model = build_peers(model_factory, dataset, config, rng)

    # Common initialization (or a checkpointed global model).
    if initial_weights is not None:
        initial_weights = np.asarray(initial_weights, dtype=np.float64)
        if initial_weights.shape != (peers[0].model.n_params,):
            raise ValueError(
                f"initial_weights must have shape ({peers[0].model.n_params},)"
            )
        global_weights = initial_weights.copy()
    else:
        global_weights = get_flat_params(peers[0].model)
    if not 0 <= start_round <= config.rounds:
        raise ValueError("start_round must be in [0, rounds]")

    aggregator: TwoLayerAggregator | None = None
    topology: Topology | None = None
    if config.aggregator == "two-layer":
        topology = Topology.by_group_size(config.n_peers, config.group_size)
        aggregator = TwoLayerAggregator(topology, k=config.threshold)

    history = MetricsHistory()
    for rnd in range(start_round, config.rounds):
        # ---- local update on every peer
        train_losses, models = local_updates(peers, global_weights)

        # ---- aggregation
        if config.aggregator == "two-layer":
            assert aggregator is not None and topology is not None
            participating = select_groups(topology.n_groups, config.fraction, rng)
            dropouts = None
            if config.dropout_schedule is not None:
                dropouts = config.dropout_schedule.get(rnd)
            result = aggregator.aggregate(
                models,
                rng,
                participating_groups=participating,
                dropouts=dropouts,
            )
            global_weights = result.average
            comm_bits = result.bits_sent
        elif config.aggregator == "one-layer-sac":
            result = sac_average(models, rng)
            global_weights = result.average
            comm_bits = result.bits_sent
        else:  # plain fedavg
            global_weights = fedavg(models, weights=[p.n_samples for p in peers])
            # Every client uploads; everyone receives the broadcast.
            comm_bits = 2 * (len(peers) - 1) * models[0].size * DEFAULT_BITS_PER_PARAM

        if on_weights is not None:
            on_weights(rnd, global_weights)

        # ---- evaluation of the new global model
        metrics = evaluate_round(
            eval_model, dataset, global_weights, rnd, train_losses, comm_bits
        )
        history.append(metrics)
        if on_round is not None:
            on_round(metrics)
    return history


def build_peers(
    model_factory: Callable[[np.random.Generator], Sequential],
    dataset: Dataset,
    config,
    rng: np.random.Generator,
) -> tuple[list[FLPeer], Sequential]:
    """The FL peers of a run and its evaluation model.

    ``config`` supplies ``n_peers``, ``distribution``, ``lr`` and
    ``batch_size`` (a :class:`SessionConfig` or a
    :class:`repro.p2pfl.P2PFLConfig`).  Draw order on ``rng``: the
    shards, then per peer its model and its generator's seed, then the
    evaluation model.
    """
    shards = peer_datasets(dataset, config.n_peers, config.distribution, rng)
    peers = [
        FLPeer(
            pid,
            model_factory(rng),
            x,
            y,
            np.random.default_rng(rng.integers(2**63)),
            lr=config.lr,
            batch_size=config.batch_size,
        )
        for pid, (x, y) in enumerate(shards)
    ]
    return peers, model_factory(rng)


def local_updates(
    peers: Sequence[FLPeer],
    global_weights: np.ndarray,
    down: Collection[int] = (),
) -> tuple[list[float], list[np.ndarray]]:
    """One local-update pass: ``(train losses, every peer's weights)``.

    Every peer not in ``down`` adopts the global weights and trains; a
    peer that is down keeps (and reports) the weights it had.
    """
    train_losses = []
    for peer in peers:
        if peer.peer_id in down:
            continue
        peer.set_weights(global_weights)
        train_losses.append(peer.local_update())
    return train_losses, [peer.get_weights() for peer in peers]


def evaluate_round(
    eval_model: Sequential,
    dataset: Dataset,
    global_weights: np.ndarray,
    rnd: int,
    train_losses: Sequence[float],
    comm_bits: float,
) -> RoundMetrics:
    """Score the round's global model on the shared test set."""
    set_flat_params(eval_model, global_weights)
    test_loss, test_acc = eval_model.evaluate(dataset.x_test, dataset.y_test)
    return RoundMetrics(
        round=rnd,
        test_accuracy=test_acc,
        test_loss=test_loss,
        train_loss=float(np.mean(train_losses)) if train_losses else float("nan"),
        comm_bits=comm_bits,
    )


def select_groups(
    n_groups: int, fraction: float, rng: np.random.Generator
) -> list[int] | None:
    """Pick the subgroups that make the FedAvg deadline this round."""
    if fraction >= 1.0:
        return None
    m = max(1, int(round(n_groups * fraction)))
    return sorted(rng.choice(n_groups, size=m, replace=False).tolist())
