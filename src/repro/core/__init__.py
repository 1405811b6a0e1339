"""The paper's contribution: the two-layer (SAC + FedAvg) aggregation system.

- :mod:`.topology` — dividing N peers into m subgroups (Fig. 1).
- :mod:`.two_layer` — Alg. 3: SAC within subgroups, FedAvg across
  subgroup leaders, with fraction-p participation and dropout injection.
- :mod:`.session` — the federated-learning training driver behind
  Figs. 6-9.
- :mod:`.costs` — closed-form communication costs (Eqs. 4, 5, 10 and the
  one-layer SAC baseline).
- :mod:`.multi_layer` — the X-layer generalization of Sec. VII-C.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    topology_snapshot,
)
from .costs import (
    multi_layer_cost_bits,
    multi_layer_message_count,
    one_layer_sac_cost_bits,
    reduction_factor,
    seeded_exchange_bits,
    two_layer_cost_bits,
    two_layer_cost_from_topology,
    two_layer_ft_cost_bits,
    two_layer_ft_cost_from_topology,
    two_layer_seeded_cost_from_topology,
)
from .latency import (
    ft_sac_latency_ms,
    multi_layer_round_latency_ms,
    one_layer_sac_latency_ms,
    two_layer_round_latency_ms,
)
from .multi_layer import MultiLayerTopology, multi_layer_aggregate
from .planner import Plan, PlanRequirements, enumerate_plans, recommend
from .resharding import (
    Move,
    ReshardError,
    ReshardPlan,
    dense_topology,
    needs_reshard,
    plan_reshard,
)
from .session import SessionConfig, run_session
from .topology import Topology
from .two_layer import AggregateResult, TwoLayerAggregator
from .wire_round import (
    run_two_layer_wire_round,
    two_layer_reference_average,
)
from .xlayer_wire import (
    XLayerLayerStats,
    XLayerWireResult,
    run_xlayer_wire_round,
)

__all__ = [
    "Topology",
    "TwoLayerAggregator",
    "AggregateResult",
    "SessionConfig",
    "run_session",
    "one_layer_sac_cost_bits",
    "two_layer_cost_bits",
    "two_layer_ft_cost_bits",
    "two_layer_cost_from_topology",
    "two_layer_ft_cost_from_topology",
    "multi_layer_cost_bits",
    "reduction_factor",
    "MultiLayerTopology",
    "multi_layer_aggregate",
    "Checkpoint",
    "CheckpointError",
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "topology_snapshot",
    "Move",
    "ReshardError",
    "ReshardPlan",
    "dense_topology",
    "needs_reshard",
    "plan_reshard",
    "ft_sac_latency_ms",
    "one_layer_sac_latency_ms",
    "two_layer_round_latency_ms",
    "Plan",
    "PlanRequirements",
    "enumerate_plans",
    "recommend",
    "run_two_layer_wire_round",
    "two_layer_reference_average",
    "run_xlayer_wire_round",
    "XLayerWireResult",
    "XLayerLayerStats",
    "multi_layer_message_count",
    "multi_layer_round_latency_ms",
    "seeded_exchange_bits",
    "two_layer_seeded_cost_from_topology",
]
