"""Outside-in tracing: spans at the layer boundaries, recorded from here.

Nothing in ``src/`` is instrumented.  :class:`Tracer` wraps the public
callables of each ``repro`` package (the lists below) by rebinding every
module attribute that *is* the original function — so
``from ..secure.batched import apply_divide_noise`` call sites, and the
workloads' own imports, see the wrapper too — and by replacing methods on
their classes.  A span is
``(name, layer, start, end, parent, op id)``; a layer's self time is its
spans' duration minus the part their child spans cover.  Targets that a
later refactor removed are skipped and listed in ``Tracer.missing``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("secure", "simnet", "core", "chaos", "campaign", "raft",
          "twolayer_raft", "par", "fl")

# Modules whose from-imports of a wrapped function are rebound: the
# program's, and the benchmark's own entry points into it.
REBIND_IN = ("repro", "workloads")
MAX_DUMPED_SPANS = 400_000  # a campaign op alone records ~25k

# layer -> "module:function" or "module:Class.method"
TARGETS: dict[str, tuple[str, ...]] = {
    "secure": (
        "repro.secure.batched:batched_divide",
        "repro.secure.batched:batched_zero_sum",
        "repro.secure.batched:draw_divide_noise",
        "repro.secure.batched:apply_divide_noise",
        "repro.secure.seedshare:seeded_zero_sum_shares",
        "repro.secure.seedshare:SeedShare.expand",
        "repro.secure.fault_tolerant:fault_tolerant_sac",
        "repro.secure.sac:sac_average",
        "repro.secure.protocol:SacProtocolPeer.start_round",
        "repro.secure.protocol:SacProtocolPeer.on_message",
    ),
    "simnet": (
        "repro.simnet.network:Network.send",
        "repro.simnet.network:Network.send_batch",
        "repro.simnet.events:Simulator.run",
        "repro.simnet.events:Simulator.run_until",
        "repro.simnet.events:Simulator.run_while",
    ),
    "core": (
        "repro.core.wire_round:run_two_layer_wire_round",
        "repro.core.xlayer_wire:run_xlayer_wire_round",
        "repro.core.multi_layer:multi_layer_aggregate",
        "repro.core.multi_layer:MultiLayerTopology.member_matrix",
        "repro.core.resharding:plan_reshard",
        "repro.core.resharding:needs_reshard",
        "repro.core.resharding:dense_topology",
        "repro.core.checkpoint:save_checkpoint",
        "repro.core.checkpoint:load_checkpoint",
    ),
    "chaos": (
        "repro.chaos.scale:run_scale_trial",
        "repro.chaos.schedule:FaultSchedule.timeline",
        "repro.chaos.schedule:FaultSchedule.arm",
        "repro.chaos.plan:ChaosPlan.sample",
        "repro.chaos.timeline:FaultTimeline.crashed_at",
        "repro.chaos.timeline:FaultTimeline.link_up_at",
        "repro.chaos.timeline:FaultTimeline.loss_rate_at",
        "repro.chaos.timeline:FaultTimeline.extra_delay_at",
        "repro.chaos.invariants:check_eventual_recovery",
        "repro.chaos.invariants:check_reshard_floor",
    ),
    "campaign": (
        "repro.campaign.runner:run_campaign",
        "repro.campaign.schedule:sample_campaign_schedule",
    ),
    "raft": (
        "repro.raft.node:RaftNode.handle",
        "repro.raft.node:RaftNode.start",
    ),
    "twolayer_raft": (
        "repro.campaign.runner:run_raft_drill",
        "repro.twolayer_raft.system:PeerProcess.on_message",
        "repro.twolayer_raft.system:TwoLayerRaftSystem.stabilize",
        "repro.twolayer_raft.system:TwoLayerRaftSystem.move_peer",
        "repro.twolayer_raft.system:TwoLayerRaftSystem.add_peer",
    ),
    "par": ("repro.par.executor:run_jobs",),
    "fl": ("repro.fl.fedavg:fedavg",),
}


class Tracer:
    def __init__(self) -> None:
        # span = [name, layer, start, end, parent index, op id, child time]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, layer, 0.0, 0.0, parent, self.op_id, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][6] += end - span[2]

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer, targets in TARGETS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                try:
                    module = importlib.import_module(module_name)
                    owner_name, _, method = path.rpartition(".")
                    if owner_name:
                        owner = getattr(module, owner_name)
                        raw = owner.__dict__[method]
                    else:
                        raw = getattr(module, path)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(target)
                    continue
                label = f"{layer}:{path}"
                if not owner_name:
                    wrapped = self._wrap(layer, label, raw)
                    for mod_name, mod in list(sys.modules.items()):
                        if mod is None or not mod_name.startswith(REBIND_IN):
                            continue
                        for attr, value in list(vars(mod).items()):
                            if value is raw:
                                self._rebind(mod, attr, wrapped)
                elif isinstance(raw, (staticmethod, classmethod)):
                    kind = type(raw)
                    self._rebind(owner, method,
                                 kind(self._wrap(layer, label, raw.__func__)))
                else:
                    self._rebind(owner, method, self._wrap(layer, label, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def per_op(self) -> tuple[dict, dict]:
        """``(self_s, calls)``: per layer, averaged over the traced ops."""
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        ops = set()
        for _name, layer, start, end, _parent, op, child in self.spans:
            if op < 0:
                continue
            ops.add(op)
            self_s[layer] += (end - start) - child
            calls[layer] += 1
        n = max(1, len(ops))
        return ({k: self_s[k] / n for k in LAYERS},
                {k: calls[k] / n for k in LAYERS})

    def dump(self, path: str, workload: str) -> None:
        """Write the spans, times in seconds from the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "workload": workload,
                "columns": ["name", "layer", "start_s", "end_s", "parent",
                            "op"],
                "total_spans": len(self.spans),
                "missing_targets": self.missing,
                "spans": [
                    [name, layer, round(start - t0, 7), round(end - t0, 7),
                     parent, op]
                    for name, layer, start, end, parent, op, _child
                    in self.spans[:MAX_DUMPED_SPANS]
                ],
            }, fh)
