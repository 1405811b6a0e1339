"""Command-line experiment runner: ``python -m repro <figure> [options]``.

Regenerates any table/figure of the paper from the terminal and
optionally dumps the raw series to CSV::

    python -m repro env
    python -m repro fig6  --rounds 100 --peers 10
    python -m repro fig10 --trials 100
    python -m repro fig13
    python -m repro all   --csv out/
    python -m repro trace --trace-out out/trace.json
    python -m repro prof --resources
    python -m repro chaos --plans 25
    python -m repro chaos --scale 100000 --loss 0.2
    python -m repro campaign --rounds 10 --plans 25
    python -m repro xlayer --peers 100000 --loss 0.2 --transport reliable
    python -m repro campaign --events-out run.jsonl --incident-dir inc/
    python -m repro explain run.jsonl

``trace`` runs the failover + wire-round observability scenario and
writes a JSONL event log, a Prometheus metrics dump, and a Chrome
``trace_event`` timeline (see ``docs/observability.md``).  The artifact
flags work with every other command too: ``--events-out``,
``--metrics-out``, ``--trace-out`` and ``--incident-dir`` run it under
one causal pipeline and write that run's events, metrics, timeline and
flight-recorder incidents.

``prof`` runs the failover + wire-round workload under the phase
profiler and prints the span call tree; with ``--resources`` it also
wraps each phase in the live :class:`~repro.obs.scale.ResourceProfiler`
(tracemalloc deltas, peak RSS) and prints the process/simnet/obs
resource snapshot.

``chaos`` runs seeded fault-injection campaigns (``repro.chaos``)
against the SAC, two-layer and Raft stacks and prints the
pass/degrade/fail matrix; it exits non-zero iff any trial violates a
safety invariant (see ``docs/robustness.md``).  With ``--scale N`` it
instead runs one chaos-at-scale trial: a lossy reliable X-layer round
at ``N`` peers under the deterministic scale fault schedule
(``repro.chaos.scale``), printing transport counters and heap
telemetry.

``campaign`` runs multi-round churn campaigns (``repro.campaign``):
each seeded plan evolves the membership between rounds
(join/leave/rejoin), re-shards the subgroups when the k-of-n floor or
balance bound is violated, threads checkpoints between rounds, drives a
Sec. V membership-change drill on a live two-layer Raft deployment, and
grades the whole trajectory against the cross-round invariants; it
exits non-zero iff any plan violates safety, eventual recovery, the
reshard floor, or the Raft drill.

``explain PATH`` explains a finished run from what it wrote: an event
log (``--events-out``, ``trace_out/events.jsonl``) or a flight-recorder
incident directory.  It prints the incident's trigger, the phase table
``prof`` prints, the ``--top`` slowest and lossiest links, the wave
totals and each round's causal critical path.
"""

from __future__ import annotations

import argparse
import os
import sys

from .obs import get_logger, set_level

log = get_logger("repro")


def _checked(kind: type, ok, rule: str):
    """argparse type: ``kind(text)`` that must satisfy ``ok`` (NaN never
    does); a bad value is a usage error (exit 2)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return parse


#: every count flag: an explicit 0 is an error
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")


def _names(module: str, registry: str):
    """argparse type: comma-separated names from ``module.registry``,
    imported only when the flag is given."""

    def parse(text: str) -> list[str]:
        from importlib import import_module

        known = getattr(import_module(module), registry)
        names = text.split(",")
        unknown = [name for name in names if name not in known]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {unknown}; choose from {sorted(known)}")
        return names

    return parse


def _xlayer_transport(args: argparse.Namespace) -> str:
    """'xlayer': --transport, else reliable iff --loss > 0."""
    return args.transport or ("reliable" if args.loss else "fire_and_forget")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "figure",
        choices=[
            "env", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "multilayer", "xlayer", "all",
            "report", "plan", "trace", "prof", "chaos",
            "campaign", "explain",
        ],
        help="which table/figure to regenerate ('report' writes everything "
        "to a markdown file and prints paper against measured per "
        "artefact; 'plan' runs the deployment planner; 'trace' "
        "runs the observability scenario and writes event/metric/timeline "
        "artifacts; 'chaos' runs seeded fault-injection campaigns and "
        "exits non-zero on any "
        "safety violation; 'campaign' runs multi-round churn campaigns "
        "with re-sharding and cross-round invariants; 'explain' reads "
        "a finished run's event log or incident directory; 'xlayer' runs one "
        "X-layer round over the simulated wire at --peers scale and "
        "checks it against the Eq. 10 closed forms)",
    )
    parser.add_argument("path", nargs="?", default=None,
                        help="'explain': an events.jsonl log or a "
                        "flight-recorder incident directory")
    parser.add_argument("--out", default="report.md",
                        help="output path for 'report'")
    parser.add_argument("--plan-peers", default=30,
                        type=_checked(int, lambda v: v >= 3, ">= 3"),
                        help="'plan': total peer count")
    parser.add_argument("--plan-dropouts", default=1,
                        type=_checked(int, lambda v: v >= 0, ">= 0"),
                        help="'plan': mid-SAC dropouts to tolerate per subgroup")
    parser.add_argument("--plan-bandwidth", default=None,
                        type=_checked(float, lambda v: v > 0, "> 0"),
                        help="'plan': uplink bits/s (enables latency ranking)")
    parser.add_argument("--rounds", type=_positive_int, default=None,
                        help="FL communication rounds (figs 6-9)")
    parser.add_argument("--peers", type=_positive_int, default=None,
                        help="total peers (figs 6-9)")
    parser.add_argument("--trials", type=_positive_int, default=None,
                        help="Raft trials per timeout (figs 10-12)")
    parser.add_argument("--dataset", choices=["blobs", "cifar"],
                        default="blobs", help="FL workload (figs 6-9)")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write raw series as CSV into DIR")
    parser.add_argument("--seed", type=int, default=0,
                        help="'trace'/'prof'/'xlayer'/'chaos --scale': "
                        "scenario RNG seed")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Chrome trace_event JSON timeline "
                        "(open in https://ui.perfetto.dev)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write a Prometheus text metrics dump")
    parser.add_argument("--events-out", metavar="PATH", default=None,
                        help="write the structured event log as JSONL")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"],
                        help="status-line verbosity (default: info)")
    parser.add_argument("--resources", action="store_true",
                        help="'prof': wrap each phase in the live resource "
                        "profiler and print the memory/simnet snapshot")
    parser.add_argument("--top", type=_positive_int, default=12,
                        help="'prof'/'explain': rows in each printed table")
    parser.add_argument("--plans", type=_positive_int, default=25,
                        help="'chaos': seeded fault plans per layer "
                        "(default: 25)")
    # The campaign profiles are the chaos profiles plus churn rates, so
    # one name list serves both commands.
    parser.add_argument("--profiles", metavar="NAMES", default=None,
                        type=_names("repro.chaos.plan", "PROFILES"),
                        help="'chaos'/'campaign': comma-separated fault "
                        "profiles to cycle through (default: all)")
    parser.add_argument("--layers", metavar="NAMES", default=None,
                        type=_names("repro.chaos.runner", "LAYERS"),
                        help="'chaos': comma-separated layers to stress "
                        "(default: sac,two_layer,raft)")
    parser.add_argument("--transport", default=None,
                        choices=["fire_and_forget", "reliable"],
                        help="'chaos'/'xlayer': wire transport (default: "
                        "reliable for chaos; for xlayer, reliable iff "
                        "--loss > 0)")
    parser.add_argument("--loss", default=None,
                        type=_checked(float, lambda v: 0 <= v < 1, "in [0, 1)"),
                        help="'chaos --scale'/'xlayer': random frame-loss "
                        "probability (default: 0.2 for chaos --scale, "
                        "0 for xlayer)")
    parser.add_argument("--scale", type=_positive_int, default=None,
                        metavar="PEERS",
                        help="'chaos': run one chaos-at-scale X-layer trial "
                        "at this peer count instead of the plan matrix")
    parser.add_argument("--max-attempts", type=_positive_int, default=None,
                        help="'chaos --scale'/'xlayer': reliable-transport "
                        "retransmit budget (default: 8)")
    parser.add_argument("--seed0", type=int, default=0,
                        help="'chaos'/'campaign': first plan seed "
                        "(default: 0)")
    parser.add_argument("--static", action="store_true",
                        help="'campaign': disable re-sharding (leavers "
                        "shrink their group; joiners fill the smallest)")
    parser.add_argument("--no-raft", action="store_true",
                        help="'campaign': skip the per-plan two-layer Raft "
                        "membership-change drill")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="'campaign': keep between-round checkpoints "
                        "here (default: a temporary directory)")
    parser.add_argument("--incident-dir", metavar="DIR", default=None,
                        help="attach a flight recorder that dumps an "
                        "incident directory here on each typed failure")
    parser.add_argument("--depth", type=_positive_int, default=6,
                        help="'xlayer': tree depth X (default: 6)")
    parser.add_argument("--delay-ms", default=15.0,
                        type=_checked(float, lambda v: 0 <= v < float("inf"),
                                      "finite and >= 0"),
                        help="'xlayer': fixed per-hop latency in "
                        "virtual ms (default: 15)")
    parser.add_argument("--dim", type=_positive_int, default=64,
                        help="'xlayer': model parameters per peer "
                        "(default: 64)")
    return parser


def _trace_paths(args: argparse.Namespace) -> None:
    """'trace' always writes its three artifacts: default them into
    trace_out/."""
    base = "trace_out"
    args.events_out = args.events_out or os.path.join(base, "events.jsonl")
    args.metrics_out = args.metrics_out or os.path.join(base, "metrics.prom")
    args.trace_out = args.trace_out or os.path.join(base, "trace.json")


def _run_prof(args: argparse.Namespace, obs) -> int:
    """Profile the failover + wire-round workload in ``obs``; optionally
    resources."""
    import contextlib

    import numpy as np

    from .core.topology import Topology
    from .core.wire_round import run_two_layer_wire_round
    from .obs.prof import profile_events
    from .obs.scale import (
        ResourceProfiler,
        format_resource_report,
        resource_snapshot,
    )
    from .twolayer_raft.system import TwoLayerRaftSystem

    n_peers = 12 if args.peers is None else args.peers
    group_size = 4
    seed = args.seed
    rp = ResourceProfiler() if args.resources else None

    def phase(name: str):
        return rp.phase(name) if rp is not None else contextlib.nullcontext()

    with phase("build"):
        topology = Topology.by_group_size(n_peers, group_size)
        system = TwoLayerRaftSystem(topology, seed=seed)
        models = [
            np.random.default_rng([seed, p]).normal(size=256)
            for p in range(n_peers)
        ]
    with phase("stabilize"):
        system.stabilize()
    with phase("failover"):
        victim = system.subgroup_leader(1)
        if victim is not None:
            system.crash(victim)
        system.stabilize()
    with phase("wire_round"):
        k = max(2, min(3, min(len(g) for g in topology.groups)))
        result = run_two_layer_wire_round(
            topology, models, k=k, seed=seed,
            trace_id=f"prof:s{seed}",
        )
    report = profile_events(obs.events)
    print(report.format_table(limit=args.top))
    print()
    print(f"wire round: {'completed' if result.outcome.ok else 'FAILED'} "
          f"in {result.finish_time_ms:.1f} sim-ms, "
          f"{result.messages_sent} messages, "
          f"{result.bits_sent / 1e6:.2f} Mb")
    if rp is not None:
        print()
        print(rp.format_table())
        print()
        # Snapshot before close() so the tracemalloc block is present.
        print(format_resource_report(resource_snapshot(
            obs=obs, sim=system.sim, network=system.network,
        )))
        rp.close()
    return 0


def _run_xlayer(args: argparse.Namespace) -> int:
    """One X-layer round over the simulated wire, pinned to Eq. 10."""
    import time

    import numpy as np

    from .chaos.scale import scale_topology
    from .core import (
        multi_layer_cost_bits,
        multi_layer_message_count,
        multi_layer_round_latency_ms,
        run_xlayer_wire_round,
    )
    from .simnet import FixedLatency

    depth = args.depth
    target = 1_000 if args.peers is None else args.peers
    topology = scale_topology(target, depth)
    n = topology.n
    n_peers = topology.n_peers
    d = args.dim
    models = np.random.default_rng([args.seed, 7]).normal(size=(n_peers, d))

    loss = args.loss or 0.0
    transport = _xlayer_transport(args)
    opts = (
        {"max_attempts": args.max_attempts}
        if args.max_attempts is not None else None
    )
    print(f"X-layer wire round: n={n}, depth={depth}, "
          f"N={n_peers:,} peers (requested {target:,}), "
          f"d={d}, transport={transport}, "
          f"loss={loss:g}")
    t0 = time.perf_counter()
    result = run_xlayer_wire_round(
        topology, models, seed=args.seed,
        latency=FixedLatency(args.delay_ms),
        loss_rate=loss, transport=transport, transport_opts=opts,
    )
    wall = time.perf_counter() - t0

    print(f"\n{'layer':>5} {'groups':>9} {'start ms':>10} "
          f"{'done ms':>10} {'messages':>10} {'Mb':>9}")
    for st in result.layer_stats:
        print(f"{st.layer:>5} {st.groups:>9,} "
              f"{st.start_ms:>10.1f} {st.done_ms:>10.1f} "
              f"{st.messages:>10,} {st.bits / 1e6:>9.2f}")
    bcast = result.bits_by_kind.get("xl.bcast", 0.0)
    print(f"{'bcast':>5} {'':>9} {result.agg_done_ms:>10.1f} "
          f"{result.finish_time_ms:>10.1f} {n_peers - 1:>10,} "
          f"{bcast / 1e6:>9.2f}")

    hs = result.heap_stats
    print(f"\nwall:     {wall:.2f} s — {n_peers / wall:,.0f} peers/s, "
          f"{result.messages_sent / wall:,.0f} msgs/s")
    print(f"heap:     {hs['events_processed']:,} events processed, "
          f"{hs['scheduled_total']:,} scheduled, "
          f"peak {hs['peak_pending']:,} pending, "
          f"{hs['entries']:,} entries left ({hs['dead']:,} dead), "
          f"{hs['compactions']} compactions")
    if transport == "reliable":
        print(f"transport: {result.retransmits:,} retransmits, "
              f"{result.acks:,} ACKs, "
              f"{result.duplicates:,} duplicates suppressed, "
              f"{result.exhausted:,} exhausted "
              f"({result.exhausted_undelivered:,} undelivered), "
              f"{result.dropped:,} frames dropped")
    reason = f" — {result.outcome.reason}" if result.outcome.reason else ""
    print(f"outcome:  {result.outcome.status}{reason}")

    if transport != "fire_and_forget":
        # Retransmission headers and ACK frames are honest wire traffic
        # on top of the Eq. 10 payload, so the closed forms no longer
        # gate; a completed typed outcome is the pass condition.
        return 0 if result.outcome.ok else 1

    closed_bits = multi_layer_cost_bits(n, depth, d)
    closed_msgs = multi_layer_message_count(n, depth)
    closed_ms = multi_layer_round_latency_ms(depth, args.delay_ms)
    print(f"bits:     measured {result.bits_sent / 1e9:.4f} Gb, "
          f"Eq. 10 {closed_bits / 1e9:.4f} Gb, "
          f"delta {result.bits_sent - closed_bits:+.0f}")
    print(f"messages: measured {result.messages_sent:,}, "
          f"closed form {closed_msgs:,}, "
          f"delta {result.messages_sent - closed_msgs:+d}")
    print(f"finish:   measured {result.finish_time_ms:.3f} sim-ms, "
          f"closed form {closed_ms:.3f} sim-ms, "
          f"delta {result.finish_time_ms - closed_ms:+.3f}")
    exact = (
        result.outcome.ok
        and result.bits_sent == closed_bits
        and result.messages_sent == closed_msgs
        and result.finish_time_ms == closed_ms
    )
    print(f"closed-form match: {'exact' if exact else 'MISMATCH'}")
    return 0 if exact else 1


def _run_chaos_scale(args: argparse.Namespace) -> int:
    """One chaos-at-scale trial: lossy reliable X-layer round at N peers."""
    from .chaos.scale import DEFAULT_LOSS_RATE, run_scale_trial

    loss = DEFAULT_LOSS_RATE if args.loss is None else args.loss
    report = run_scale_trial(
        args.scale, depth=args.depth,
        loss_rate=loss, seed=args.seed, max_attempts=args.max_attempts,
    )
    print(f"chaos at scale: n={report.n}, depth={report.depth}, "
          f"N={report.n_peers:,} peers (requested {args.scale:,}), "
          f"loss={report.loss_rate:g}")
    print(f"wall:     {report.wall_s:.2f} s — "
          f"{report.n_peers / report.wall_s:,.0f} peers/s")
    print(f"round:    {report.messages_sent:,} messages, "
          f"{report.bits_sent / 1e9:.3f} Gb, "
          f"finish {report.finish_ms:,.1f} sim-ms")
    print(f"transport: {report.retransmits:,} retransmits, "
          f"{report.acks:,} ACKs, "
          f"{report.duplicates:,} duplicates suppressed, "
          f"{report.exhausted:,} exhausted, "
          f"{report.dropped:,} frames dropped")
    hs = report.heap
    print(f"heap:     {hs['events_processed']:,} events processed, "
          f"{hs['scheduled_total']:,} scheduled, "
          f"peak {hs['peak_pending']:,} pending, "
          f"{hs['entries']:,} entries left ({hs['dead']:,} dead), "
          f"{hs['compactions']} compactions")
    print(f"outcome:  {report.outcome}")
    # A non-completed outcome here is still *typed* (a graded timeout is
    # the expected result of an exhausted retransmit budget), so like a
    # matrix 'degrade' it does not fail the run.
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    from .chaos import LAYERS, format_matrix, run_chaos_matrix

    if args.scale is not None:
        return _run_chaos_scale(args)
    reports = run_chaos_matrix(
        n_plans=args.plans, seed0=args.seed0,
        profiles=args.profiles, layers=args.layers or LAYERS,
        transport=args.transport or "reliable",
    )
    print(format_matrix(reports))
    heaps = [r.heap for r in reports if r.heap]
    if heaps:
        print(f"heap: {sum(h['scheduled_total'] for h in heaps):,} events "
              f"scheduled, peak {max(h['peak_pending'] for h in heaps):,} "
              f"pending, {sum(h['dead'] for h in heaps):,} dead entries, "
              f"{sum(h['compactions'] for h in heaps)} compactions "
              f"across {len(heaps)} wire trials")
    return 1 if any(r.failed for r in reports) else 0


def _run_campaign(args: argparse.Namespace) -> int:
    from .campaign import format_campaign_matrix, run_campaign_matrix

    reports = run_campaign_matrix(
        n_plans=args.plans, seed0=args.seed0, profiles=args.profiles,
        rounds=10 if args.rounds is None else args.rounds,
        n_peers=12 if args.peers is None else args.peers,
        transport=args.transport or "reliable",
        reshard=not args.static,
        raft=not args.no_raft,
        checkpoint_dir=args.checkpoint_dir,
    )
    print(format_campaign_matrix(reports))
    # The determinism handle: same seeds + profiles -> same digest
    # (compare across runs to check bit-identity).
    import hashlib as _hashlib

    digest = _hashlib.sha256(
        "".join(r.fingerprint() for r in reports).encode()
    ).hexdigest()
    print(f"campaign fingerprint: {digest}")
    return 1 if any(r.failed for r in reports) else 0


def _run_explain(args: argparse.Namespace) -> int:
    """Explain a finished run from its event log or incident directory."""
    import json

    from .obs.causal import critical_paths_by_trace, link_table
    from .obs.export import read_events_jsonl
    from .obs.prof import profile_events

    events_path, manifest_path = args.path, None
    if os.path.isdir(args.path):
        events_path = os.path.join(args.path, "events.jsonl")
        manifest_path = os.path.join(args.path, "manifest.json")
    try:
        events = read_events_jsonl(events_path)
        trigger = None
        if manifest_path is not None and os.path.exists(manifest_path):
            with open(manifest_path) as fh:
                trigger = json.load(fh).get("trigger")
    except (OSError, ValueError) as exc:
        log.error("cannot explain %s: %s", args.path, exc)
        return 2

    if trigger is not None:
        fields = ", ".join(f"{k}={v}" for k, v in trigger.items()
                           if k not in ("seq", "name", "t_ms", "wall_s"))
        print(f"incident trigger: {trigger['name']} at t_ms="
              f"{trigger['t_ms']} ({fields})\n")
    print(f"{len(events):,} events in {events_path}\n")
    print(profile_events(events).format_table(limit=args.top))

    rows = link_table(events).values()
    slowest = sorted(
        (r for r in rows if r.latencies_ms),
        key=lambda r: (-r.mean_latency_ms, -r.max_latency_ms, r.src, r.dst),
    )
    lossiest = sorted(
        (r for r in rows if r.dropped),
        key=lambda r: (-r.loss_rate, -r.dropped, r.src, r.dst),
    )
    for title, links in (("slowest links (first-delivery latency)", slowest),
                         ("lossiest links", lossiest)):
        print(f"\n{title}: {len(links)} of {len(rows)} non-ACK links")
        print(f"  {'link':>11} {'sends':>6} {'deliv':>6} {'drops':>6} "
              f"{'rtx':>5} {'loss':>6} {'mean ms':>9} {'max ms':>9}")
        for r in links[:args.top]:
            mean, top = r.mean_latency_ms, r.max_latency_ms
            print(f"  {r.src:>5}->{r.dst:<5} {r.sends:>6} {r.delivered:>6} "
                  f"{r.dropped:>6} {r.retransmits:>5} {r.loss_rate:>6.1%} "
                  f"{'-' if mean is None else f'{mean:.2f}':>9} "
                  f"{'-' if top is None else f'{top:.2f}':>9}")

    waves = [e for e in events if e.name == "net.wave"]
    print(f"\nwaves: {len(waves):,} net.wave events, "
          f"{sum(e.fields.get('count', 0) for e in waves):,} messages "
          f"issued, {sum(e.fields.get('dropped', 0) for e in waves):,} "
          "dropped at issue")
    paths = critical_paths_by_trace(events)
    print(f"\ncritical paths: {len(paths)} trace(s)")
    for path in paths.values():
        print(f"\n{path.format()}")
    return 0


def _run(args: argparse.Namespace, obs) -> int:
    """Run one command; ``obs`` is the installed pipeline, if any."""
    if args.figure == "prof":
        return _run_prof(args, obs)
    if args.figure == "trace":
        from .obs.scenario import run_trace_scenario

        summary = run_trace_scenario(obs, seed=args.seed)
        return 0 if summary["bits_exact"] else 1
    if args.figure == "xlayer":
        return _run_xlayer(args)
    if args.figure == "chaos":
        return _run_chaos(args)
    if args.figure == "campaign":
        return _run_campaign(args)
    return _run_figures(args)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # Intermixed: 'explain --top 3 PATH' parses like 'explain PATH --top 3'.
    args = parser.parse_intermixed_args(argv)
    if (args.figure == "xlayer" and args.max_attempts is not None
            and _xlayer_transport(args) != "reliable"):
        parser.error("--max-attempts needs the reliable transport "
                     "(--transport reliable, or --loss > 0)")
    if (args.figure == "xlayer" and args.loss
            and _xlayer_transport(args) != "reliable"):
        parser.error("--loss > 0 needs the reliable transport: "
                     "fire-and-forget drops would stall the aggregation")
    if (args.figure == "chaos" and args.scale is not None
            and args.transport == "fire_and_forget"):
        parser.error("'chaos --scale' runs a lossy round, which needs the "
                     "reliable transport")
    # scale_topology's smallest tree has 2 peers.
    if args.figure == "xlayer" and args.peers is not None and args.peers < 2:
        parser.error("'xlayer' needs --peers >= 2")
    if args.figure == "chaos" and args.scale is not None and args.scale < 2:
        parser.error("'chaos --scale' needs >= 2 peers")
    # run_campaign's subgroups have 4 peers.
    if args.figure == "campaign" and args.peers is not None and args.peers < 4:
        parser.error("'campaign' needs --peers >= 4 (one subgroup of 4)")
    if args.figure == "explain" and args.path is None:
        parser.error("'explain' needs a PATH: an events.jsonl log or an "
                     "incident directory")
    if args.figure != "explain" and args.path is not None:
        parser.error(f"only 'explain' takes a PATH, got {args.path!r}")
    artifacts = (args.events_out, args.metrics_out, args.trace_out,
                 args.incident_dir)
    if args.figure == "explain" and any(artifacts):
        parser.error("'explain' reads a run's artifacts; it writes none")
    set_level(args.log_level)

    if args.figure == "explain":
        return _run_explain(args)
    if args.figure == "trace":
        _trace_paths(args)
    elif args.figure != "prof" and not any(artifacts):
        return _run(args, None)

    # One capture path: every command runs in one causal pipeline and
    # writes what the artifact flags ask for ('prof' profiles it).
    from .obs.runtime import Observability, observe

    obs = Observability(causal=True)
    if args.incident_dir is not None:
        obs.attach_flight(out_dir=args.incident_dir)
    try:
        with observe(obs):
            return _run(args, obs)
    finally:
        if args.events_out:
            log.info("events  -> %s", obs.write_events_jsonl(args.events_out))
        if args.metrics_out:
            log.info("metrics -> %s", obs.write_prometheus(args.metrics_out))
        if args.trace_out:
            log.info("timeline-> %s (open in https://ui.perfetto.dev)",
                     obs.write_chrome_trace(args.trace_out))


def _run_figures(args: argparse.Namespace) -> int:
    """'report', 'plan' and the figure commands."""
    from . import experiments as ex

    if args.figure == "report":
        from .experiments.report import write_report

        print(write_report(
            args.out, rounds=args.rounds, trials=args.trials,
            peers=args.peers, dataset=args.dataset,
        ))
        log.info("wrote %s", args.out)
        return 0

    if args.figure == "plan":
        from .core.resharding import PlanRequirements, enumerate_plans
        from .nn.zoo import PAPER_CNN_PARAMS

        req = PlanRequirements(sac_dropouts=args.plan_dropouts)
        plans = enumerate_plans(
            args.plan_peers, PAPER_CNN_PARAMS, req,
            bandwidth_bps=args.plan_bandwidth,
        )
        print(f"Feasible plans for N={args.plan_peers} "
              f"(tolerating {args.plan_dropouts} dropout/subgroup), "
              "Fig. 5 CNN:")
        rows = [("n", "k", "m", "Gb/round", "gain", "latency s")] + [
            (str(p.n), str(p.k), str(p.m), f"{p.volume_gb:.2f}",
             f"{p.reduction_vs_baseline:.2f}x",
             f"{p.latency_ms / 1e3:.2f}" if p.latency_ms else "-")
            for p in plans
        ]
        # Each column as wide as its widest value plus a space, and no
        # narrower than the header's layout.
        widths = [max(least, 1 + max(map(len, col)))
                  for least, col in zip((4, 4, 4, 10, 8, 11), zip(*rows))]
        for row in rows:
            print("".join(f"{cell:>{w}}" for cell, w in zip(row, widths)))
        return 0

    csv_dir = args.csv
    want = (
        ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
         "fig13", "fig14", "multilayer", "env"]
        if args.figure == "all"
        else [args.figure]
    )

    def maybe_csv(writer, data, name):
        if csv_dir is not None:
            path = writer(data, os.path.join(csv_dir, name))
            log.info("[csv] wrote %s", path)

    fl_cache: dict[str, list] = {}

    def fl_runs(which: str):
        if which not in fl_cache:
            if which == "fig6_7":
                fl_cache[which] = ex.run_fig6_fig7(
                    n_peers=args.peers, rounds=args.rounds, dataset=args.dataset
                )
            else:
                fl_cache[which] = ex.run_fig8_fig9(
                    n_peers=args.peers, rounds=args.rounds, dataset=args.dataset
                )
        return fl_cache[which]

    for fig in want:
        if fig == "env":
            print(ex.format_table1())
        elif fig in ("fig6", "fig7"):
            runs = fl_runs("fig6_7")
            title = "Fig. 6 — final test accuracy" if fig == "fig6" else \
                "Fig. 7 — training loss (see CSV for curves)"
            print(ex.format_accuracy_table(runs, title))
            from .experiments.csv_export import write_fl_runs

            maybe_csv(write_fl_runs, runs, f"{fig}_curves.csv")
        elif fig in ("fig8", "fig9"):
            runs = fl_runs("fig8_9")
            title = "Fig. 8 — accuracy vs fraction p" if fig == "fig8" else \
                "Fig. 9 — loss vs fraction p (see CSV for curves)"
            print(ex.format_accuracy_table(runs, title))
            from .experiments.csv_export import write_fl_runs

            maybe_csv(write_fl_runs, runs, f"{fig}_curves.csv")
        elif fig in ("fig10", "fig11", "fig12"):
            runner = {"fig10": ex.run_fig10, "fig11": ex.run_fig11,
                      "fig12": ex.run_fig12}[fig]
            stats = runner(trials=args.trials)
            titles = {
                "fig10": "Fig. 10 — subgroup leader re-election",
                "fig11": "Fig. 11 — re-election + FedAvg join",
                "fig12": "Fig. 12 — FedAvg leader crash, full recovery",
            }
            print(ex.format_recovery_table(stats, titles[fig]))
            from .experiments.csv_export import write_recovery_stats

            maybe_csv(write_recovery_stats, stats, f"{fig}_recovery.csv")
        elif fig == "fig13":
            points = ex.run_fig13()
            print(ex.format_fig13(points))
            from .experiments.csv_export import write_cost_points

            maybe_csv(write_cost_points, points, "fig13_costs.csv")
        elif fig == "fig14":
            series = ex.run_fig14()
            print(ex.format_fig14(series))
            from .experiments.csv_export import write_cost_points

            maybe_csv(write_cost_points, series, "fig14_costs.csv")
        elif fig == "multilayer":
            points = ex.run_multilayer_table()
            print(ex.format_multilayer(points))
            from .experiments.csv_export import write_cost_points

            maybe_csv(write_cost_points, points, "multilayer_costs.csv")
        print()
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): point stdout at devnull
        # so the interpreter's flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
