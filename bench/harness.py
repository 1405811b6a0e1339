"""Child process of ``run.py``: set up one workload, measure it, print JSON.

Runs one closed loop with one client.  ``run.py`` launches this file with
the allocator and thread pins in the environment (they only take effect
at process start).  The last line of stdout is one JSON object holding
every metric this pass produced; ``run.py`` picks the ones it reports.
"""

from __future__ import annotations

import resource
import time

_START_WALL = time.perf_counter()

import argparse
import gc
import hashlib
import json
import os
import platform
import signal
import statistics

import numpy as np

import trace
from workloads import COUNT_NAMES, OUT_DIR, SMOKE_OPS, WORKLOADS, OpRecord

SETUP_REPS = 3  # set-up is repeated so setup_s can be a median
# The host this runs on changes speed in steps of 20-60 %, towards slower,
# for seconds to minutes at a time (shared cores and memory).  Two things
# make a run's timings repeat all the same.  The low end of its per-round
# times leaves out the steps that covered part of the run; its median does
# not.  And a fixed kernel timed between the ops, read the same way, says
# how fast the host was during this run: the timings are divided by that.
QUIET_PERCENTILE = 10
REF_NOMINAL_S = 0.004  # the kernel on the baseline box when it is quiet
REF_SHARE = 0.03  # of the loop's time goes to timing the kernel
_REF_SMALL = np.linspace(0.0, 1.0, 64)
_REF_BIG = np.full(1 << 20, 1.5)  # 8 MB, past the core's own caches
_REF_OUT = np.empty_like(_REF_BIG)
REF_BURST = 3  # calls in a row: the first finds the caches as the op left them
OP_DEADLINE_S = 90.0  # an op past this is a failure, not a hang
TAIL_PERCENTILES = (99, 95, 90, 75)


class OpDeadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpDeadline(f"op exceeded {OP_DEADLINE_S:.0f} s")


def _cpu() -> tuple[float, float]:
    """(user, sys) CPU seconds since process start, self + children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + kids.ru_utime, me.ru_stime + kids.ru_stime


def calibrate() -> float:
    """Median seconds of a fixed 64 MB float64 multiply-add + sum."""
    x = np.full(8 << 20, 1.5)
    y = np.empty_like(x)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.multiply(x, 1.000001, out=y)
        np.add(y, 0.5, out=y)
        float(y.sum())
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def reference_kernel() -> float:
    """The kinds of work the rounds are made of, about a quarter each:
    interpreter arithmetic, building and walking containers, many calls on
    small arrays, and passes over an array that does not fit the cache."""
    total = 0
    for i in range(25_000):
        total += i * i
    table = {}
    for i in range(5_000):
        table[(i, i + 1)] = [i]
    for value in table.values():
        total += value[0]
    small = _REF_SMALL
    for _ in range(800):
        small = np.add(small, 1.0)
        small = small[small > 0.5]
    np.multiply(_REF_BIG, 1.000001, out=_REF_OUT)
    np.add(_REF_OUT, 0.5, out=_REF_OUT)
    return total + float(small[0]) + float(_REF_OUT[0])


def _close(workload) -> None:
    getattr(workload, "close", lambda: None)()


def set_up(factory, seed: int, smoke: bool, reps: int):
    """Topology, inputs and one untimed warm-up op, ``reps`` times over.

    The warm-up op also first-touches the round's working set.  Returns
    the last workload, its warm-up result (still to be checked) and one
    ``(user, sys, wall, warm-up wall)`` per rep.
    """
    workload = warm = None
    samples = []
    for _ in range(reps):
        if workload is not None:
            _close(workload)
            workload = warm = None
            gc.collect()
        (u0, s0), t0 = _cpu(), time.perf_counter()
        workload = factory(seed, smoke)
        t_warm = time.perf_counter()
        warm = workload.run(0)
        (u1, s1), t1 = _cpu(), time.perf_counter()
        samples.append((u1 - u0, s1 - s0, t1 - t0, t1 - t_warm))
    return workload, warm, samples


class Loop:
    """Runs ops one after another; keeps their records and failures."""

    def __init__(self, workload, corrupt_op=None, tracer=None):
        self.workload, self.corrupt_op = workload, corrupt_op
        self.tracer = tracer
        self.records: list[OpRecord] = []
        self.attempted = self.failed = self.gc_freed = 0
        self.failures: list[str] = []
        self.refs: list[float] = []  # reference kernel, seconds per call
        self.ref_spent = 0.0

    def op(self, i: int) -> tuple[float, float, OpRecord] | None:
        """One op: ``(wall_s, cpu_s, record)``, or None if it raised."""
        if self.tracer is not None:
            self.tracer.op_id = i
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            raw = self.workload.run(i)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        except Exception as exc:  # the loop must outlive a failing op
            raw = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer is not None:
                self.tracer.op_id = -1
        record = self.grade(i, raw)
        del raw
        self.collect()
        return None if record is None else (wall, cpu, record)

    def collect(self) -> None:
        # Round results sit in reference cycles; without a collection
        # between rounds peak RSS grows round over round.
        self.gc_freed += gc.collect()

    def time_reference(self, elapsed: float) -> None:
        """Keep the reference kernel at ``REF_SHARE`` of the loop's time."""
        while self.ref_spent < REF_SHARE * elapsed:
            for _ in range(REF_BURST):
                t0 = time.perf_counter()
                reference_kernel()
                self.refs.append(time.perf_counter() - t0)
                self.ref_spent += self.refs[-1]

    def grade(self, i: int, raw) -> OpRecord | None:
        """Check what op ``i`` returned (or raised); None if it has no record."""
        self.attempted += 1
        try:
            if isinstance(raw, Exception):
                raise raw
            record = self.workload.check(i, raw, corrupt=i == self.corrupt_op)
        except Exception as exc:  # a check that cannot run is a failed op
            self.failed += 1
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return None
        if not record.correct:
            self.failed += 1
            self.failures.append(f"op {i}: check failed: {record.why}")
        self.records.append(record)
        return record

    def run(self, n_ops: int | None, seconds: float):
        """Ops 1, 2, ...: ``n_ops`` of them, or for ``seconds`` if None.

        Returns per-round wall and CPU seconds of the ops that returned.
        """
        walls, cpus = [], []
        start, i = time.perf_counter(), 0
        while (i < n_ops if n_ops is not None
               else time.perf_counter() - start < seconds):
            i += 1
            done = self.op(i)
            if done is not None:
                wall, cpu, record = done
                walls.append(wall / record.rounds)
                cpus.append(cpu / record.rounds)
            self.time_reference(time.perf_counter() - start)
        return walls, cpus


def traced_pass(name: str, loop: Loop, n_ops: int | None, seconds: float):
    """The same ops again under the tracer.

    Returns the per-layer span metrics and the notes that go with them.
    """
    tracer = trace.Tracer()
    traced = Loop(loop.workload, tracer=tracer)
    tracer.install()
    try:
        walls, _ = traced.run(n_ops, seconds)
    finally:
        tracer.uninstall()
    loop.attempted += traced.attempted
    loop.failed += traced.failed
    loop.failures += traced.failures
    self_s, calls = tracer.per_op()
    per_layer = {}
    for layer in trace.LAYERS:
        per_layer[f"{layer}.self_s"] = self_s[layer]
        per_layer[f"{layer}.calls"] = calls[layer]
    tracer.dump(os.path.join(OUT_DIR, f"trace_{name}.json"), name)
    return per_layer, {
        "traced_ops": len(walls),
        "traced_round_wall_s": statistics.median(walls) if walls else 0.0,
        "trace_missing_targets": tracer.missing,
    }


def _tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(samples) * (100 - p) / 100 >= 10:
            return f"p{p}", float(np.percentile(samples, p))
    return "p50", statistics.median(samples)


def _iqr(samples: list[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure for this long instead of a fixed op count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt-op", type=int, default=None,
                    help="corrupt this op's aggregate before it is checked "
                         "(tests the checks themselves)")
    args = ap.parse_args()
    imports_user, imports_sys = _cpu()
    imports_wall = time.perf_counter() - _START_WALL
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(OUT_DIR, exist_ok=True)
    factory, full_ops = WORKLOADS[args.workload]
    n_ops = None if args.seconds is not None else (
        SMOKE_OPS if args.smoke else full_ops)
    seconds = args.seconds or 0.0

    calib_before = calibrate()
    workload, warm, setups = set_up(factory, args.seed, args.smoke,
                                    1 if args.trace else SETUP_REPS)
    try:
        loop = Loop(workload, args.corrupt_op)
        loop.grade(0, warm)  # includes the slow reference checks
        del warm
        loop.collect()
        n_warm = len(loop.records)
        if args.trace:
            # A quarter of the ops untraced, then the same ops traced.
            if n_ops is not None:
                n_ops = max(2, n_ops // 4)
            walls, cpus = loop.run(n_ops, 0.2 * seconds)
            per_layer, info = traced_pass(
                args.workload, loop, n_ops, 0.2 * seconds)
            per_layer["run.trace_overhead_ratio"] = (
                info["traced_round_wall_s"] / statistics.median(walls)
                if walls else 0.0)
        else:
            walls, cpus = loop.run(n_ops, seconds)
            per_layer, info = {}, {}
    finally:
        _close(workload)
    calib_after = calibrate()

    timed = loop.records[n_warm:]  # without the warm-up op
    if not walls or not timed:
        raise SystemExit(f"no timed op completed: {loop.failures}")
    rounds = sum(r.rounds for r in timed)
    wall_total = sum(w * r.rounds for w, r in zip(walls, timed))
    setup_user = sorted(s[0] for s in setups)
    calib = (calib_before + calib_after) / 2
    # 1.0 on the quiet baseline box, below it on a slower or busier host.
    host_speed = REF_NOMINAL_S / float(
        np.percentile(loop.refs, QUIET_PERCENTILE))
    round_wall_raw = float(np.percentile(walls, QUIET_PERCENTILE))
    round_wall = round_wall_raw * host_speed
    peer_rates = [r.peer_rounds / (w * r.rounds) for w, r in zip(walls, timed)]
    tail_name, tail = _tail(walls)
    sim_ms = [r.sim_ms for r in timed if r.sim_ms is not None]

    end_to_end = {
        "setup_s": imports_user + statistics.median(setup_user),
        "round_wall_s": round_wall,
        "peer_rounds_per_s":
            float(np.percentile(peer_rates, 100 - QUIET_PERCENTILE))
            / host_speed,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wire_gbit": statistics.median(r.bits for r in timed) / 1e9,
        "round_survival": sum(r.ok_rounds for r in timed) / rounds,
    }
    per_layer.update({
        "sim_round_ms": statistics.median(sim_ms) if sim_ms else 0.0,
        "fail_share": loop.failed / loop.attempted,
        "run.host_speed": host_speed,
        "run.round_wall_raw_s": round_wall_raw,
        "run.round_wall_median_s": statistics.median(walls),
        "run.peer_rounds_per_s_mean":
            sum(r.peer_rounds for r in timed) / wall_total,
        "run.round_wall_tail_s": tail,
        "run.round_wall_iqr_s": _iqr(walls),
        "run.round_cpu_s": statistics.median(cpus),
        "run.warmup_s": setups[-1][3],
        "run.setup_wall_s":
            imports_wall + statistics.median(s[2] for s in setups),
        "run.setup_sys_s":
            imports_sys + statistics.median(s[1] for s in setups),
        "run.gc_cycle_objects": loop.gc_freed / len(loop.records),
        "run.calib_s": calib,
        "run.round_over_calib": round_wall_raw / calib,
    })
    for name in COUNT_NAMES:  # 0 where the result objects do not carry it
        per_layer[name] = statistics.median(
            r.counts.get(name, 0) for r in timed)
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ops": len(timed),
        "rounds": rounds,
        "tail_percentile": tail_name,
        "setup_s_samples": setup_user,
        "round_wall_s_samples": walls,
        "reference_s_samples": loop.refs,
        "calib_before_s": calib_before,
        "calib_after_s": calib_after,
        "noisy": abs(calib_after - calib_before)
        > 0.1 * min(calib_before, calib_after),
        "failures": loop.failures[:20],
        "sim_fingerprint": hashlib.sha256(
            "\n".join(r.checksum for r in loop.records).encode()).hexdigest(),
    })
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "info": info,
    }))


if __name__ == "__main__":
    main()
