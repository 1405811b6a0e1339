"""Compare two result sets of ``run.py --workload all``: OLD (the base) vs NEW.

    python3 bench/compare.py bench/baseline/result.json bench/out/result.json

One row per (workload, end-to-end metric): both values, the ratio NEW/OLD
(OLD is the base), the bound and a verdict:

- ``ok`` / ``regressed``: worse than the base by less / more than the
  bound, noise included;
- ``unresolved``: the bound lies within the noise of the difference, so
  neither can be said.  Both sets ran the same ops on the same seeds, so
  the noise of a timing is the quartile spread of its n per-op ratios
  NEW/OLD over sqrt(n) (of the three set-ups for ``setup_s``);
- ``equal`` / ``DRIFT``: the simulated metrics, the counts and
  ``sim_fingerprint`` are exact by seed and must not move at all.

Exits 1 on any regression or drift, 2 if the sets cannot be compared.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# BENCHMARK.json's bounds have to absorb seed-to-seed spread (the driver
# compares runs of different seeds).  Two sets of the same seeds and op
# counts do not, so they are held to the bounds the design set, and the
# simulated metrics to equality.
BOUNDS = {"setup_s": 0.15, "round_wall_s": 0.10, "peer_rounds_per_s": 0.10,
          "peak_rss_mb": 0.05}
EXACT_END_TO_END = ("wire_gbit", "round_survival")
# Per-layer metrics with unit "count" are exact too, and so are these.
EXACT_PER_LAYER = ("sim_round_ms", "fail_share", "raft.sub_elect_ms",
                   "simnet.first_try_ratio", "core.bits_over_closed_form")


def _iqr(samples: list[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def _noise(metric: str, old: dict, new: dict) -> float:
    """Relative uncertainty of NEW/OLD for one timing metric."""
    if metric in ("round_wall_s", "peer_rounds_per_s"):
        a = old["info"]["round_wall_s_samples"]
        b = new["info"]["round_wall_s_samples"]
        return _iqr([y / x for x, y in zip(a, b)]) / len(a) ** 0.5
    if metric == "setup_s":
        return max(_iqr(s) / statistics.median(s) / len(s) ** 0.5
                   for s in (old["info"]["setup_s_samples"],
                             new["info"]["setup_s_samples"]))
    return 0.0


def compare(old: dict, new: dict, spec: dict) -> tuple[list[tuple], bool]:
    rows, bad = [], False
    for name, a in old["workloads"].items():
        b = new["workloads"][name]
        for m in spec["end_to_end"]:
            metric = m["name"]
            x = a["end_to_end"][metric]["value"]
            y = b["end_to_end"][metric]["value"]
            if metric in EXACT_END_TO_END:
                verdict, bound = ("equal" if x == y else "DRIFT"), "exact"
            else:
                worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
                bound = BOUNDS[metric]
                noise = _noise(metric, a, b)
                verdict = ("regressed" if worse - noise > bound
                           else "unresolved" if worse + noise > bound
                           else "ok")
            rows.append((name, metric, x, y, y / x if x else float("nan"),
                         bound, verdict))
        exact = [k for k, v in a["per_layer"].items()
                 if v["unit"] == "count" or k in EXACT_PER_LAYER]
        moved = [k for k in exact
                 if a["per_layer"][k]["value"] != b["per_layer"][k]["value"]]
        for k in ("sim_round_ms", "fail_share"):
            x, y = a["per_layer"][k]["value"], b["per_layer"][k]["value"]
            rows.append((name, k, x, y, y / x if x else float("nan"), "exact",
                         "DRIFT" if k in moved else "equal"))
        same_print = (a["info"]["sim_fingerprint"]
                      == b["info"]["sim_fingerprint"])
        rows.append((name, f"counts ({len(exact)}) + sim_fingerprint",
                     float("nan"), float("nan"), float("nan"), "exact",
                     "equal" if not moved and same_print
                     else "DRIFT " + ",".join(moved or ["sim_fingerprint"])))
        if b["failed"]:
            rows.append((name, "ops failed", a["failed"], b["failed"],
                         float("nan"), 0, "regressed"))
    bad = any(r[6].startswith(("regressed", "DRIFT")) for r in rows)
    return rows, bad


def main() -> None:
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with open(sys.argv[1]) as fh:
        old = json.load(fh)
    with open(sys.argv[2]) as fh:
        new = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if (old["mode"], old["seed"]) != (new["mode"], new["seed"]):
        print(f"not comparable: OLD is {old['mode']} seed {old['seed']}, "
              f"NEW is {new['mode']} seed {new['seed']}")
        raise SystemExit(2)
    rows, bad = compare(old, new, spec)
    print(f"{'workload':17s} {'metric':34s} {'old':>14s} {'new':>14s} "
          f"{'new/old':>8s} {'bound':>6s}  verdict")
    for name, metric, x, y, ratio, bound, verdict in rows:
        print(f"{name:17s} {metric:34s} {x:14.6g} {y:14.6g} {ratio:8.4f} "
              f"{bound!s:>6s}  {verdict}")
    unresolved = sum(r[6] == "unresolved" for r in rows)
    print(f"verdict: {'FAIL' if bad else 'PASS'}"
          + (f" ({unresolved} unresolved)" if unresolved else ""))
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    main()
