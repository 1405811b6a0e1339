"""Alternating parent/change benchmark pairs (choosing-metrics guide, section 8).

    python3 tools/ab_pairs.py PARENT_REV CHANGE_REV --workload paper_round \\
        --pairs 10 --seconds 22 --seed0 61

Each side is a git revision of this repository (``HEAD~1``, a branch, a
hash), exported with ``git archive`` into a fresh temporary directory; the
two exports sit at paths of equal depth and length, so neither side runs
from a working tree (whose stray files and path read differently for the
same code).  Commit a change before measuring it.

Pair ``i`` runs each export's own ``bench/run.py --workload W --seed seed0+i
--seconds S --trace 0`` (stdlib only), parent first on even pairs, change first
on odd ones.  Per end-to-end metric of the parent's ``BENCHMARK.json``: change /
parent per pair, each side's median and quartiles, pairs won (ties count for
neither) and a verdict: ``GAIN`` (>= 10 pairs, >= 9/10 won, medians further apart
than the parent's quartiles), ``WORSE`` (median worse by more than the bound),
``unresolved`` (parent spread above the bound, sides overlap) or ``within bound``.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def export(rev: str, dest: Path) -> str:
    """Extract revision ``rev`` of the repository into ``dest``; its hash."""
    git = ["git", "-C", str(REPO)]
    commit = subprocess.run(git + ["rev-parse", "--verify", f"{rev}^{{commit}}"],
                            check=True, text=True, stdout=subprocess.PIPE).stdout.strip()
    tar = subprocess.run(git + ["archive", commit], check=True,
                         stdout=subprocess.PIPE).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return commit


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(xs: list) -> list:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3


def verdict(parent: list, change: list, wins: int, higher: bool, bound: float) -> str:
    sign = 1.0 if higher else -1.0  # sign * value: more is better
    (q1, med_p, q3), (_, med_c, _) = quartiles(parent), quartiles(change)
    gain, base = sign * (med_c - med_p), abs(med_p) or 1.0
    if len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gain > q3 - q1:
        return "GAIN"
    if -gain / base > bound:
        return "WORSE"
    apart = min(sign * c for c in change) > max(sign * p for p in parent)
    return "unresolved" if (q3 - q1) / base > bound and not apart else "within bound"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent side")
    ap.add_argument("change", help="git revision of the change side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--seed0", type=int, default=61)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        # "parent" and "change" are equally long: equal paths but for a name.
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        for side, tree in trees.items():
            print(f"{side}: {export(getattr(args, side), tree)}", flush=True)
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs = {"parent": [], "change": []}
        for seed in range(args.seed0, args.seed0 + args.pairs):
            for side in ("parent", "change")[:: -1 if (seed - args.seed0) % 2 else 1]:
                r = run(trees[side], args.workload, seed, args.seconds)
                runs[side].append(r)
                print(f"seed {seed} {side}: failed {r['failed']}/{r['attempted']}",
                      flush=True)
    for m in spec:
        name, higher = m["name"], m["better"] == "higher"
        p, c = ([r["metrics"][name]["value"] for r in runs[s]] for s in runs)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        print(f"{args.workload} {name} [{m['unit']}, {m['better']} is better, "
              f"bound {m['bound']}]\n"
              f"  per pair  {' '.join(f'{y / (x or 1):.3f}' for x, y in zip(p, c))}\n"
              f"  parent    median {pm:.6g}  quartiles {p1:.6g} .. {p3:.6g}\n"
              f"  change    median {cm:.6g}  quartiles {c1:.6g} .. {c3:.6g}\n"
              f"  change / parent {cm / (pm or 1):.3f}  won {wins}/{len(p)} "
              f"({sum(x == y for x, y in zip(p, c))} ties)  "
              f"{verdict(p, c, wins, higher, m['bound'])}")
    failed = sum(r["failed"] for side in runs.values() for r in side)
    sys.exit(f"{failed} op(s) failed" if failed else 0)


if __name__ == "__main__":
    main()
