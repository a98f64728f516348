"""Compare two checkouts on the benchmark in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload mesh_relax --pairs 10 \
        --seed 13 --seconds 8

Each pair runs `bench/run.py` once in checkout A and once in checkout B,
A first in odd pairs and B first in even ones, so a drift in host speed
does not favour one side. A run that exits non-zero, reads
`correct: false` or counts a failed check stops the comparison (exit 1).

The tool prints every pair's metrics as they come, then, for each
metric, the median and quartiles of A and of B, the ratio of the medians
(B / A) and in how many pairs B read strictly lower and strictly higher
(ties count for neither), so "no metric worse" reads from one line.
Two verdicts end each line, with each metric's direction (`better`) read
from A's `BENCHMARK.json`. "claim": whether the claim rule holds, that
of at least 10 pairs B is better in at least 9/10 and its median beats
A's by more than A's interquartile range. "bound": for an end-to-end
metric, whether B's median is worse than A's by at most the metric's
`bound`, a fraction of A's median; a per-layer metric has none ("-").
Stdlib only; each checkout's benchmark imports its own `src/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, args: argparse.Namespace) -> dict[str, float]:
    """One `bench/run.py` run in `checkout`: its metrics, checked for failures."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    child = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    if child.returncode != 0:
        raise SystemExit(f"error: bench/run.py in {checkout} exited {child.returncode}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] > 0:
        raise SystemExit(f"error: bench/run.py in {checkout} failed {result['failed']} of "
                         f"{result['attempted']} checks")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (the median alone for one value)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(runs_a: list[dict], runs_b: list[dict], spec: dict) -> list[str]:
    """One line per metric: A and B medians with quartiles, B / A, in how
    many of N pairs B read lower and higher, whether the claim rule holds
    and whether B's median is within the metric's bound. `spec` is A's
    `BENCHMARK.json`: its `better` gives each metric's direction."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"{'metric':<24} {'median A':>11} {'[q1, q3] A':>23} {'median B':>11} "
             f"{'[q1, q3] B':>23} {'B/A':>7}  B lower  B higher  claim    bound"]
    for name in runs_a[0]:
        a = [run[name] for run in runs_a]
        b = [run[name] for run in runs_b]
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        ratio = f"{bm / am:.4f}" if am else "-"
        lower = sum(y < x for x, y in zip(a, b))
        higher = sum(y > x for x, y in zip(a, b))
        metric = metrics[name]  # bench/selftest.py checks that run.py reports these
        wins, gain = (higher, bm - am) if metric["better"] == "higher" else (lower, am - bm)
        claim = "holds" if len(a) >= 10 and wins >= 0.9 * len(a) and gain > a3 - a1 else "no"
        bound = metric.get("bound")  # end-to-end metrics only
        within = "-" if bound is None else "within" if -gain <= bound * am else "OUTSIDE"
        lines.append(f"{name:<24} {am:>11.5g} {f'[{a1:.5g}, {a3:.5g}]':>23} {bm:>11.5g} "
                     f"{f'[{b1:.5g}, {b3:.5g}]':>23} {ratio:>7}  "
                     f"{f'{lower}/{len(a)}':>7}  {f'{higher}/{len(a)}':>8}  "
                     f"{claim:>5}  {within:>7}")
    return lines


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout A, usually the parent")
    parser.add_argument("b", type=Path, help="checkout B, usually the change")
    parser.add_argument("--workload", required=True, help="passed to bench/run.py")
    parser.add_argument("--pairs", type=int, required=True, help="number of A/B pairs")
    parser.add_argument("--seed", type=int, required=True, help="passed to bench/run.py")
    parser.add_argument("--seconds", type=float, required=True, help="passed to bench/run.py")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="passed to bench/run.py")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="passed to bench/run.py")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    runs = {"A": [], "B": []}
    for pair in range(1, args.pairs + 1):
        order = ("A", "B") if pair % 2 else ("B", "A")
        for side in order:
            runs[side].append(run_bench(args.a if side == "A" else args.b, args))
        cells = "  ".join(f"{name} {runs['A'][-1][name]:.6g} -> {runs['B'][-1][name]:.6g}"
                          for name in runs["A"][-1])
        print(f"pair {pair} ({''.join(order)}): {cells}", flush=True)
    spec = json.loads((args.a / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("\n".join(summary(runs["A"], runs["B"], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
