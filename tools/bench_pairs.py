"""Compare two checkouts on the benchmark in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload mesh_relax,dag_kick --pairs 10 \
        --seed 13 --seconds 8

`--workload` names one workload or a comma-separated list of them, which
run one after another, each under a `workload NAME` heading. Each pair
runs `bench/run.py` once in checkout A and once in checkout B, A first in
odd pairs and B first in even ones, so a drift in host speed does not
favour one side. A run that exits non-zero, reads `correct: false` or
counts a failed check stops the comparison (exit 1).

For each workload, the tool prints every pair's metrics and each side's
count of timed passes (every pass after the warm-up, read from the
`passes` list of the run's detail file in `bench/results/`) as they come,
then, for each metric, the median and quartiles of A and of B, the ratio
of the medians (B / A) and in how many pairs B read strictly lower and
strictly higher (ties count for neither), so "no metric worse" reads
from one line.
Two verdicts end each line, with each metric's direction (`better`) read
from A's `BENCHMARK.json`. "claim": whether the claim rule holds, that
of at least 10 pairs B is better in at least 9/10 and its median beats
A's by more than A's interquartile range. "bound": for an end-to-end
metric, whether B's median is worse than A's by at most the metric's
`bound`, a fraction of A's median; a per-layer metric has none ("-").
The workload's last line gives each side's median count of timed
passes: `peak_rss_mb` grows with the passes a run makes in its
`--seconds`, so a faster change can read a higher peak, and a shift in
it is best judged at equal counts.
A closing line names every end-to-end metric, on every workload, whose
median is outside its bound, or says `none`.
Stdlib only; each checkout's benchmark imports its own `src/`.

Results can depend on where a checkout lies: identical commits in
directories whose paths differ in length have read a few tenths of a MB
apart in `peak_rss_mb`. The tool warns on stderr when the two resolved
paths differ in length; give both checkouts names of one length.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, args: argparse.Namespace
              ) -> tuple[dict[str, float], int]:
    """One `bench/run.py` run of `workload` in `checkout`, checked for
    failures: its metrics and its count of timed passes."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    child = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    if child.returncode != 0:
        raise SystemExit(f"error: bench/run.py in {checkout} exited {child.returncode}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] > 0:
        raise SystemExit(f"error: bench/run.py in {checkout} failed {result['failed']} of "
                         f"{result['attempted']} checks")
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    # The name bench/run.py gives the detail file of a one-workload run.
    detail = (checkout / "bench" / "results"
              / f"{workload}-seed{args.seed}-trace{args.trace}-{args.size}.json")
    return metrics, timed_passes(detail)


def timed_passes(detail: Path) -> int:
    """The timed passes of a `bench/run.py` detail file: every entry of its
    `passes` list but the warm-up, pass 0."""
    passes = json.loads(detail.read_text(encoding="utf-8"))["passes"]
    return sum(entry["pass"] > 0 for entry in passes)


def path_length_warning(a: Path, b: Path) -> str | None:
    """A warning when the resolved paths of checkouts `a` and `b` differ in length."""
    a, b = a.resolve(), b.resolve()
    if len(str(a)) == len(str(b)):
        return None
    return (f"warning: checkout paths differ in length ({len(str(a))} and {len(str(b))} "
            f"characters: {a}, {b}); results can shift with a path's length")


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
    parser.add_argument("--workload", required=True,
                        help="passed to bench/run.py: one workload or a comma-separated "
                             "list, not all")
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
    args.workloads = args.workload.split(",")
    if "all" in args.workloads:  # its metrics are prefixed and it writes no detail file
        parser.error("--workload must name one workload or a list of them, not all")
    if "" in args.workloads:
        parser.error("--workload must not name an empty workload")
    return args


def compare(args: argparse.Namespace, workload: str, spec: dict) -> list[str]:
    """Run the pairs of one workload, printing each pair as it comes and
    then the summary; return the end-to-end metrics outside their bounds."""
    runs = {"A": [], "B": []}
    passes = {"A": [], "B": []}
    for pair in range(1, args.pairs + 1):
        order = ("A", "B") if pair % 2 else ("B", "A")
        for side in order:
            metrics, count = run_bench(args.a if side == "A" else args.b, workload, args)
            runs[side].append(metrics)
            passes[side].append(count)
        cells = "  ".join(f"{name} {runs['A'][-1][name]:.6g} -> {runs['B'][-1][name]:.6g}"
                          for name in runs["A"][-1])
        print(f"pair {pair} ({''.join(order)}): {cells}  "
              f"passes {passes['A'][-1]} -> {passes['B'][-1]}", flush=True)
    lines = summary(runs["A"], runs["B"], spec)
    print("\n".join(lines))
    print(f"timed passes: median A {statistics.median(passes['A']):g}, "
          f"median B {statistics.median(passes['B']):g}", flush=True)
    return [line.split()[0] for line in lines[1:] if line.split()[-1] == "OUTSIDE"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if warning := path_length_warning(args.a, args.b):
        print(warning, file=sys.stderr, flush=True)
    spec = json.loads((args.a / "BENCHMARK.json").read_text(encoding="utf-8"))
    outside = []
    for workload in args.workloads:
        print(f"workload {workload}", flush=True)
        outside += [f"{workload} {name}" for name in compare(args, workload, spec)]
    print(f"outside bounds: {', '.join(outside) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
