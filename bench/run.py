"""Benchmark of the neurocost pipeline, one workload per process.

    python3 bench/run.py --workload dag_kick --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run generates the workload's inputs from the seed, runs one warm-up
pass, then runs timed passes until --seconds have gone by, calling
gc.collect() before each. Every pass's outputs are checked, and every
pass must give the same simulated and structural counts. Times are host
time; simulated time is never used as a speed.

--trace 0 runs untraced passes and reports the end-to-end metrics, each
the median over the timed passes of times scaled by SpeedProbe (peak RSS
is the process's peak).
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics from the traced ones: self time per span, counts, and
trace.overhead_s, the median traced pass minus the median untraced one.

Standard output lists each metric with its unit; its last line is one
JSON object with the keys correct, attempted, failed and metrics. The
same, with the host description and per-pass figures (and the spans of
a traced run), is written to bench/results/. `--workload all` runs every
workload in a child process of its own, one after the other.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import env
import tracing

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Calls reported by self time; partition spans are named per granularity.
SELF_TIMED = (
    "sim.run_sim", "sim.init_sim", "sim.reconcile_energy",
    "workloads.gen_mesh", "workloads.reference_mesh_solve", "workloads.decode_mesh_state",
    "workloads.gen_ff_layer", "workloads.ff_input_schedule",
    "fileio.parse_graph_file", "fileio.emit_trace_csv",
    "graph.validate_graph", "graph.compute_metrics", "graph.list_schedule",
    "neural.lower_graph", "neural.count_resources",
    "cli.fit_loglog",
)
RSS_TRACKED = ("workloads.gen_mesh", "workloads.reference_mesh_solve")


def self_timed(cases) -> tuple[str, ...]:
    return SELF_TIMED + tuple(f"threads.partition_isomorphic.g{g}" for g in cases.GRANULARITIES)


def per_layer_units(cases) -> dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units = {f"{name}.self_s": "s" for name in self_timed(cases)}
    units["costs.self_s"] = "s"
    units.update({f"{name}.rss_growth_mb": "MB" for name in RSS_TRACKED})
    units.update({"sim.ns_per_event": "ns", "sim.us_per_step": "us"})
    units.update(cases.COUNT_UNITS)
    units["trace.overhead_s"] = "s"
    return units


RESULTS = Path(__file__).resolve().parent / "results"


class SpeedProbe:
    """Samples the host's speed before, during and after a pass.

    Host speed in a shared sandbox drifts by up to 2x over seconds to
    minutes as other tenants load the machine, which moves a median of
    raw pass times by 10-25% from run to run. The probe times a fixed
    piece of work that runs no package code: before a pass, between the
    pass's calls at most every SAMPLE_EVERY_S, and after it. A pass's
    times are multiplied by `scale()`, the mean of REFERENCE_S over each
    sample's time, so they read as host seconds at the speed where the
    work takes REFERENCE_S (an idle 2-core x86-64 sandbox, Python 3.11,
    numpy 2.4). A change to the program moves scaled times as much as
    raw ones. Raw times are kept in the results file.
    """

    REFERENCE_S = 0.008
    SAMPLE_EVERY_S = 0.25

    def __init__(self) -> None:
        self._block = np.ones(262_144)  # 2 MiB: stays in cache, adds little to peak RSS
        self.speeds: list[float] = []
        self.spent = 0.0
        self._last = 0.0

    def start(self) -> None:
        self.speeds.clear()
        self.sample()
        self.spent = 0.0

    def __call__(self) -> None:
        if time.perf_counter() - self._last >= self.SAMPLE_EVERY_S:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        table = {}
        acc = 0
        for i in range(30000):
            table[i & 1023] = acc
            acc += i % 7
        small = np.arange(64.0)
        for _ in range(800):
            small = np.where(small > 3.0, small * 0.5, small + 1.0)
        for _ in range(16):
            acc += float(self._block.sum())
        self._last = time.perf_counter()
        self.speeds.append(self.REFERENCE_S / (self._last - start))
        self.spent += self._last - start

    def scale(self) -> float:
        return statistics.fmean(self.speeds)


class Run:
    """Passes of one workload in this process, with their check tallies."""

    def __init__(self, workload, inputs, cases) -> None:
        self.workload = workload
        self.inputs = inputs
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_counts: dict | None = None
        self.spans: list = []
        self.passes: list[dict] = []
        self.probe = SpeedProbe()

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def one_pass(self, pass_no: int, traced: bool) -> None:
        gc.collect()
        probe = self.probe
        if traced:
            rec = tracing.Tracer(self.spans, self.workload.name, pass_no, probe)
            run_pass = lambda: rec.call("bench.pass", self.workload.run_pass, self.inputs, rec)
        else:
            rec = tracing.Timer(probe)
            run_pass = lambda: self.workload.run_pass(self.inputs, rec)
        probe.start()
        start = time.perf_counter()
        try:
            out = run_pass()
        except Exception:
            self.attempted += 1
            self._fail(f"pass {pass_no} raised:\n{traceback.format_exc()}")
            return
        wall = time.perf_counter() - start - probe.spent
        probe.sample()
        scale = probe.scale()

        for name, check in self.workload.checks(self.inputs, out):
            self.attempted += 1
            try:
                ok = check()
            except Exception:
                ok = False
                name += f" raised {traceback.format_exc(limit=-1).strip()}"
            if not ok:
                self._fail(f"pass {pass_no}: {name}")

        counts = self.cases.counts(out)
        self.attempted += 1
        if self.first_counts is None:
            self.first_counts = counts
        elif counts != self.first_counts:
            self._fail(f"pass {pass_no}: counts differ from the first pass")

        self.passes.append({
            "pass": pass_no, "traced": traced, "scale": scale, "wall_s": wall,
            "setup_s": sum(rec.totals[name] for name in self.workload.setup),
            "counts": counts,
            "self_s": tracing.self_times(self.spans, pass_no) if traced else None,
        })

    def timed(self, traced: bool) -> list[dict]:
        return [p for p in self.passes if p["pass"] > 0 and p["traced"] == traced]


def end_to_end(run: Run, scaled: bool = True) -> dict[str, float]:
    passes = run.timed(False)

    def median_of(key: str) -> float:
        return statistics.median(p[key] * (p["scale"] if scaled else 1.0) for p in passes)

    return {
        "wall_s": median_of("wall_s"),
        "setup_s": median_of("setup_s"),
        "peak_rss_mb": tracing.maxrss_mb(),
    }


def per_layer(run: Run) -> dict[str, float]:
    traced = run.timed(True)

    def median_of(fn) -> float:
        return statistics.median(fn(p) * p["scale"] for p in traced)

    metrics = {f"{name}.self_s": median_of(lambda p, n=name: p["self_s"].get(n, 0.0))
               for name in self_timed(run.cases)}
    metrics["costs.self_s"] = median_of(
        lambda p: sum(v for k, v in p["self_s"].items() if k.startswith("costs.")))
    for name in RSS_TRACKED:
        # Peak memory only rises, so this is non-zero in the first
        # (warm-up) pass that reaches a new peak; summed over the run.
        metrics[f"{name}.rss_growth_mb"] = sum((s.rss_growth_mb for s in run.spans
                                                if s.name == name), 0.0)

    def sim_self(p) -> float:
        return p["self_s"].get("sim.run_sim", 0.0)

    def per(p, count: str, unit: float) -> float:
        return unit * sim_self(p) / p["counts"][count] if p["counts"][count] else 0.0

    metrics["sim.ns_per_event"] = median_of(lambda p: per(p, "sim.events", 1e9))
    metrics["sim.us_per_step"] = median_of(lambda p: per(p, "sim.steps", 1e6))
    metrics.update(traced[-1]["counts"])
    metrics["trace.overhead_s"] = median_of(lambda p: p["wall_s"]) - end_to_end(run)["wall_s"]
    return metrics


def measure(args, workload, cases) -> Run:
    inputs = workload.generate(args.seed, args.size == "tiny")
    run = Run(workload, inputs, cases)
    traced = bool(args.trace)
    run.one_pass(0, traced)  # warm-up; traced so the first memory peaks are seen
    pass_no = 0
    start = time.perf_counter()
    while True:
        # A traced run alternates which kind of pass goes first.
        order = (False,) if not traced else ((False, True) if pass_no % 4 == 0 else (True, False))
        for kind in order:
            pass_no += 1
            run.one_pass(pass_no, kind)
        if time.perf_counter() - start >= args.seconds:
            return run


def emit(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{name:<44} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))


def run_one(args, cases) -> int:
    workload = cases.WORKLOADS[args.workload]
    host = env.environment()
    print("# host " + json.dumps(host))
    run = measure(args, workload, cases)
    if not run.timed(False) or (args.trace and not run.timed(True)):
        print(f"error: no pass of {args.workload} completed", file=sys.stderr)
        return 1
    if args.trace:
        values, units = per_layer(run), per_layer_units(cases)
    else:
        values, units = end_to_end(run), END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, host=host, failures=run.failures,
                  raw_end_to_end=end_to_end(run, scaled=False),
                  passes=[{k: v for k, v in p.items() if k != "self_s"} for p in run.passes])
    if args.trace:
        detail["spans"] = tracing.span_records(run.spans)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    emit(result)
    return 0


def run_all(args, cases) -> int:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in cases.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if child.returncode != 0:
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    emit(total)
    return 0


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="dag_kick, ff_dense, mesh_relax, stencil_threads or all")
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure timed passes until this many seconds have gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the traced run that gives the per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    env.import_neurocost()
    import cases

    if args.workload == "all":
        return run_all(args, cases)
    if args.workload not in cases.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args, cases)


if __name__ == "__main__":
    sys.exit(main())
