"""Command-line interface.

Subcommands:

* analyze   — graph metrics, schedule bounds, and an architecture
              comparison table for a graph file
* lower     — translate a graph to its spiking network and report
              resource counts
* simulate  — kick the inputs of a lowered graph, run the event-driven
              simulator and emit the per-step trace as CSV
* partition — isomorphic-fragment tiling and thread-efficiency report
* sweep     — run a workload across a swept parameter, emit per-point
              rows, and fit a log-log regression

Every subcommand but sweep takes the graph file as its positional GRAPH,
and each declares only the options it reads.

Exit codes: 0 success, 1 usage error, 2 input error, 3 reconciliation
failure. The environment variable NEUROCOST_PRESET_DIR adds a directory
of extra constants presets.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from dataclasses import astuple
from importlib import resources
from pathlib import Path
from typing import Sequence

from .costs import (
    ComparisonRow,
    ComparisonTable,
    conventional_energy,
    conventional_space,
    conventional_time,
    nmc_energy_per_step,
    nmc_space,
    nmc_time,
)
from .errors import MismatchDetected, NeurocostError
from .fileio import (
    emit_neural_json,
    emit_rows_csv,
    emit_table_csv,
    emit_trace_csv,
    load_constants,
    parse_graph_file,
)
from .graph import ValidatedGraph, compute_metrics, list_schedule, validate_graph
from .neural import count_resources, lower_graph
from .sim import DigitalEncoding, ZeroActivity, init_sim, reconcile_energy, run_sim
from .sweep import SWEEP_COLUMNS, SWEEP_TABLE, SWEEP_WORKLOADS, SweepSpec, run_sweep
from .threads import partition_isomorphic, thread_efficiency


def _load_graph(args: argparse.Namespace) -> ValidatedGraph:
    """Parse and validate the GRAPH file, falling back to the bundled data
    directory so the shipped examples work by bare name."""
    path = Path(args.graph)
    if not path.is_file():
        path = resources.files("neurocost").joinpath("data").joinpath(path.name)
        if not path.is_file():
            raise FileNotFoundError(f"graph file not found: {args.graph}")
    return validate_graph(parse_graph_file(path.read_text(encoding="utf-8")))


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_analyze(args: argparse.Namespace) -> int:
    constants = load_constants(args.preset, args.config)
    vg = _load_graph(args)
    m = compute_metrics(vg)
    p = 1 if args.p is None else args.p
    sched = list_schedule(vg, p)
    cpu = conventional_time(m, p)
    ng, _am = lower_graph(vg)
    r = count_resources(ng)

    # Worst case: every neuron fires on each of the t_inf steps.
    nmc_energy = nmc_energy_per_step(r, constants, f_t=1.0).times(m.t_inf)
    rows = [
        ComparisonRow(
            architecture="conventional",
            time=cpu,
            space=conventional_space(constants, p, program_size=m.t1, data_size=m.t1),
            energy=conventional_energy(m, constants),
        ),
        ComparisonRow(architecture="nmc_ideal", time=nmc_time(m),
                      space=nmc_space(r, m, constants), energy=nmc_energy),
    ]
    if args.ncore is not None:
        rows.append(ComparisonRow(
            architecture="nmc_realized",
            time=nmc_time(m, n_core=args.ncore),
            space=nmc_space(r, m, constants, n_core=args.ncore),
            energy=nmc_energy,
        ))
    table = ComparisonTable(workload="graph", rows=tuple(rows))

    print(f"nodes={m.t1}")
    print(f"t1={m.t1}")
    print(f"t_inf={m.t_inf}")
    print(f"t_p={sched.t_p} (list schedule, p={p})")
    print(f"cpu bounds [{cpu.lower},{cpu.upper}]")
    print(f"n_total={r.n_total} s_total={r.s_total}")
    print()
    print(f"{'architecture':<14}{'time':<18}{'space':<26}energy")
    for row in table.rows:
        time_s = f"[{row.time.lower},{row.time.upper}]"
        space_s = f"[{row.space.lower:g},{row.space.upper:g}]"
        print(f"{row.architecture:<14}{time_s:<18}{space_s:<26}{row.energy.total:g}")
    if args.out:
        Path(args.out).write_text(emit_table_csv(table), encoding="utf-8")
        print(f"\nwrote {args.out}")
    return 0


def _cmd_lower(args: argparse.Namespace) -> int:
    ng, am = lower_graph(_load_graph(args))
    r = count_resources(ng, am)
    print(f"n_total={r.n_total} s_total={r.s_total} "
          f"n_bar={r.n_bar!r} s_bar={r.s_bar!r}")
    _write_or_print(emit_neural_json(ng), args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    constants = load_constants(args.preset, args.config)
    ng, _am = lower_graph(_load_graph(args))
    state = init_sim(ng, DigitalEncoding(), seed=0, constants=constants)
    # Lowering starts every neuron at rest, so the run begins with one
    # suprathreshold pulse into every input neuron.
    kick = {0: tuple((nid, 1.5) for nid in ng.input_neurons)}
    trace = run_sim(state, max_steps=args.steps, stop=ZeroActivity(window=3), inputs=kick)
    report = reconcile_energy(trace, count_resources(ng), constants)
    _write_or_print(emit_trace_csv(trace, window=args.window), args.out)
    if args.out:
        print(f"steps={report.steps} e_n={trace.e_n!r} f_mean={report.f_mean!r}")
        print(f"wrote {args.out}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    pr = partition_isomorphic(_load_graph(args), args.granularity)
    p = pr.p_threads if args.p is None else args.p
    efficiency = thread_efficiency(pr, p)
    print(f"granularity={pr.granularity}")
    print(f"p_threads={pr.p_threads}")
    print(f"families={len(pr.families)}")
    for label, members in pr.families[:5]:
        print(f"  family {label[:16]} size={len(members)}")
    print(f"residual={len(pr.residual)}")
    print(f"p_efficiency={efficiency!r} (p={p})")
    return 0


def _parse_set(items: Sequence[str]) -> tuple[tuple[str, float], ...]:
    fixed = []
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {item!r}")
        fixed.append((key.strip(), float(value)))
    return tuple(fixed)


def _cmd_sweep(args: argparse.Namespace) -> int:
    constants = load_constants(args.preset, args.config)
    values = tuple(float(v) for v in args.values.split(","))
    spec = SweepSpec(
        workload=args.workload,
        param=args.param,
        values=values,
        fixed=_parse_set(args.set or []),
        repetitions=args.reps,
        constants=constants,
    )
    rows, reg = run_sweep(spec, seed=args.seed)
    _write_or_print(emit_rows_csv(SWEEP_COLUMNS, map(astuple, rows)), args.out)
    if reg is None:
        print("regression skipped (zero energy measured)")
    else:
        print(f"slope={reg.slope!r} intercept={reg.intercept!r} "
              f"r_squared={reg.r_squared!r}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurocost",
        description="Cost modeling and event-driven simulation for "
                    "neuromorphic versus conventional execution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str, graph: bool = True,
                constants: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if graph:
            p.add_argument("graph", metavar="GRAPH", help="graph file (JSON)")
        if constants:
            p.add_argument("--config", help="constants config file")
            p.add_argument("--preset", help="constants preset name")
        return p

    p_analyze = command("analyze", _cmd_analyze, "graph metrics and cost table",
                        constants=True)
    p_analyze.add_argument("--p", type=int, help="processor count (default 1)")
    p_analyze.add_argument("--ncore", type=int,
                           help="core count of a realized machine (adds an nmc_realized row)")
    p_analyze.add_argument("--out", help="write the cost table as CSV to this file")

    p_lower = command("lower", _cmd_lower, "translate a graph to a spiking network")
    p_lower.add_argument("--out", help="write the network JSON to this file")

    p_sim = command("simulate", _cmd_simulate, "simulate a lowered graph, emit trace CSV",
                    constants=True)
    p_sim.add_argument("--steps", type=int, default=50, help="step budget")
    p_sim.add_argument("--window", type=int, default=5,
                       help="trailing window for rate/energy summaries")
    p_sim.add_argument("--out", help="write the trace CSV to this file")

    p_part = command("partition", _cmd_partition, "isomorphic-fragment thread report")
    p_part.add_argument("--p", type=int,
                        help="processor count (default: the extracted thread count)")
    p_part.add_argument("--granularity", type=int, default=2,
                        help="fragment size for partitioning, 1 to 8 (exact labels stop at 8)")

    p_sweep = command("sweep", _cmd_sweep, "sweep a workload parameter, fit scaling",
                      graph=False, constants=True)
    p_sweep.formatter_class = argparse.RawDescriptionHelpFormatter
    p_sweep.epilog = "parameters and defaults (* a count, whole numbers only):\n" + "\n".join(
        textwrap.fill(" ".join(f"{key}={p.shown or p.default}{'*' * (p.minimum is not None)}"
                               for key, p in params.items()),
                      78, initial_indent=f"  {workload + ':':<8}", subsequent_indent=" " * 10)
        for workload, (_build, _run, params) in SWEEP_TABLE.items())
    p_sweep.add_argument("--workload", choices=SWEEP_WORKLOADS, required=True)
    p_sweep.add_argument("--param", required=True, help="swept parameter name")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated swept values")
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="fix a workload parameter")
    p_sweep.add_argument("--reps", type=int, default=1,
                         help="repetitions per value (averaged)")
    p_sweep.add_argument("--seed", type=int, default=0, help="workload seed")
    p_sweep.add_argument("--out", help="write the sweep CSV to this file")

    return parser


def run_command(argv: Sequence[str]) -> int:
    """Parse and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 1
    try:
        return args.func(args)
    except MismatchDetected as exc:
        print(f"error: reconciliation failed: {exc}", file=sys.stderr)
        return 3
    except (NeurocostError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
