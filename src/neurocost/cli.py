"""Command-line interface.

Subcommands:

* analyze   — graph metrics, schedule bounds, and an architecture
              comparison table for a graph file
* lower     — translate a graph to its spiking network and report
              resource counts
* simulate  — run the event-driven simulator on a lowered graph and
              emit the per-step trace as CSV
* partition — isomorphic-fragment tiling and thread-efficiency report
* sweep     — run a workload across a swept parameter, emit per-point
              rows, and fit a log-log regression

Exit codes: 0 success, 1 usage error, 2 input error, 3 reconciliation
failure. The environment variable NEUROCOST_PRESET_DIR adds a directory
of extra constants presets.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path
from typing import Sequence

from .costs import (
    ComparisonRow,
    ComparisonTable,
    EnergyEstimate,
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
from .graph import compute_metrics, list_schedule, validate_graph
from .neural import count_resources, lower_graph, relay_rules
from .sim import DigitalEncoding, ZeroActivity, init_sim, reconcile_energy, run_sim
from .sweep import SWEEP_COLUMNS, SWEEP_WORKLOADS, SweepSpec, run_sweep
from .threads import partition_isomorphic, thread_efficiency


def _load_graph_text(name: str) -> str:
    """Read a graph file from disk, falling back to the bundled data
    directory so the shipped examples work by bare name."""
    path = Path(name)
    if path.is_file():
        return path.read_text(encoding="utf-8")
    bundled = resources.files("neurocost").joinpath("data").joinpath(Path(name).name)
    if bundled.is_file():
        return bundled.read_text(encoding="utf-8")
    raise FileNotFoundError(f"graph file not found: {name}")


def _graph_arg(args: argparse.Namespace) -> str:
    name = args.graph_pos or args.graph
    if not name:
        raise FileNotFoundError("no graph file given (positional or --graph)")
    return name


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_analyze(args: argparse.Namespace) -> int:
    constants = load_constants(args.preset, args.config)
    vg = validate_graph(parse_graph_file(_load_graph_text(_graph_arg(args))))
    m = compute_metrics(vg)
    p = args.p if args.p else 1
    sched = list_schedule(vg, p)
    cpu = conventional_time(m, p)

    print(f"nodes={m.t1}")
    print(f"t1={m.t1}")
    print(f"t_inf={m.t_inf}")
    print(f"t_p={sched.t_p} (list schedule, p={p})")
    print(f"cpu bounds [{cpu.lower},{cpu.upper}]")

    kinds = {node.op_kind for node in vg.nodes}
    ng, _am = lower_graph(vg, relay_rules(kinds))
    r = count_resources(ng)
    print(f"n_total={r.n_total} s_total={r.s_total}")

    worst_step = nmc_energy_per_step(r, constants, f_t=1.0)
    rows = [
        ComparisonRow(
            architecture="conventional",
            time=cpu,
            space=conventional_space(constants, p, program_size=m.t1, data_size=m.t1),
            energy=conventional_energy(m, constants),
        ),
        ComparisonRow(
            architecture="nmc_ideal",
            time=nmc_time(m),
            space=nmc_space(r, m, constants),
            energy=EnergyEstimate(total=worst_step.total * m.t_inf,
                                  breakdown={"per_step_worst_case": worst_step.total,
                                             "steps": float(m.t_inf)}),
        ),
    ]
    if args.ncore:
        rows.append(ComparisonRow(
            architecture="nmc_realized",
            time=nmc_time(m, n_core=args.ncore),
            space=nmc_space(r, m, constants, n_core=args.ncore),
            energy=rows[-1].energy,
        ))
    table = ComparisonTable(workload="graph", rows=tuple(rows),
                            params={"p": p, "n_core": args.ncore or 0})
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
    vg = validate_graph(parse_graph_file(_load_graph_text(_graph_arg(args))))
    kinds = {node.op_kind for node in vg.nodes}
    ng, am = lower_graph(vg, relay_rules(kinds))
    r = count_resources(ng, am)
    print(f"n_total={r.n_total} s_total={r.s_total} "
          f"n_bar={r.n_bar!r} s_bar={r.s_bar!r}")
    _write_or_print(emit_neural_json(ng), args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    constants = load_constants(args.preset, args.config)
    vg = validate_graph(parse_graph_file(_load_graph_text(_graph_arg(args))))
    kinds = {node.op_kind for node in vg.nodes}
    ng, _am = lower_graph(vg, relay_rules(kinds))
    state = init_sim(ng, DigitalEncoding(), args.seed, constants)
    schedule = None
    if args.kick:
        schedule = {0: tuple((nid, 1.5) for nid in ng.input_neurons)}
    trace = run_sim(state, max_steps=args.steps, stop=ZeroActivity(window=3),
                    inputs=schedule)
    report = reconcile_energy(trace, count_resources(ng), constants)
    csv_text = emit_trace_csv(trace, window=args.window)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(f"steps={report.steps} e_n={trace.e_n!r} f_mean={report.f_mean!r}")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    vg = validate_graph(parse_graph_file(_load_graph_text(_graph_arg(args))))
    pr = partition_isomorphic(vg, args.granularity)
    p = args.p if args.p else pr.p_threads
    print(f"granularity={pr.granularity}")
    print(f"p_threads={pr.p_threads}")
    print(f"families={len(pr.families)}")
    for label, members in pr.families[:5]:
        print(f"  family {label[:16]} size={len(members)}")
    print(f"residual={len(pr.residual)}")
    print(f"p_efficiency={thread_efficiency(pr, p)!r} (p={p})")
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
        output_path=args.out,
    )
    rows, reg = run_sweep(spec, seed=args.seed, window=args.window)
    csv_text = emit_rows_csv(
        SWEEP_COLUMNS,
        [(row.value, row.mean_e_t, row.total_e_n, row.steps) for row in rows],
    )
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
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

    def common(p: argparse.ArgumentParser, graph: bool = True) -> None:
        if graph:
            p.add_argument("graph_pos", nargs="?", metavar="GRAPH",
                           help="graph file (JSON)")
            p.add_argument("--graph", help="graph file (JSON)")
        p.add_argument("--config", help="constants config file")
        p.add_argument("--preset", help="constants preset name")
        p.add_argument("--p", type=int, help="processor count")
        p.add_argument("--ncore", type=int, help="neurons per realized core")
        p.add_argument("--seed", type=int, default=0, help="simulation seed")
        p.add_argument("--out", help="output file path")
        p.add_argument("--steps", type=int, default=50, help="step budget")
        p.add_argument("--window", type=int, default=5,
                       help="trailing window for rate/energy summaries")
        p.add_argument("--granularity", type=int, default=2,
                       help="fragment size for partitioning")

    p_analyze = sub.add_parser("analyze", help="graph metrics and cost table")
    common(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_lower = sub.add_parser("lower", help="translate a graph to a spiking network")
    common(p_lower)
    p_lower.set_defaults(func=_cmd_lower)

    p_sim = sub.add_parser("simulate", help="simulate a lowered graph, emit trace CSV")
    common(p_sim)
    p_sim.add_argument("--kick", action="store_true",
                       help="inject one suprathreshold pulse into every "
                            "input neuron at step 0")
    p_sim.set_defaults(func=_cmd_simulate)

    p_part = sub.add_parser("partition", help="isomorphic-fragment thread report")
    common(p_part)
    p_part.set_defaults(func=_cmd_partition)

    p_sweep = sub.add_parser("sweep", help="sweep a workload parameter, fit scaling")
    common(p_sweep, graph=False)
    p_sweep.add_argument("--workload", choices=SWEEP_WORKLOADS, required=True)
    p_sweep.add_argument("--param", required=True, help="swept parameter name")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated swept values")
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="fix a workload parameter")
    p_sweep.add_argument("--reps", type=int, default=1,
                         help="repetitions per value (averaged)")
    p_sweep.set_defaults(func=_cmd_sweep)

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
