"""Self-test of the benchmark: a smoke run at tiny sizes, and proof that
every correctness check fails when it is given a wrong answer.

    python3 bench/selftest.py

1. Runs `bench/run.py` on every workload at tiny sizes, untraced and
   traced, and checks the result line: its keys, a clean tally, and
   exactly the metrics and units that BENCHMARK.json declares.
2. Runs one tiny pass per workload in this process, requires every check
   to pass, then corrupts one output at a time and requires the check
   that guards it to fail.
3. Requires the runner to count a pass that raises, and a pass whose
   counts differ from the first, as failures.

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import env

env.import_neurocost()

import numpy as np  # noqa: E402

import cases  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def smoke() -> None:
    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, table, key in ((0, run.END_TO_END, "end_to_end"),
                              (1, run.per_layer_units(cases), "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[key]}
        expect(units == table, f"BENCHMARK.json {key} matches run.py")
        for name in cases.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            if child.returncode != 0:
                expect(False, f"{name} trace={trace} exits 0")
                continue
            result = json.loads(child.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
                   and {k: v["unit"] for k, v in result["metrics"].items()} == units,
                   f"{name} trace={trace}: clean result with every metric")


# Corruptions of one pass's outputs, keyed by the check that must catch them.

def _record(trace, i, **changes):
    records = list(trace.records)
    records[i] = dataclasses.replace(records[i], **changes)
    return dataclasses.replace(trace, records=tuple(records))


def _energy(trace):
    return _record(trace, 1, e_t=trace.records[1].e_t + 1.0)


def _with(out, **changes):
    return dict(out, **changes)


def _first_trace(fn):
    return lambda out: _with(out, traces=[fn(out["traces"][0])] + out["traces"][1:])


def _size(i, **changes):
    def corrupt(out):
        sizes = list(out["sizes"])
        sizes[i] = dict(sizes[i], **{k: fn(sizes[i][k]) for k, fn in changes.items()})
        return _with(out, sizes=sizes)
    return corrupt


def _bumped(values, by):
    values = np.array(values, dtype=float)
    values[0] += by
    return values


def _partition(g, fn):
    def corrupt(out):
        pr = out["partitions"][g]
        label, members = pr.families[0]
        families = ((label, fn(members)),) + pr.families[1:]
        partitions = dict(out["partitions"])
        partitions[g] = dataclasses.replace(pr, families=families)
        return _with(out, partitions=partitions)
    return corrupt


def _drop_edge(members):
    frag = members[-1]
    return members[:-1] + (dataclasses.replace(frag, edges=frozenset(sorted(frag.edges)[1:])),)


ANALYZE_MUTATIONS = [
    lambda out: _with(out, metrics=dataclasses.replace(out["metrics"],
                                                       t_inf=out["metrics"].t_inf + 1)),
    lambda out: _with(out, schedule=dataclasses.replace(out["schedule"], t_p=1)),
    lambda out: _with(out, resources=[dataclasses.replace(
        out["resources"][0], s_total=out["resources"][0].s_total - 1)]),
]

MUTATIONS = {
    "dag_kick": {
        "reconcile": [_first_trace(_energy)],
        "propagation": [
            _first_trace(lambda t: _record(t, 2, spikes=t.records[2].spikes + 1)),
            _first_trace(lambda t: _record(t, 2, synaptic_events=t.records[2].synaptic_events - 1)),
            _first_trace(lambda t: dataclasses.replace(t, records=t.records[:-1])),
        ],
        "analyze": ANALYZE_MUTATIONS,
        "trace_csv": [lambda out: _with(out, csv=out["csv"].rsplit("\n", 2)[0] + "\n")],
    },
    "ff_dense": {
        "reconcile": [_first_trace(_energy)],
        "outputs": [_first_trace(lambda t: dataclasses.replace(
            t, outputs=t.outputs + np.eye(*t.outputs.shape, k=1) * 1e-6))],
        "counts": [
            _first_trace(lambda t: _record(t, 5, synaptic_events=t.records[5].synaptic_events - 1)),
            _first_trace(lambda t: _record(t, 5, spikes=t.records[5].spikes + 1)),
        ],
    },
    "mesh_relax": {
        "m64.reconcile": [_size(0, trace=_energy)],
        "m64.equilibrium": [_size(0, equilibrium=lambda v: _bumped(v, 1e-9))],
        "m64.decoded": [_size(0, decoded=lambda v: _bumped(v, 0.06))],
        "m64.reference": [_size(0, reference=lambda v: _bumped(v, 0.06))],
        "m64.crossover": [_size(0, table=lambda t: dataclasses.replace(t, crossover_step=None))],
        "slope": [lambda out: _with(out, fit=dataclasses.replace(out["fit"], slope=1.2)),
                  lambda out: _with(out, fit=dataclasses.replace(
                      out["fit"], slope=out["fit"].slope + 1e-6))],
        "control.reconcile": [lambda out: _with(out, control=(_energy(out["control"][0]),
                                                              out["control"][1]))],
        "control.constant": [lambda out: _with(out, control=(
            _record(out["control"][0], 7, e_t=0.0), out["control"][1]))],
    },
    "stencil_threads": dict(analyze=ANALYZE_MUTATIONS, **{
        f"g{g}.{check}": [_partition(g, fn)]
        for g in cases.GRANULARITIES
        for check, fn in (("isomorphic", _drop_edge),
                          ("sound", lambda members: members + members[:1]))
    }),
}


def mutations() -> None:
    for name, workload in cases.WORKLOADS.items():
        inputs = workload.generate(7, True)
        out = workload.run_pass(inputs, tracing.Timer())

        def verdicts(candidate):
            result = {}
            for check_name, check in workload.checks(inputs, candidate):
                try:
                    result[check_name] = bool(check())
                except Exception:
                    result[check_name] = False
            return result

        clean = verdicts(out)
        expect(all(clean.values()), f"{name}: all {len(clean)} checks pass on a tiny pass")
        covered = set()
        for check_name, corruptions in MUTATIONS[name].items():
            for i, corrupt in enumerate(corruptions):
                verdict = verdicts(corrupt(out)).get(check_name)
                expect(verdict is False, f"{name}: {check_name} catches wrong answer {i + 1}")
            covered.add(check_name)
        missing = {c for c in clean if not c.startswith(("m128.", "m256."))} - covered
        expect(not missing, f"{name}: every check has a wrong answer to catch {sorted(missing)}")


def runner_tallies() -> None:
    workload = cases.WORKLOADS["dag_kick"]
    inputs = workload.generate(7, True)
    good = workload.run_pass(inputs, tracing.Timer())
    changed = _first_trace(lambda t: _record(t, 2, spikes=t.records[2].spikes + 1))(good)
    results = [good, changed]

    def replay(_inputs, _rec):
        result = results.pop(0) if results else None
        if result is None:
            raise RuntimeError("pass failed")
        return result

    fake = cases.Workload("replay", workload.generate, replay, lambda i, o: [], workload.setup)
    print("(the runner reports the two failures below on purpose)", flush=True)
    tally = run.Run(fake, inputs, cases)
    for pass_no in range(3):
        tally.one_pass(pass_no, traced=False)
    expect(tally.attempted == 3 and tally.failed == 2,
           "runner counts changed counts and a raising pass as failures")


def main() -> int:
    smoke()
    mutations()
    runner_tallies()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
