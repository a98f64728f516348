"""The benchmark's four workloads.

A workload has three parts:

* `generate(seed, tiny)` builds the inputs from the seed, outside every
  timed region: graph-file text, a layer spec, mesh specs. The program
  sees only these; the checks may also read the generated objects.
* `run_pass(inputs, rec)` is one complete pass. Every call into the
  package goes through the recorder `rec` under the name
  `<module>.<function>`, so the pass can be timed or traced.
* `checks(inputs, out)` lists the correctness checks on one pass's
  outputs as (name, zero-argument callable) pairs.

`setup` names the calls that take the generated inputs to a ready state;
their summed time in a pass is `setup_s`.

`tiny` selects sizes small enough for a smoke run of a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import neurocost as nc

import checks as ck

P = 4  # processors for list_schedule and the cost rows
KICK = 1.5  # one suprathreshold pulse per input neuron at t = 0
MAX_STEPS = 1000  # step budget of kicked runs; ZeroActivity(3) ends them first
UNIT = nc.preset("unit")

#: Partition granularities of stencil_threads: 3 and 4 on the stencil, 7
#: on the dense layer.
GRANULARITIES = (3, 4, 7)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, bool], Any]
    run_pass: Callable[[Any, Any], dict]
    checks: Callable[[Any, dict], list[tuple[str, Callable[[], bool]]]]
    setup: frozenset[str]


def _cost_rows(rec, metrics, resources) -> tuple:
    """The analytic rows `neurocost analyze` prints for a graph."""
    return (
        rec.call("costs.conventional_time", nc.conventional_time, metrics, P),
        rec.call("costs.conventional_space", nc.conventional_space, UNIT, P,
                 metrics.t1, metrics.t1),
        rec.call("costs.conventional_energy", nc.conventional_energy, metrics, UNIT),
        rec.call("costs.nmc_time", nc.nmc_time, metrics),
        rec.call("costs.nmc_space", nc.nmc_space, resources, metrics, UNIT),
        rec.call("costs.nmc_energy_per_step", nc.nmc_energy_per_step, resources, UNIT, 1.0),
    )


def _analyze(rec, text: str, kinds: tuple[str, ...]):
    """parse -> validate -> metrics -> schedule -> lower -> resources ->
    cost rows, as `neurocost analyze` does."""
    cg = rec.call("fileio.parse_graph_file", nc.parse_graph_file, text)
    vg = rec.call("graph.validate_graph", nc.validate_graph, cg)
    metrics = rec.call("graph.compute_metrics", nc.compute_metrics, vg)
    schedule = rec.call("graph.list_schedule", nc.list_schedule, vg, P)
    rules = rec.call("neural.relay_rules", nc.relay_rules, kinds)
    ng, am = rec.call("neural.lower_graph", nc.lower_graph, vg, rules)
    resources = rec.call("neural.count_resources", nc.count_resources, ng, am)
    _cost_rows(rec, metrics, resources)
    out = {"graphs": [cg], "metrics": metrics, "schedule": schedule,
           "resources": [resources], "traces": []}
    return vg, ng, out


def _analyze_check(graph: nc.ComputeGraph, out: dict) -> tuple:
    return ("analyze", lambda: ck.analyze_consistent(graph, P, out["metrics"], out["schedule"],
                                                     out["resources"][0]))


# dag_kick: the analyze + simulate path on a random DAG. About 38k spikes
# over about 47 steps with fan-out about 10, so the engine's per-source
# emit loop dominates; graph, neural and fileio take a measurable rest.

@dataclass(frozen=True)
class GraphInput:
    seed: int
    graph: nc.ComputeGraph
    text: str


DAG_KINDS = ("add", "mul", "relay")


def dag_generate(seed: int, tiny: bool) -> GraphInput:
    n, density = (60, 0.08) if tiny else (2000, 0.01)
    graph = nc.gen_random_dag(n, density, DAG_KINDS, seed)
    return GraphInput(seed, graph, nc.emit_graph(graph))


def dag_pass(inp: GraphInput, rec) -> dict:
    _vg, ng, out = _analyze(rec, inp.text, DAG_KINDS)
    state = rec.call("sim.init_sim", nc.init_sim, ng, nc.DigitalEncoding(), inp.seed)
    kick = {0: tuple((nid, KICK) for nid in ng.input_neurons)}
    trace = rec.call("sim.run_sim", nc.run_sim, state, MAX_STEPS,
                     stop=nc.ZeroActivity(3), inputs=kick)
    rec.call("sim.reconcile_energy", nc.reconcile_energy, trace, out["resources"][0], UNIT)
    out["traces"].append(trace)
    out["csv"] = rec.call("fileio.emit_trace_csv", nc.emit_trace_csv, trace)
    return out


def dag_checks(inp: GraphInput, out: dict) -> list:
    trace, resources = out["traces"][0], out["resources"][0]
    return [
        ("reconcile", lambda: ck.reconciles(trace, resources, UNIT)),
        ("propagation", lambda: ck.matches_propagation(inp.graph, trace)),
        _analyze_check(inp.graph, out),
        ("trace_csv", lambda: ck.csv_matches(out["csv"], trace)),
    ]


# ff_dense: a 256x256 layer. Few sources fire per step but each fans out
# to every unit, so synaptic delivery and the zero-weight filter dominate
# (about 3.4M events); set-up materialises 65k synapses.

@dataclass(frozen=True)
class LayerInput:
    seed: int
    weights: np.ndarray
    rates: np.ndarray
    spec: nc.FFLayerSpec
    steps: int


FF_STEPS_PER = 20


def ff_generate(seed: int, tiny: bool) -> LayerInput:
    n, presentations = (16, 2) if tiny else (256, 10)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-0.5, 1.0, size=(n, n))
    weights.flat[rng.choice(weights.size, weights.size // 10, replace=False)] = 0.0
    rates = rng.uniform(0.05, 0.6, size=n)
    spec = nc.FFLayerSpec.from_arrays(weights, rates, FF_STEPS_PER)
    return LayerInput(seed, weights, rates, spec, presentations * FF_STEPS_PER)


def ff_pass(inp: LayerInput, rec) -> dict:
    n_i, n_j = inp.weights.shape
    ng = rec.call("workloads.gen_ff_layer", nc.gen_ff_layer, inp.spec)
    state = rec.call("sim.init_sim", nc.init_sim, ng, nc.DigitalEncoding(), inp.seed)
    schedule = rec.call("workloads.ff_input_schedule", nc.ff_input_schedule, inp.spec)
    trace = rec.call("sim.run_sim", nc.run_sim, state, inp.steps,
                     inputs=rec.wrap("workloads.ff_input_schedule", schedule))
    resources = rec.call("neural.count_resources", nc.count_resources, ng)
    report = rec.call("sim.reconcile_energy", nc.reconcile_energy, trace, resources, UNIT)
    rec.call("costs.ff_cost_report", nc.ff_cost_report, n_i, n_j, UNIT, report.f_mean)
    return {"graphs": [], "resources": [resources], "traces": [trace]}


def ff_checks(inp: LayerInput, out: dict) -> list:
    trace, resources = out["traces"][0], out["resources"][0]

    def sums():
        return ck.ff_expected_sums(inp.weights, inp.rates, FF_STEPS_PER, inp.steps)

    return [
        ("reconcile", lambda: ck.reconciles(trace, resources, UNIT)),
        ("outputs", lambda: ck.ff_outputs_match(trace, sums())),
        ("counts", lambda: ck.ff_counts_match(trace, inp.weights, inp.rates,
                                              FF_STEPS_PER, sums())),
    ]


# mesh_relax: diffusion rings of three sizes run to a quiet tail, the
# dense mesh oracle, the scaling fit, and the paper's non-converging
# control. The dense O(m_s^2) coupling matrix in gen_mesh and the dense
# oracle dominate time and memory; the control loop is pure per-step
# overhead of the engine.

@dataclass(frozen=True)
class MeshInput:
    seed: int
    specs: tuple[nc.MeshSpec, ...]
    control_steps: int


MESH_STEPS = 100
MESH_V_THRESH = 0.05


def mesh_generate(seed: int, tiny: bool) -> MeshInput:
    sizes, control_steps = ((64, 128, 256), 200) if tiny else ((1024, 2048, 4096), 20000)
    rng = np.random.default_rng(seed)
    specs = []
    for m_s in sizes:
        # The seed picks where on the ring the sinusoid starts.
        init = np.roll(nc.sinusoid_init(m_s, cycles=m_s // 16), int(rng.integers(m_s)))
        specs.append(nc.MeshSpec(m_s=m_s, k=4, m_t=MESH_STEPS, dynamics=nc.Diffusion(0.5),
                                 init=tuple(init), v_thresh=MESH_V_THRESH))
    return MeshInput(seed, tuple(specs), control_steps)


def mesh_pass(inp: MeshInput, rec) -> dict:
    out: dict = {"graphs": [], "resources": [], "traces": [], "sizes": []}
    for spec in inp.specs:
        template, ng = rec.call("workloads.gen_mesh", nc.gen_mesh, spec)
        state = rec.call("sim.init_sim", nc.init_sim, ng, nc.AnalogEncoding(), inp.seed)
        trace = rec.call("sim.run_sim", nc.run_sim, state, spec.m_t)
        resources = rec.call("neural.count_resources", nc.count_resources, ng)
        rec.call("sim.reconcile_energy", nc.reconcile_energy, trace, resources, UNIT)
        reference = rec.call("workloads.reference_mesh_solve", nc.reference_mesh_solve, spec)
        equilibrium = rec.call("workloads.mesh_equilibrium", nc.mesh_equilibrium, spec)
        decoded = rec.call("workloads.decode_mesh_state", nc.decode_mesh_state, spec, state)
        vt = rec.call("graph.validate_graph", nc.validate_graph, template)
        tm = rec.call("graph.compute_metrics", nc.compute_metrics, vt)
        table = rec.call("costs.mesh_cost_report", nc.mesh_cost_report, spec.m_s, spec.m_t,
                         spec.k, tm.t1, tm.t_inf, spec.n_mesh, UNIT, trace.f_series)
        out["graphs"].append(template)
        out["resources"].append(resources)
        out["traces"].append(trace)
        out["sizes"].append({"spec": spec, "trace": trace, "resources": resources,
                             "reference": reference[-1], "equilibrium": equilibrium,
                             "decoded": decoded, "table": table})
        del ng, state, reference  # free this size before the next, larger one
    xs = [spec.m_s for spec in inp.specs]
    ys = [size["trace"].e_n for size in out["sizes"]]
    out["fit"] = rec.call("cli.fit_loglog", nc.fit_loglog, xs, ys)

    loop = rec.call("workloads.gen_self_exciting_loop", nc.gen_self_exciting_loop)
    state = rec.call("sim.init_sim", nc.init_sim, loop, nc.AnalogEncoding(), inp.seed)
    control = rec.call("sim.run_sim", nc.run_sim, state, inp.control_steps)
    resources = rec.call("neural.count_resources", nc.count_resources, loop)
    rec.call("sim.reconcile_energy", nc.reconcile_energy, control, resources, UNIT)
    out["control"] = (control, resources)
    out["resources"].append(resources)
    out["traces"].append(control)
    return out


def mesh_checks(inp: MeshInput, out: dict) -> list:
    tol = MESH_V_THRESH + 1e-12
    result = []
    for size in out["sizes"]:
        m_s = size["spec"].m_s
        mean = float(np.mean(size["spec"].init))
        result += [
            (f"m{m_s}.reconcile", lambda s=size: ck.reconciles(s["trace"], s["resources"], UNIT)),
            (f"m{m_s}.equilibrium", lambda s=size, m=mean: ck.within(s["equilibrium"], m, 1e-12)),
            (f"m{m_s}.decoded", lambda s=size, m=mean: ck.within(s["decoded"], m, tol)),
            (f"m{m_s}.reference", lambda s=size, m=mean: ck.within(s["reference"], m, tol)),
            (f"m{m_s}.crossover", lambda s=size: s["table"].crossover_step is not None),
        ]
    xs = [size["spec"].m_s for size in out["sizes"]]
    ys = [size["trace"].e_n for size in out["sizes"]]
    control, resources = out["control"]
    return result + [
        ("slope", lambda: ck.slope_ok(out["fit"], xs, ys)),
        ("control.reconcile", lambda: ck.reconciles(control, resources, UNIT)),
        ("control.constant", lambda: ck.constant_after_start(control)),
    ]


# stencil_threads: the analyze + partition path, with no simulation, on
# two structured graphs: the mesh template tiled over a ring and a
# dense-layer compute graph. The quadratic greedy tiling and the factorial
# exact labels on identical leaves take most of the time; without this
# workload the threads module would be a few percent of any other.

@dataclass(frozen=True)
class PartitionInput:
    seed: int
    stencil: nc.ComputeGraph
    stencil_text: str
    dense: nc.ComputeGraph
    dense_text: str


MESH_TEMPLATE = nc.ComputeGraph(
    nodes=(nc.OpNode("gather", "dot"),
           nc.OpNode("residual", "sub", ("gather",)),
           nc.OpNode("update", "add", ("residual",))),
    declared_inputs=("gather",),
    declared_outputs=("update",),
)
STENCIL_KINDS = ("dot", "sub", "add")
DENSE_LEAVES = 6


def dense_layer_graph(rows: int, leaves: int) -> nc.ComputeGraph:
    """Each row sums `leaves` independent products."""
    nodes = []
    for r in range(rows):
        products = [nc.OpNode(f"r{r}m{i}", "mul") for i in range(leaves)]
        nodes += products + [nc.OpNode(f"r{r}s", "add", tuple(p.id for p in products))]
    return nc.ComputeGraph(tuple(nodes),
                           tuple(n.id for n in nodes if not n.inputs),
                           tuple(f"r{r}s" for r in range(rows)))


def stencil_generate(seed: int, tiny: bool) -> PartitionInput:
    copies, steps, rows = (8, 4, 4) if tiny else (64, 32, 32)
    stencil = nc.expand_template(MESH_TEMPLATE, copies, steps, nc.ring_coupling(copies))
    dense = dense_layer_graph(rows, DENSE_LEAVES)
    return PartitionInput(seed, stencil, nc.emit_graph(stencil), dense, nc.emit_graph(dense))


def _partition(rec, vg, g: int):
    pr = rec.call(f"threads.partition_isomorphic.g{g}", nc.partition_isomorphic, vg, g)
    rec.call("threads.thread_efficiency", nc.thread_efficiency, pr, P)
    return pr


def stencil_pass(inp: PartitionInput, rec) -> dict:
    vg, _ng, out = _analyze(rec, inp.stencil_text, STENCIL_KINDS)
    dcg = rec.call("fileio.parse_graph_file", nc.parse_graph_file, inp.dense_text)
    dvg = rec.call("graph.validate_graph", nc.validate_graph, dcg)
    out["graphs"].append(dcg)
    out["partitions"] = {3: _partition(rec, vg, 3), 4: _partition(rec, vg, 4),
                         7: _partition(rec, dvg, 7)}
    return out


def stencil_checks(inp: PartitionInput, out: dict) -> list:
    graphs = {3: inp.stencil, 4: inp.stencil, 7: inp.dense}
    result = [_analyze_check(inp.stencil, out)]
    for g, pr in out["partitions"].items():
        result += [
            (f"g{g}.isomorphic", lambda pr=pr: ck.families_isomorphic(pr)),
            (f"g{g}.sound", lambda pr=pr, g=g: ck.partition_sound(pr, graphs[g], g)),
        ]
    return result


_PARSE = frozenset({"fileio.parse_graph_file", "graph.validate_graph"})
_INIT = frozenset({"sim.init_sim"})

WORKLOADS = {
    "dag_kick": Workload("dag_kick", dag_generate, dag_pass, dag_checks,
                         _PARSE | {"neural.lower_graph"} | _INIT),
    "ff_dense": Workload("ff_dense", ff_generate, ff_pass, ff_checks,
                         _INIT | {"workloads.gen_ff_layer"}),
    "mesh_relax": Workload("mesh_relax", mesh_generate, mesh_pass, mesh_checks,
                           _INIT | {"workloads.gen_mesh", "workloads.gen_self_exciting_loop"}),
    "stencil_threads": Workload("stencil_threads", stencil_generate, stencil_pass,
                                stencil_checks, _PARSE),
}


COUNT_UNITS = {
    "sim.steps": "count", "sim.quiet_steps": "count", "sim.spikes": "count",
    "sim.events": "count", "sim.e_n": "energy",
    "graph.nodes": "count", "graph.edges": "count",
    "neural.neurons": "count", "neural.synapses": "count",
}
for _g in GRANULARITIES:
    COUNT_UNITS.update({f"threads.g{_g}.fragments": "count", f"threads.g{_g}.families": "count",
                        f"threads.g{_g}.p_threads": "count", f"threads.g{_g}.coverage": "ratio"})


def counts(out: dict) -> dict[str, float]:
    """Simulated and structural counts of one pass. A change that only
    speeds the program up must leave every one of them identical."""
    traces = out["traces"]
    records = [rec for trace in traces for rec in trace.records]
    e_n = 0.0
    for trace in traces:
        e_n += trace.e_n
    result = {
        "sim.steps": len(records),
        "sim.quiet_steps": sum(1 for rec in records if rec.spikes == 0),
        "sim.spikes": sum(rec.spikes for rec in records),
        "sim.events": sum(rec.synaptic_events for rec in records),
        "sim.e_n": e_n,
        "graph.nodes": sum(len(g.nodes) for g in out["graphs"]),
        "graph.edges": sum(ck.edge_count(g) for g in out["graphs"]),
        "neural.neurons": sum(r.n_total for r in out["resources"]),
        "neural.synapses": sum(r.s_total for r in out["resources"]),
    }
    partitions = out.get("partitions", {})
    for g in GRANULARITIES:
        pr = partitions.get(g)
        families = pr.families if pr else ()
        tiled = sum(len(frag) for _label, members in families for frag in members)
        threaded = sum(len(frag) for _label, members in families if len(members) > 1
                       for frag in members)
        nodes = tiled + (len(pr.residual) if pr else 0)
        result[f"threads.g{g}.fragments"] = sum(len(members) for _label, members in families)
        result[f"threads.g{g}.families"] = len(families)
        result[f"threads.g{g}.p_threads"] = pr.p_threads if pr else 0
        result[f"threads.g{g}.coverage"] = threaded / nodes if nodes else 0.0
    return result
