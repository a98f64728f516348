"""Graph validation, work/span metrics, list scheduling, and tiling.

`PYTHONPATH=src python tests/test_graph.py` prints the expansion digests
of the `expand_template` on the path, one `name: digest` line per case.
"""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from neurocost import (
    ComputeGraph,
    CycleDetected,
    DanglingReference,
    DuplicateNodeId,
    EmptyGraph,
    GraphError,
    OpNode,
    StitchingMismatch,
    compute_metrics,
    emit_graph,
    expand_template,
    gen_random_dag,
    list_schedule,
    mini_corpus,
    parse_graph_file,
    ring_coupling,
    validate_graph,
)

from neurocost.graph import sorted_unique

from conftest import bench_cases, dag, make_chain, make_footnote
from oracles import assignment


# ---------------------------------------------------------------- columns


def _column_twin(graph: ComputeGraph) -> ComputeGraph:
    """The same graph built with from_columns from lists."""
    return ComputeGraph.from_columns(list(graph.ids), list(graph.op_kinds),
                                     [list(refs) for refs in graph.inputs],
                                     list(graph.declared_inputs), list(graph.declared_outputs))


def _node_twin(graph: ComputeGraph) -> ComputeGraph:
    """The same graph built from OpNodes."""
    return ComputeGraph(tuple(map(OpNode, graph.ids, graph.op_kinds, graph.inputs)),
                        graph.declared_inputs, graph.declared_outputs)


COLUMN_CASES = {"footnote": make_footnote, "chain_7": lambda: make_chain(7)}
COLUMN_CASES.update({f"corpus_{e.name}": (lambda e=e: e.graph) for e in mini_corpus()})
for _n, _density, _seed in [(1, 0.5, 0), (40, 0.2, 1), (150, 0.05, 2)]:
    COLUMN_CASES[f"random_{_n}"] = (lambda n=_n, d=_density, seed=_seed:
                                    gen_random_dag(n, d, ("a", "b", "c"), seed=seed))


@pytest.mark.parametrize("name", COLUMN_CASES)
def test_column_and_node_built_graphs_are_equal(name):
    graph = COLUMN_CASES[name]()
    twin = _node_twin(graph)
    assert twin == graph and graph == twin and not twin != graph
    assert hash(twin) == hash(graph)
    assert (twin.ids, twin.op_kinds, twin.inputs) == (graph.ids, graph.op_kinds, graph.inputs)
    assert twin.nodes == graph.nodes
    assert all(type(refs) is tuple for refs in twin.inputs)
    assert {twin, graph} == {graph}


@pytest.mark.parametrize("name", COLUMN_CASES)
def test_accessors_read_the_columns(name):
    """On a column-built graph the two CSRs give each node's inputs, and
    its consumers once per input reference, in declaration order."""
    graph = _column_twin(COLUMN_CASES[name]())
    vg = validate_graph(graph)
    successors = {nid: [] for nid in graph.ids}
    for nid, refs in zip(graph.ids, graph.inputs):
        for ref in refs:
            successors[ref].append(nid)
    ids = graph.ids
    for k, nid in enumerate(ids):
        assert vg.index[nid] == k
        preds = vg.pred_pos[vg.pred_start[k]:vg.pred_start[k + 1]]
        assert tuple(ids[p] for p in preds) == graph.inputs[k]
        succs = vg.succ_pos[vg.succ_start[k]:vg.succ_start[k + 1]]
        assert [ids[p] for p in succs] == successors[nid]
    assert len(vg) == len(ids) == len(vg.pred_start) - 1 == len(vg.succ_start) - 1


@pytest.mark.parametrize("name", COLUMN_CASES)
def test_column_built_and_parsed_graphs_validate_alike(name):
    """A from_columns graph builds its own id map and reference positions
    when validated, equal to those the parse of its file builds."""
    graph = _column_twin(COLUMN_CASES[name]())
    parsed = parse_graph_file(emit_graph(graph))
    assert "index" not in vars(graph) and "index" in vars(parsed)
    got, want = validate_graph(graph), validate_graph(parsed)
    assert got.index == want.index and got.topo_order == want.topo_order
    for field in ("pred_start", "pred_pos", "succ_start", "succ_pos", "order", "level"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.graph.id_array.tolist() == list(graph.ids)
    assert not got.graph.id_array.flags.writeable


def test_cached_lookups_of_a_faulty_graph():
    graph = dag([("x", "add"), ("y", "add", ("x", "ghost")), ("x", "mul")])
    assert graph.index == {"x": 2, "y": 1}  # shorter than the ids: "x" repeats
    assert graph.input_pos is None and "input_pos" in vars(graph)
    assert dag([("x", "add"), ("y", "add", ("x", ["x"]))]).input_pos is None  # unhashable


@pytest.mark.parametrize("make", [lambda: _node_twin(make_footnote()), make_footnote],
                         ids=["nodes", "columns"])
@pytest.mark.parametrize("name", ["ids", "op_kinds", "inputs", "nodes", "declared_inputs",
                                  "declared_outputs", "other"])
def test_compute_graph_is_immutable(make, name):
    graph = make()
    with pytest.raises(AttributeError, match="ComputeGraph is immutable"):
        setattr(graph, name, ())
    assert graph == make_footnote()


def test_op_node_stores_a_list_of_inputs_as_a_tuple():
    node = OpNode("s", "add", ["a", "b"])
    assert node.inputs == ("a", "b") and type(node.inputs) is tuple
    graph = ComputeGraph((OpNode("a", "in"), OpNode("b", "in"), node), ("a", "b"), ("s",))
    twin = ComputeGraph.from_columns(("a", "b", "s"), ("in", "in", "add"), ((), (), ("a", "b")),
                                     ("a", "b"), ("s",))
    assert graph == twin and hash(graph) == hash(twin)


@pytest.mark.parametrize("other", [None, 0, "footnote", (), make_footnote().nodes])
def test_compute_graph_is_unequal_to_a_non_graph(other):
    graph = make_footnote()
    assert graph.__eq__(other) is NotImplemented
    assert (graph == other) is False and (other == graph) is False and graph != other


def test_compute_graph_repr_counts_nodes_and_edges():
    assert repr(make_footnote()) == "ComputeGraph(4 nodes, 3 edges)"


def test_from_columns_needs_one_entry_per_node():
    with pytest.raises(ValueError, match="one entry per node"):
        ComputeGraph.from_columns(["a", "b"], ["add"], [(), ()])
    with pytest.raises(ValueError, match="one entry per node"):
        ComputeGraph.from_columns(["a"], ["add"], [(), ()])


# ---------------------------------------------------------------- validation


def test_footnote_metrics(footnote):
    m = compute_metrics(footnote)
    assert m.t1 == 4
    assert m.t_inf == 3
    assert m.level_widths == (2, 1, 1)
    assert m.max_fan_in == 2
    assert m.max_fan_out == 1


def test_footnote_levels(footnote):
    assert footnote.level.tolist() == [0, 0, 1, 2]  # a, b, c, d


def test_topo_order_respects_edges(footnote):
    pos = {nid: i for i, nid in enumerate(footnote.topo_order)}
    for nid, refs in zip(footnote.graph.ids, footnote.graph.inputs):
        for ref in refs:
            assert pos[ref] < pos[nid]


def test_validated_graph_accessors(footnote):
    assert len(footnote) == 4
    assert footnote.index == {"a": 0, "b": 1, "c": 2, "d": 3}
    assert (footnote.pred_start.tolist(), footnote.pred_pos.tolist()) == ([0, 0, 0, 2, 3],
                                                                          [0, 1, 2])
    assert (footnote.succ_start.tolist(), footnote.succ_pos.tolist()) == ([0, 1, 2, 3, 3],
                                                                          [2, 2, 3])
    assert (footnote.order.tolist(), footnote.topo_order) == ([0, 1, 2, 3], ("a", "b", "c", "d"))
    for arr in (footnote.pred_start, footnote.pred_pos, footnote.succ_start, footnote.succ_pos,
                footnote.order, footnote.level):
        assert not arr.flags.writeable


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        validate_graph(dag(()))


def test_duplicate_node_id():
    g = dag([("x", "add"), ("x", "mul")])
    with pytest.raises(DuplicateNodeId) as exc:
        validate_graph(g)
    assert exc.value.node_id == "x"


def test_self_cycle():
    g = dag([("x", "add", ("x",))])
    with pytest.raises(CycleDetected):
        validate_graph(g)


def test_two_node_cycle():
    g = dag([("x", "add", ("y",)), ("y", "add", ("x",))])
    with pytest.raises(CycleDetected) as exc:
        validate_graph(g)
    assert exc.value.node_id in ("x", "y")


def test_cycle_names_a_node_on_the_cycle():
    # "a" is stuck downstream of the cycle x <-> y, but is not on it.
    g = dag([("x", "add", ("y",)), ("y", "add", ("x",)), ("a", "add", ("x",))])
    with pytest.raises(CycleDetected) as exc:
        validate_graph(g)
    assert exc.value.node_id == "x"


def test_dangling_input_reference():
    g = dag([("x", "add", ("ghost",))])
    with pytest.raises(DanglingReference) as exc:
        validate_graph(g)
    assert exc.value.missing_id == "ghost"


def test_dangling_declared_ids():
    g = dag([("x", "add")], inputs=("nope",))
    with pytest.raises(DanglingReference):
        validate_graph(g)
    g = dag([("x", "add")], outputs=("nope",))
    with pytest.raises(DanglingReference):
        validate_graph(g)


def test_declared_input_with_in_edges_rejected():
    g = dag([("x", "add"), ("y", "add", ("x",))], inputs=("y",))
    with pytest.raises(GraphError):
        validate_graph(g)


def test_single_node_metrics():
    vg = validate_graph(dag([("only", "noop")]))
    m = compute_metrics(vg)
    assert (m.t1, m.t_inf, m.level_widths) == (1, 1, (1,))
    assert m.max_fan_in == 0 and m.max_fan_out == 0


def test_chain_metrics():
    vg = validate_graph(make_chain(7))
    m = compute_metrics(vg)
    assert m.t1 == 7
    assert m.t_inf == 7
    assert m.level_widths == (1,) * 7


def test_metrics_partition_nodes_by_level():
    for seed in range(8):
        vg = validate_graph(gen_random_dag(40, 0.15, ("a", "b"), seed=seed))
        m = compute_metrics(vg)
        assert sum(m.level_widths) == m.t1 == 40
        assert len(m.level_widths) == m.t_inf
        assert all(w >= 1 for w in m.level_widths)


# ---------------------------------------------------------------- scheduling


def test_footnote_schedule_serial(footnote):
    assert list_schedule(footnote, 1).t_p == 4


@pytest.mark.parametrize("p", [2, 3, 4, 100])
def test_footnote_schedule_parallel(footnote, p):
    # Level widths (2, 1, 1): two processors already reach the depth bound.
    assert list_schedule(footnote, p).t_p == 3


def test_schedule_assignment_is_consistent(footnote):
    sched = list_schedule(footnote, 2)
    steps = {nid: step for nid, (_proc, step) in assignment(sched).items()}
    assert set(steps) == {"a", "b", "c", "d"}
    assert max(steps.values()) + 1 == sched.t_p
    # Every node runs strictly after all of its inputs.
    for nid, refs in zip(footnote.graph.ids, footnote.graph.inputs):
        for ref in refs:
            assert steps[ref] < steps[nid]
    # No more than p nodes share a step.
    by_step = {}
    for nid, (proc, step) in assignment(sched).items():
        assert 0 <= proc < 2
        by_step.setdefault(step, []).append(proc)
    for procs in by_step.values():
        assert len(procs) <= 2
        assert len(set(procs)) == len(procs)


def test_schedule_rejects_bad_p(footnote):
    with pytest.raises(ValueError):
        list_schedule(footnote, 0)
    with pytest.raises(ValueError):
        list_schedule(footnote, 2.0)


@pytest.mark.parametrize("p", [True, False])
def test_schedule_rejects_bool_p(footnote, p):
    with pytest.raises(ValueError, match="processor count must be an integer >= 1"):
        list_schedule(footnote, p)


def test_schedule_builds_no_per_node_object():
    # The stencil of the benchmark's stencil_threads workload, 6,144 nodes.
    vg = validate_graph(bench_cases().stencil_generate(0, False).stencil)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        sched = list_schedule(vg, 4)
        built = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    blocks = sum(stat.count_diff for stat in built.compare_to(before, "filename"))
    assert len(vg) == 6144 and blocks < 100  # a few dozen, whatever the size
    assert sched.ids == vg.topo_order and not sched.proc.flags.writeable


def test_schedule_replace_and_equality(footnote):
    sched = list_schedule(footnote, 2)
    assert sched == list_schedule(footnote, 2)
    moved = dataclasses.replace(sched, t_p=1)
    assert (moved.t_p, assignment(moved)) == (1, assignment(sched)) and moved != sched
    # Same t_p and p, but "b" and "a" swap processors: the schedules differ.
    swapped = dataclasses.replace(sched, proc=sched.proc[[1, 0, 2, 3]])
    assert swapped.t_p == sched.t_p and assignment(swapped) != assignment(sched)
    assert swapped != sched and sched != swapped
    assert sched != (sched.t_p, sched.p)


def test_schedule_monotone_in_p():
    vg = validate_graph(gen_random_dag(60, 0.1, ("f", "g"), seed=5))
    makespans = [list_schedule(vg, p).t_p for p in (1, 2, 3, 4, 8, 16, 64)]
    assert makespans == sorted(makespans, reverse=True)


def _brent_bounds(t1: int, t_inf: int, p: int) -> tuple[int, int]:
    chunks = math.ceil(t1 / p)
    return max(t_inf, chunks), chunks + t_inf


def test_brent_sandwich_random_dags():
    for seed in range(25):
        n = 5 + (seed * 37) % 150
        density = 0.05 + (seed % 5) * 0.06
        vg = validate_graph(gen_random_dag(n, density, ("a", "b", "c"), seed=seed))
        m = compute_metrics(vg)
        for p in (1, 2, 4, 8, 16, 10**9):
            lo, hi = _brent_bounds(m.t1, m.t_inf, p)
            t_p = list_schedule(vg, p).t_p
            assert lo <= t_p <= hi, (seed, p, lo, t_p, hi)
        assert list_schedule(vg, 1).t_p == m.t1
        assert list_schedule(vg, 10**9).t_p == m.t_inf


def _optimal_makespan(vg, p: int) -> int:
    """Exhaustive unit-task scheduler (breadth-first over completed sets).

    Some optimal schedule keeps every step full (moving a ready task
    earlier never hurts), so only full steps are expanded.
    """
    all_ids = frozenset(vg.topo_order)
    preds = dict(zip(vg.graph.ids, map(set, vg.graph.inputs)))
    frontier = {frozenset()}
    steps = 0
    while all_ids not in frontier:
        nxt = set()
        for done in frontier:
            ready = sorted(nid for nid in all_ids - done if preds[nid] <= done)
            take = min(p, len(ready))
            for subset in itertools.combinations(ready, take):
                nxt.add(done | frozenset(subset))
        frontier = nxt
        steps += 1
        assert steps <= len(all_ids) + 1
    return steps


@pytest.mark.parametrize("p", [1, 2, 3])
def test_list_schedule_vs_exhaustive_oracle(p):
    graphs = [
        make_footnote(),
        make_chain(5),
        dag([  # fork-join with uneven arms
            ("s", "src"),
            ("l1", "f", ("s",)),
            ("l2", "f", ("l1",)),
            ("r1", "g", ("s",)),
            ("j", "join", ("l2", "r1")),
        ]),
        gen_random_dag(6, 0.35, ("a", "b"), seed=9),
        gen_random_dag(7, 0.25, ("a",), seed=11),
    ]
    for raw in graphs:
        vg = validate_graph(raw)
        m = compute_metrics(vg)
        best = _optimal_makespan(vg, p)
        greedy = list_schedule(vg, p).t_p
        lo, hi = _brent_bounds(m.t1, m.t_inf, p)
        assert lo <= best <= greedy <= hi


# ------------------------------------------------------------------ tiling


_TWO_SOURCE = [("a", "load"), ("b", "load"), ("c", "add", ("a", "b"))]


def _two_source_template() -> ComputeGraph:
    return dag(_TWO_SOURCE, inputs=("a", "b"), outputs=("c",))


def test_expand_template_ring():
    expanded = expand_template(_two_source_template(), spatial_copies=4,
                               temporal_copies=5, stitching=ring_coupling(4))
    vg = validate_graph(expanded)
    m = compute_metrics(vg)
    assert m.t1 == 4 * 5 * 3
    # Each temporal layer adds two levels (sources, then the sum).
    assert m.t_inf == 2 * 5
    assert len(expanded.declared_inputs) == 8   # layer-0 inputs of 4 copies
    assert len(expanded.declared_outputs) == 4  # last-layer outputs
    assert "a~s0t0" in expanded.declared_inputs
    assert "c~s3t4" in expanded.declared_outputs


def test_expand_template_stitches_to_neighbors():
    expanded = expand_template(_two_source_template(), 4, 2, ring_coupling(4))
    inputs = dict(zip(expanded.ids, expanded.inputs))
    # Copy 1 at t=1: input a comes from the left neighbor, b from the right.
    assert inputs["a~s1t1"] == ("c~s0t0",)
    assert inputs["b~s1t1"] == ("c~s2t0",)


def test_expand_template_single_copy_no_neighbors():
    expanded = expand_template(_two_source_template(), 1, 3, ring_coupling(1))
    vg = validate_graph(expanded)
    # No stitching: three disconnected layers.
    assert compute_metrics(vg).t_inf == 2
    assert len(vg) == 9


def test_expand_template_callable_stitching():
    expanded = expand_template(_two_source_template(), 2, 2,
                               lambda s: ((s + 1) % 2,))
    inputs = dict(zip(expanded.ids, expanded.inputs))
    assert inputs["a~s0t1"] == ("c~s1t0",)


def test_expand_template_bad_neighbor():
    with pytest.raises(StitchingMismatch):
        expand_template(_two_source_template(), 2, 2, {0: (5,), 1: (0,)})


def test_expand_template_bad_counts():
    for bad in (0, 1.5, True):
        with pytest.raises(ValueError, match="spatial_copies must be an integer >= 1"):
            expand_template(_two_source_template(), bad, 2, ring_coupling(1))
        with pytest.raises(ValueError, match="temporal_copies must be an integer >= 1"):
            expand_template(_two_source_template(), 2, bad, ring_coupling(2))


def test_ring_coupling_shapes():
    assert ring_coupling(1) == {0: ()}
    assert ring_coupling(4) == {0: (3, 1), 1: (0, 2), 2: (1, 3), 3: (2, 0)}


def _stencil_template() -> ComputeGraph:
    return ComputeGraph(
        nodes=(OpNode("gather", "dot"), OpNode("residual", "sub", ("gather",)),
               OpNode("update", "add", ("residual",))),
        declared_inputs=("gather",), declared_outputs=("update",))


def _repeated_input_template() -> ComputeGraph:
    """Declared input "a" listed twice (it stitches by its first index),
    outputs declared out of node order, and an input read twice."""
    return dag([("a", "load"), ("b", "load"), ("c", "mul", ("a", "b", "a")),
                ("d", "add", ("c",)), ("e", "sub", ("c", "b"))],
               inputs=("b", "a", "a"), outputs=("e", "d"))


EXPANSIONS = {
    "ring_4x5": lambda: expand_template(_two_source_template(), 4, 5, ring_coupling(4)),
    "one_copy_1x3": lambda: expand_template(_two_source_template(), 1, 3, ring_coupling(1)),
    "callable_stencil_3x4": lambda: expand_template(_stencil_template(), 3, 4,
                                                    lambda s: ((s + 2) % 3, s)),
    "partial_mapping_3x3": lambda: expand_template(_two_source_template(), 3, 3,
                                                   {0: (2,), 2: (1, 0, 2)}),
    "repeated_input_ring_3x3": lambda: expand_template(_repeated_input_template(), 3, 3,
                                                       ring_coupling(3)),
    "no_outputs_2x2": lambda: expand_template(
        dag(_TWO_SOURCE, inputs=("a", "b")), 2, 2, ring_coupling(2)),
}


def expansion_digest(graph: ComputeGraph) -> str:
    return hashlib.sha256(emit_graph(graph).encode()).hexdigest()


# Recorded with the expansion that built OpNodes and looked each declared
# input up with `declared_inputs.index`.
EXPANSION_GOLDEN: dict[str, str] = {
    'callable_stencil_3x4': 'bc74c7fb92a0f59f02c096d23e843bd84a4a3cd1cfeaa3761643caebdbc6d320',
    'no_outputs_2x2': '76b08c17547fed54e6c8f10b9f0d1212fc4aa94a54e038ee8af2f31f5e2b6978',
    'one_copy_1x3': '5af52017f404981c8894852bee4d295c1de0f659ab49029f9a3e7f29c165142b',
    'partial_mapping_3x3': '2ca5530186ab7c608b82550363f9f0fe47a24337b02ecd39111ed29d1655de2a',
    'repeated_input_ring_3x3': 'ab3642f210a87d8fdafee3c213fb1aeec5f4ef22b388b4e8b534807ac787ef6b',
    'ring_4x5': 'efb21aca9956dd80930f9bb26fd4c64be13fe7b1dd11e5a9618fae71b3bcd057',
}


@pytest.mark.parametrize("name", sorted(EXPANSIONS))
def test_expansion_matches_golden_digest(name):
    assert expansion_digest(EXPANSIONS[name]()) == EXPANSION_GOLDEN[name]


# -------------------------------------------------------------- random DAGs


def _ref_random_dag(n, edge_density, alphabet, seed):
    """gen_random_dag's former double loop over coins, kept as the reference."""
    rng = np.random.default_rng(seed)
    kinds = [str(alphabet[int(k)]) for k in rng.integers(0, len(alphabet), size=n)]
    inputs = [[] for _ in range(n)]
    for j in range(1, n):
        coins = rng.random(j)
        for i in range(j):
            if coins[i] < edge_density:
                inputs[j].append(f"x{i}")
    ids = [f"x{i}" for i in range(n)]
    has_out = {ref for refs in inputs for ref in refs}
    return dag(zip(ids, kinds, map(tuple, inputs)),
               inputs=[nid for nid, refs in zip(ids, inputs) if not refs],
               outputs=[nid for nid in ids if nid not in has_out])


@pytest.mark.parametrize("n, density, seed", [(0, 0.5, 0), (1, 0.5, 0), (2, 1.0, 1),
                                              (300, 0.3, 0), (2000, 0.002, 1),
                                              (2000, 0.01, 29)])
def test_gen_random_dag_matches_the_double_loop(n, density, seed):
    kinds = ("add", "mul", "relay")
    assert gen_random_dag(n, density, kinds, seed) == _ref_random_dag(n, density, kinds, seed)


def test_gen_random_dag_deterministic():
    a = gen_random_dag(30, 0.2, ("x", "y"), seed=7)
    b = gen_random_dag(30, 0.2, ("x", "y"), seed=7)
    assert a == b
    c = gen_random_dag(30, 0.2, ("x", "y"), seed=8)
    assert a != c


def test_gen_random_dag_is_valid_and_acyclic():
    for seed in (0, 1, 2):
        vg = validate_graph(gen_random_dag(50, 0.3, ("k",), seed=seed))
        assert len(vg) == 50


def test_gen_random_dag_density_zero():
    g = gen_random_dag(10, 0.0, ("k",), seed=0)
    assert all(refs == () for refs in g.inputs)
    assert len(g.declared_inputs) == 10
    assert len(g.declared_outputs) == 10


def test_gen_random_dag_declared_ids():
    g = gen_random_dag(40, 0.25, ("k",), seed=3)
    referenced = {ref for refs in g.inputs for ref in refs}
    for nid in g.declared_inputs:
        assert g.inputs[g.ids.index(nid)] == ()
    for nid in g.declared_outputs:
        assert nid not in referenced


def test_gen_random_dag_validation():
    with pytest.raises(ValueError):
        gen_random_dag(5, 1.5, ("k",), seed=0)
    with pytest.raises(ValueError):
        gen_random_dag(5, 0.5, (), seed=0)


# ---------------------------------------------------------------- sorted_unique


INT64 = np.iinfo(np.int64)


def _unique_cases(seed):
    rng = np.random.default_rng(seed)
    yield np.zeros(0, np.int64)
    yield rng.integers(-5, 5, 1)
    yield np.full(int(rng.integers(2, 20)), rng.integers(-9, 9))
    yield rng.integers(-50, 50, int(rng.integers(1, 200)))
    yield rng.integers(0, 8, 64).astype(np.intp)
    yield np.concatenate((rng.integers(INT64.min, INT64.max, 30, endpoint=True),
                          [INT64.min, INT64.max, INT64.min, -1, 0, INT64.max]))


@pytest.mark.parametrize("seed", range(4))
def test_sorted_unique_matches_np_unique(seed):
    for values in _unique_cases(seed):
        given = values.copy()
        got, want = sorted_unique(values), np.unique(values)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert values.tobytes() == given.tobytes()  # the input keeps its order


if __name__ == "__main__":
    for case_name in sorted(EXPANSIONS):
        print(f"    {case_name!r}: {expansion_digest(EXPANSIONS[case_name]())!r},")
