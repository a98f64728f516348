"""The graph front end against the string-keyed code it replaced.

parse -> validate -> levels -> metrics -> schedule -> lower now runs on
integer positions. The references below are the per-field, per-edge
versions that preceded it, kept as written but for reading the graph's
columns instead of its OpNodes; every output, every insertion order and
every error must match them.
"""

import ast
import json
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import neurocost as nc
from neurocost import (
    ComputeGraph,
    CycleDetected,
    DanglingReference,
    DuplicateNodeId,
    EmptyGraph,
    FanInExceedsRule,
    GraphError,
    LoweringRule,
    NoRuleForOpKind,
    OpNode,
    SchemaError,
)

from conftest import bench_cases, dag
from test_neural import _MIXED_RULES, _assembly_views, _tuple_lowering


# ------------------------------------------------------------------ references


def _ref_parse(text: str) -> ComputeGraph:
    """parse_graph_file's checks, field by field."""
    def require(condition, message, field):
        if not condition:
            raise SchemaError(message, field=field)

    def string_list(value, field):
        require(isinstance(value, list), "expected a list of strings", field)
        out = []
        for i, item in enumerate(value):
            require(isinstance(item, str), "expected a string", f"{field}[{i}]")
            out.append(item)
        return tuple(out)

    doc = json.loads(text)
    require(isinstance(doc, dict), "top level must be an object", "$")
    for key in sorted(set(doc) - {"nodes", "inputs", "outputs"}):
        raise SchemaError(f"unknown key {key!r}", field="$")
    require("nodes" in doc, "missing required key 'nodes'", "$")
    require(isinstance(doc["nodes"], list), "expected a list", "nodes")
    nodes, seen = [], set()
    for i, raw in enumerate(doc["nodes"]):
        where = f"nodes[{i}]"
        require(isinstance(raw, dict), "expected an object", where)
        for key in sorted(set(raw) - {"id", "op", "inputs"}):
            raise SchemaError(f"unknown key {key!r}", field=where)
        require("id" in raw, "missing required key 'id'", where)
        require(isinstance(raw["id"], str), "expected a string", f"{where}.id")
        require("op" in raw, "missing required key 'op'", where)
        require(isinstance(raw["op"], str), "expected a string", f"{where}.op")
        nid = raw["id"]
        require(nid not in seen, f"duplicate id {nid!r}", f"{where}.id")
        seen.add(nid)
        inputs = string_list(raw.get("inputs", []), f"{where}.inputs")
        nodes.append((nid, raw["op"], inputs))
    return dag(nodes, string_list(doc.get("inputs", []), "inputs"),
               string_list(doc.get("outputs", []), "outputs"))


def _ref_validate(raw: ComputeGraph):
    """validate_graph's checks and FIFO Kahn over ids; returns the
    topological order and the successor lists. On a cycle it names the
    smallest stuck id, which need not lie on the cycle."""
    if not raw.ids:
        raise EmptyGraph("graph has no nodes")
    by_id = {}
    for nid, inputs in zip(raw.ids, raw.inputs):
        if nid in by_id:
            raise DuplicateNodeId(nid)
        by_id[nid] = inputs
    successors = {nid: [] for nid in raw.ids}
    indegree = {nid: 0 for nid in raw.ids}
    for nid, inputs in zip(raw.ids, raw.inputs):
        for ref in inputs:
            if ref == nid:
                raise CycleDetected(nid)
            if ref not in by_id:
                raise DanglingReference(ref)
            successors[ref].append(nid)
            indegree[nid] += 1
    for declared in raw.declared_inputs:
        if declared not in by_id:
            raise DanglingReference(declared)
        if by_id[declared]:
            raise GraphError(f"declared input {declared!r} has in-edges")
    for declared in raw.declared_outputs:
        if declared not in by_id:
            raise DanglingReference(declared)
    order = []
    ready = deque(nid for nid in raw.ids if indegree[nid] == 0)
    remaining = dict(indegree)
    while ready:
        current = ready.popleft()
        order.append(current)
        for succ in successors[current]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                ready.append(succ)
    if len(order) < len(raw.ids):
        raise CycleDetected(min(nid for nid, deg in remaining.items() if deg > 0))
    return tuple(order), {k: tuple(v) for k, v in successors.items()}


def _ref_levels(raw, topo):
    by_id = dict(zip(raw.ids, raw.inputs))
    level = {}
    for nid in topo:
        inputs = by_id[nid]
        level[nid] = 0 if not inputs else 1 + max(level[p] for p in inputs)
    return level


def _ref_metrics(raw, topo, successors):
    level = _ref_levels(raw, topo)
    depth = max(level.values()) + 1
    widths = [0] * depth
    for nid in topo:
        widths[level[nid]] += 1
    return nc.GraphMetrics(
        t1=len(raw.ids), t_inf=depth, level_widths=tuple(widths),
        max_fan_in=max(len(inputs) for inputs in raw.inputs),
        max_fan_out=max(len(successors[nid]) for nid in topo))


def _ref_schedule(raw, topo, p):
    levels = _ref_levels(raw, topo)
    by_level = {}
    for nid in topo:
        by_level.setdefault(levels[nid], []).append(nid)
    assignment, step = {}, 0
    for lvl in sorted(by_level):
        members = by_level[lvl]
        for offset, nid in enumerate(members):
            assignment[nid] = (offset % p, step + offset // p)
        step += math.ceil(len(members) / p)
    return step, assignment


def _ref_lowering_fault(vg, rules):
    for nid in vg.topo_order:
        kind, inputs = vg.graph.op_kinds[vg.index[nid]], vg.graph.inputs[vg.index[nid]]
        rule = rules.get(kind)
        if rule is None:
            return NoRuleForOpKind(kind)
        if rule.max_fan_in is not None and len(inputs) > rule.max_fan_in:
            return FanInExceedsRule(
                f"op {nid!r} has fan-in {len(inputs)}, rule allows {rule.max_fan_in}")
    return None


# ------------------------------------------------------------------ graphs


MESH_TEMPLATE = ComputeGraph(
    nodes=(OpNode("gather", "dot"), OpNode("residual", "sub", ("gather",)),
           OpNode("update", "add", ("residual",))),
    declared_inputs=("gather",), declared_outputs=("update",))


def _dense_layer(rows, leaves):
    nodes = []
    for r in range(rows):
        products = [OpNode(f"r{r}m{i}", "mul") for i in range(leaves)]
        nodes += products + [OpNode(f"r{r}s", "add", tuple(p.id for p in products))]
    return ComputeGraph(tuple(nodes), tuple(n.id for n in nodes if not n.inputs),
                        tuple(f"r{r}s" for r in range(rows)))


def _repeated_refs(graph, seed):
    """Some nodes name an input two or three times."""
    rng = np.random.default_rng(seed)
    nodes = []
    for nid, kind, inputs in zip(graph.ids, graph.op_kinds, graph.inputs):
        if inputs and rng.random() < 0.4:
            inputs = inputs + inputs[:int(rng.integers(1, 3))]
        nodes.append((nid, kind, inputs))
    return dag(nodes, graph.declared_inputs, graph.declared_outputs)


def _shuffled(graph, seed):
    """The same graph declared in a random order, so not topologically."""
    rng = np.random.default_rng(seed)
    nodes = list(zip(graph.ids, graph.op_kinds, graph.inputs))
    nodes = [nodes[k] for k in rng.permutation(len(nodes))]
    return dag(nodes, graph.declared_inputs, graph.declared_outputs)


def _reversed(graph):
    """The nodes declared last to first, with no declared inputs or outputs."""
    return dag(reversed(list(zip(graph.ids, graph.op_kinds, graph.inputs))))


def _random(n, density, kinds, seed):
    return nc.gen_random_dag(n, density, kinds, seed)


ADD_MUL_RELAY = ("add", "mul", "relay")
SUB_MUL_POW = ("sub", "mul", "pow")

GRAPHS = {
    "random_1": lambda: _random(1, 0.5, ("add",), 0),
    "random_2_full": lambda: _random(2, 1.0, ADD_MUL_RELAY, 1),
    "random_30_edgeless": lambda: _random(30, 0.0, SUB_MUL_POW, 2),
    "random_30_dense": lambda: _random(30, 0.3, SUB_MUL_POW, 3),
    "random_60_complete": lambda: _random(60, 1.0, ("add",), 4),
    "random_120": lambda: _random(120, 0.05, ADD_MUL_RELAY, 5),
    "random_250": lambda: _random(250, 0.02, SUB_MUL_POW, 6),
    "stencil_ring": lambda: nc.expand_template(MESH_TEMPLATE, 6, 5, nc.ring_coupling(6)),
    "stencil_one_copy": lambda: nc.expand_template(MESH_TEMPLATE, 1, 4, nc.ring_coupling(1)),
    "stencil_skip": lambda: nc.expand_template(
        MESH_TEMPLATE, 5, 4, lambda s: ((s + 2) % 5, (s + 4) % 5, s)),
    "dense_layer": lambda: _dense_layer(5, 6),
    "repeated_refs": lambda: _repeated_refs(_random(80, 0.08, ADD_MUL_RELAY, 7), 7),
    "repeated_only": lambda: dag([("a", "add"), ("b", "mul", ("a", "a")),
                                  ("c", "relay", ("b", "a", "b", "b"))]),
    "shuffled_random": lambda: _shuffled(_random(150, 0.04, ADD_MUL_RELAY, 8), 8),
    "shuffled_stencil": lambda: _shuffled(
        nc.expand_template(MESH_TEMPLATE, 4, 6, nc.ring_coupling(4)), 9),
    "shuffled_repeated": lambda: _shuffled(
        _repeated_refs(_random(90, 0.1, SUB_MUL_POW, 10), 10), 10),
    "reversed_dense": lambda: _reversed(_dense_layer(3, 4)),
}
GRAPHS.update({f"corpus_{e.name}": (lambda e=e: e.graph) for e in nc.mini_corpus()})

# Mixed rules: chains of 1-3 neurons, several specs, weights and delays.
# An op kind they do not name takes one of them, by its sorted position.
_MIXED = list(_MIXED_RULES.values())


def _rules(graph, name):
    if name == "relay":
        return None
    kinds = sorted(set(graph.op_kinds))
    return {k: _MIXED_RULES.get(k, _MIXED[i % len(_MIXED)]) for i, k in enumerate(kinds)}


@pytest.mark.parametrize("name", GRAPHS)
def test_validate_levels_metrics_schedule_match_reference(name):
    raw = GRAPHS[name]()
    assert nc.parse_graph_file(nc.emit_graph(raw)) == raw
    vg = nc.validate_graph(raw)
    topo, successors = _ref_validate(raw)
    assert vg.topo_order == topo
    ids = raw.ids
    for k, nid in enumerate(ids):
        preds = vg.pred_pos[vg.pred_start[k]:vg.pred_start[k + 1]]
        assert tuple(ids[p] for p in preds) == raw.inputs[k]
        succs = vg.succ_pos[vg.succ_start[k]:vg.succ_start[k + 1]]
        assert tuple(ids[p] for p in succs) == successors[nid]
    want_levels = _ref_levels(raw, topo)
    assert vg.level.tolist() == [want_levels[nid] for nid in ids]
    assert nc.compute_metrics(vg) == _ref_metrics(raw, topo, successors)
    for p in (1, 2, 3, 4, 7, len(raw.ids), 10**6, 2**70):
        sched = nc.list_schedule(vg, p)
        t_p, assignment = _ref_schedule(raw, topo, p)
        assert (sched.t_p, sched.p) == (t_p, p)
        assert list(sched.assignment.items()) == list(assignment.items())


@pytest.mark.parametrize("rules_name", ["relay", "mixed"])
@pytest.mark.parametrize("name", GRAPHS)
def test_lowering_matches_reference(name, rules_name):
    raw = GRAPHS[name]()
    rules = _rules(raw, rules_name)
    vg = nc.validate_graph(raw)
    ng, am = nc.lower_graph(vg, rules)
    want, want_entries, want_per_op = _tuple_lowering(vg, rules)
    assert ng == want
    assert (ng.input_neurons, ng.output_neurons) == (want.input_neurons, want.output_neurons)
    entries, per_op = _assembly_views(am)
    assert list(entries.items()) == list(want_entries.items())
    assert list(per_op.items()) == list(want_per_op.items())
    r = nc.count_resources(ng, am)
    assert (r.n_total, r.s_total, r.n_bar, r.s_bar) == (
        len(want.neuron_ids), len(want.source),
        len(want.neuron_ids) / len(raw.ids), len(want.source) / len(raw.ids))


# ------------------------------------------------------------------ error parity


def _raised(fn, *args):
    with pytest.raises(Exception) as exc:
        fn(*args)
    return exc.value


def _same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert vars(got) == vars(want)


GOOD = [{"id": f"g{i}", "op": "relay", "inputs": [f"g{i - 1}"] if i else []}
        for i in range(100)]

BAD_NODES = {
    "not_object": 5,
    "list_node": ["id", "x"],
    "unknown_key": {"id": "x", "op": "relay", "bogus": 1},
    "unknown_key_and_bad_id": {"id": 3, "op": "relay", "zz": 1, "aa": 2},
    "missing_id": {"op": "relay"},
    "int_id": {"id": 3, "op": "relay"},
    "bool_id": {"id": True, "op": "relay"},
    "null_id": {"id": None, "op": "relay"},
    "bad_id_missing_op": {"id": 3},
    "missing_op": {"id": "x"},
    "list_op": {"id": "x", "op": ["relay"]},
    "duplicate_id": {"id": "g7", "op": "relay"},
    "duplicate_id_bad_inputs": {"id": "g7", "op": "relay", "inputs": "g1"},
    "string_inputs": {"id": "x", "op": "relay", "inputs": "g1"},
    "null_inputs": {"id": "x", "op": "relay", "inputs": None},
    "int_input": {"id": "x", "op": "relay", "inputs": ["g1", 3]},
    "nested_input": {"id": "x", "op": "relay", "inputs": [["g1"]]},
    "bool_input": {"id": "x", "op": "relay", "inputs": [False]},
}

# The malformed documents of test_fileio, and top-level faults.
MALFORMED = [
    "[1, 2]",
    '{"nodes": [], "bogus": 1}',
    '{"nodes": [5]}',
    '{"nodes": [{"op": "relay"}]}',
    '{"nodes": [{"id": 3, "op": "relay"}]}',
    '{"nodes": [{"id": "a"}]}',
    '{"nodes": [{"id": "a", "op": "relay"}, {"id": "a", "op": "relay"}]}',
    '{"nodes": [{"id": "a", "op": "relay", "inputs": "b"}]}',
    '{"nodes": [{"id": "a", "op": "relay", "inputs": [3]}]}',
    '{"inputs": []}',
    '{"nodes": {"a": 1}}',
    '{"nodes": [{"id": "a", "op": "relay"}], "inputs": "a"}',
    '{"nodes": [{"id": "a", "op": "relay"}], "outputs": [1]}',
    '{"nodes": [5], "inputs": [3]}',
]
MALFORMED += [json.dumps({"nodes": GOOD + [bad]}) for bad in BAD_NODES.values()]
MALFORMED += [json.dumps({"nodes": GOOD[:50] + [BAD_NODES["int_input"]] + GOOD[50:]
                                  + [BAD_NODES["unknown_key"]]})]


@pytest.mark.parametrize("text", MALFORMED)
def test_parse_errors_match_reference(text):
    _same_error(_raised(nc.parse_graph_file, text), _raised(_ref_parse, text))


def test_parse_good_documents_match_reference():
    for text in ('{"nodes": []}', json.dumps({"nodes": GOOD, "inputs": ["g0"]}),
                 '{"nodes": [{"id": "", "op": "", "inputs": []}], "outputs": [""]}'):
        assert nc.parse_graph_file(text) == _ref_parse(text)


def _g(*nodes, inputs=(), outputs=()):
    return dag([(nid, "add", tuple(refs)) for nid, refs in nodes], inputs, outputs)


INVALID = {
    "empty": _g(),
    "duplicate_after_dangling": _g(("a", ["ghost"]), ("b", []), ("a", [])),
    "self_then_dangling": _g(("a", []), ("b", ["b", "ghost"])),
    "dangling_then_self": _g(("a", []), ("b", ["ghost", "b"])),
    "dangling_before_self": _g(("a", ["ghost"]), ("b", ["b"])),
    "self_before_dangling": _g(("a", ["a"]), ("b", ["ghost"])),
    "self_before_cycle": _g(("x", ["y"]), ("y", ["x"]), ("s", ["s"])),
    "declared_input_before_cycle": _g(("x", ["y"]), ("y", ["x"]), inputs=("nope",)),
    "declared_input_has_edges": _g(("x", []), ("y", ["x"]), ("z", ["z"]), inputs=("y",)),
    "declared_output_unknown": _g(("x", []), outputs=("nope",)),
    "declared_output_before_cycle": _g(("x", ["y"]), ("y", ["x"]), outputs=("nope",)),
}


@pytest.mark.parametrize("name", INVALID)
def test_validate_errors_match_reference(name):
    raw = INVALID[name]
    _same_error(_raised(nc.validate_graph, raw), _raised(_ref_validate, raw))


def _on_a_cycle(raw, nid):
    by_id = dict(zip(raw.ids, raw.inputs))
    seen, todo = set(), list(by_id[nid])
    while todo:
        cur = todo.pop()
        if cur == nid:
            return True
        if cur not in seen:
            seen.add(cur)
            todo += by_id[cur]
    return False


@pytest.mark.parametrize("seed", range(12))
def test_cycles_are_named_on_the_cycle(seed):
    """Random DAGs closed into one cycle by a back edge, with nodes stuck
    downstream of it. The reference names the smallest stuck id; the
    front end names the smallest id on the cycle its walk finds."""
    graph = _shuffled(_random(40, 0.1, ("add",), seed), seed)
    _topo, successors = _ref_validate(graph)
    rng = np.random.default_rng(seed)
    # Walk forward from an edge u -> v, then close the cycle back into u.
    u = str(rng.choice([nid for nid in graph.ids if successors[nid]]))
    last = str(rng.choice(successors[u]))
    while successors[last] and rng.random() < 0.7:
        last = str(rng.choice(successors[last]))
    raw = dag((nid, kind, inputs + (last,)) if nid == u else (nid, kind, inputs)
              for nid, kind, inputs in zip(graph.ids, graph.op_kinds, graph.inputs))
    got = _raised(nc.validate_graph, raw)
    assert type(got) is type(_raised(_ref_validate, raw)) is CycleDetected
    assert _on_a_cycle(raw, got.node_id)


@pytest.mark.parametrize("seed", range(16))
def test_lowering_faults_keep_topological_precedence(seed):
    """With some kinds unruled and some capped, the first offending node
    in topological order (not declaration order) decides the error."""
    graph = _shuffled(_random(60, 0.08, ("a", "b", "c", "d"), seed), seed)
    vg = nc.validate_graph(graph)
    rng = np.random.default_rng(seed)
    rules = {}
    for kind in ("a", "b", "c", "d"):
        pick = rng.random()
        if pick < 0.7:
            rules[kind] = LoweringRule(max_fan_in=int(rng.integers(0, 8)) if pick < 0.4
                                       else None)
    want = _ref_lowering_fault(vg, rules)
    if want is None:
        nc.lower_graph(vg, rules)
    else:
        _same_error(_raised(nc.lower_graph, vg, rules), want)


def test_lowering_fault_order_is_topological_not_declared():
    # "late" is declared first but runs after "early" in topological order.
    raw = dag([("late", "capped", ("early", "src")), ("src", "ok"), ("early", "unruled")])
    vg = nc.validate_graph(raw)
    assert vg.topo_order == ("src", "early", "late")
    rules = {"capped": LoweringRule(max_fan_in=1), "ok": LoweringRule()}
    with pytest.raises(NoRuleForOpKind) as exc:
        nc.lower_graph(vg, rules)
    assert exc.value.op_kind == "unruled"
    rules["unruled"] = LoweringRule()
    with pytest.raises(FanInExceedsRule, match="op 'late' has fan-in 2, rule allows 1"):
        nc.lower_graph(vg, rules)


@pytest.mark.parametrize("make_rules", [
    # Junk in a weight field no synapse carries used to lower.
    lambda: {"src": LoweringRule(input_weight=None, chain_weight="x"),
             "sink": LoweringRule(delay=2)},
    lambda: {"src": LoweringRule(delay=3), "sink": LoweringRule(delay=True)},
    lambda: {"src": LoweringRule(neuron_count=2, chain_weight="x"), "sink": LoweringRule()},
    lambda: {"src": LoweringRule(neuron_count=2.0), "sink": LoweringRule()},
    lambda: {"src": LoweringRule(neuron_count=True), "sink": LoweringRule(neuron_count=True)},
], ids=["unused_junk", "bool_delay", "junk_chain_weight", "float_count", "bool_count"])
def test_rule_fields_are_read_as_per_synapse_lists(make_rules):
    """A rule checks every field when it is built, used by a synapse or
    not, so a bad rule never reaches lowering."""
    with pytest.raises(ValueError):
        make_rules()


def test_large_shuffled_graphs_match_reference():
    """A few bigger graphs, including repeated references, declared out of
    order: order, levels and schedule against the references."""
    for seed in range(3):
        raw = _shuffled(_repeated_refs(_random(400, 0.02, ADD_MUL_RELAY, 100 + seed), seed),
                        seed)
        vg = nc.validate_graph(raw)
        topo, successors = _ref_validate(raw)
        assert vg.topo_order == topo
        assert dict(zip(raw.ids, vg.level.tolist())) == _ref_levels(raw, topo)
        assert nc.compute_metrics(vg) == _ref_metrics(raw, topo, successors)
        t_p, assignment = _ref_schedule(raw, topo, 5)
        sched = nc.list_schedule(vg, 5)
        assert (sched.t_p, list(sched.assignment.items())) == (t_p, list(assignment.items()))


# ------------------------------------------------------------------ no OpNodes


def test_no_opnode_is_built_from_parse_to_partition(monkeypatch):
    """A parsed graph stays columns through the analyze, simulate and
    partition path, and template expansion and the corpus build columns
    too: no OpNode is built until something reads `nodes`."""
    cases = bench_cases()
    files = [cases.dag_generate(3, True).text, cases.stencil_generate(3, False).stencil_text]
    template = ComputeGraph.from_columns(MESH_TEMPLATE.ids, MESH_TEMPLATE.op_kinds,
                                         MESH_TEMPLATE.inputs, MESH_TEMPLATE.declared_inputs,
                                         MESH_TEMPLATE.declared_outputs)
    built = []
    init = OpNode.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OpNode, "__init__", counting_init)
    stencil = nc.expand_template(template, 4, 3, nc.ring_coupling(4))
    files.append(nc.emit_graph(stencil))
    files += [nc.emit_graph(entry.graph) for entry in nc.mini_corpus()]
    for text in files:
        vg = nc.validate_graph(nc.parse_graph_file(text))
        nc.compute_metrics(vg)
        nc.list_schedule(vg, 4)
        ng, am = nc.lower_graph(vg)
        nc.count_resources(ng, am)
        nc.lower_graph(vg, nc.relay_rules(set(vg.graph.op_kinds), neuron_count=2))
        for g in (3, 7):
            nc.partition_isomorphic(vg, g)
        kick = {0: tuple((nid, 1.5) for nid in ng.input_neurons)}
        nc.run_sim(nc.init_sim(ng, nc.DigitalEncoding(), 0), 20, inputs=kick)
    assert built == []
    assert len(vg.graph.nodes) == len(built) == len(vg)  # the counter does count


ROOT = Path(__file__).resolve().parent.parent
# Calls whose result is a ComputeGraph, by the name they are called through.
GRAPH_MAKERS = {"ComputeGraph", "from_columns", "parse_graph_file", "gen_random_dag",
                "expand_template", "dag"}


def _opnode_uses(tree, reexport=False):
    """Line numbers where code names OpNode: a name, an attribute, or an
    import (unless `reexport`). Docstrings and comments are not code."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "OpNode" or (
                isinstance(node, ast.Attribute) and node.attr == "OpNode"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and not reexport:
            lines += [node.lineno for alias in node.names if alias.name == "OpNode"]
    return lines


def _graph_nodes_reads(tree):
    """Line numbers where code reads `nodes` of a ComputeGraph: of any
    `.graph`, or of a name assigned from a call in GRAPH_MAKERS. A
    Fragment's `nodes` is another attribute and is not flagged."""
    def callee(call):
        return getattr(call.func, "attr", getattr(call.func, "id", None))

    graphs = {target.id for node in ast.walk(tree)
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and callee(node.value) in GRAPH_MAKERS
              for target in node.targets if isinstance(target, ast.Name)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "nodes"
            and (isinstance(node.value, ast.Attribute) and node.value.attr == "graph"
                 or isinstance(node.value, ast.Name) and node.value.id in graphs)]


def test_the_boundary_checks_read_code_not_text():
    tree = ast.parse('''"""Docstrings may name OpNode and read graph.nodes."""
from .graph import OpNode
g = nc.gen_random_dag(5, 0.5, ("a",), seed=0)
frag = fragments[0]
x = (nc.OpNode("a", "add"), vg.graph.nodes, g.nodes, frag.nodes, families.nodes)
''')
    assert _opnode_uses(tree) == [2, 5]
    assert _opnode_uses(tree, reexport=True) == [5]
    assert sorted(_graph_nodes_reads(tree)) == [5, 5]


def test_only_graph_py_and_the_reexport_name_opnode():
    """The OpNode form lives in graph.py, for the benchmark: no other
    module names it but for `__init__.py`'s export, and no module or demo
    reads a graph's `nodes`."""
    modules = sorted((ROOT / "src" / "neurocost").glob("*.py"))
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(modules) > 10 and len(demos) == 6
    found = {}
    for path in modules + demos:
        if path.name == "graph.py" and path.parent.name == "neurocost":
            continue
        tree = ast.parse(path.read_text(), str(path))
        lines = _opnode_uses(tree, reexport=path.name == "__init__.py") + _graph_nodes_reads(tree)
        if lines:
            found[path.relative_to(ROOT).as_posix()] = sorted(lines)
    assert found == {}
