"""Neuron models, the columnar network IR, lowering rules, and resource counting."""

import hashlib
import math
import re

import numpy as np
import pytest

from neurocost import (
    AnalogEncoding,
    AssemblyMap,
    EmptyGraph,
    FanInExceedsRule,
    InconsistentAssembly,
    LoweringRule,
    MODEL_KINDS,
    NeuralGraph,
    NeuronSpec,
    NoRuleForOpKind,
    NonFiniteInput,
    NonFiniteState,
    OpNode,
    ComputeGraph,
    gen_random_dag,
    advance,
    count_resources,
    emit_neural_json,
    init_sim,
    lower_graph,
    relay_rules,
    step_neuron,
    step_sim,
    transfer,
    validate_graph,
)

from conftest import make_chain, make_footnote, network
from test_golden import (ENCODINGS, GOLDEN, RANDOM_SPECS, random_inputs, random_network,
                         trace_digest, _run as golden_run)


# -------------------------------------------------------------- neuron model


def test_neuron_spec_validation():
    with pytest.raises(ValueError):
        NeuronSpec("made_up_kind")
    with pytest.raises(ValueError):
        NeuronSpec("lif", v_thresh=1.0, tau=0.0)
    with pytest.raises(ValueError):
        NeuronSpec("lif", v_thresh=1.0, dt=0.0)
    with pytest.raises(ValueError):
        NeuronSpec("lif", v_thresh=1.0, v_reset=1.0)  # reset must sit below


def test_decay_factor():
    assert NeuronSpec("lif", v_thresh=1.0, tau=math.inf).decay_factor == 1.0
    spec = NeuronSpec("lif", v_thresh=1.0, tau=3.0, dt=1.0)
    assert spec.decay_factor == pytest.approx(math.exp(-1.0 / 3.0), abs=0)


def test_decay_factor_is_computed_once():
    spec = NeuronSpec("lif", v_thresh=1.0, tau=3.0, dt=1.0)
    assert spec.decay_factor is spec.decay_factor
    assert spec == NeuronSpec("lif", v_thresh=1.0, tau=3.0, dt=1.0)
    assert hash(spec) == hash(NeuronSpec("lif", v_thresh=1.0, tau=3.0, dt=1.0))


def _oracle_step(spec: NeuronSpec, x: float, u: float) -> tuple[float, float]:
    """Independent transfer-table implementation of the four models."""
    if spec.model_kind == "threshold_gate":
        xn = u
        return xn, 1.0 if xn > spec.v_thresh else 0.0
    if spec.model_kind == "ann_relu":
        return u, max(0.0, u)
    if spec.model_kind == "ann_tanh":
        return u, math.tanh(u)
    xn = x * math.exp(-spec.dt / spec.tau) + u
    if xn > spec.v_thresh:
        return spec.v_reset, 1.0
    return xn, 0.0


def test_step_neuron_matches_transfer_table():
    rng = np.random.default_rng(42)
    specs = [
        NeuronSpec("threshold_gate", v_thresh=0.5),
        NeuronSpec("ann_relu"),
        NeuronSpec("ann_tanh"),
        NeuronSpec("lif", v_thresh=1.0, v_reset=0.0, tau=math.inf),
        NeuronSpec("lif", v_thresh=0.3, v_reset=0.1, tau=2.5),
    ]
    for _ in range(1000):
        spec = specs[int(rng.integers(len(specs)))]
        x = float(rng.normal(scale=2.0))
        u = float(rng.normal(scale=2.0))
        got_x, got_y = step_neuron(spec, x, u)
        want_x, want_y = _oracle_step(spec, x, u)
        assert got_x == pytest.approx(want_x, abs=1e-12)
        assert got_y == pytest.approx(want_y, abs=1e-12)


def test_step_neuron_rejects_non_finite():
    spec = NeuronSpec("lif", v_thresh=1.0)
    with pytest.raises(NonFiniteInput):
        step_neuron(spec, math.nan, 0.0)
    with pytest.raises(NonFiniteInput):
        step_neuron(spec, 0.0, math.inf)


def test_advance_matches_scalar_loop():
    spec = NeuronSpec("lif", v_thresh=0.5, v_reset=-0.1, tau=4.0)
    rng = np.random.default_rng(7)
    x = rng.normal(size=64)
    u = rng.normal(size=64)
    xn, y = advance(spec, x, u)
    for i in range(64):
        sx, sy = step_neuron(spec, float(x[i]), float(u[i]))
        assert xn[i] == pytest.approx(sx, abs=1e-12)
        assert y[i] == sy


def test_lif_decay_trajectory():
    spec = NeuronSpec("lif", v_thresh=10.0, tau=3.0, dt=1.0)
    x = 0.8
    for t in range(1, 8):
        x, y = step_neuron(spec, x, 0.0)
        assert y == 0.0
        assert x == pytest.approx(0.8 * math.exp(-t / 3.0), rel=1e-12)


def test_firing_threshold_is_strict():
    lif = NeuronSpec("lif", v_thresh=1.0)
    assert step_neuron(lif, 0.0, 1.0) == (1.0, 0.0)     # exactly at threshold
    _, y = step_neuron(lif, 0.0, 1.0 + 1e-9)
    assert y == 1.0
    gate = NeuronSpec("threshold_gate", v_thresh=0.5)
    assert step_neuron(gate, 0.0, 0.5)[1] == 0.0
    assert step_neuron(gate, 0.0, 0.6)[1] == 1.0


def test_lif_reset_value():
    spec = NeuronSpec("lif", v_thresh=1.0, v_reset=0.25)
    xn, y = step_neuron(spec, 0.9, 0.9)
    assert (xn, y) == (0.25, 1.0)


def test_kind_properties():
    assert NeuronSpec("threshold_gate").memoryless and not NeuronSpec("threshold_gate").leaky
    assert NeuronSpec("ann_relu").memoryless and NeuronSpec("ann_tanh").memoryless
    assert not NeuronSpec("lif", v_thresh=1.0).memoryless
    assert not NeuronSpec("lif", v_thresh=1.0).leaky                 # tau = inf
    assert NeuronSpec("lif", v_thresh=1.0, tau=3.0).leaky
    assert not NeuronSpec("lif", v_thresh=1.0, tau=1e300).leaky      # exp(-1e-300) == 1.0


def test_spiking_kinds():
    assert NeuronSpec("threshold_gate").spiking
    assert NeuronSpec("lif", v_thresh=1.0).spiking
    assert not NeuronSpec("ann_relu").spiking
    assert not NeuronSpec("ann_tanh").spiking


@pytest.mark.parametrize("field", ["v_thresh", "v_reset", "dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["threshold_gate", "lif"])
def test_neuron_spec_rejects_non_finite_parameters(kind, field, value):
    params = {"v_thresh": 1.0, "v_reset": 0.0, "dt": 1.0, field: value}
    with pytest.raises(ValueError, match=field):
        NeuronSpec(kind, **params)


EDGE_SPECS = [
    NeuronSpec("threshold_gate", v_thresh=0.3),
    NeuronSpec("threshold_gate", v_thresh=-0.5),
    NeuronSpec("threshold_gate"),
    NeuronSpec("ann_relu"),
    NeuronSpec("ann_tanh"),
    NeuronSpec("lif", v_thresh=1.0),
    NeuronSpec("lif", v_thresh=0.3, v_reset=0.1, tau=2.5),
    NeuronSpec("lif", v_thresh=-0.5, v_reset=-1.0, tau=7.0),
]


def _edge_values(spec: NeuronSpec) -> np.ndarray:
    th = spec.v_thresh
    return np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, th,
                     math.nextafter(th, math.inf), math.nextafter(th, -math.inf),
                     1.0, -1.0, 1e300, -1e300])


def _spec_id(spec: NeuronSpec) -> str:
    return f"{spec.model_kind}-{spec.v_thresh}-{spec.tau}"


@pytest.mark.parametrize("spec", EDGE_SPECS, ids=_spec_id)
def test_advance_output_is_transfer_of_the_pre_reset_state(spec):
    rng = np.random.default_rng(11)
    edges = _edge_values(spec)
    x, u = (a.ravel() for a in np.meshgrid(edges, edges))
    x = np.concatenate((x, rng.normal(scale=2.0, size=500)))
    u = np.concatenate((u, rng.normal(scale=2.0, size=500)))
    pre = u.copy() if spec.memoryless else x * spec.decay_factor + u
    x_next, y = advance(spec, x, u)
    assert y.tobytes() == transfer(spec, pre).tobytes()
    kept = np.ones(len(y), dtype=bool) if spec.memoryless else y == 0.0
    assert x_next[kept].tobytes() == pre[kept].tobytes()
    assert np.all(x_next[~kept] == spec.v_reset)


def _armed_rule(spec: NeuronSpec, x0: float) -> bool:
    """The per-kind armed test the engine used before `transfer`."""
    if spec.model_kind in ("threshold_gate", "lif"):
        return x0 > spec.v_thresh
    if spec.model_kind == "ann_relu":
        return x0 > 0.0
    return x0 != 0.0  # ann_tanh


@pytest.mark.parametrize("spec", [
    NeuronSpec("threshold_gate", v_thresh=0.3),
    NeuronSpec("threshold_gate", v_thresh=-0.5),
    NeuronSpec("ann_relu"),
    NeuronSpec("ann_tanh"),
    NeuronSpec("lif", v_thresh=0.3, tau=4.0),
], ids=_spec_id)
def test_armed_set_and_first_output_follow_the_transfer_rule(spec):
    th = spec.v_thresh
    x0 = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, th, math.nextafter(th, math.inf),
          math.nextafter(th, -math.inf), 1.0, -1.0]
    ng = network([(f"n{k}", spec, v) for k, v in enumerate(x0)], [])
    state = init_sim(ng, AnalogEncoding(), seed=0)
    assert state.armed[0].tolist() == [k for k, v in enumerate(x0) if _armed_rule(spec, v)]
    step_sim(state)
    if spec.memoryless:  # an unfed armed neuron keeps its state and emits f(x0)
        want = np.where([_armed_rule(spec, v) for v in x0], transfer(spec, np.array(x0)), 0.0)
        assert state.last_y.tobytes() == want.tobytes()
        assert state.x.tobytes() == np.array(x0).tobytes()


# ------------------------------------------------------------ graph plumbing


_RELAY = NeuronSpec("lif", v_thresh=1.0)
_AB = (("a", _RELAY, 0.0), ("b", _RELAY, 0.0))


def test_synapse_delay_validation():
    for delay in (0, -1):
        with pytest.raises(ValueError, match=f"delay of synapse 'a' -> 'b' must be an integer "
                                             f">= 1, got {delay}"):
            network(_AB, [("a", "b", 1.0, delay)])
    for delay in (1.5, np.float64(2.0)):
        with pytest.raises(ValueError, match="delay must hold integers, got dtype float64"):
            network(_AB, [("a", "b", 1.0, delay)])
    ng = network(_AB, [("a", "b", 1.0, np.int64(2))])
    assert ng.delay.dtype == np.int64 and ng.delay.tolist() == [2]


def _one_neuron(nid="n"):
    return (nid, NeuronSpec("lif", v_thresh=1.0), 0.0)


def test_neural_graph_validation():
    with pytest.raises(ValueError):
        network((_one_neuron("x"), _one_neuron("x")), ())
    with pytest.raises(ValueError):
        network((_one_neuron("x"),), (("ghost", "x", 1.0),))
    with pytest.raises(ValueError):
        network((_one_neuron("x"),), (("x", "ghost", 1.0),))
    with pytest.raises(ValueError):
        network((_one_neuron("x"),), (), input_neurons=("ghost",))


def test_self_loop_introspection():
    ng = network((_one_neuron("x"), _one_neuron("y")), (("x", "x", 0.5), ("x", "y", 0.5)))
    assert [target for _source, target, _w, _d in _self_loops(ng)] == ["x"]
    assert ng.neuron_ids == ("x", "y")


# ----------------------------------------------------------------- lowering


def test_lower_footnote_relay(footnote):
    ng, am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"}))
    assert len(ng.neuron_ids) == 4
    assert len(ng.source) == 3
    assert ng.input_neurons == ("a#0", "b#0")
    assert ng.output_neurons == ("d#0",)
    r = count_resources(ng, am)
    assert (r.n_total, r.s_total) == (4, 3)
    assert r.n_bar == 1.0
    assert r.s_bar == 0.75


def test_neural_graph_repr_counts_neurons_and_synapses(footnote):
    ng, _am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"}))
    assert repr(ng) == "NeuralGraph(4 neurons, 3 synapses)"


@pytest.mark.parametrize("other", [None, 0, "a", ()])
def test_assembly_map_is_unequal_to_a_non_map_and_unhashable(footnote, other):
    _ng, am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"}))
    assert am.__eq__(other) is NotImplemented
    assert (am == other) is False and (other == am) is False and am != other
    with pytest.raises(TypeError, match="unhashable"):
        hash(am)


def test_lower_footnote_depth_two(footnote):
    ng, am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"},
                                               neuron_count=2))
    assert len(ng.neuron_ids) == 8
    # One chain synapse per op plus one synapse per graph edge.
    assert len(ng.source) == 4 + 3
    assert ng.input_neurons == ("a#0", "b#0")
    assert ng.output_neurons == ("d#1",)
    r = count_resources(ng, am)
    assert r.n_bar == 2.0
    assert r.s_bar == 7 / 4


def test_lowering_preserves_graph_shape(footnote):
    """Contracting each assembly back to its op recovers the original edges."""
    rules = relay_rules({"sub", "mul", "pow"}, neuron_count=3)
    ng, _am = lower_graph(footnote, rules)

    def owner(neuron_id: str) -> str:
        return neuron_id.rsplit("#", 1)[0]

    ids = ng.neuron_ids
    pairs = [(ids[a], ids[b]) for a, b in zip(ng.source.tolist(), ng.target.tolist())]
    cross_edges = {(owner(a), owner(b)) for a, b in pairs if owner(a) != owner(b)}
    want = {(ref, nid) for nid, refs in zip(footnote.graph.ids, footnote.graph.inputs)
            for ref in refs}
    assert cross_edges == want
    # Internal chain edges always run k -> k+1 within one assembly.
    for a, b in pairs:
        if owner(a) == owner(b):
            assert int(b.rsplit("#", 1)[1]) == int(a.rsplit("#", 1)[1]) + 1


def test_lower_missing_rule(footnote):
    with pytest.raises(NoRuleForOpKind) as exc:
        lower_graph(footnote, relay_rules({"sub", "mul"}))
    assert exc.value.op_kind == "pow"


def test_lower_fan_in_cap(footnote):
    rules = dict(relay_rules({"sub", "mul", "pow"}))
    rules["mul"] = LoweringRule(max_fan_in=1)
    with pytest.raises(FanInExceedsRule):
        lower_graph(footnote, rules)


def test_lowering_rule_validation():
    with pytest.raises(ValueError):
        LoweringRule(neuron_count=0)
    for bad in ("lif", None, (NeuronSpec("lif", v_thresh=1.0),)):
        with pytest.raises(ValueError, match="neuron must be a NeuronSpec"):
            LoweringRule(neuron=bad)


@pytest.mark.parametrize("field, bad", [("delay", True), ("delay", 0), ("delay", 2.0),
                                        ("neuron_count", True), ("neuron_count", 2.0),
                                        ("max_fan_in", -1), ("max_fan_in", 1.5),
                                        ("max_fan_in", "2"), ("max_fan_in", True),
                                        ("max_fan_in", False), ("delay", np.True_),
                                        ("neuron_count", np.float64(3.0))])
def test_lowering_rule_rejects_bool_and_non_int(field, bad):
    # A max_fan_in of -1 used to build and reject every node, 1.5 to cap at 1,
    # and "2" to fail inside lower_graph with numpy's UFuncTypeError.
    what, least = {"delay": ("synapse delay", 1), "max_fan_in": ("max_fan_in", 0)}.get(
        field, (field, 1))
    with pytest.raises(ValueError,
                       match=re.escape(f"{what} must be an integer >= {least}, got {bad!r}")):
        LoweringRule(**{field: bad})
    if field == "max_fan_in":
        assert LoweringRule(max_fan_in=0).max_fan_in == 0
        assert LoweringRule(max_fan_in=None).max_fan_in is None


def test_lowering_rule_keeps_numpy_counts_as_ints():
    rule = LoweringRule(neuron_count=np.int64(2), delay=np.int32(3), max_fan_in=np.int64(0))
    counts = (rule.neuron_count, rule.delay, rule.max_fan_in)
    assert counts == (2, 3, 0) and all(type(c) is int for c in counts)


@pytest.mark.parametrize("bad", [True, False, math.nan, math.inf, "x", None])
@pytest.mark.parametrize("field", ["input_weight", "chain_weight"])
def test_lowering_rule_rejects_bool_numbers(field, bad):
    # A bool used to build; "x" and None used to build too, and lowering
    # read them only when some synapse carried the field.
    with pytest.raises(ValueError,
                       match=re.escape(f"{field} must be a finite number, got {bad!r}")):
        LoweringRule(**{field: bad})


@pytest.mark.parametrize("bad", [True, False])
@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("field", ["v_thresh", "v_reset", "tau", "dt"])
def test_neuron_spec_rejects_bool_numbers(field, kind, bad):
    with pytest.raises(ValueError, match=f"{field} must be a number, got {bad!r}"):
        NeuronSpec(kind, **{field: bad})


def test_bool_delay_beside_an_int_delay_is_rejected():
    # s(src) -> t(sink) -> u(src): the sink's bool delay used to lower as 1
    # once the src rule's int delay set the column's dtype.
    vg = validate_graph(ComputeGraph((OpNode("s", "src"), OpNode("t", "sink", ("s",)),
                                      OpNode("u", "src", ("t",)))))
    ng, _am = lower_graph(vg, {"src": LoweringRule(delay=2), "sink": LoweringRule(delay=3)})
    assert ng.delay.tolist() == [3, 2]
    with pytest.raises(ValueError, match="synapse delay must be an integer >= 1, got True"):
        lower_graph(vg, {"src": LoweringRule(delay=2), "sink": LoweringRule(delay=True)})


def test_assembly_map_covers_network(footnote):
    ng, am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"},
                                               neuron_count=2))
    owned_neurons = set()
    owned_synapses = set()
    entries, per_op = _assembly_views(am)
    for nid, (members, syn_ids) in entries.items():
        assert not (members & owned_neurons), nid
        assert not (syn_ids & owned_synapses), nid
        owned_neurons |= members
        owned_synapses |= syn_ids
    assert owned_neurons == set(ng.neuron_ids)
    assert owned_synapses == set(range(len(ng.source)))
    assert all(count == 2 for count in per_op.values())


def test_chain_lowering_counts():
    vg = validate_graph(make_chain(6))
    ng, am = lower_graph(vg, relay_rules({"relay"}))
    r = count_resources(ng, am)
    assert (r.n_total, r.s_total) == (6, 5)
    assert (r.n_bar, r.s_bar) == (1.0, 5 / 6)


def test_count_resources_without_map():
    ng = network((_one_neuron("x"), _one_neuron("y"), _one_neuron("z")),
                 (("x", "y", 1.0), ("y", "z", 1.0)))
    r = count_resources(ng)
    assert (r.n_total, r.s_total) == (3, 2)
    assert r.n_bar == 1.0
    assert r.s_bar == pytest.approx(2 / 3)


@pytest.mark.parametrize("am", [None, AssemblyMap((), (), [0], [0])], ids=["no_map", "empty_map"])
def test_count_resources_rejects_an_empty_network(am):
    # Both used to raise ZeroDivisionError.
    with pytest.raises(EmptyGraph, match="network has no neurons"):
        count_resources(NeuralGraph((), (), [], [], [], [], [], []), am)


def test_count_resources_inconsistent_map(footnote):
    ng, _am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"}))
    # op "a" owns neuron a#0 and no synapse; the other ops are missing
    bogus = AssemblyMap(("a",), ("a#0",), neuron_start=[0, 1], synapse_start=[0, 0])
    with pytest.raises(InconsistentAssembly):
        count_resources(ng, bogus)


_OPS = ("a", "b", "c", "d")


@pytest.mark.parametrize("op_ids, neuron_start, synapse_start, match", [
    (_OPS, [0, 1, 2, 3], [0, 0, 0, 2, 3], "one entry per op"),
    (_OPS, [1, 2, 3, 4, 4], [0, 0, 0, 2, 3], "start at 0"),
    (_OPS, [0, 1, 2, 3, 4], [1, 1, 1, 2, 3], "start at 0"),
    (_OPS, [0, 1, 1, 3, 4], [0, 0, 0, 2, 3], "owns no neuron"),
    (_OPS, [0, 1, 2, 3, 4], [0, 0, 2, 1, 3], "synapse offsets decrease"),
    (_OPS, [0, 1, 2, 3, 5], [0, 0, 0, 2, 3], "totals disagree"),
    (_OPS, [0, 1, 2, 3, 4], [0, 0, 0, 2, 4], "totals disagree"),
    (("a", "b", "a", "d"), [0, 1, 2, 3, 4], [0, 0, 0, 2, 3], "names an op twice"),
], ids=["length", "neuron_start", "synapse_start", "empty_op", "synapses_decrease",
        "neuron_end", "synapse_end", "repeated_op"])
def test_count_resources_rejects_inconsistent_offsets(footnote, op_ids, neuron_start,
                                                      synapse_start, match):
    ng, am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"}))
    assert (am.neuron_start.tolist(), am.synapse_start.tolist()) == (
        [0, 1, 2, 3, 4], [0, 0, 0, 2, 3])
    bogus = AssemblyMap(op_ids, ng.neuron_ids, neuron_start, synapse_start)
    with pytest.raises(InconsistentAssembly, match=match):
        count_resources(ng, bogus)


def test_count_resources_rejects_other_neuron_ids(footnote):
    ng, am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"}))
    renamed = AssemblyMap(am.op_ids, tuple(n + "'" for n in ng.neuron_ids),
                          am.neuron_start, am.synapse_start)
    with pytest.raises(InconsistentAssembly, match="totals disagree"):
        count_resources(ng, renamed)


def test_assembly_map_views(footnote):
    ng, am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"}, neuron_count=2))
    assert am.op_ids == footnote.topo_order
    entries, per_op = _assembly_views(am)
    assert entries["c"] == (frozenset({"c#0", "c#1"}), frozenset({2, 3, 4}))
    assert list(per_op.items()) == [(op, 2) for op in am.op_ids]
    with pytest.raises(ValueError):
        am.neuron_start[0] = 1
    # Each op's neurons are one run, so a per-neuron quantity sums per op in one call.
    assert np.add.reduceat(np.arange(8), am.neuron_start[:-1]).tolist() == [1, 5, 9, 13]


def test_relay_rules_share_one_rule():
    rules = relay_rules({"f", "g"}, neuron_count=4)
    assert set(rules) == {"f", "g"}
    assert rules["f"] is rules["g"]
    assert rules["f"].neuron_count == 4


@pytest.mark.parametrize("make", [make_footnote,
                                  lambda: gen_random_dag(40, 0.1, ("add", "mul", "relay"), 7)],
                         ids=["footnote", "random_dag"])
def test_default_rules_are_relay_rules(make):
    vg = validate_graph(make())
    kinds = set(vg.graph.op_kinds)
    assert lower_graph(vg) == lower_graph(vg, relay_rules(kinds))


# ------------------------------------------------------------ columnar IR

class TestConstructionErrors:
    def test_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate neuron id 'a'"):
            network(_AB + (("a", _RELAY, 1.0),), [])

    @pytest.mark.parametrize("role, syn", [("source", ("ghost", "a", 1.0, 1)),
                                           ("target", ("a", "ghost", 1.0, 1))])
    def test_unknown_endpoint(self, role, syn):
        # the builder turns the unknown id into position len(neurons) = 2
        with pytest.raises(ValueError, match=f"synapse 0 {role} index 2 is not a neuron"):
            network(_AB, [syn])

    @pytest.mark.parametrize("delay", [0, -3])
    def test_delay_below_one(self, delay):
        with pytest.raises(ValueError, match=f"delay of synapse 'a' -> 'b' must be an integer "
                                             f">= 1, got {delay}"):
            network(_AB, [("a", "b", 1.0, 1), ("a", "b", 1.0, delay)])

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_names_the_synapse(self, weight):
        # a NaN weight used to surface at run time as a diverged state of 'b'
        with pytest.raises(ValueError, match=f"synapse 'a' -> 'b' has non-finite weight {weight}"):
            network(_AB, [("a", "b", weight, 1)])

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_state_names_the_neuron(self, x0):
        # init_sim used to be the one that checked
        with pytest.raises(NonFiniteState, match="initial state of 'b' is not finite"):
            network((("a", _RELAY, 0.0), ("b", _RELAY, x0), ("c", _RELAY, x0)), [])

    def test_bool_delay(self):
        with pytest.raises(ValueError, match="delay must hold integers, got dtype bool"):
            network(_AB, [("a", "b", 1.0, True)])

    def test_undeclared_io(self):
        with pytest.raises(ValueError, match="declared neuron 'ghost' does not exist"):
            network(_AB, [], output_neurons=("ghost",))


def test_empty_columns_make_an_empty_graph():
    # A network without neurons used to build and fail later, in init_sim
    # or count_resources; the emptiness check now comes before the others.
    for specs in ((), (_RELAY,)):
        with pytest.raises(EmptyGraph, match="network has no neurons"):
            NeuralGraph((), specs, [], [], [], [], [], [])


def test_float_delay_column_is_rejected():
    with pytest.raises(ValueError, match="delay must hold integers"):
        NeuralGraph(("a",), (_RELAY,), [0], [0.0], [0], [0], [1.0], [1.5])


def test_spec_index_of_the_wrong_length_is_rejected():
    with pytest.raises(ValueError, match=r"spec_index has shape \(1,\), expected \(2,\)"):
        NeuralGraph(("a", "b"), (_RELAY,), [0], [0.0, 0.0], [], [], [], [])


@pytest.mark.parametrize("specs, spec_index", [
    ((_RELAY, NeuronSpec("ann_relu")), [1, 0]),   # not in order of first use
    ((_RELAY, _RELAY), [0, 1]),                   # not distinct
    ((_RELAY, NeuronSpec("ann_relu")), [0, 0]),   # an unused spec
    ((_RELAY,), [0, 1]),                          # out of range
    ((_RELAY, NeuronSpec("ann_relu")), [0, -1]),  # negative
    ((), [0, 0]),                                 # no table at all
])
def test_spec_table_must_be_canonical(specs, spec_index):
    with pytest.raises(ValueError, match="spec_index must use every spec"):
        NeuralGraph(("a", "b"), specs, spec_index, [0.0, 0.0], [], [], [], [])


def test_column_graph_is_immutable():
    ng = network(_AB, (("a", "b", 1.0),))
    with pytest.raises(AttributeError):
        ng.weight = np.zeros(1)
    with pytest.raises(ValueError):
        ng.weight[0] = 2.0
    assert ng.weight.tolist() == [1.0]


def test_self_loops_read_the_columns(caplog):
    with caplog.at_level("INFO", logger="neurocost.neural"):
        ng = NeuralGraph(("x", "y"), (_RELAY,), [0, 0], [0.0, 0.0],
                         [0, 0, 1], [0, 1, 1], [0.5, 0.5, 2.0], [1, 1, 3])
    assert "2 self-loop synapse(s)" in caplog.text
    assert _self_loops(ng) == (("x", "x", 0.5, 1), ("y", "y", 2.0, 3))


def _self_loops(ng):
    """Reference: (source, target, weight, delay) of each synapse whose
    source is its target, in order."""
    ids = ng.neuron_ids
    return tuple((ids[ng.source[k]], ids[ng.target[k]], float(ng.weight[k]), int(ng.delay[k]))
                 for k in np.flatnonzero(ng.source == ng.target).tolist())


def _assembly_views(am):
    """Reference views of an AssemblyMap's ranges, in op order: op id ->
    (neuron ids, synapse indices), and op id -> neuron count."""
    ns, ss = am.neuron_start.tolist(), am.synapse_start.tolist()
    entries = {op: (frozenset(am.neuron_ids[ns[k]:ns[k + 1]]), frozenset(range(ss[k], ss[k + 1])))
               for k, op in enumerate(am.op_ids)}
    return entries, {op: ns[k + 1] - ns[k] for k, op in enumerate(am.op_ids)}


def _tuple_lowering(vg, rules=None):
    """Reference: the per-synapse lowering that preceded the columnar
    one, building (id, spec, x0) and synapse tuples."""
    if rules is None:
        rules = relay_rules(set(vg.graph.op_kinds))
    neurons, synapses, entries, per_op, entry, exit_ = [], [], {}, {}, {}, {}
    for nid in vg.topo_order:
        node = vg.graph.nodes[vg.index[nid]]
        rule = rules[node.op_kind]
        members = [f"{nid}#{k}" for k in range(rule.neuron_count)]
        neurons += [(mid, rule.neuron, 0.0) for mid in members]
        entry[nid], exit_[nid] = members[0], members[-1]
        owned = []
        for a, b in zip(members, members[1:]):
            owned.append(len(synapses))
            synapses.append((a, b, rule.chain_weight, rule.delay))
        for ref in node.inputs:
            owned.append(len(synapses))
            synapses.append((exit_[ref], members[0], rule.input_weight, rule.delay))
        entries[nid] = (frozenset(members), frozenset(owned))
        per_op[nid] = rule.neuron_count
    ng = network(neurons, synapses, tuple(entry[n] for n in vg.graph.declared_inputs),
                 tuple(exit_[n] for n in vg.graph.declared_outputs))
    return ng, entries, per_op


_MIXED_RULES = {
    "sub": LoweringRule(neuron_count=2, chain_weight=1.25, delay=2),
    "mul": LoweringRule(neuron=NeuronSpec("threshold_gate", v_thresh=0.5), input_weight=0.75),
    "pow": LoweringRule(neuron_count=3),
    "add": LoweringRule(),
    "relay": LoweringRule(neuron=NeuronSpec("ann_relu"), delay=3),
}


@pytest.mark.parametrize("make", [make_footnote,
                                  lambda: gen_random_dag(40, 0.1, ("add", "mul", "relay"), 7),
                                  lambda: gen_random_dag(80, 0.05, ("add", "mul", "sub"), 2)],
                         ids=["footnote", "random_dag_40", "random_dag_80"])
@pytest.mark.parametrize("rules", [None, _MIXED_RULES], ids=["relay", "mixed"])
def test_columnar_lowering_equals_tuple_lowering(make, rules):
    vg = validate_graph(make())
    ng, am = lower_graph(vg, rules)
    want, want_entries, want_per_op = _tuple_lowering(vg, rules)
    assert ng == want
    assert (ng.input_neurons, ng.output_neurons) == (want.input_neurons, want.output_neurons)
    assert _assembly_views(am) == (want_entries, want_per_op)


# SHA-256 of emit_neural_json output, recorded with the per-synapse IR that
# preceded the columnar one.
EMIT_DIGESTS = {
    "footnote": "b30625df90ab0fa2ee5d66459444a53494278a66139af37fe99ad8b6f99dabf2",
    "random_dag": "244de51e700ea835be0a10b1947920bb84b0166f7fd6cbb9bfe242ceb77e3be6",
}


@pytest.mark.parametrize("name, make", [
    ("footnote", make_footnote),
    ("random_dag", lambda: gen_random_dag(60, 0.1, ("add", "mul", "relay"), 3)),
])
def test_emit_neural_json_is_byte_identical(name, make):
    ng, _ = lower_graph(validate_graph(make()))
    text = emit_neural_json(ng)
    assert hashlib.sha256(text.encode()).hexdigest() == EMIT_DIGESTS[name]


def _random_network_columns(seed: int) -> NeuralGraph:
    """The golden random network of test_golden, drawn from the same
    generator but built as columns."""
    rng = np.random.default_rng(seed)
    n, n_syn = 30, 100
    rows, x0 = [], []
    for _ in range(n):
        rows.append(int(rng.integers(len(RANDOM_SPECS))))
        x0.append(float(rng.uniform(-0.5, 1.5)) if rng.random() < 0.35 else 0.0)
    src = rng.integers(0, n, size=n_syn)
    tgt = rng.integers(0, n, size=n_syn)
    weight = rng.uniform(-1.0, 1.2, size=n_syn)
    zero = rng.random(n_syn) < 0.1
    weight[zero] = np.where(rng.random(n_syn) < 0.5, 0.0, -0.0)[zero]
    delay = rng.integers(1, 5, size=n_syn)
    used = list(dict.fromkeys(rows))
    return NeuralGraph(
        [f"u{i}" for i in range(n)], [RANDOM_SPECS[r] for r in used],
        [used.index(r) for r in rows], x0, src, tgt, weight, delay,
        input_neurons=("u0", "u1", "u2", "u3"), output_neurons=("u4", "u5", "u6"))


@pytest.mark.parametrize("seed", range(4))
def test_golden_random_networks_equal_as_columns(seed):
    ng, want = _random_network_columns(seed), random_network(seed)
    assert ng == want
    # the sign of each zero weight survives the columns
    assert [math.copysign(1, w) for w in ng.weight.tolist()] == [
        math.copysign(1, w) for w in want.weight.tolist()]
    assert hash(ng) == hash(want) and {ng, want} == {want}
    for encoding in ENCODINGS:
        tr, state = golden_run(ng, ENCODINGS[encoding], 40, inputs=random_inputs(seed, 40))
        assert trace_digest(tr, state) == GOLDEN[f"random_s{seed}_{encoding}"]


@pytest.mark.parametrize("other", [None, 0, "u0", (), make_footnote()])
def test_neural_graph_is_unequal_to_a_non_network(other):
    ng = _random_network_columns(0)
    assert ng.__eq__(other) is NotImplemented
    assert (ng == other) is False and (other == ng) is False and ng != other
