"""Neuron models, lowering rules, and resource counting."""

import math

import numpy as np
import pytest

from neurocost import (
    AssemblyMap,
    FanInExceedsRule,
    InconsistentAssembly,
    LoweringRule,
    NeuralGraph,
    NeuronSpec,
    NoRuleForOpKind,
    NonFiniteInput,
    OpNode,
    ComputeGraph,
    SynapseSpec,
    gen_random_dag,
    advance,
    count_resources,
    lower_graph,
    relay_rules,
    step_neuron,
    validate_graph,
)

from conftest import make_chain, make_footnote


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


# ------------------------------------------------------------ graph plumbing


def test_synapse_delay_validation():
    with pytest.raises(ValueError):
        SynapseSpec("a", "b", 1.0, delay=0)
    with pytest.raises(ValueError):
        SynapseSpec("a", "b", 1.0, delay=-1)
    with pytest.raises(ValueError):
        SynapseSpec("a", "b", 1.0, delay=1.5)


def _one_neuron(nid="n"):
    return (nid, NeuronSpec("lif", v_thresh=1.0), 0.0)


def test_neural_graph_validation():
    with pytest.raises(ValueError):
        NeuralGraph(neurons=(_one_neuron("x"), _one_neuron("x")), synapses=())
    with pytest.raises(ValueError):
        NeuralGraph(neurons=(_one_neuron("x"),),
                    synapses=(SynapseSpec("ghost", "x", 1.0),))
    with pytest.raises(ValueError):
        NeuralGraph(neurons=(_one_neuron("x"),),
                    synapses=(SynapseSpec("x", "ghost", 1.0),))
    with pytest.raises(ValueError):
        NeuralGraph(neurons=(_one_neuron("x"),), synapses=(),
                    input_neurons=("ghost",))


def test_self_loop_introspection():
    ng = NeuralGraph(
        neurons=(_one_neuron("x"), _one_neuron("y")),
        synapses=(SynapseSpec("x", "x", 0.5), SynapseSpec("x", "y", 0.5)),
    )
    assert [s.target for s in ng.self_loops] == ["x"]
    assert ng.neuron_ids == ("x", "y")


# ----------------------------------------------------------------- lowering


def test_lower_footnote_relay(footnote):
    ng, am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"}))
    assert len(ng.neurons) == 4
    assert len(ng.synapses) == 3
    assert ng.input_neurons == ("a#0", "b#0")
    assert ng.output_neurons == ("d#0",)
    r = count_resources(ng, am)
    assert (r.n_total, r.s_total) == (4, 3)
    assert r.n_bar == 1.0
    assert r.s_bar == 0.75


def test_lower_footnote_depth_two(footnote):
    ng, am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"},
                                               neuron_count=2))
    assert len(ng.neurons) == 8
    # One chain synapse per op plus one synapse per graph edge.
    assert len(ng.synapses) == 4 + 3
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

    cross_edges = {
        (owner(s.source), owner(s.target))
        for s in ng.synapses
        if owner(s.source) != owner(s.target)
    }
    want = {(ref, node.id) for node in footnote.nodes for ref in node.inputs}
    assert cross_edges == want
    # Internal chain edges always run k -> k+1 within one assembly.
    for s in ng.synapses:
        if owner(s.source) == owner(s.target):
            k_src = int(s.source.rsplit("#", 1)[1])
            k_dst = int(s.target.rsplit("#", 1)[1])
            assert k_dst == k_src + 1


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


def test_assembly_map_covers_network(footnote):
    ng, am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"},
                                               neuron_count=2))
    owned_neurons = set()
    owned_synapses = set()
    for nid, (members, syn_ids) in am.entries.items():
        assert not (members & owned_neurons), nid
        assert not (syn_ids & owned_synapses), nid
        owned_neurons |= members
        owned_synapses |= syn_ids
    assert owned_neurons == set(ng.neuron_ids)
    assert owned_synapses == set(range(len(ng.synapses)))
    assert all(count == 2 for count in am.per_op_neuron_count.values())


def test_chain_lowering_counts():
    vg = validate_graph(make_chain(6))
    ng, am = lower_graph(vg, relay_rules({"relay"}))
    r = count_resources(ng, am)
    assert (r.n_total, r.s_total) == (6, 5)
    assert (r.n_bar, r.s_bar) == (1.0, 5 / 6)


def test_count_resources_without_map():
    ng = NeuralGraph(
        neurons=(_one_neuron("x"), _one_neuron("y"), _one_neuron("z")),
        synapses=(SynapseSpec("x", "y", 1.0), SynapseSpec("y", "z", 1.0)),
    )
    r = count_resources(ng)
    assert (r.n_total, r.s_total) == (3, 2)
    assert r.n_bar == 1.0
    assert r.s_bar == pytest.approx(2 / 3)


def test_count_resources_inconsistent_map(footnote):
    ng, _am = lower_graph(footnote, relay_rules({"sub", "mul", "pow"}))
    bogus = AssemblyMap(
        entries={"a": (frozenset({"a#0"}), frozenset())},
        per_op_neuron_count={"a": 1},
    )
    with pytest.raises(InconsistentAssembly):
        count_resources(ng, bogus)


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
    kinds = {node.op_kind for node in vg.nodes}
    assert lower_graph(vg) == lower_graph(vg, relay_rules(kinds))
