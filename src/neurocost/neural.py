"""Neural intermediate representation: neuron models, synapses, lowering.

Neuron state advances in two pieces per step: an integration rule g that
folds the summed synaptic input into the membrane (with exponential decay
for the leaky integrator), and a transfer rule f that produces the output.
Firing comparisons are strict (x > v_thresh). A synapse delivers
w * y(t - d) to its target, d >= 1 steps after the source emitted y.

Lowering maps every operation node of a computational DAG to a small
assembly of neurons (a chain: first neuron is the entry, last the exit)
and every DAG edge to a synapse from the source's exit to the target's
entry. The AssemblyMap remembers which neurons and synapses each op owns,
so resource counts stay additive.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    FanInExceedsRule,
    InconsistentAssembly,
    NoRuleForOpKind,
    NonFiniteInput,
)
from .graph import ValidatedGraph

logger = logging.getLogger(__name__)

MODEL_KINDS = ("threshold_gate", "ann_relu", "ann_tanh", "lif")


@dataclass(frozen=True)
class NeuronSpec:
    """Parameters of one neuron model.

    v_reset, tau and dt only matter for model_kind "lif"; tau may be inf
    for a non-leaking integrator.
    """

    model_kind: str
    v_thresh: float = 0.0
    v_reset: float = 0.0
    tau: float = math.inf
    dt: float = 1.0

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.model_kind == "lif" and not self.v_reset < self.v_thresh:
            raise ValueError("lif requires v_reset < v_thresh")

    @cached_property
    def decay_factor(self) -> float:
        return math.exp(-self.dt / self.tau)


def advance(spec: NeuronSpec, x: np.ndarray, input_sum: np.ndarray):
    """Vectorized one-step update; returns (x_next, y) arrays.

    Single source of truth for the model semantics; step_neuron and the
    simulator both call through here.
    """
    kind = spec.model_kind
    if kind == "threshold_gate":
        x_next = input_sum.astype(float, copy=True)
        y = (x_next > spec.v_thresh).astype(float)
    elif kind == "ann_relu":
        x_next = input_sum.astype(float, copy=True)
        y = np.maximum(0.0, x_next)
    elif kind == "ann_tanh":
        x_next = input_sum.astype(float, copy=True)
        y = np.tanh(x_next)
    else:  # lif
        x_next = x * spec.decay_factor + input_sum
        fired = x_next > spec.v_thresh
        y = fired.astype(float)
        x_next = np.where(fired, spec.v_reset, x_next)
    return x_next, y


def step_neuron(spec: NeuronSpec, x: float, input_sum: float) -> tuple[float, float]:
    """Advance a single neuron one step; returns (x_next, y).

    Raises NonFiniteInput when x or input_sum is NaN or infinite.
    """
    if not (math.isfinite(x) and math.isfinite(input_sum)):
        raise NonFiniteInput(f"non-finite neuron input: x={x}, input_sum={input_sum}")
    x_next, y = advance(spec, np.asarray([x], dtype=float), np.asarray([input_sum], dtype=float))
    return float(x_next[0]), float(y[0])


@dataclass(frozen=True)
class SynapseSpec:
    source: str
    target: str
    weight: float
    delay: int = 1

    def __post_init__(self):
        if not isinstance(self.delay, int) or self.delay < 1:
            raise ValueError(f"synapse delay must be an integer >= 1, got {self.delay!r}")


@dataclass(frozen=True)
class NeuralGraph:
    """Spiking network: (id, spec, initial state) triples plus synapses."""

    neurons: tuple[tuple[str, NeuronSpec, float], ...]
    synapses: tuple[SynapseSpec, ...]
    input_neurons: tuple[str, ...] = ()
    output_neurons: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "neurons", tuple(self.neurons))
        object.__setattr__(self, "synapses", tuple(self.synapses))
        object.__setattr__(self, "input_neurons", tuple(self.input_neurons))
        object.__setattr__(self, "output_neurons", tuple(self.output_neurons))
        ids = set()
        for nid, _spec, _x0 in self.neurons:
            if nid in ids:
                raise ValueError(f"duplicate neuron id {nid!r}")
            ids.add(nid)
        for syn in self.synapses:
            if syn.source not in ids:
                raise ValueError(f"synapse source {syn.source!r} is not a neuron")
            if syn.target not in ids:
                raise ValueError(f"synapse target {syn.target!r} is not a neuron")
        for nid in self.input_neurons + self.output_neurons:
            if nid not in ids:
                raise ValueError(f"declared neuron {nid!r} does not exist")
        loops = self.self_loops
        if loops:
            logger.info("neural graph contains %d self-loop synapse(s)", len(loops))

    @property
    def self_loops(self) -> tuple[SynapseSpec, ...]:
        return tuple(s for s in self.synapses if s.source == s.target)

    @property
    def neuron_ids(self) -> tuple[str, ...]:
        return tuple(nid for nid, _s, _x in self.neurons)


_RELAY_NEURON = NeuronSpec("lif", v_thresh=1.0, v_reset=0.0)


@dataclass(frozen=True)
class LoweringRule:
    """How one op kind becomes a neuron assembly.

    neuron_count is the chain length (and therefore the assembly depth);
    input_weight is put on synapses arriving from upstream assemblies,
    chain_weight on the internal chain. Defaults make a spike relay:
    any single incoming spike crosses threshold.
    """

    neuron_count: int = 1
    neuron: NeuronSpec = _RELAY_NEURON
    input_weight: float = 1.5
    chain_weight: float = 1.5
    delay: int = 1
    max_fan_in: int | None = None

    def __post_init__(self):
        if self.neuron_count < 1:
            raise ValueError("neuron_count must be >= 1")


def relay_rules(op_kinds: Iterable[str], neuron_count: int = 1) -> dict[str, LoweringRule]:
    """One relay rule (of the given chain length) per op kind."""
    rule = LoweringRule(neuron_count=neuron_count)
    return {kind: rule for kind in op_kinds}


@dataclass(frozen=True)
class AssemblyMap:
    """op id -> (neuron ids, synapse indices) ownership, plus counts."""

    entries: Mapping[str, tuple[frozenset[str], frozenset[int]]]
    per_op_neuron_count: Mapping[str, int]


def lower_graph(vg: ValidatedGraph, rules: Mapping[str, LoweringRule] | None = None
                ) -> tuple[NeuralGraph, AssemblyMap]:
    """Lower a validated DAG into a spiking network.

    Without `rules`, every op kind in the graph lowers to the one-neuron
    relay, `relay_rules(kinds)`. Raises NoRuleForOpKind when an op kind has
    no rule and FanInExceedsRule when a node's arity exceeds the rule's
    max_fan_in.
    """
    if rules is None:
        rules = relay_rules({node.op_kind for node in vg.nodes})
    neurons: list[tuple[str, NeuronSpec, float]] = []
    synapses: list[SynapseSpec] = []
    entries: dict[str, tuple[frozenset[str], frozenset[int]]] = {}
    per_op: dict[str, int] = {}
    entry_neuron: dict[str, str] = {}
    exit_neuron: dict[str, str] = {}

    for nid in vg.topo_order:
        node = vg.node(nid)
        rule = rules.get(node.op_kind)
        if rule is None:
            raise NoRuleForOpKind(node.op_kind)
        if rule.max_fan_in is not None and len(node.inputs) > rule.max_fan_in:
            raise FanInExceedsRule(
                f"op {nid!r} has fan-in {len(node.inputs)}, rule allows {rule.max_fan_in}")

        member_ids = [f"{nid}#{k}" for k in range(rule.neuron_count)]
        for mid in member_ids:
            neurons.append((mid, rule.neuron, 0.0))
        entry_neuron[nid] = member_ids[0]
        exit_neuron[nid] = member_ids[-1]

        owned_synapses: list[int] = []
        for a, b in zip(member_ids, member_ids[1:]):
            owned_synapses.append(len(synapses))
            synapses.append(SynapseSpec(a, b, rule.chain_weight, rule.delay))
        for ref in node.inputs:
            owned_synapses.append(len(synapses))
            synapses.append(SynapseSpec(exit_neuron[ref], member_ids[0],
                                        rule.input_weight, rule.delay))

        entries[nid] = (frozenset(member_ids), frozenset(owned_synapses))
        per_op[nid] = rule.neuron_count

    ng = NeuralGraph(
        neurons=tuple(neurons),
        synapses=tuple(synapses),
        input_neurons=tuple(entry_neuron[nid] for nid in vg.declared_inputs),
        output_neurons=tuple(exit_neuron[nid] for nid in vg.declared_outputs),
    )
    return ng, AssemblyMap(entries=entries, per_op_neuron_count=per_op)


@dataclass(frozen=True)
class ResourceCount:
    n_total: int
    s_total: int
    n_bar: float
    s_bar: float


def count_resources(ng: NeuralGraph, am: AssemblyMap | None = None) -> ResourceCount:
    """Totals and per-op means of neurons and synapses.

    With an AssemblyMap the means are per lowered op and the map must
    cover the graph exactly (InconsistentAssembly otherwise). Without one,
    each neuron counts as its own unit.
    """
    n_total = len(ng.neurons)
    s_total = len(ng.synapses)
    if am is None:
        ops = n_total
    else:
        mapped_neurons: set[str] = set()
        mapped_synapses: set[int] = set()
        counted = 0
        for op_id, (nids, sids) in am.entries.items():
            if mapped_neurons & nids:
                raise InconsistentAssembly(f"neuron claimed by two ops near {op_id!r}")
            mapped_neurons |= nids
            mapped_synapses |= sids
            counted += am.per_op_neuron_count[op_id]
        if counted != n_total or mapped_neurons != set(ng.neuron_ids):
            raise InconsistentAssembly("assembly map neuron totals disagree with graph")
        if mapped_synapses != set(range(s_total)):
            raise InconsistentAssembly("assembly map synapse totals disagree with graph")
        ops = len(am.entries)
    return ResourceCount(
        n_total=n_total,
        s_total=s_total,
        n_bar=n_total / ops,
        s_bar=s_total / ops,
    )
