"""Neural intermediate representation: neuron models, synapses, lowering.

Neuron state advances in two pieces per step: an integration rule g that
folds the summed synaptic input into the membrane (with exponential decay
for the leaky integrator), and a transfer rule f that produces the output.
Firing comparisons are strict (x > v_thresh). A synapse delivers
w * y(t - d) to its target, d >= 1 steps after the source emitted y.

A NeuralGraph is columns: neuron ids, a table of distinct NeuronSpecs with
one index per neuron, initial states, and synapse source/target index,
weight and delay arrays. Generators and lowering fill the columns
directly; the (id, spec, x0) and SynapseSpec tuples are built lazily.

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
        if isinstance(self.delay, bool) or not isinstance(self.delay, int) or self.delay < 1:
            raise ValueError(f"synapse delay must be an integer >= 1, got {self.delay!r} "
                             f"on {self.source!r} -> {self.target!r}")


def _int_column(name: str, values, length: int) -> np.ndarray:
    """`values` as an intp array of shape (length,); bool is not an integer."""
    arr = np.asarray(values)
    if arr.shape != (length,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({length},)")
    if arr.size and (arr.dtype == bool or not np.issubdtype(arr.dtype, np.integer)):
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    return arr.astype(np.intp, copy=False)


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


class NeuralGraph:
    """Spiking network stored as columns, validated with array operations.

    Neurons: `neuron_ids` (str tuple), `specs` (the distinct NeuronSpecs in
    order of first appearance), `spec_index` (each neuron's row of `specs`)
    and `x0`. Synapses, in declaration order: `source` and `target` neuron
    indices, `weight` (float) and `delay` (int64). Arrays are read-only;
    `index` maps each id to its position.
    Build from (id, spec, x0) triples and SynapseSpecs, or with
    `from_columns`; both give `==` graphs for one network. `neurons` and
    `synapses` are those tuples, built on first access only.
    """

    def __init__(self, neurons: Iterable[tuple[str, NeuronSpec, float]],
                 synapses: Iterable[SynapseSpec],
                 input_neurons: Iterable[str] = (), output_neurons: Iterable[str] = ()):
        neurons, synapses = tuple(neurons), tuple(synapses)
        ids = tuple(nid for nid, _spec, _x0 in neurons)
        known = _id_set(ids)
        for syn in synapses:
            for role, nid in (("source", syn.source), ("target", syn.target)):
                if nid not in known:
                    raise ValueError(f"synapse {role} {nid!r} is not a neuron")
        index = dict(zip(ids, range(len(ids))))
        table: dict[NeuronSpec, int] = {}
        spec_index = [table.setdefault(spec, len(table)) for _nid, spec, _x0 in neurons]
        columns = NeuralGraph.from_columns(
            ids, table, spec_index, [x0 for _n, _s, x0 in neurons],
            [index[syn.source] for syn in synapses], [index[syn.target] for syn in synapses],
            [syn.weight for syn in synapses], [syn.delay for syn in synapses],
            input_neurons, output_neurons)
        self.__dict__.update(columns.__dict__, neurons=neurons, synapses=synapses, index=index)

    @classmethod
    def from_columns(cls, neuron_ids: Iterable[str], specs: Iterable[NeuronSpec], spec_index,
                     x0, source, target, weight, delay, input_neurons: Iterable[str] = (),
                     output_neurons: Iterable[str] = ()) -> NeuralGraph:
        """Build from columns. An array that needs no conversion is kept,
        not copied, and made read-only. `specs` must list distinct specs in
        order of first use."""
        ids, specs = tuple(neuron_ids), tuple(specs)
        n, m = len(ids), len(source)
        cols = dict(spec_index=_int_column("spec_index", spec_index, n),
                    x0=np.asarray(x0, dtype=float).reshape(n),
                    source=_int_column("source", source, m),
                    target=_int_column("target", target, m),
                    weight=np.asarray(weight, dtype=float).reshape(m),
                    delay=_int_column("delay", delay, m).astype(np.int64, copy=False))
        for col in cols.values():
            col.flags.writeable = False
        known = _id_set(ids)
        ng = cls.__new__(cls)
        ng.__dict__.update(cols, neuron_ids=ids, specs=specs,
                           input_neurons=tuple(input_neurons),
                           output_neurons=tuple(output_neurons))
        row = ng.spec_index
        top = np.maximum.accumulate(np.concatenate(([-1], row)))  # highest row so far
        if (len(set(specs)) != len(specs) or top[-1] != len(specs) - 1
                or np.any(row < 0) or np.any(row > top[:-1] + 1)):
            raise ValueError("spec_index must use every spec of a distinct `specs` "
                             "in order of first use")
        src, tgt = ng.source, ng.target
        if (k := _first((src < 0) | (src >= n) | (tgt < 0) | (tgt >= n))) is not None:
            role, v = ("source", src[k]) if not 0 <= src[k] < n else ("target", tgt[k])
            raise ValueError(f"synapse {k} {role} index {v} is not a neuron")
        if (k := _first(~np.isfinite(ng.weight))) is not None:
            raise ValueError(f"synapse {ng._name(k)} has non-finite weight {ng.weight[k]}")
        if (k := _first(ng.delay < 1)) is not None:
            raise ValueError(f"synapse delay must be an integer >= 1, got {ng.delay[k]} "
                             f"on {ng._name(k)}")
        for nid in ng.input_neurons + ng.output_neurons:
            if nid not in known:
                raise ValueError(f"declared neuron {nid!r} does not exist")
        if loops := int(np.count_nonzero(src == tgt)):
            logger.info("neural graph contains %d self-loop synapse(s)", loops)
        return ng

    @cached_property
    def index(self) -> dict[str, int]:
        return dict(zip(self.neuron_ids, range(len(self.neuron_ids))))

    def _name(self, k: int) -> str:
        return f"{self.neuron_ids[self.source[k]]!r} -> {self.neuron_ids[self.target[k]]!r}"

    def __setattr__(self, name, value):
        raise AttributeError(f"NeuralGraph is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, NeuralGraph):
            return NotImplemented
        return (self.neuron_ids == other.neuron_ids and self.specs == other.specs
                and self.input_neurons == other.input_neurons
                and self.output_neurons == other.output_neurons
                and all(np.array_equal(getattr(self, c), getattr(other, c))
                        for c in ("spec_index", "x0", "source", "target", "weight", "delay")))

    def __hash__(self):
        return hash((self.neuron_ids, self.input_neurons, self.output_neurons))

    def __repr__(self):
        return f"NeuralGraph({len(self.neuron_ids)} neurons, {len(self.source)} synapses)"

    @cached_property
    def neurons(self) -> tuple[tuple[str, NeuronSpec, float], ...]:
        specs = [self.specs[g] for g in self.spec_index.tolist()]
        return tuple(zip(self.neuron_ids, specs, self.x0.tolist()))

    @cached_property
    def synapses(self) -> tuple[SynapseSpec, ...]:
        return self._synapse_specs(range(len(self.source)))

    @property
    def self_loops(self) -> tuple[SynapseSpec, ...]:
        return self._synapse_specs(np.flatnonzero(self.source == self.target).tolist())

    def _synapse_specs(self, positions: Iterable[int]) -> tuple[SynapseSpec, ...]:
        ids, src, tgt = self.neuron_ids, self.source.tolist(), self.target.tolist()
        weight, delay = self.weight.tolist(), self.delay.tolist()
        return tuple(SynapseSpec(ids[src[k]], ids[tgt[k]], weight[k], delay[k])
                     for k in positions)


def _id_set(ids: tuple[str, ...]) -> set[str]:
    """The ids as a set; ValueError naming the first id that repeats."""
    known = set(ids)
    if len(known) != len(ids):
        last = dict(zip(ids, range(len(ids))))
        dup = next(nid for k, nid in enumerate(ids) if last[nid] != k)
        raise ValueError(f"duplicate neuron id {dup!r}")
    return known


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
    ids: list[str] = []
    table: dict[NeuronSpec, int] = {}
    row_of_kind: dict[str, int] = {}  # op kind -> its rule's row in `table`
    spec_index: list[int] = []
    source: list[int] = []
    target: list[int] = []
    weight: list[float] = []
    delay: list[int] = []
    entries: dict[str, tuple[frozenset[str], frozenset[int]]] = {}
    per_op: dict[str, int] = {}
    exit_neuron: dict[str, int] = {}

    for nid in vg.topo_order:
        node = vg.node(nid)
        rule = rules.get(node.op_kind)
        if rule is None:
            raise NoRuleForOpKind(node.op_kind)
        if rule.max_fan_in is not None and len(node.inputs) > rule.max_fan_in:
            raise FanInExceedsRule(
                f"op {nid!r} has fan-in {len(node.inputs)}, rule allows {rule.max_fan_in}")

        if node.op_kind not in row_of_kind:
            row_of_kind[node.op_kind] = table.setdefault(rule.neuron, len(table))
        first, count, fan_in = len(ids), rule.neuron_count, len(node.inputs)
        member_ids = [f"{nid}#{k}" for k in range(count)]
        ids += member_ids
        spec_index += [row_of_kind[node.op_kind]] * count
        exit_neuron[nid] = first + count - 1

        # Chain links first, then one synapse from each input's exit neuron.
        owned_from = len(source)
        source += range(first, first + count - 1)
        source += [exit_neuron[ref] for ref in node.inputs]
        target += range(first + 1, first + count)
        target += [first] * fan_in
        weight += [rule.chain_weight] * (count - 1) + [rule.input_weight] * fan_in
        delay += [rule.delay] * (count - 1 + fan_in)

        entries[nid] = (frozenset(member_ids), frozenset(range(owned_from, len(source))))
        per_op[nid] = count

    ng = NeuralGraph.from_columns(
        ids, table, spec_index, np.zeros(len(ids)), source, target, weight, delay,
        input_neurons=(f"{nid}#0" for nid in vg.declared_inputs),
        output_neurons=(ids[exit_neuron[nid]] for nid in vg.declared_outputs),
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
    n_total = len(ng.neuron_ids)
    s_total = len(ng.source)
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
