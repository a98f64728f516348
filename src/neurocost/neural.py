"""Neural intermediate representation: neuron models, synapses, lowering.

Neuron state advances in two pieces per step: the integration rule g
folds the summed synaptic input u into the state x, and the transfer rule
f turns the new state into the output y ([c] is 1.0 if c holds, else 0.0):

    threshold_gate  g(x, u) = u                      f(x) = [x > v_thresh]
    ann_relu        g(x, u) = u                      f(x) = max(0, x)
    ann_tanh        g(x, u) = u                      f(x) = tanh(x)
    lif             g(x, u) = x * exp(-dt/tau) + u,  f(x) = [x > v_thresh],
                    then x = v_reset where f fired

The gate and ann kinds are `memoryless`: their state is their last input.
The gate and lif kinds are `spiking`: every nonzero output is exactly 1.0.
A lif is `leaky` when exp(-dt/tau) != 1; tau = inf never leaks. f is
`transfer` and one step, g then f, is `advance`. A synapse delivers
w * y(t - d) to its target, d >= 1 steps after the source emitted y.

A NeuralGraph is columns: neuron ids, a table of distinct NeuronSpecs with
one index per neuron, initial states, and synapse source/target index,
weight and delay arrays. Its one constructor takes the columns, which
generators and lowering fill directly. (A ComputeGraph still offers its
OpNode form beside its columns, because the benchmark's cases build graphs
from OpNodes and its checks read `graph.nodes`.)

Lowering maps every operation node of a computational DAG to a small
assembly of neurons (a chain: first neuron is the entry, last the exit)
and every DAG edge to a synapse from the source's exit to the target's
entry. Ops are lowered in topological order, so each op owns one
contiguous run of neurons and one of synapses: the AssemblyMap stores
them as two offset arrays (ranges), so resource counts stay additive and
a per-neuron quantity sums per op in one np.add.reduceat.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    EmptyGraph,
    FanInExceedsRule,
    InconsistentAssembly,
    NoRuleForOpKind,
    NonFiniteInput,
    NonFiniteState,
    check_count,
)
from .graph import ValidatedGraph

logger = logging.getLogger(__name__)

MODEL_KINDS = ("threshold_gate", "ann_relu", "ann_tanh", "lif")


@dataclass(frozen=True)
class NeuronSpec:
    """Parameters of one neuron model; v_reset, tau and dt matter only for lif.

    v_thresh, v_reset and dt must be finite; tau may be inf (no leak).
    """

    model_kind: str
    v_thresh: float = 0.0
    v_reset: float = 0.0
    tau: float = math.inf
    dt: float = 1.0

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        for name in ("v_thresh", "v_reset", "tau", "dt"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        for name in ("v_thresh", "v_reset", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.model_kind == "lif" and not self.v_reset < self.v_thresh:
            raise ValueError("lif requires v_reset < v_thresh")

    @cached_property
    def decay_factor(self) -> float:
        return math.exp(-self.dt / self.tau)

    @cached_property  # numpy compares with and assigns a 0-d array faster than a Python float
    def thresh_reset(self) -> tuple[np.ndarray, np.ndarray]:
        """v_thresh and v_reset as read-only 0-d float arrays."""
        pair = np.array([self.v_thresh, self.v_reset], dtype=float)
        pair.flags.writeable = False
        return pair[0, ...], pair[1, ...]

    @cached_property  # advance reads it on every step
    def memoryless(self) -> bool:
        """Gate and ann kinds: the state is the last input."""
        return self.model_kind != "lif"

    @property
    def spiking(self) -> bool:
        """Gate and lif: every nonzero output is exactly 1.0."""
        return self.model_kind in ("threshold_gate", "lif")

    @property
    def leaky(self) -> bool:
        """A lif whose state decays between steps."""
        return self.model_kind == "lif" and self.decay_factor != 1.0


def transfer(spec: NeuronSpec, x: np.ndarray) -> np.ndarray:
    """The output rule f of `spec`'s kind, elementwise over states x."""
    if spec.model_kind == "ann_relu":
        return np.maximum(0.0, x)
    if spec.model_kind == "ann_tanh":
        return np.tanh(x)
    return (x > spec.thresh_reset[0]).astype(float)  # threshold_gate, lif


def advance(spec: NeuronSpec, x: np.ndarray, input_sum: np.ndarray):
    """Vectorized one-step update; returns (x_next, y) arrays.

    Single source of truth for the model semantics; step_neuron and the
    simulator both call through here. For a memoryless kind x_next is
    `input_sum` itself when that is a float array. An integrator compares
    with and resets to the 0-d arrays of `spec.thresh_reset`, converted once.
    """
    if spec.memoryless:
        x_next = np.asarray(input_sum, dtype=float)
        return x_next, transfer(spec, x_next)
    # x * 1.0 is x bit for bit, so a non-leaking integrator skips it.
    x_next = (x if spec.decay_factor == 1.0 else x * spec.decay_factor) + input_sum
    # y is transfer(spec, x_next) before the reset; its mask also drives the reset.
    thresh, reset = spec.thresh_reset
    fired = x_next > thresh
    y = fired.astype(float)
    x_next[fired] = reset
    return x_next, y


def step_neuron(spec: NeuronSpec, x: float, input_sum: float) -> tuple[float, float]:
    """Advance a single neuron one step; returns (x_next, y).

    Raises NonFiniteInput when x or input_sum is NaN or infinite.
    """
    if not (math.isfinite(x) and math.isfinite(input_sum)):
        raise NonFiniteInput(f"non-finite neuron input: x={x}, input_sum={input_sum}")
    x_next, y = advance(spec, np.asarray([x], dtype=float), np.asarray([input_sum], dtype=float))
    return float(x_next[0]), float(y[0])


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
    indices, `weight` (float) and `delay` (int64). The constructor takes
    these columns; an array that needs no conversion is kept, not copied,
    and made read-only. `specs` must list distinct specs in order of first
    use. It needs a neuron (EmptyGraph) and finite x0 (NonFiniteState).
    `index` maps each id to its position.
    """

    def __init__(self, neuron_ids: Iterable[str], specs: Iterable[NeuronSpec], spec_index, x0,
                 source, target, weight, delay, input_neurons: Iterable[str] = (),
                 output_neurons: Iterable[str] = ()):
        ids, specs = tuple(neuron_ids), tuple(specs)
        if not ids:
            raise EmptyGraph("network has no neurons")
        n, m = len(ids), len(source)
        cols = dict(spec_index=_int_column("spec_index", spec_index, n),
                    x0=np.asarray(x0, dtype=float).reshape(n),
                    source=_int_column("source", source, m),
                    target=_int_column("target", target, m),
                    weight=np.asarray(weight, dtype=float).reshape(m),
                    delay=_int_column("delay", delay, m).astype(np.int64, copy=False))
        for col in cols.values():
            col.flags.writeable = False
        self.__dict__.update(cols, neuron_ids=ids, specs=specs,
                             input_neurons=tuple(input_neurons),
                             output_neurons=tuple(output_neurons))
        known = set(ids)
        if len(known) != n:
            dup = next(nid for k, nid in enumerate(ids) if self.index[nid] != k)
            raise ValueError(f"duplicate neuron id {dup!r}")
        row = self.spec_index
        top = np.maximum.accumulate(np.concatenate(([-1], row)))  # highest row so far
        if (len(set(specs)) != len(specs) or top[-1] != len(specs) - 1
                or np.any(row < 0) or np.any(row > top[:-1] + 1)):
            raise ValueError("spec_index must use every spec of a distinct `specs` "
                             "in order of first use")
        if (k := _first(~np.isfinite(self.x0))) is not None:
            raise NonFiniteState(f"initial state of {ids[k]!r} is not finite")
        src, tgt = self.source, self.target
        if (k := _first((src < 0) | (src >= n) | (tgt < 0) | (tgt >= n))) is not None:
            role, v = ("source", src[k]) if not 0 <= src[k] < n else ("target", tgt[k])
            raise ValueError(f"synapse {k} {role} index {v} is not a neuron")
        if (k := _first(~np.isfinite(self.weight))) is not None:
            raise ValueError(f"synapse {self._name(k)} has non-finite weight {self.weight[k]}")
        if (k := _first(self.delay < 1)) is not None:
            raise ValueError(f"delay of synapse {self._name(k)} must be an integer >= 1, "
                             f"got {self.delay[k]}")
        for nid in self.input_neurons + self.output_neurons:
            if nid not in known:
                raise ValueError(f"declared neuron {nid!r} does not exist")
        if loops := int(np.count_nonzero(src == tgt)):
            logger.info("neural graph contains %d self-loop synapse(s)", loops)

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


_RELAY_NEURON = NeuronSpec("lif", v_thresh=1.0, v_reset=0.0)


@dataclass(frozen=True)
class LoweringRule:
    """How one op kind becomes a neuron assembly.

    neuron_count is the chain length (and therefore the assembly depth);
    input_weight is put on synapses arriving from upstream assemblies,
    chain_weight on the internal chain. Defaults make a spike relay:
    any single incoming spike crosses threshold. max_fan_in, when set,
    caps the inputs of each op of the kind (0 allows sources only). Every
    field is checked here, at construction, whether a synapse uses it or not.
    """

    neuron_count: int = 1
    neuron: NeuronSpec = _RELAY_NEURON
    input_weight: float = 1.5
    chain_weight: float = 1.5
    delay: int = 1
    max_fan_in: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "neuron_count", check_count("neuron_count", self.neuron_count))
        object.__setattr__(self, "delay", check_count("synapse delay", self.delay))
        if self.max_fan_in is not None:
            object.__setattr__(self, "max_fan_in", check_count("max_fan_in", self.max_fan_in, 0))
        for name in ("input_weight", "chain_weight"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                               and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.neuron, NeuronSpec):
            raise ValueError(f"neuron must be a NeuronSpec, got {self.neuron!r}")


def relay_rules(op_kinds: Iterable[str], neuron_count: int = 1) -> dict[str, LoweringRule]:
    """One relay rule (of the given chain length) per op kind."""
    rule = LoweringRule(neuron_count=neuron_count)
    return {kind: rule for kind in op_kinds}


@dataclass(frozen=True, eq=False)
class AssemblyMap:
    """Which neurons and synapses each lowered op owns, as ranges.

    Op k of `op_ids` (topological order) owns neurons
    `neuron_start[k]:neuron_start[k + 1]`, whose ids are in `neuron_ids`,
    and synapses `synapse_start[k]:synapse_start[k + 1]`. Both offset
    arrays have len(op_ids) + 1 entries and are read-only. A per-neuron
    quantity sums per op as `np.add.reduceat(x, neuron_start[:-1])`.
    """

    op_ids: tuple[str, ...]
    neuron_ids: tuple[str, ...]
    neuron_start: np.ndarray
    synapse_start: np.ndarray

    def __post_init__(self):
        for name in ("neuron_start", "synapse_start"):
            arr = np.array(getattr(self, name), dtype=np.intp)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "op_ids", tuple(self.op_ids))
        object.__setattr__(self, "neuron_ids", tuple(self.neuron_ids))

    def __eq__(self, other):
        if not isinstance(other, AssemblyMap):
            return NotImplemented
        return (self.op_ids == other.op_ids and self.neuron_ids == other.neuron_ids
                and np.array_equal(self.neuron_start, other.neuron_start)
                and np.array_equal(self.synapse_start, other.synapse_start))

    __hash__ = None


def lower_graph(vg: ValidatedGraph, rules: Mapping[str, LoweringRule] | None = None
                ) -> tuple[NeuralGraph, AssemblyMap]:
    """Lower a validated DAG into a spiking network.

    Ops are lowered in topological order. Op k's neurons are ids
    "<op id>#0" to "<op id>#<count - 1>"; its synapses are its chain
    links, then one from each input's exit neuron, in input order.
    Without `rules`, every op kind in the graph lowers to the one-neuron
    relay, `relay_rules(kinds)`. Raises NoRuleForOpKind when an op kind has
    no rule and FanInExceedsRule when a node's arity exceeds the rule's
    max_fan_in, for the first such node in topological order.
    """
    op_kinds, order = vg.graph.op_kinds, vg.order
    if rules is None:
        rules = relay_rules(set(op_kinds))
    kinds: dict[str, int] = {}  # op kind -> code, in order of first use
    kind = np.array([kinds.setdefault(op_kinds[i], len(kinds)) for i in order.tolist()],
                    dtype=np.intp)
    used = [rules.get(k) for k in kinds]
    fan_in = np.diff(vg.pred_start)[order]
    # A missing rule allows no fan-in, not even 0, so it is flagged too.
    cap = np.array([-1 if r is None else math.inf if r.max_fan_in is None else r.max_fan_in
                    for r in used])
    if (k := _first(fan_in > cap[kind])) is not None:
        rule = used[kind[k]]
        if rule is None:
            raise NoRuleForOpKind(op_kinds[order[k]])
        raise FanInExceedsRule(f"op {vg.topo_order[k]!r} has fan-in {int(fan_in[k])}, "
                               f"rule allows {rule.max_fan_in}")

    table: dict[NeuronSpec, int] = {}
    row = np.array([table.setdefault(r.neuron, len(table)) for r in used], dtype=np.intp)
    count = np.array([r.neuron_count for r in used], np.intp)[kind]
    neuron_start = np.zeros(len(order) + 1, np.intp)
    np.cumsum(count, out=neuron_start[1:])
    exit_of = np.empty(len(order), np.intp)  # by node position
    exit_of[order] = neuron_start[1:] - 1
    suffix = [f"#{j}" for j in range(int(count.max()))]
    ids = [nid + s for nid, c in zip(vg.topo_order, count.tolist()) for s in suffix[:c]]

    # Op k owns count[k] - 1 chain links, then fan_in[k] input synapses.
    links = count - 1
    synapse_start = np.zeros(len(order) + 1, np.intp)
    np.cumsum(links + fan_in, out=synapse_start[1:])
    op_of = np.repeat(np.arange(len(order)), links + fan_in)
    chain = np.arange(len(op_of)) - synapse_start[op_of] < links[op_of]
    # Every neuron but an op's exit links to the next one.
    is_exit = np.zeros(neuron_start[-1], bool)
    is_exit[neuron_start[1:] - 1] = True
    link_src = np.flatnonzero(~is_exit)
    # Input positions regrouped from declaration order into topological order.
    first = vg.pred_start[order]
    in_at = np.repeat(first - (np.cumsum(fan_in) - fan_in), fan_in) + np.arange(fan_in.sum())
    source = np.empty(len(op_of), np.intp)
    target = np.empty(len(op_of), np.intp)
    weight = np.empty(len(op_of))
    syn_kind = kind[op_of]
    source[chain], target[chain] = link_src, link_src + 1
    weight[chain] = np.array([r.chain_weight for r in used], float)[syn_kind[chain]]
    source[~chain] = exit_of[vg.pred_pos[in_at]]
    target[~chain] = np.repeat(neuron_start[:-1], fan_in)
    weight[~chain] = np.array([r.input_weight for r in used], float)[syn_kind[~chain]]
    delay = np.array([r.delay for r in used], np.int64)[syn_kind]

    ng = NeuralGraph(
        ids, table, np.repeat(row[kind], count), np.zeros(len(ids)), source, target, weight,
        delay, input_neurons=(f"{nid}#0" for nid in vg.graph.declared_inputs),
        output_neurons=(ids[exit_of[vg.index[nid]]] for nid in vg.graph.declared_outputs))
    am = AssemblyMap(vg.topo_order, ng.neuron_ids, neuron_start, synapse_start)
    return ng, am


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
    each neuron counts as its own unit; a NeuralGraph is never empty.
    """
    n_total = len(ng.neuron_ids)
    s_total = len(ng.source)
    if am is None:
        ops = n_total
    else:
        ops = len(am.op_ids)
        ns, ss = am.neuron_start, am.synapse_start
        if ns.shape != (ops + 1,) or ss.shape != (ops + 1,):
            raise InconsistentAssembly("assembly map offsets must have one entry per op plus one")
        if ns[0] != 0 or ss[0] != 0:
            raise InconsistentAssembly("assembly map offsets must start at 0")
        if np.any(np.diff(ns) < 1):
            raise InconsistentAssembly("assembly map has an op that owns no neuron")
        if np.any(np.diff(ss) < 0):
            raise InconsistentAssembly("assembly map synapse offsets decrease")
        if ns[-1] != n_total or ss[-1] != s_total or am.neuron_ids != ng.neuron_ids:
            raise InconsistentAssembly("assembly map totals disagree with graph")
        if len(set(am.op_ids)) != ops:
            raise InconsistentAssembly("assembly map names an op twice")
    return ResourceCount(
        n_total=n_total,
        s_total=s_total,
        n_bar=n_total / ops,
        s_bar=s_total / ops,
    )
