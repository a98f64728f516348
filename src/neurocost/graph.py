"""Computational DAGs with work/span metrics and greedy list scheduling.

A computation is a DAG of operation nodes. Two numbers summarize its cost
structure: t1, the total node count (work, the serial step count), and
t_inf, the number of nodes on a longest path (span, the depth no amount of
parallel hardware can beat). Level widths refine the picture: level i holds
the nodes whose longest-path distance from a source is i, and the widths
sum back to t1.

The scheduler here is the classic greedy level-by-level list schedule: each
level of width m is executed in ceil(m / p) steps on p processors. Its
makespan always lands inside the work/span sandwich

    max(t_inf, ceil(t1 / p)) <= t_p <= ceil(t1 / p) + t_inf

and is non-increasing in p.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .errors import (
    CycleDetected,
    DanglingReference,
    DuplicateNodeId,
    EmptyGraph,
    GraphError,
    StitchingMismatch,
)


def _freeze(seq) -> tuple:
    return tuple(seq) if not isinstance(seq, tuple) else seq


@dataclass(frozen=True)
class OpNode:
    """One operation: an id, an op kind, and the ids it consumes."""

    id: str
    op_kind: str
    inputs: tuple[str, ...] = ()
    payload: Any = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", _freeze(self.inputs))


@dataclass(frozen=True)
class ComputeGraph:
    """Raw node list plus declared graph inputs and outputs (node ids)."""

    nodes: tuple[OpNode, ...]
    declared_inputs: tuple[str, ...] = ()
    declared_outputs: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", _freeze(self.nodes))
        object.__setattr__(self, "declared_inputs", _freeze(self.declared_inputs))
        object.__setattr__(self, "declared_outputs", _freeze(self.declared_outputs))


class ValidatedGraph:
    """A ComputeGraph proven acyclic, with a topological order and adjacency.

    Construct via validate_graph(); the constructor trusts its arguments.
    """

    def __init__(self, graph: ComputeGraph, topo_order: tuple[str, ...],
                 successors: Mapping[str, tuple[str, ...]]):
        self.graph = graph
        self.topo_order = topo_order
        self._by_id = {n.id: n for n in graph.nodes}
        self._successors = dict(successors)

    @property
    def nodes(self) -> tuple[OpNode, ...]:
        return self.graph.nodes

    @property
    def declared_inputs(self) -> tuple[str, ...]:
        return self.graph.declared_inputs

    @property
    def declared_outputs(self) -> tuple[str, ...]:
        return self.graph.declared_outputs

    def node(self, node_id: str) -> OpNode:
        return self._by_id[node_id]

    def predecessors(self, node_id: str) -> tuple[str, ...]:
        return self._by_id[node_id].inputs

    def successors(self, node_id: str) -> tuple[str, ...]:
        return self._successors.get(node_id, ())

    def __len__(self) -> int:
        return len(self.graph.nodes)

    def __iter__(self):
        return iter(self.graph.nodes)


def validate_graph(raw: ComputeGraph) -> ValidatedGraph:
    """Check structure and return the graph with a topological order.

    Raises EmptyGraph for zero nodes, DuplicateNodeId on repeated ids,
    DanglingReference when an input or declared id is unknown, and
    CycleDetected (naming one node on a cycle) when no topological order
    exists. Declared inputs must have zero in-edges.
    """
    if not raw.nodes:
        raise EmptyGraph("graph has no nodes")

    by_id: dict[str, OpNode] = {}
    for node in raw.nodes:
        if node.id in by_id:
            raise DuplicateNodeId(node.id)
        by_id[node.id] = node

    successors: dict[str, list[str]] = {n.id: [] for n in raw.nodes}
    indegree: dict[str, int] = {n.id: 0 for n in raw.nodes}
    for node in raw.nodes:
        for ref in node.inputs:
            if ref == node.id:
                raise CycleDetected(node.id)
            if ref not in by_id:
                raise DanglingReference(ref)
            successors[ref].append(node.id)
            indegree[node.id] += 1

    for declared in raw.declared_inputs:
        if declared not in by_id:
            raise DanglingReference(declared)
        if by_id[declared].inputs:
            raise GraphError(f"declared input {declared!r} has in-edges")
    for declared in raw.declared_outputs:
        if declared not in by_id:
            raise DanglingReference(declared)

    # Kahn's algorithm; FIFO over declaration order keeps the result stable.
    order: list[str] = []
    ready = deque(n.id for n in raw.nodes if indegree[n.id] == 0)
    remaining = dict(indegree)
    while ready:
        current = ready.popleft()
        order.append(current)
        for succ in successors[current]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                ready.append(succ)
    if len(order) < len(raw.nodes):
        stuck = min(nid for nid, deg in remaining.items() if deg > 0)
        raise CycleDetected(stuck)

    return ValidatedGraph(raw, tuple(order), {k: tuple(v) for k, v in successors.items()})


@dataclass(frozen=True)
class GraphMetrics:
    """Work/span summary: t1 = node count, t_inf = nodes on a longest path."""

    t1: int
    t_inf: int
    level_widths: tuple[int, ...]
    max_fan_in: int
    max_fan_out: int


def node_levels(vg: ValidatedGraph) -> dict[str, int]:
    """Longest-path distance from sources, per node id."""
    level: dict[str, int] = {}
    for nid in vg.topo_order:
        node = vg.node(nid)
        level[nid] = 0 if not node.inputs else 1 + max(level[p] for p in node.inputs)
    return level


def compute_metrics(vg: ValidatedGraph) -> GraphMetrics:
    """Work, depth and level widths from `node_levels`, plus fan extremes."""
    level = node_levels(vg)
    depth = max(level.values()) + 1
    widths = [0] * depth
    for nid in vg.topo_order:
        widths[level[nid]] += 1

    max_fan_in = max(len(vg.node(nid).inputs) for nid in vg.topo_order)
    max_fan_out = max(len(vg.successors(nid)) for nid in vg.topo_order)
    return GraphMetrics(
        t1=len(vg),
        t_inf=depth,
        level_widths=tuple(widths),
        max_fan_in=max_fan_in,
        max_fan_out=max_fan_out,
    )


@dataclass(frozen=True)
class ScheduleResult:
    """Makespan t_p and node -> (processor, step) assignment."""

    t_p: int
    p: int
    assignment: Mapping[str, tuple[int, int]]


def list_schedule(vg: ValidatedGraph, p: int) -> ScheduleResult:
    """Greedy level-by-level schedule on p identical processors.

    Level widths m give t_p = sum(ceil(m / p)); every node runs strictly
    after all of its inputs because levels are scheduled in order.
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"processor count must be a positive integer, got {p!r}")

    levels = node_levels(vg)
    by_level: dict[int, list[str]] = {}
    for nid in vg.topo_order:
        by_level.setdefault(levels[nid], []).append(nid)

    assignment: dict[str, tuple[int, int]] = {}
    step = 0
    for lvl in sorted(by_level):
        members = by_level[lvl]
        for offset, nid in enumerate(members):
            assignment[nid] = (offset % p, step + offset // p)
        step += math.ceil(len(members) / p)

    return ScheduleResult(t_p=step, p=p, assignment=assignment)


CouplingRule = Mapping[int, Sequence[int]] | Callable[[int], Sequence[int]]


def expand_template(template: ComputeGraph, spatial_copies: int, temporal_copies: int,
                    stitching: CouplingRule) -> ComputeGraph:
    """Tile a template graph spatially and temporally.

    Each copy (s, t) carries the template's nodes under renamed ids. For
    t > 0, declared input i of a copy receives one edge from declared
    output (i mod n_out) of neighboring copy (neighbors[i mod n_nbr], t-1),
    where neighbors come from the stitching rule (a mapping or callable
    from spatial index to neighbor indices). Declared inputs of the whole
    expansion are the layer-0 inputs; declared outputs are the last
    layer's outputs.

    Raises StitchingMismatch when a neighbor index falls outside
    [0, spatial_copies).
    """
    if spatial_copies < 1 or temporal_copies < 1:
        raise ValueError("spatial_copies and temporal_copies must be >= 1")
    tvg = validate_graph(template)

    def neighbors_of(s: int) -> tuple[int, ...]:
        nbrs = stitching(s) if callable(stitching) else stitching.get(s, ())
        nbrs = tuple(nbrs)
        for nb in nbrs:
            if not (0 <= nb < spatial_copies):
                raise StitchingMismatch(
                    f"copy {s} references neighbor {nb}, outside 0..{spatial_copies - 1}")
        return nbrs

    def rename(nid: str, s: int, t: int) -> str:
        return f"{nid}~s{s}t{t}"

    out_ids = tvg.declared_outputs
    nodes: list[OpNode] = []
    for t in range(temporal_copies):
        for s in range(spatial_copies):
            nbrs = neighbors_of(s) if t > 0 else ()
            for node in tvg.nodes:
                inputs = [rename(ref, s, t) for ref in node.inputs]
                if t > 0 and node.id in tvg.declared_inputs and nbrs and out_ids:
                    ix = tvg.declared_inputs.index(node.id)
                    src_copy = nbrs[ix % len(nbrs)]
                    src_out = out_ids[ix % len(out_ids)]
                    inputs = [rename(src_out, src_copy, t - 1)]
                nodes.append(OpNode(rename(node.id, s, t), node.op_kind,
                                    tuple(inputs), node.payload))

    declared_inputs = tuple(rename(nid, s, 0)
                            for s in range(spatial_copies) for nid in tvg.declared_inputs)
    last = temporal_copies - 1
    declared_outputs = tuple(rename(nid, s, last)
                             for s in range(spatial_copies) for nid in tvg.declared_outputs)
    return ComputeGraph(tuple(nodes), declared_inputs, declared_outputs)


def ring_coupling(spatial_copies: int) -> dict[int, tuple[int, ...]]:
    """Nearest-neighbor ring: each copy couples to its two ring neighbors."""
    if spatial_copies == 1:
        return {0: ()}
    return {s: ((s - 1) % spatial_copies, (s + 1) % spatial_copies)
            for s in range(spatial_copies)}
