"""Computational DAGs with work/span metrics and greedy list scheduling.

A computation is a DAG of operation nodes. Two numbers summarize its cost
structure: t1, the total node count (work, the serial step count), and
t_inf, the number of nodes on a longest path (span, the depth no amount of
parallel hardware can beat). Level widths refine the picture: level i holds
the nodes whose longest-path distance from a source is i, and the widths
sum back to t1.

A ComputeGraph is columns, like a NeuralGraph: ids, op kinds and one
tuple of input ids per node, in declaration order. Parsing, the
generators, template expansion and the corpus fill them directly. The
OpNode form (`OpNode`, `ComputeGraph(nodes)` and the `nodes` tuple,
built when first read) is kept for the benchmark only.

Validation maps ids to integer positions once and keeps two CSRs over
them: each node's inputs and each node's consumers. One FIFO Kahn pass
over the consumers (Kahn 1962) gives both the topological order and the
levels: FIFO emits nodes in non-decreasing level, so the input that
releases a node has its highest level. Metrics, the schedule and the
partitioner all read these stored levels.

The scheduler here is the classic greedy level-by-level list schedule: each
level of width m is executed in ceil(m / p) steps on p processors. Its
makespan always lands inside the work/span sandwich

    max(t_inf, ceil(t1 / p)) <= t_p <= ceil(t1 / p) + t_inf

and is non-increasing in p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    CycleDetected,
    DanglingReference,
    DuplicateNodeId,
    EmptyGraph,
    GraphError,
    StitchingMismatch,
    check_count,
)


@dataclass(frozen=True)
class OpNode:
    """One operation: an id, an op kind, and the ids it consumes."""

    id: str
    op_kind: str
    inputs: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))


class ComputeGraph:
    """Operation nodes as columns, plus declared graph inputs and outputs.

    Node i has id `ids[i]`, op kind `op_kinds[i]` and the input ids
    `inputs[i]` (a tuple). Build from OpNodes or with `from_columns`; both
    give `==` graphs with equal hashes for the same nodes. `nodes`, the
    OpNode tuple, is built on first access only.
    """

    def __init__(self, nodes: Iterable[OpNode], declared_inputs: Iterable[str] = (),
                 declared_outputs: Iterable[str] = ()):
        nodes = tuple(nodes)
        columns = ComputeGraph.from_columns(
            [node.id for node in nodes], [node.op_kind for node in nodes],
            [node.inputs for node in nodes], declared_inputs, declared_outputs)
        self.__dict__.update(columns.__dict__, nodes=nodes)

    @classmethod
    def from_columns(cls, ids: Iterable[str], op_kinds: Iterable[str],
                     inputs: Iterable[Iterable[str]], declared_inputs: Iterable[str] = (),
                     declared_outputs: Iterable[str] = ()) -> ComputeGraph:
        """Build from the three node columns."""
        cg = cls.__new__(cls)
        cg.__dict__.update(ids=tuple(ids), op_kinds=tuple(op_kinds),
                           inputs=tuple(map(tuple, inputs)),
                           declared_inputs=tuple(declared_inputs),
                           declared_outputs=tuple(declared_outputs))
        if not len(cg.ids) == len(cg.op_kinds) == len(cg.inputs):
            raise ValueError("ids, op_kinds and inputs must have one entry per node")
        return cg

    def __setattr__(self, name, value):
        raise AttributeError(f"ComputeGraph is immutable; cannot set {name!r}")

    def _key(self) -> tuple:
        return (self.ids, self.op_kinds, self.inputs, self.declared_inputs,
                self.declared_outputs)

    def __eq__(self, other):
        if not isinstance(other, ComputeGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"ComputeGraph({len(self.ids)} nodes, {sum(map(len, self.inputs))} edges)"

    @cached_property
    def nodes(self) -> tuple[OpNode, ...]:
        return tuple(map(OpNode, self.ids, self.op_kinds, self.inputs))


Tiling = NamedTuple("Tiling", [("order", np.ndarray), ("start", np.ndarray),
                               ("neighbour", np.ndarray), ("kind_code", np.ndarray)])


class ValidatedGraph:
    """A ComputeGraph proven acyclic, held by integer position.

    Position i is node i of `graph`; `index` maps each id to its position.
    Node i's input positions are `pred_pos[pred_start[i]:pred_start[i + 1]]`,
    in input order, and its consumers `succ_pos[succ_start[i]:succ_start[i + 1]]`,
    once per input reference, in declaration order. `order` lists the
    positions in topological order and `level[i]` is position i's
    longest-path distance from a source. The arrays are read-only;
    `tiling` is built when first read.
    Construct via validate_graph(); the constructor trusts its arguments.
    """

    def __init__(self, graph: ComputeGraph, index: Mapping[str, int], pred_start: np.ndarray,
                 pred_pos: np.ndarray, succ_start: np.ndarray, succ_pos: np.ndarray,
                 order: np.ndarray, level: np.ndarray):
        self.graph, self.index = graph, index
        self.pred_start, self.pred_pos, self.succ_start, self.succ_pos, self.order, self.level = (
            pred_start, pred_pos, succ_start, succ_pos, order, level)
        for arr in (pred_start, pred_pos, succ_start, succ_pos, order, level):
            arr.flags.writeable = False
        self.topo_order: tuple[str, ...] = tuple(map(graph.ids.__getitem__, order.tolist()))

    def __len__(self) -> int:
        return len(self.graph.ids)

    @cached_property
    def tiling(self) -> Tiling:
        """The partitioner's read-only arrays for every granularity: `order`
        ranks the positions by (level, id), rank r's inputs and consumers are
        `neighbour[start[r]:start[r + 1]]` (ascending, once per input
        reference) and `kind_code[i]` numbers position i's op kind."""
        n = len(self)
        # A stable sort by level of the id order. Python sorts the ids:
        # numpy's str dtype drops trailing NULs.
        by_id = np.array(sorted(range(n), key=self.graph.ids.__getitem__), np.intp)
        order = by_id[np.argsort(self.level[by_id], kind="stable")]
        rank = np.empty(n, np.intp)
        rank[order] = np.arange(n)
        producer = rank[self.pred_pos]
        consumer = rank[np.repeat(np.arange(n), np.diff(self.pred_start))]
        start, neighbour = owner_csr(np.concatenate((consumer, producer)),
                                     np.concatenate((producer, consumer)), n)
        codes = {kind: c for c, kind in enumerate(dict.fromkeys(self.graph.op_kinds))}
        kind_code = np.fromiter(map(codes.__getitem__, self.graph.op_kinds), np.intp, n)
        for arr in (order, start, neighbour, kind_code):
            arr.flags.writeable = False
        return Tiling(order, start, neighbour, kind_code)


def _check_references(raw: ComputeGraph) -> None:
    """Raise the first fault, in this order: a duplicate id; in node
    order, a self reference or a dangling reference; a declared id that
    is unknown, or a declared input with in-edges. Return if none."""
    index: dict[str, int] = {}
    for k, nid in enumerate(raw.ids):
        if nid in index:
            raise DuplicateNodeId(nid)
        index[nid] = k
    for nid, refs in zip(raw.ids, raw.inputs):
        for ref in refs:
            if ref == nid:
                raise CycleDetected(nid)
            if ref not in index:
                raise DanglingReference(ref)
    _check_declared(raw, index)


def _check_declared(raw: ComputeGraph, index: Mapping[str, int]) -> None:
    for declared in raw.declared_inputs:
        if declared not in index:
            raise DanglingReference(declared)
        if raw.inputs[index[declared]]:
            raise GraphError(f"declared input {declared!r} has in-edges")
    for declared in raw.declared_outputs:
        if declared not in index:
            raise DanglingReference(declared)


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) of a 1-D integer array without the numpy.ma import."""
    c = np.sort(a)
    keep = np.ones(len(c), dtype=bool)
    np.not_equal(c[1:], c[:-1], out=keep[1:])
    return c[keep]


def owner_csr(owner: np.ndarray, value: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Group (owner, value) pairs over n owners, both in range(n), as a
    CSR (start, values): owner o's values are values[start[o]:start[o + 1]],
    ascending, a repeated pair repeated."""
    start = np.zeros(n + 1, np.intp)
    np.cumsum(np.bincount(owner, minlength=n), out=start[1:])
    # Sorted keys owner * n + value group by owner, values ascending.
    return start, np.sort(owner * n + value) % n


def _kahn(fan_in: list[int], succ_start: np.ndarray, succ_pos: np.ndarray
          ) -> tuple[list[int], list[int], list[int]]:
    """FIFO Kahn over positions, sources in declaration order. Returns the
    order, the levels (level[releaser] + 1, see the module docstring) and
    each position's count of inputs never emitted, nonzero only on or
    downstream of a cycle."""
    n = len(fan_in)
    succ, start, end = succ_pos.tolist(), succ_start[:-1].tolist(), succ_start[1:].tolist()
    waiting = list(fan_in)
    level = [0] * n
    order = [i for i in range(n) if not waiting[i]]
    for cur in order:  # the list is the FIFO queue: releases append to it
        nxt = level[cur] + 1
        for s in succ[start[cur]:end[cur]]:
            waiting[s] -= 1
            if not waiting[s]:
                level[s] = nxt
                order.append(s)
    return order, level, waiting


def _on_cycle(raw: ComputeGraph, index: Mapping[str, int], waiting: list[int]) -> str:
    """The smallest id on a cycle reached from the smallest stuck id.

    Every stuck node has a stuck input (else it would have been
    released), so following first stuck inputs must close a cycle.
    """
    ids, inputs = raw.ids, raw.inputs
    cur = min(ids[i] for i, w in enumerate(waiting) if w)
    path: list[str] = []
    seen: dict[str, int] = {}
    while cur not in seen:
        seen[cur] = len(path)
        path.append(cur)
        cur = next(ref for ref in inputs[index[cur]] if waiting[index[ref]])
    return min(path[seen[cur]:])


def validate_graph(raw: ComputeGraph) -> ValidatedGraph:
    """Check structure and return the graph with a topological order.

    Raises EmptyGraph for zero nodes, DuplicateNodeId on repeated ids,
    DanglingReference when an input or declared id is unknown, and
    CycleDetected (naming a node on a cycle) when no topological order
    exists. Declared inputs must have zero in-edges.
    """
    n = len(raw.ids)
    if not n:
        raise EmptyGraph("graph has no nodes")
    index = dict(zip(raw.ids, range(n)))
    fan_in = list(map(len, raw.inputs))
    try:
        pred_pos = np.fromiter(map(index.__getitem__, chain.from_iterable(raw.inputs)),
                               np.intp, sum(fan_in))
    except KeyError:
        pred_pos = None
    if pred_pos is None or len(index) < n:
        _check_references(raw)  # raises DuplicateNodeId or DanglingReference
    # Each producer's consumers ascending: in declaration order.
    succ_start, succ_pos = owner_csr(pred_pos, np.repeat(np.arange(n), fan_in), n)
    order, level, waiting = _kahn(fan_in, succ_start, succ_pos)
    if len(order) < n:
        _check_references(raw)  # a self reference or a declared-id fault comes first
        raise CycleDetected(_on_cycle(raw, index, waiting))
    _check_declared(raw, index)
    pred_start = np.zeros(n + 1, np.intp)
    np.cumsum(fan_in, out=pred_start[1:])
    return ValidatedGraph(raw, index, pred_start, pred_pos, succ_start, succ_pos,
                          np.array(order, np.intp), np.array(level, np.intp))


@dataclass(frozen=True)
class GraphMetrics:
    """Work/span summary: t1 = node count, t_inf = nodes on a longest path."""

    t1: int
    t_inf: int
    level_widths: tuple[int, ...]
    max_fan_in: int
    max_fan_out: int


def compute_metrics(vg: ValidatedGraph) -> GraphMetrics:
    """Work, depth and level widths from the levels, plus fan extremes."""
    widths = np.bincount(vg.level)
    return GraphMetrics(
        t1=len(vg),
        t_inf=len(widths),
        level_widths=tuple(widths.tolist()),
        max_fan_in=int(np.diff(vg.pred_start).max()),
        max_fan_out=int(np.diff(vg.succ_start).max()),
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
    after all of its inputs because levels are scheduled in order. The
    assignment lists nodes by level, then in topological order.
    """
    p = check_count("processor count", p)

    # Topological order is level-sorted; no level is wider than len(vg),
    # so any larger p schedules like len(vg) and stays within int64.
    q = min(p, len(vg))
    level = vg.level[vg.order]
    widths = np.bincount(level)
    steps = -(-widths // q)
    offset = np.arange(len(vg)) - (np.cumsum(widths) - widths)[level]
    step = (np.cumsum(steps) - steps)[level] + offset // q
    assignment = dict(zip(vg.topo_order, zip((offset % q).tolist(), step.tolist())))
    return ScheduleResult(t_p=int(steps.sum()), p=p, assignment=assignment)


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
    spatial_copies = check_count("spatial_copies", spatial_copies)
    temporal_copies = check_count("temporal_copies", temporal_copies)
    validate_graph(template)

    def neighbors_of(s: int) -> tuple[int, ...]:
        nbrs = stitching(s) if callable(stitching) else stitching.get(s, ())
        nbrs = tuple(nbrs)
        for nb in nbrs:
            if not (0 <= nb < spatial_copies):
                raise StitchingMismatch(
                    f"copy {s} references neighbor {nb}, outside 0..{spatial_copies - 1}")
        return nbrs

    def tag(s: int, t: int) -> str:  # copy (s, t) renames id x to x + tag(s, t)
        return f"~s{s}t{t}"

    out_ids = template.declared_outputs
    slot: dict[str, int] = {}  # declared input -> its first index
    for ix, nid in enumerate(template.declared_inputs):
        slot.setdefault(nid, ix)
    copies = [(s, t) for t in range(temporal_copies) for s in range(spatial_copies)]
    new_inputs: list[list[str]] = []
    for s, t in copies:
        nbrs = neighbors_of(s) if t > 0 else ()
        stitched = bool(nbrs and out_ids)
        suffix = tag(s, t)
        for nid, refs in zip(template.ids, template.inputs):
            ix = slot.get(nid) if stitched else None
            if ix is None:
                new_inputs.append([ref + suffix for ref in refs])
            else:
                new_inputs.append([out_ids[ix % len(out_ids)] + tag(nbrs[ix % len(nbrs)], t - 1)])

    last = temporal_copies - 1
    return ComputeGraph.from_columns(
        [nid + tag(s, t) for s, t in copies for nid in template.ids],
        template.op_kinds * len(copies), new_inputs,
        [nid + tag(s, 0) for s in range(spatial_copies) for nid in template.declared_inputs],
        [nid + tag(s, last) for s in range(spatial_copies) for nid in out_ids])


def ring_coupling(spatial_copies: int) -> dict[int, tuple[int, ...]]:
    """Nearest-neighbor ring: each copy couples to its two ring neighbors."""
    if spatial_copies == 1:
        return {0: ()}
    return {s: ((s - 1) % spatial_copies, (s + 1) % spatial_copies)
            for s in range(spatial_copies)}
