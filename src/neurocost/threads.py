"""SIMD thread extraction: disjoint isomorphic subgraphs of a DAG.

A graph that contains many node-disjoint, pairwise-isomorphic fragments
can run one thread per fragment in lockstep. p_threads is the size of the
largest such family found; thread efficiency at p processors is
min(p_threads, p) / p.

Fragments are compared on internal structure plus each node's external
in/out arity, so a fragment embedded differently in the host graph gets a
different label. Every label is an exact canonical form, so equal labels
mean isomorphic fragments, and fragments stop at 8 nodes (`EXACT_LIMIT`):
a larger fragment, or a partition at a larger granularity, raises
FragmentTooLarge. (A neighbourhood-refinement hash would reach further,
but it gives some non-isomorphic fragments one label.) A label is the
lexicographically smallest edge tuple over the relabelings that list
nodes by sorted annotation. Twins (nodes with the same annotation and
the same internal in- and out-neighbours) can swap without changing the
edge tuple, so the search tags each member of an annotation class with
its twin group and tries each distinct ordering of the tags once
(Knuth's Algorithm L): twin groups (4, 4) give 70 layouts, not 8!, and
a fragment of one hub and seven identical leaves one, not 7! = 5040.

The greedy partition tiles in rank space with one forward-only pointer
per rank into its ascending neighbour list: for a fixed granularity,
tiling is linear in nodes plus edges. Rank order, neighbour lists and
op-kind codes are `ValidatedGraph.tiling`, built once per graph for
every granularity; a call copies only its pointers. A call's fragments
are built in bulk, slotted and without `__init__`, one `nodes` tuple and
one `edges` set per distinct shape; the exhaustive oracle builds its
overlapping candidates in one call too.

Both partitions label fragments through one helper that computes one
exact signature per distinct fragment shape (nodes, edges), as the bulk
builder numbers them, for the label and for the family check: a tiling
of a regular graph repeats a handful of shapes, so the layout search
runs a handful of times. The digests are `_blake2.blake2b`, which is
`hashlib.blake2b`: importing hashlib would also load OpenSSL (about
3.5 MB of peak RSS), unused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import FragmentTooLarge, GraphTooLargeForOracle, check_count
from .graph import ValidatedGraph, sorted_unique

try:
    from _blake2 import blake2b  # hashlib's own blake2b, without loading OpenSSL
except ImportError:
    from hashlib import blake2b

EXACT_LIMIT = 8


@dataclass(frozen=True, slots=True)
class Fragment:
    """An induced subgraph with boundary arity annotations.

    nodes[i] = (op_kind, external_in, external_out); edges are internal,
    as local index pairs. node_ids preserves the host-graph identity of
    each local index. Slotted; a partition fills the slots without `__init__`.
    """

    nodes: tuple[tuple[str, int, int], ...]
    edges: frozenset[tuple[int, int]]
    node_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.nodes)


def _fragments(vg: ValidatedGraph, tiles: np.ndarray) -> tuple[list[Fragment], list[int]]:
    """Induce one fragment per row of `tiles`, a (fragments x k) array of
    host-graph positions, distinct within a row; rows may share positions.
    Local index i of a row's fragment is the row's i-th position.

    An input reference is internal when its source is in its consumer's
    row. A node's external in- and out-arity are its fan-in and fan-out
    less its internal references, counted with repeats; the edge set
    holds each internal (source slot, consumer slot) pair once.
    Rows of one shape share one `nodes` tuple and one `edges` frozenset.
    Returns the fragments and each one's shape index (equal indices, equal
    `nodes` and `edges`).
    """
    count, k = tiles.shape
    members = tiles.ravel()
    # The input references of every member, as (source position, consumer member).
    starts = vg.pred_start[members]
    fan_in = vg.pred_start[members + 1] - starts
    consumer = np.repeat(np.arange(len(members)), fan_in)
    refs = np.arange(len(consumer)) + np.repeat(starts - (np.cumsum(fan_in) - fan_in), fan_in)
    # 8 columns a pass keep memory linear in k; a flat hit reads (slot, reference).
    row, source_pos = consumer // k, vg.pred_pos[refs]
    hit = np.concatenate([np.flatnonzero(tiles.T[j:j + 8].take(row, 1) == source_pos)
                          + j * len(refs) for j in range(0, k, 8)])
    slot, internal = np.divmod(hit, len(refs))
    source, consumer = row[internal] * k + slot, consumer[internal]
    ext_in = fan_in - np.bincount(consumer, minlength=len(members))
    ext_out = (vg.succ_start[members + 1] - vg.succ_start[members]
               - np.bincount(source, minlength=len(members)))
    # Internal edges as sorted codes (row, source slot, consumer slot), once each.
    codes = sorted_unique(source * k + consumer % k)
    row = codes // (k * k)
    per_row = np.bincount(row, minlength=count)
    edge_cols = np.full((count, int(per_row.max(initial=0))), -1, np.intp)
    edge_cols[row, np.arange(len(codes)) - (np.cumsum(per_row) - per_row)[row]] = codes % (k * k)
    key = np.hstack((vg.tiling.kind_code[tiles], ext_in.reshape(count, k),
                     ext_out.reshape(count, k), edge_cols))
    # Rows compare as raw bytes: one void item per row.
    rows = np.ascontiguousarray(key).view(np.dtype((np.void, key.itemsize * key.shape[1])))
    _keys, heads, shape_of = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    nodes = [tuple(zip(map(vg.graph.op_kinds.__getitem__, tiles[h].tolist()),
                       ext_in[h * k:(h + 1) * k].tolist(), ext_out[h * k:(h + 1) * k].tolist()))
             for h in heads.tolist()]
    edges = [frozenset(divmod(c, k) for c in edge_cols[h].tolist() if c >= 0)
             for h in heads.tolist()]
    ids = list(map(vg.graph.ids.__getitem__, members.tolist()))
    fragments, shape_of = list(map(object.__new__, [Fragment] * count)), shape_of.tolist()
    for slot, values in ((Fragment.nodes, map(nodes.__getitem__, shape_of)),
                         (Fragment.edges, map(edges.__getitem__, shape_of)),
                         (Fragment.node_ids, zip(*[iter(ids)] * k))):
        list(map(slot.__set__, fragments, values))
    return fragments, shape_of


def _layouts(frag: Fragment) -> Iterator[tuple[int, ...]]:
    """Candidate layouts (position -> original index) for the exact
    signature: annotation classes in sorted order and, inside each class,
    one layout per distinct ordering of its members' twin-group tags.

    Twins share their annotation and their internal in- and out-neighbour
    sets; swapping two twins is an automorphism and leaves the edge tuple
    unchanged, so skipping the layouts that only reorder twins cannot
    change the minimum. A class of c members in twin groups of sizes t1,
    t2, ... gives c! / (t1! t2! ...) layouts instead of c!; a class that
    is one twin group gives one.
    """
    classes: dict[tuple[str, int, int], dict[tuple, list[int]]] = {}
    for i, annot in enumerate(frag.nodes):
        neighbours = (frozenset(u for u, v in frag.edges if v == i),
                      frozenset(v for u, v in frag.edges if u == i))
        classes.setdefault(annot, {}).setdefault(neighbours, []).append(i)
    per_class = [list(_arrangements(list(classes[annot].values()))) for annot in sorted(classes)]
    for parts in itertools.product(*per_class):
        yield tuple(itertools.chain.from_iterable(parts))


def _arrangements(groups: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """The members of `groups` in one order per distinct ordering of their
    group tags, each once: Knuth's Algorithm L (TAOCP 7.2.1.2) steps the
    sorted tags to the next larger ordering in place, and every swap and
    reversal moves the members alongside, so twins keep no fixed order."""
    tags = [g for g, group in enumerate(groups) for _ in group]
    members = [i for group in groups for i in group]
    while True:
        yield tuple(members)
        j = len(tags) - 2
        while j >= 0 and tags[j] >= tags[j + 1]:
            j -= 1
        if j < 0:
            return
        m = len(tags) - 1
        while tags[j] >= tags[m]:
            m -= 1
        tags[j], tags[m], members[j], members[m] = tags[m], tags[j], members[m], members[j]
        tags[j + 1:], members[j + 1:] = tags[:j:-1], members[:j:-1]


def _exact_signature(frag: Fragment) -> tuple:
    """Lexicographically minimal (annotations, edges) over admissible
    relabelings; two fragments are isomorphic iff signatures are equal.

    Admissible relabelings list nodes by sorted annotation. The search
    visits only the layouts of `_layouts`, one per arrangement of each
    class's twin groups, which reach the same minimum as trying every
    ordering of every class. Raises FragmentTooLarge above EXACT_LIMIT
    nodes.
    """
    if len(frag) > EXACT_LIMIT:
        raise FragmentTooLarge(f"fragment has {len(frag)} nodes, exact labels stop at "
                               f"{EXACT_LIMIT}")
    best_edges: tuple[tuple[int, int], ...] | None = None
    for layout in _layouts(frag):
        position = {orig: pos for pos, orig in enumerate(layout)}
        edges = tuple(sorted((position[u], position[v]) for u, v in frag.edges))
        if best_edges is None or edges < best_edges:
            best_edges = edges
    return (tuple(sorted(frag.nodes)), best_edges)


def _exact_label(signature: tuple) -> str:
    """Stable text label: "x" and a digest of the exact signature, so equal
    labels mean isomorphic fragments."""
    return "x" + blake2b(repr(signature).encode(), digest_size=16).hexdigest()


def isomorphic(a: Fragment, b: Fragment) -> bool:
    """Exact isomorphism test via a permutation search (small fragments)."""
    if len(a) != len(b) or len(a.edges) != len(b.edges):
        return False
    if sorted(a.nodes) != sorted(b.nodes):
        return False
    return _exact_signature(a) == _exact_signature(b)


@dataclass(frozen=True)
class PartitionResult:
    """Families of disjoint isomorphic fragments plus an unmatched residual."""

    families: tuple[tuple[str, tuple[Fragment, ...]], ...]
    residual: frozenset[str]
    p_threads: int
    granularity: int


def _group_by_label(fragments: list[Fragment], shape_of: list[int]) -> dict[str, list[Fragment]]:
    """Fragments grouped by canonical label, labels in order of first use.

    A label is a pure function of the fragment's shape (nodes, edges), so
    each distinct shape, as `_fragments` numbers them in `shape_of`, is
    labelled once. The exact signature serves both the label and the
    family check: every shape's full signature (not its digest) must equal
    that of the first shape given its label, which alone is kept.
    """
    labels: dict[int, str] = {}
    heads: dict[str, tuple] = {}
    grouped: dict[str, list[Fragment]] = {}
    for frag, shape in zip(fragments, shape_of):
        label = labels.get(shape)
        if label is None:
            signature = _exact_signature(frag)
            label = labels[shape] = _exact_label(signature)
            if heads.setdefault(label, signature) != signature:
                raise AssertionError(f"family {label} contains non-isomorphic members")
        grouped.setdefault(label, []).append(frag)
    return grouped


def _check_granularity(granularity: int) -> int:
    """A fragment size from 1 to EXACT_LIMIT; FragmentTooLarge above it."""
    granularity = check_count("granularity", granularity)
    if granularity > EXACT_LIMIT:
        raise FragmentTooLarge(
            f"granularity {granularity} exceeds the exact-label limit of {EXACT_LIMIT}")
    return granularity


def partition_isomorphic(vg: ValidatedGraph, granularity: int) -> PartitionResult:
    """Greedy level-aligned tiling into connected fragments of exactly
    `granularity` nodes, 1 to 8, grouped by canonical label; a larger
    granularity raises FragmentTooLarge before any tiling.

    Seeds come in rank order, (level, id). A fragment grows by the
    smallest-rank untaken neighbour of any member, which each member's
    forward-only pointer into its ascending neighbour list gives, so
    every list entry is passed once. Full fragments, members in rank
    order, are built in one bulk pass.

    Undersized leftovers go to the residual. In every family, each
    member's exact signature must equal the first member's.
    """
    granularity = _check_granularity(granularity)
    n = len(vg)
    order, start, neighbour, _kind_code = vg.tiling
    neighbour, head, end = neighbour.tolist(), start[:-1].tolist(), start[1:].tolist()
    # head[r] only moves forward: the ranks it passes are taken for good,
    # so once it skips the newly taken ones it points at r's smallest
    # untaken neighbour.
    taken = bytearray(n)
    tiled: list[int] = []
    residual: list[int] = []
    for seed in range(n):
        if taken[seed]:
            continue
        taken[seed] = 1
        members = [seed]
        while len(members) < granularity:
            pick = n  # the smallest untaken neighbour of any member
            for r in members:
                i, stop = head[r], end[r]
                while i < stop and taken[neighbour[i]]:
                    i += 1
                head[r] = i
                if i < stop and neighbour[i] < pick:
                    pick = neighbour[i]
            if pick == n:
                break
            taken[pick] = 1
            members.append(pick)
        (tiled if len(members) == granularity else residual).extend(members)

    # Members listed in tiling order, as in `order`.
    tiles = np.sort(np.array(tiled, np.intp).reshape(-1, granularity), axis=1)
    grouped = _group_by_label(*_fragments(vg, order[tiles]))
    families = tuple(sorted(
        ((label, tuple(members)) for label, members in grouped.items()),
        key=lambda item: (-len(item[1]), item[0]),
    ))
    return PartitionResult(
        families=families,
        residual=frozenset(map(vg.graph.ids.__getitem__, order[residual].tolist())),
        p_threads=max((len(members) for _label, members in families), default=1),
        granularity=granularity,
    )


def _connected_subsets(vg: ValidatedGraph, size: int) -> list[tuple[str, ...]]:
    """All weakly connected node subsets of the given size."""
    neighbors = {nid: set(refs) for nid, refs in zip(vg.graph.ids, vg.graph.inputs)}
    for nid, refs in zip(vg.graph.ids, vg.graph.inputs):
        for ref in refs:
            neighbors[ref].add(nid)
    order = list(vg.topo_order)
    rank = {nid: i for i, nid in enumerate(order)}
    found: set[frozenset[str]] = set()

    def grow(current: frozenset[str], frontier: set[str], min_rank: int) -> None:
        if len(current) == size:
            found.add(current)
            return
        for nb in sorted(frontier, key=lambda nid: rank[nid]):
            if rank[nb] <= min_rank:
                continue
            new_frontier = (frontier | neighbors[nb]) - current - {nb}
            grow(current | {nb}, new_frontier, min_rank)

    for seed in order:
        grow(frozenset([seed]), set(neighbors[seed]), rank[seed])
    return [tuple(sorted(s, key=lambda nid: rank[nid])) for s in sorted(
        found, key=lambda s: sorted(rank[nid] for nid in s))]


def _max_disjoint(members: list[frozenset[str]]) -> list[int]:
    """Indices of a maximum pairwise-disjoint subfamily (branch and bound)."""
    best: list[int] = []

    def search(start: int, chosen: list[int], used: frozenset[str]) -> None:
        nonlocal best
        if len(chosen) + (len(members) - start) <= len(best):
            return
        if start == len(members):
            if len(chosen) > len(best):
                best = list(chosen)
            return
        if not (members[start] & used):
            chosen.append(start)
            search(start + 1, chosen, used | members[start])
            chosen.pop()
        search(start + 1, chosen, used)

    search(0, [], frozenset())
    return best


ORACLE_CAP = 12


def brute_force_partition(vg: ValidatedGraph, granularity: int) -> PartitionResult:
    """Exhaustive reference: the true maximum family of disjoint isomorphic
    connected fragments of the given size. Graphs above 12 nodes raise
    GraphTooLargeForOracle, granularities above 8 FragmentTooLarge."""
    if len(vg) > ORACLE_CAP:
        raise GraphTooLargeForOracle(f"oracle capped at {ORACLE_CAP} nodes, got {len(vg)}")
    granularity = _check_granularity(granularity)
    subsets = [list(map(vg.index.__getitem__, s)) for s in _connected_subsets(vg, granularity)]
    by_label = _group_by_label(*_fragments(vg, np.array(subsets, np.intp).reshape(-1, granularity)))
    best_label, best_members = None, []
    for label in sorted(by_label):
        frags = by_label[label]
        chosen = _max_disjoint([frozenset(f.node_ids) for f in frags])
        if len(chosen) > len(best_members):
            best_label, best_members = label, [frags[i] for i in chosen]
    covered = {nid for f in best_members for nid in f.node_ids}
    return PartitionResult(families=((best_label, tuple(best_members)),) if best_members else (),
                           residual=frozenset(vg.topo_order) - covered,
                           p_threads=max(len(best_members), 1), granularity=granularity)


def thread_efficiency(pr: PartitionResult, p: int) -> float:
    """Fraction of p processors the extracted threads keep busy."""
    check_count("p", p)
    return min(pr.p_threads, p) / p
