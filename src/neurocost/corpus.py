"""A small fixed corpus of graphs for partition and pipeline checks.

Twenty graphs of at most 12 nodes, each tagged with the tiling
granularity it is meant to be partitioned at and a category:

* homogeneous — disjoint copies of one motif; greedy tiling recovers
  the full family, so it must match the exhaustive oracle exactly.
* chain — paths whose op kinds are all distinct, so every fragment
  label is unique and both strategies report a single thread.
* adversarial — alignment traps (offset chains, shared hubs, mixed
  families) where greedy may tile suboptimally but stays within half
  of the oracle.
* random — seeded random DAGs for soundness checks.

Everything is built deterministically; no file I/O involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ComputeGraph
from .workloads import gen_random_dag

#: One node as (id, op kind, input ids).
_Node = tuple[str, str, tuple[str, ...]]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    category: str
    granularity: int
    graph: ComputeGraph


def _graph(nodes: list[_Node]) -> ComputeGraph:
    """Columns from (id, kind, inputs) triples; sources are the declared
    inputs and sinks the declared outputs."""
    ids, kinds, inputs = zip(*nodes)
    has_out = {ref for refs in inputs for ref in refs}
    return ComputeGraph.from_columns(
        ids, kinds, inputs,
        declared_inputs=[nid for nid, refs in zip(ids, inputs) if not refs],
        declared_outputs=[nid for nid in ids if nid not in has_out],
    )


def _dense_rows(rows: int, kinds: tuple[str, str, str] = ("mul", "mul", "add"),
                prefix: str = "r") -> list[_Node]:
    """rows disjoint multiply-accumulate rows: two products into one sum."""
    nodes: list[_Node] = []
    for j in range(rows):
        a, b, s = f"{prefix}{j}a", f"{prefix}{j}b", f"{prefix}{j}s"
        nodes += [(a, kinds[0], ()), (b, kinds[1], ()), (s, kinds[2], (a, b))]
    return nodes


def _chain(n: int, kinds: list[str], prefix: str = "n") -> list[_Node]:
    return [(f"{prefix}{i}", kinds[i % len(kinds)], (f"{prefix}{i - 1}",) if i else ())
            for i in range(n)]


def _parallel_chains(copies: int, length: int, kinds: list[str]) -> list[_Node]:
    return [node for j in range(copies) for node in _chain(length, kinds, f"c{j}n")]


def _diamonds(copies: int) -> list[_Node]:
    nodes: list[_Node] = []
    for j in range(copies):
        i, l, r, o = f"d{j}i", f"d{j}l", f"d{j}r", f"d{j}o"
        nodes += [(i, "split", ()), (l, "arm", (i,)), (r, "arm", (i,)), (o, "join", (l, r))]
    return nodes


def _fanouts(copies: int) -> list[_Node]:
    nodes: list[_Node] = []
    for j in range(copies):
        s = f"s{j}"
        nodes += [(s, "src", ()), (f"t{j}a", "sink", (s,)), (f"t{j}b", "sink", (s,))]
    return nodes


def _star(arms: int) -> list[_Node]:
    return ([(f"p{i}", "f", ()) for i in range(arms)]
            + [("c", "h", tuple(f"p{i}" for i in range(arms)))]
            + [(f"s{i}", "f", ("c",)) for i in range(arms)])


_DISTINCT_DIAMOND: list[_Node] = [
    ("in0", "op0", ()),
    ("mid1", "op1", ("in0",)),
    ("mid2", "op2", ("in0",)),
    ("join", "op3", ("mid1", "mid2")),
    ("tail", "op4", ("join",)),
    ("out", "op5", ("tail",)),
]


def _mixed_rows() -> list[_Node]:
    """Two motif families side by side, two copies each."""
    return (_dense_rows(2, ("mul", "mul", "add"), prefix="m")
            + _dense_rows(2, ("neg", "neg", "mul"), prefix="q"))


def _dk(n: int) -> list[str]:
    return [f"op{i}" for i in range(n)]


def mini_corpus() -> tuple[CorpusEntry, ...]:
    """The partition and pipeline check corpus, rebuilt identically on every call."""
    built = [
        ("dense_rows_4x3", "homogeneous", 3, _dense_rows(4)),
        ("relay_fan_3x3", "homogeneous", 3, _parallel_chains(3, 3, ["f"])),
        ("diamonds_3x4", "homogeneous", 4, _diamonds(3)),
        ("pairs_6x2", "homogeneous", 2, _parallel_chains(6, 2, ["u", "v"])),
        ("path12_singletons", "homogeneous", 1, _chain(12, ["acc"])),
        ("fanouts_4x3", "homogeneous", 3, _fanouts(4)),
        ("distinct_chain8_g2", "chain", 2, _chain(8, _dk(8))),
        ("distinct_chain12_g3", "chain", 3, _chain(12, _dk(12))),
        ("distinct_chain6_whole", "chain", 6, _chain(6, _dk(6))),
        ("twin_chains5_g5", "chain", 5, _parallel_chains(2, 5, _dk(5))),
        ("distinct_chain10_g5", "chain", 5, _chain(10, _dk(10))),
        ("distinct_diamond6_g3", "chain", 3, _DISTINCT_DIAMOND),
        ("offset_chain12_f_g3", "adversarial", 3, _chain(12, ["f"])),
        ("offset_chain12_fg_g2", "adversarial", 2, _chain(12, ["f", "g"])),
        ("offset_chain10_f_g2", "adversarial", 2, _chain(10, ["f"])),
        ("mixed_rows_2x2", "adversarial", 3, _mixed_rows()),
        ("trap_star9", "adversarial", 3, _star(4)),
    ]
    return tuple([CorpusEntry(name, category, g, _graph(nodes))
                  for name, category, g, nodes in built] + [
        CorpusEntry("random_dag_a", "random", 2,
                    gen_random_dag(10, 0.25, ("add", "mul"), seed=101)),
        CorpusEntry("random_dag_b", "random", 3,
                    gen_random_dag(12, 0.3, ("f", "g", "h"), seed=202)),
        CorpusEntry("random_dag_c", "random", 2,
                    gen_random_dag(11, 0.15, ("op",), seed=303)),
    ])
