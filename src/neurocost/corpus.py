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

from .graph import ComputeGraph, OpNode
from .workloads import gen_random_dag


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    category: str
    granularity: int
    graph: ComputeGraph


def _graph(nodes: list[OpNode]) -> ComputeGraph:
    has_out = {ref for node in nodes for ref in node.inputs}
    return ComputeGraph(
        nodes=tuple(nodes),
        declared_inputs=tuple(n.id for n in nodes if not n.inputs),
        declared_outputs=tuple(n.id for n in nodes if n.id not in has_out),
    )


def _dense_rows(rows: int, kinds: tuple[str, str, str] = ("mul", "mul", "add"),
                prefix: str = "r") -> ComputeGraph:
    """rows disjoint multiply-accumulate rows: two products into one sum."""
    nodes: list[OpNode] = []
    for j in range(rows):
        a, b, s = f"{prefix}{j}a", f"{prefix}{j}b", f"{prefix}{j}s"
        nodes += [OpNode(a, kinds[0]), OpNode(b, kinds[1]),
                  OpNode(s, kinds[2], (a, b))]
    return _graph(nodes)


def _chain(n: int, kinds: list[str], prefix: str = "n") -> ComputeGraph:
    nodes = [
        OpNode(f"{prefix}{i}", kinds[i % len(kinds)],
               (f"{prefix}{i - 1}",) if i else ())
        for i in range(n)
    ]
    return _graph(nodes)


def _parallel_chains(copies: int, length: int, kinds: list[str]) -> ComputeGraph:
    nodes: list[OpNode] = []
    for j in range(copies):
        for i in range(length):
            nodes.append(OpNode(f"c{j}n{i}", kinds[i % len(kinds)],
                                (f"c{j}n{i - 1}",) if i else ()))
    return _graph(nodes)


def _diamonds(copies: int) -> ComputeGraph:
    nodes: list[OpNode] = []
    for j in range(copies):
        i, l, r, o = f"d{j}i", f"d{j}l", f"d{j}r", f"d{j}o"
        nodes += [OpNode(i, "split"), OpNode(l, "arm", (i,)),
                  OpNode(r, "arm", (i,)), OpNode(o, "join", (l, r))]
    return _graph(nodes)


def _fanouts(copies: int) -> ComputeGraph:
    nodes: list[OpNode] = []
    for j in range(copies):
        s = f"s{j}"
        nodes += [OpNode(s, "src"), OpNode(f"t{j}a", "sink", (s,)),
                  OpNode(f"t{j}b", "sink", (s,))]
    return _graph(nodes)


def _star(arms: int) -> ComputeGraph:
    nodes = [OpNode(f"p{i}", "f") for i in range(arms)]
    nodes.append(OpNode("c", "h", tuple(f"p{i}" for i in range(arms))))
    nodes += [OpNode(f"s{i}", "f", ("c",)) for i in range(arms)]
    return _graph(nodes)


def _distinct_diamond() -> ComputeGraph:
    return _graph([
        OpNode("in0", "op0"),
        OpNode("mid1", "op1", ("in0",)),
        OpNode("mid2", "op2", ("in0",)),
        OpNode("join", "op3", ("mid1", "mid2")),
        OpNode("tail", "op4", ("join",)),
        OpNode("out", "op5", ("tail",)),
    ])


def _mixed_rows() -> ComputeGraph:
    """Two motif families side by side, two copies each."""
    a = _dense_rows(2, ("mul", "mul", "add"), prefix="m")
    b = _dense_rows(2, ("neg", "neg", "mul"), prefix="q")
    return _graph(list(a.nodes) + list(b.nodes))


def _dk(n: int) -> list[str]:
    return [f"op{i}" for i in range(n)]


def mini_corpus() -> tuple[CorpusEntry, ...]:
    """The partition and pipeline check corpus, rebuilt identically on every call."""
    entries = [
        CorpusEntry("dense_rows_4x3", "homogeneous", 3, _dense_rows(4)),
        CorpusEntry("relay_fan_3x3", "homogeneous", 3,
                    _parallel_chains(3, 3, ["f"])),
        CorpusEntry("diamonds_3x4", "homogeneous", 4, _diamonds(3)),
        CorpusEntry("pairs_6x2", "homogeneous", 2,
                    _parallel_chains(6, 2, ["u", "v"])),
        CorpusEntry("path12_singletons", "homogeneous", 1,
                    _chain(12, ["acc"])),
        CorpusEntry("fanouts_4x3", "homogeneous", 3, _fanouts(4)),
        CorpusEntry("distinct_chain8_g2", "chain", 2, _chain(8, _dk(8))),
        CorpusEntry("distinct_chain12_g3", "chain", 3, _chain(12, _dk(12))),
        CorpusEntry("distinct_chain6_whole", "chain", 6, _chain(6, _dk(6))),
        CorpusEntry("twin_chains5_g5", "chain", 5,
                    _parallel_chains(2, 5, _dk(5))),
        CorpusEntry("distinct_chain10_g5", "chain", 5, _chain(10, _dk(10))),
        CorpusEntry("distinct_diamond6_g3", "chain", 3, _distinct_diamond()),
        CorpusEntry("offset_chain12_f_g3", "adversarial", 3,
                    _chain(12, ["f"])),
        CorpusEntry("offset_chain12_fg_g2", "adversarial", 2,
                    _chain(12, ["f", "g"])),
        CorpusEntry("offset_chain10_f_g2", "adversarial", 2,
                    _chain(10, ["f"])),
        CorpusEntry("mixed_rows_2x2", "adversarial", 3, _mixed_rows()),
        CorpusEntry("trap_star9", "adversarial", 3, _star(4)),
        CorpusEntry("random_dag_a", "random", 2,
                    gen_random_dag(10, 0.25, ("add", "mul"), seed=101)),
        CorpusEntry("random_dag_b", "random", 3,
                    gen_random_dag(12, 0.3, ("f", "g", "h"), seed=202)),
        CorpusEntry("random_dag_c", "random", 2,
                    gen_random_dag(11, 0.15, ("op",), seed=303)),
    ]
    return tuple(entries)

