"""Shared builders for the test suite."""

import importlib
import sys
from pathlib import Path

import pytest

from neurocost import ComputeGraph, NeuralGraph, validate_graph


def dag(nodes, inputs=(), outputs=()) -> ComputeGraph:
    """A ComputeGraph, built as columns, from (id, op kind, input ids=())
    triples and the declared input and output ids."""
    nodes = [(*node, ())[:3] for node in nodes]  # a missing input tuple is ()
    ids, kinds, refs = zip(*nodes) if nodes else [()] * 3
    return ComputeGraph.from_columns(ids, kinds, refs, inputs, outputs)


def make_footnote() -> ComputeGraph:
    """Two independent differences feeding a product feeding a power:
    4 nodes, depth 3, level widths (2, 1, 1)."""
    return dag([("a", "sub"), ("b", "sub"), ("c", "mul", ("a", "b")), ("d", "pow", ("c",))],
               inputs=("a", "b"), outputs=("d",))


def make_chain(n: int, kind: str = "relay") -> ComputeGraph:
    return dag([(f"n{i}", kind, (f"n{i - 1}",) if i else ()) for i in range(n)],
               inputs=("n0",), outputs=(f"n{n - 1}",))


def network(neurons, synapses, input_neurons=(), output_neurons=()) -> NeuralGraph:
    """A NeuralGraph from (id, spec, x0) triples and (source, target,
    weight, delay=1) tuples. Specs are tabled in order of first use and
    endpoint ids become positions; an unknown id becomes len(neurons), a
    position the constructor rejects."""
    neurons = tuple(neurons)
    ids = [nid for nid, _spec, _x0 in neurons]
    specs = list(dict.fromkeys(spec for _nid, spec, _x0 in neurons))
    row = {spec: k for k, spec in enumerate(specs)}
    pos = {nid: k for k, nid in enumerate(ids)}
    synapses = [(*s, 1)[:4] for s in synapses]  # a missing delay is 1
    src, tgt, weight, delay = zip(*synapses) if synapses else [()] * 4
    return NeuralGraph(ids, specs, [row[spec] for _nid, spec, _x0 in neurons],
                       [x0 for _nid, _spec, x0 in neurons],
                       [pos.get(a, len(ids)) for a in src], [pos.get(b, len(ids)) for b in tgt],
                       weight, delay, input_neurons, output_neurons)


@pytest.fixture
def footnote():
    return validate_graph(make_footnote())


@pytest.fixture
def footnote_raw():
    return make_footnote()


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_cases():
    """The benchmark's `bench/cases.py`, imported as `bench/run.py` does
    (its sibling `checks.py` on the path), writing no bytecode there."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("cases")
    finally:
        sys.dont_write_bytecode = dont_write
