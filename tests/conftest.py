"""Shared builders for the test suite."""

import importlib
import sys
from pathlib import Path

import pytest

from neurocost import ComputeGraph, OpNode, validate_graph


def make_footnote() -> ComputeGraph:
    """Two independent differences feeding a product feeding a power:
    4 nodes, depth 3, level widths (2, 1, 1)."""
    return ComputeGraph(
        nodes=(
            OpNode("a", "sub"),
            OpNode("b", "sub"),
            OpNode("c", "mul", ("a", "b")),
            OpNode("d", "pow", ("c",)),
        ),
        declared_inputs=("a", "b"),
        declared_outputs=("d",),
    )


def make_chain(n: int, kind: str = "relay") -> ComputeGraph:
    nodes = tuple(
        OpNode(f"n{i}", kind, (f"n{i - 1}",) if i else ()) for i in range(n)
    )
    return ComputeGraph(nodes=nodes, declared_inputs=("n0",),
                        declared_outputs=(f"n{n - 1}",))


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
