"""Every benchmark workload runs one tiny pass and passes its own checks.

The benchmark calls the package through `bench/cases.py`; a change to
the package API that breaks a workload fails here, without running
`bench/run.py` or writing under `bench/`.
"""

import hashlib

import pytest

import neurocost as nc
from conftest import bench_cases

cases = bench_cases()


class Recorder:
    """The recorder interface a pass uses, with no timing."""

    def __init__(self):
        self.names = []

    def call(self, name, fn, *args, **kwargs):
        self.names.append(name)
        return fn(*args, **kwargs)

    def wrap(self, name, fn):
        return fn


@pytest.mark.parametrize("name", sorted(cases.WORKLOADS))
def test_tiny_pass_passes_its_checks(name):
    workload = cases.WORKLOADS[name]
    inputs = workload.generate(1, True)
    rec = Recorder()
    out = workload.run_pass(inputs, rec)
    checks = workload.checks(inputs, out)
    assert checks
    failed = [check for check, ok in checks if not ok()]
    assert failed == []
    assert workload.setup <= set(rec.names)
    counts = cases.counts(out)
    assert counts == cases.counts(workload.run_pass(inputs, Recorder()))


# SHA-256 of the graph files the benchmark parses at seed 29, full size,
# recorded before ComputeGraph stored columns. A change to a generator or
# to emit_graph that changes what the benchmark measures fails here.
INPUT_DIGESTS = {
    "dag_kick": "caaced8d56bf1cd3c965d62465c9c0410a3c1f5ed1c4f265a6e1c47000b2cc58",
    "stencil_threads.stencil": "250658660f9a88909139814dae43cb4beb8083a43b90e25fe42614f1403e9395",
    "stencil_threads.dense": "c859580c0218b4cb2bfa9a5c394a0fc68e7f282dc872321b8087817f18985f58",
}


def test_benchmark_graph_files_are_pinned():
    dag = cases.dag_generate(29, False)
    partition = cases.stencil_generate(29, False)
    texts = {"dag_kick": dag.text, "stencil_threads.stencil": partition.stencil_text,
             "stencil_threads.dense": partition.dense_text}
    assert {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in texts.items()} == INPUT_DIGESTS
    for text in texts.values():
        assert nc.emit_graph(nc.parse_graph_file(text)) == text
