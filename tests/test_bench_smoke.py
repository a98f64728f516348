"""Every benchmark workload runs one tiny pass and passes its own checks.

The benchmark calls the package through `bench/cases.py`; a change to
the package API that breaks a workload fails here, without running
`bench/run.py` or writing under `bench/`.
"""

import pytest

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
