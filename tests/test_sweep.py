"""Sweep specification and runner checks."""

from __future__ import annotations

import pytest

import neurocost as nc


def test_swept_key_cannot_be_fixed():
    with pytest.raises(ValueError, match="'m_s'"):
        nc.SweepSpec(workload="mesh", param="m_s", values=(64.0, 128.0),
                     fixed=(("k", 4.0), ("m_s", 32.0)))


def test_ff_rejects_a_window():
    spec = nc.SweepSpec(workload="ff", param="n", values=(4.0, 8.0))
    with pytest.raises(ValueError, match="window"):
        nc.run_sweep(spec, window=9)


def test_window_defaults_to_five():
    spec = nc.SweepSpec(workload="mesh", param="m_s", values=(16.0, 32.0))
    assert nc.run_sweep(spec) == nc.run_sweep(spec, window=5)
    assert nc.run_sweep(spec) != nc.run_sweep(spec, window=1)


def test_fixed_key_given_twice_is_rejected():
    with pytest.raises(ValueError, match="'k' is fixed more than once"):
        nc.SweepSpec(workload="mesh", param="m_s", values=(64.0, 128.0),
                     fixed=(("k", 4.0), ("k", 6.0)))


@pytest.mark.parametrize("bad", [0, 1.5, True])
def test_repetitions_must_be_a_count(bad):
    with pytest.raises(ValueError, match="repetitions must be an integer >= 1"):
        nc.SweepSpec(workload="mesh", param="m_s", values=(64.0, 128.0), repetitions=bad)
