"""Sweep specification and runner checks."""

from __future__ import annotations

import numpy as np
import pytest

import neurocost as nc
from neurocost import sweep


def test_swept_key_cannot_be_fixed():
    with pytest.raises(ValueError, match="'m_s'"):
        nc.SweepSpec(workload="mesh", param="m_s", values=(64.0, 128.0),
                     fixed=(("k", 4.0), ("m_s", 32.0)))


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError, match="workload must be one of .* got 'ring'"):
        nc.SweepSpec(workload="ring", param="m_s", values=(64.0, 128.0))


def test_zero_energy_skips_the_regression():
    rows, reg = nc.run_sweep(nc.SweepSpec(workload="mesh", param="amplitude",
                                          values=(0.01, 0.02), fixed=(("m_s", 64.0),)))
    assert reg is None
    assert [row.mean_e_t for row in rows] == [0.0, 0.0]


def test_ff_rejects_a_window():
    with pytest.raises(ValueError, match="'ff' has no parameter 'window'"):
        nc.SweepSpec(workload="ff", param="n", values=(4.0, 8.0), fixed=(("window", 9.0),))


def test_window_defaults_to_five():
    def run(*fixed):
        return nc.run_sweep(nc.SweepSpec(workload="mesh", param="m_s", values=(16.0, 32.0),
                                         fixed=fixed))

    assert run() == run(("window", 5.0))
    assert run() != run(("window", 1.0))


@pytest.mark.parametrize("workload, param, values, fixed, message", [
    ("mesh", "m_s", (64.9, 128.0), (), "m_s must be an integer >= 1, got 64.9"),
    ("mesh", "m_s", (64.0, float("inf")), (), "m_s must be an integer >= 1, got inf"),
    ("mesh", "m_s", (float("nan"), 64.0), (), "m_s must be an integer >= 1, got nan"),
    ("ff", "n_i", (4.0, 8.0), (("n", 2.5),), "n must be an integer >= 1, got 2.5"),
    ("mesh", "m_s", (16.0, 32.0), (("window", 0.0),), "window must be an integer >= 1, got 0"),
    ("mesh", "m_s", (16.0, 32.0), (("window", -2.0),), "window must be an integer >= 1, got -2"),
    ("random", "window", (0.0, 2.0), (), "window must be an integer >= 1, got 0"),
    ("mesh", "n_mesh", (1.0, 2.0), (), "n_mesh must be an integer >= 2, got 1"),
])
def test_counts_are_checked_when_the_spec_is_built(workload, param, values, fixed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        nc.SweepSpec(workload=workload, param=param, values=values, fixed=fixed)


@pytest.mark.parametrize("param, values, message", [
    ("mean", (-1.0, 1.0), r"must be finite and positive, got \(-1.0, 1.0\)$"),
    ("amplitude", (0.0, 1.0), "must be finite and positive"),
    ("amplitude", (1.0, float("inf")), "must be finite and positive"),
    ("alpha", (float("nan"), 0.5), "must be finite and positive"),
    ("m_s", (16.0, 16.0), "must not all be equal$"),
    ("v_thresh", (0.25, 0.25, 0.25), "must not all be equal$"),
])
def test_swept_values_meet_the_fit_when_the_spec_is_built(param, values, message):
    with pytest.raises(ValueError, match=f"^swept values {message}"):
        nc.SweepSpec(workload="mesh", param=param, values=values)
    # A point's own count check still speaks first.
    with pytest.raises(ValueError, match="^window must be an integer >= 1, got 0$"):
        nc.SweepSpec(workload="mesh", param=param, values=values, fixed=(("window", 0.0),))


def test_point_holds_every_parameter_and_counts_as_ints():
    spec = nc.SweepSpec(workload="ff", param="n_i", values=(4.0, 8.0),
                        fixed=(("n", 6.0), ("rate", 1)))
    assert spec.point(4.0) == {"n": 6, "n_i": 4, "n_j": 6, "rate": 1.0,
                               "steps_per_presentation": 10, "presentations": 3}
    assert [type(v) for v in spec.point(4.0).values()] == [int, int, int, float, int, int]
    mesh = nc.SweepSpec(workload="mesh", param="m_s", values=(64.0, 128.0))
    assert (mesh.point(128.0)["cycles"], mesh.point(128.0)["window"]) == (8, 5)


class _Recording(dict):
    """A point that records every parameter read from it."""

    def __init__(self, point):
        super().__init__(point)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


@pytest.mark.parametrize("workload, param, value, fixed", [
    ("mesh", "m_s", 16.0, (("m_t", 4.0),)),
    ("ff", "n", 2.0, (("presentations", 1.0), ("steps_per_presentation", 2.0))),
    ("random", "n", 4.0, (("steps", 4.0),)),
])
def test_each_runner_reads_exactly_its_table_keys(workload, param, value, fixed):
    """Every parameter in the table is read, by the build or run half or
    by a default derived from it, so none is listed without taking effect."""
    build, run, params = sweep.SWEEP_TABLE[workload]
    spec = nc.SweepSpec(workload=workload, param=param, values=(value, 2 * value), fixed=fixed)
    point = _Recording(spec.point(value))
    run(build(point, 0), point, nc.preset("unit"), 0)
    for p in params.values():
        if callable(p.default):
            p.default(point)
    assert point.read == set(params)


def test_a_random_sweep_draws_each_graph_once(monkeypatch):
    # The spec used to draw every point's graph at seed 0 only to check it.
    drawn = []
    gen = sweep.gen_random_dag

    def counted(n, density, alphabet, seed):
        drawn.append((n, seed))
        return gen(n, density, alphabet, seed)

    monkeypatch.setattr(sweep, "gen_random_dag", counted)
    spec = nc.SweepSpec(workload="random", param="n", values=(24.0, 12.0), repetitions=2)
    assert drawn == []
    nc.run_sweep(spec, seed=3)
    assert drawn == [(12, 3), (12, 4), (24, 3), (24, 4)]


def test_an_ff_sweep_draws_each_weight_matrix_once(monkeypatch):
    # The spec used to draw every point's weights at seed 0 only to check a rate.
    drawn = []
    default_rng = np.random.default_rng

    def counted(seed):
        drawn.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    spec = nc.SweepSpec(workload="ff", param="n", values=(4.0, 2.0), repetitions=2,
                        fixed=(("presentations", 1.0),))
    assert drawn == []
    rows, _reg = nc.run_sweep(spec, seed=3)
    assert drawn == [3, 4, 3, 4]
    assert [row.value for row in rows] == [2.0, 4.0]


def test_fixed_key_given_twice_is_rejected():
    with pytest.raises(ValueError, match="'k' is fixed more than once"):
        nc.SweepSpec(workload="mesh", param="m_s", values=(64.0, 128.0),
                     fixed=(("k", 4.0), ("k", 6.0)))


@pytest.mark.parametrize("bad", [0, 1.5, True, np.True_])
def test_repetitions_must_be_a_count(bad):
    with pytest.raises(ValueError, match="repetitions must be an integer >= 1"):
        nc.SweepSpec(workload="mesh", param="m_s", values=(64.0, 128.0), repetitions=bad)


def test_numpy_repetitions_are_kept_as_an_int():
    spec = nc.SweepSpec(workload="mesh", param="m_s", values=(64.0, 128.0),
                        repetitions=np.int64(2))
    assert type(spec.repetitions) is int and spec.repetitions == 2


def test_fit_loglog_recovers_a_power_law():
    reg = nc.fit_loglog([1.0, 2.0, 4.0], [3.0, 12.0, 48.0])
    assert reg.slope == pytest.approx(2.0) and reg.r_squared == pytest.approx(1.0)


@pytest.mark.parametrize("xs, ys, message", [
    ([2.0], [3.0], "need at least two"),
    ([2.0, 2.0], [1.0, 3.0], "must not all be equal"),
])
def test_fit_loglog_needs_two_distinct_x_values(xs, ys, message):
    with pytest.raises(ValueError, match=message):
        nc.fit_loglog(xs, ys)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize("axis", ["xs", "ys"])
def test_fit_loglog_needs_finite_positive_data(axis, bad):
    # inf and nan used to pass the `<= 0` check and return slope=nan.
    data = {"xs": [1.0, 2.0], "ys": [1.0, 2.0]}
    data[axis][1] = bad
    with pytest.raises(ValueError, match="needs finite, strictly positive data"):
        nc.fit_loglog(**data)
