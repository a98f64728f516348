"""Analytic time, space, and energy bounds for both architectures."""

import dataclasses
import math

import numpy as np
import pytest

from neurocost import (
    CostConstants,
    FiringRateOutOfRange,
    GraphMetrics,
    PRESETS,
    ResourceCount,
    SpaceBounds,
    TimeBounds,
    UnknownPreset,
    conventional_energy,
    conventional_space,
    conventional_time,
    energy_terms,
    ff_cost_report,
    mesh_cost_report,
    nmc_energy_per_step,
    nmc_space,
    nmc_time,
    preset,
)
from oracles import row

FOOTNOTE_METRICS = GraphMetrics(t1=4, t_inf=3, level_widths=(2, 1, 1),
                                max_fan_in=2, max_fan_out=1)
FOOTNOTE_RESOURCES = ResourceCount(n_total=4, s_total=3, n_bar=1.0, s_bar=0.75)
UNIT = PRESETS["unit"]
SKEW = PRESETS["digital-skew"]


# ----------------------------------------------------------------- constants


def test_presets():
    assert preset("unit") == CostConstants()
    assert preset("digital-skew").e_spike == 100.0
    assert preset("digital-skew").e_voltage == 1.0
    with pytest.raises(UnknownPreset):
        preset("nope")


def test_constants_validation():
    with pytest.raises(ValueError):
        CostConstants(e_op=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="e_spike must be finite"):
            CostConstants(e_spike=bad)


def test_constants_reject_overflowing_spike_cost():
    # Each value is finite, but e_spike * ell is inf, and inf * 0 events is nan.
    with pytest.raises(ValueError, match=r"e_spike \* ell must be finite, got 1e\+308 \* 1e\+308"):
        CostConstants(e_spike=1e308, ell=1e308)
    assert CostConstants(e_spike=1e154, ell=1e154).e_spike == 1e154


_MESH = (100, 33, 4, 3, 3, 2)


@pytest.mark.parametrize("evaluate, field", [
    (lambda c: conventional_energy(FOOTNOTE_METRICS, c), "e_op"),
    (lambda c: conventional_energy(FOOTNOTE_METRICS, c), "b_p"),
    (lambda c: nmc_energy_per_step(FOOTNOTE_RESOURCES, c, 1.0), "e_voltage"),
    (lambda c: nmc_energy_per_step(FOOTNOTE_RESOURCES, c, 1.0), "ell"),
    (lambda c: nmc_energy_per_step(FOOTNOTE_RESOURCES, c, 1.0).times(3), "e_spikegen"),
    (lambda c: row(mesh_cost_report(*_MESH, c, [1.0] * 33), "conventional").energy, "e_op"),
    (lambda c: row(mesh_cost_report(*_MESH, c, [1.0] * 33), "nmc").energy, "e_voltage"),
], ids=["conv_e_op", "conv_b_p", "nmc_e_voltage", "nmc_ell", "nmc_times", "mesh_conv",
        "mesh_nmc"])
def test_energy_that_overflows_raises(evaluate, field):
    # Each constant is finite, but the energy it prices is not: the estimate
    # used to hold inf, which the CLI printed with exit 0.
    assert math.isfinite(evaluate(CostConstants(**{field: 1e300})).total)
    with pytest.raises(ValueError, match="energy total overflows to inf"):
        evaluate(CostConstants(**{field: 1e308}))


@pytest.mark.parametrize("evaluate, field", [
    (lambda c: nmc_space(FOOTNOTE_RESOURCES, FOOTNOTE_METRICS, c), "c_n"),
    (lambda c: nmc_space(FOOTNOTE_RESOURCES, FOOTNOTE_METRICS, c, n_core=2), "c_s"),
    (lambda c: conventional_space(c, 2, program_size=4, data_size=4), "c_p"),
    (lambda c: row(mesh_cost_report(*_MESH, c, [1.0] * 33), "nmc").space, "c_n"),
    (lambda c: row(ff_cost_report(8, 4, c, 0.5), "nmc").space, "c_s"),
], ids=["nmc_c_n", "nmc_realized_c_s", "conv_c_p", "mesh_nmc", "ff_nmc"])
def test_space_that_overflows_raises(evaluate, field):
    # A finite constant whose space bound is not: nmc_ideal used to hold [inf, inf].
    space = evaluate(CostConstants(**{field: 1e300}))
    assert math.isfinite(space.lower) and all(map(math.isfinite, space.breakdown.values()))
    with pytest.raises(ValueError, match="space lower bound overflows to inf"):
        evaluate(CostConstants(**{field: 1e308}))


def test_space_term_that_overflows_raises():
    # Each bound is finite, but a term of the breakdown is not.
    with pytest.raises(ValueError, match="space neurons overflows to inf"):
        SpaceBounds(lower=1.0, upper=1.0, breakdown={"neurons": math.inf})
    assert SpaceBounds(lower=1.0, upper=math.inf).upper == math.inf


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(CostConstants)])
@pytest.mark.parametrize("bad", [True, False])
def test_constants_reject_bool(field, bad):
    # A bool used to build and be stored as the constant.
    with pytest.raises(ValueError, match=f"{field} must be a number, got {bad!r}"):
        CostConstants(**{field: bad})


def _analytic_outputs(c: CostConstants) -> str:
    """Every analytic output that reads the constants, as one comparable text:
    the per-step formula, the rows `neurocost analyze` builds, and both reports."""
    return repr((
        energy_terms(c, 3, 2, 7),
        conventional_space(c, 2, program_size=4, data_size=4),
        conventional_energy(FOOTNOTE_METRICS, c),
        nmc_space(FOOTNOTE_RESOURCES, FOOTNOTE_METRICS, c),
        nmc_energy_per_step(FOOTNOTE_RESOURCES, c, 0.5),
        mesh_cost_report(10, 5, 2, 3, 3, 2, c, [0.0, 0.5, 1.0]),
        ff_cost_report(8, 4, c, 0.5),
    ))


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(CostConstants)])
def test_every_constant_changes_an_analytic_output(field):
    # A constant that no output reads (as n_core was) is a setting that does nothing.
    changed = dataclasses.replace(UNIT, **{field: 2.0})
    assert _analytic_outputs(changed) != _analytic_outputs(UNIT)


# ---------------------------------------------------------------------- time


def test_conventional_time_footnote():
    b = conventional_time(FOOTNOTE_METRICS, 2)
    assert (b.lower, b.upper) == (3, 5)
    assert b.model == "cpu_ideal"
    b1 = conventional_time(FOOTNOTE_METRICS, 1)
    assert (b1.lower, b1.upper) == (4, 7)
    bmany = conventional_time(FOOTNOTE_METRICS, 1000)
    assert (bmany.lower, bmany.upper) == (3, 4)


@pytest.mark.parametrize("p", [True, False])
def test_conventional_time_rejects_bool(p):
    with pytest.raises(ValueError, match="p_threads must be an integer >= 1"):
        conventional_time(FOOTNOTE_METRICS, p)


@pytest.mark.parametrize("bad", [True, False, 2.0])
def test_core_and_processor_counts_reject_bool_and_float(bad):
    # A bool used to pass as 1 (or fail only as 0), giving a bound.
    with pytest.raises(ValueError, match="n_core must be an integer >= 1"):
        nmc_time(FOOTNOTE_METRICS, bad)
    with pytest.raises(ValueError, match="n_core must be an integer >= 1"):
        nmc_space(FOOTNOTE_RESOURCES, FOOTNOTE_METRICS, UNIT, n_core=bad)
    with pytest.raises(ValueError, match="processor count must be an integer >= 1"):
        conventional_space(UNIT, bad, 1, 1)


def test_conventional_time_models_and_validation():
    with pytest.raises(ValueError):
        conventional_time(FOOTNOTE_METRICS, 0)
    with pytest.raises(ValueError):
        TimeBounds(1.0, 2.0, "warp_drive")
    with pytest.raises(ValueError):
        TimeBounds(5.0, 2.0, "cpu_ideal")


def test_nmc_time():
    ideal = nmc_time(FOOTNOTE_METRICS)
    assert (ideal.lower, ideal.upper, ideal.model) == (3, 3, "nmc_ideal")
    realized = nmc_time(FOOTNOTE_METRICS, n_core=4)
    assert (realized.lower, realized.upper) == (3, 12)
    assert realized.model == "nmc_realized"
    with pytest.raises(ValueError):
        nmc_time(FOOTNOTE_METRICS, n_core=0)


# --------------------------------------------------------------------- space


def test_conventional_space():
    s = conventional_space(UNIT, 2, program_size=10.0, data_size=100.0)
    assert s.lower == 2 + 10 + 100
    assert s.upper == math.inf
    assert s.breakdown == {"processors": 2.0, "program": 10.0, "data": 100.0}
    with pytest.raises(ValueError):
        conventional_space(UNIT, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        conventional_space(UNIT, 1, -1.0, 1.0)


def test_nmc_space_footnote():
    s = nmc_space(FOOTNOTE_RESOURCES, FOOTNOTE_METRICS, UNIT)
    # (c_n * n_bar + c_s * s_bar) * t1 = 1.75 * 4, compressible by t_inf.
    assert s.upper == 7.0
    assert s.lower == pytest.approx(7.0 / 3.0)
    assert s.upper < math.inf
    assert s.breakdown == {"neurons": 4.0, "synapses": 3.0}


def test_nmc_space_realized_divides_by_cores():
    s1 = nmc_space(FOOTNOTE_RESOURCES, FOOTNOTE_METRICS, UNIT)
    s2 = nmc_space(FOOTNOTE_RESOURCES, FOOTNOTE_METRICS, UNIT, n_core=2)
    assert s2.upper == s1.upper / 2
    assert s2.lower == s1.lower / 2
    with pytest.raises(ValueError):
        nmc_space(FOOTNOTE_RESOURCES, FOOTNOTE_METRICS, UNIT, n_core=-1)


# -------------------------------------------------------------------- energy


def test_conventional_energy_is_work_proportional():
    e = conventional_energy(FOOTNOTE_METRICS, UNIT)
    assert e.total == 8.0
    assert e.breakdown == {"operations": 4.0, "communication": 4.0}
    heavy = CostConstants(e_op=2.0, e_mem=3.0, b_p=5.0)
    e2 = conventional_energy(FOOTNOTE_METRICS, heavy)
    assert e2.breakdown["operations"] == 8.0
    assert e2.breakdown["communication"] == 60.0


def test_nmc_energy_per_step_unit():
    r = ResourceCount(n_total=10, s_total=40, n_bar=1.0, s_bar=4.0)
    e = nmc_energy_per_step(r, UNIT, f_t=0.25)
    assert e.breakdown == {
        "voltage": 10.0, "spikegen": 2.5, "synapse": 10.0, "spike": 10.0,
    }
    assert e.total == 32.5


def test_nmc_energy_per_step_skew():
    r = ResourceCount(n_total=10, s_total=40, n_bar=1.0, s_bar=4.0)
    e = nmc_energy_per_step(r, SKEW, f_t=0.25)
    assert e.breakdown == {
        "voltage": 10.0, "spikegen": 25.0, "synapse": 50.0, "spike": 1000.0,
    }
    assert e.total == 1085.0


def test_energy_terms_skew_exact():
    # 3 touched words, 2 spikes, 7 synaptic events under digital-skew:
    # 1*3, 10*2, 5*7 and 100*1*7, summed left to right.
    assert energy_terms(SKEW, 3, 2, 7) == (3.0, 20.0, 35.0, 700.0, 758.0)
    assert energy_terms(SKEW, 0, 0, 0) == (0.0, 0.0, 0.0, 0.0, 0.0)
    # Expected (real-valued) counts go through the same expressions.
    assert energy_terms(SKEW, 10, 2.5, 10.0) == (10.0, 25.0, 50.0, 1000.0, 1085.0)


def test_nmc_energy_quiescent_floor():
    r = ResourceCount(n_total=10, s_total=40, n_bar=1.0, s_bar=4.0)
    e = nmc_energy_per_step(r, UNIT, f_t=0.0)
    assert e.total == 10.0  # only membrane upkeep remains


def test_nmc_energy_firing_terms_scale_linearly():
    r = ResourceCount(n_total=8, s_total=24, n_bar=1.0, s_bar=3.0)
    e1 = nmc_energy_per_step(r, UNIT, f_t=0.125)
    e2 = nmc_energy_per_step(r, UNIT, f_t=0.25)
    e4 = nmc_energy_per_step(r, UNIT, f_t=0.5)
    for term in ("spikegen", "synapse", "spike"):
        assert e2.breakdown[term] == 2 * e1.breakdown[term]
        assert e4.breakdown[term] == 4 * e1.breakdown[term]
    assert e1.breakdown["voltage"] == e4.breakdown["voltage"]


def test_firing_rate_range():
    r = ResourceCount(n_total=1, s_total=1, n_bar=1.0, s_bar=1.0)
    for bad in (-0.1, 1.1):
        with pytest.raises(FiringRateOutOfRange):
            nmc_energy_per_step(r, UNIT, bad)


def test_energy_breakdown_sums_to_total():
    r = ResourceCount(n_total=13, s_total=57, n_bar=1.3, s_bar=5.7)
    for f in (0.0, 0.1, 0.37, 1.0):
        e = nmc_energy_per_step(r, SKEW, f)
        assert e.total == sum(e.breakdown.values())
    e = conventional_energy(FOOTNOTE_METRICS, SKEW)
    assert e.total == sum(e.breakdown.values())


# -------------------------------------------------------------- mesh report


def test_mesh_report_nmc_total_is_left_to_right_series_sum():
    f_series = [(t * 0.618034) % 1.0 for t in range(200)]
    table = mesh_cost_report(1024, 200, 4, 3, 3, 2, SKEW, f_series)
    total = 0.0
    for e_t in table.nmc_energy_series:
        total += e_t
    assert row(table, "nmc").energy.total == total
    assert total != math.fsum(table.nmc_energy_series)  # the order is visible in the bits


def test_mesh_report_conventional_energy_exact():
    table = mesh_cost_report(m_s=100, m_t=50, k=4, t1s=3, t_infs=3,
                             n_mesh=2, c=UNIT, f_series=[0.0] * 50)
    conv = row(table, "conventional")
    assert conv.energy.total == 1.0 * 100 * 50 * 3
    assert conv.energy.breakdown == {"operations": 15000.0}  # no memory traffic term
    assert table.conv_energy_per_step == 300.0
    assert conv.time.lower == 15000
    assert conv.time.upper == 15000 + 150
    assert conv.space.lower == 1 + 3 + 100
    nmc = row(table, "nmc")
    assert (nmc.time.lower, nmc.time.upper) == (150, 150)
    assert nmc.space.lower == nmc.space.upper == 200.0


def test_mesh_report_quiescent_crossover_immediate():
    table = mesh_cost_report(100, 50, 4, 3, 3, 2, UNIT, [0.0] * 50)
    # Quiescent mesh burns 200 per step against 300 conventional.
    assert table.nmc_energy_series[0] == 200.0
    assert table.crossover_step == 0


def test_mesh_report_crossover_after_burst():
    f_series = [1.0] + [0.0] * 30
    table = mesh_cost_report(100, 31, 4, 3, 3, 2, UNIT, f_series)
    # Burst step costs (1 + 3*4) * 200 = 2600 against 300 conventional per
    # step; 2600 + 200 t < 300 (t + 1) first holds at t = 24.
    assert table.nmc_energy_series[0] == 2600.0
    assert table.crossover_step == 24
    nmc_cum = 0.0
    for t, e in enumerate(table.nmc_energy_series):
        nmc_cum += e
        conv_cum = table.conv_energy_per_step * (t + 1)
        if t >= 24:
            assert nmc_cum < conv_cum
        else:
            assert nmc_cum >= conv_cum


def test_mesh_report_no_crossover_when_hot():
    table = mesh_cost_report(100, 20, 4, 3, 3, 2, UNIT, [1.0] * 20)
    assert table.crossover_step is None


def test_mesh_report_crossover_must_persist():
    # Dips below once, then rises back above: does not count.
    f_series = [0.0] * 3 + [1.0] * 30
    table = mesh_cost_report(100, 33, 4, 3, 3, 2, UNIT, f_series)
    assert table.crossover_step is None


def test_mesh_report_validation():
    with pytest.raises(ValueError):
        mesh_cost_report(10, 5, 2, 3, 3, 2, UNIT, [])
    with pytest.raises(FiringRateOutOfRange):
        mesh_cost_report(10, 5, 2, 3, 3, 2, UNIT, [0.5, 1.5])


@pytest.mark.parametrize("sizes, message", [
    # These used to give nmc energy 80.0 and -16.0.
    ((2.5, 4, 2, 3, 3, 2), "m_s must be an integer >= 1, got 2.5"),
    ((True, 4, -2, 3, 3, 2), "m_s must be an integer >= 1, got True"),
    ((4, 4, -2, 3, 3, 2), "k must be an integer >= 0, got -2"),
    ((4, 0, 2, 3, 3, 2), "m_t must be an integer >= 1, got 0"),
    ((4, 4, 2, 1.5, 3, 2), "t1s must be an integer >= 1, got 1.5"),
    ((4, 4, 2, 3, 0, 2), "t_infs must be an integer >= 1, got 0"),
    ((4, 4, 2, 3, 3, 1), "n_mesh must be an integer >= 2, got 1"),
])
def test_mesh_report_sizes_are_counts(sizes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        mesh_cost_report(*sizes, UNIT, [0.5] * 4)


def test_mesh_report_accepts_numpy_counts():
    sizes = (100, 31, 4, 3, 3, 2)
    f_series = [1.0] * 3 + [0.0] * 28
    got = mesh_cost_report(*map(np.int64, sizes), UNIT, f_series)
    want = mesh_cost_report(*sizes, UNIT, f_series)
    assert got == want


# ---------------------------------------------------------------- ff report


def test_ff_report_structure():
    table = ff_cost_report(8, 4, UNIT, f_t=0.5)
    conv = row(table, "conventional")
    nmc = row(table, "nmc")
    assert conv.energy.total == 2 * (8 * 4 + 2 * 4)  # e_op + e_mem traffic
    assert (nmc.time.lower, nmc.time.upper) == (3, 3)
    assert nmc.space.lower == nmc.space.upper == (8 + 4) + 8 * 4
    # voltage 12 + spikegen 6 + synapse 16 + spike 16
    assert nmc.energy.total == 50.0


def test_ff_report_synapse_terms_quadratic():
    e8 = row(ff_cost_report(8, 8, UNIT, 0.5), "nmc").energy
    e16 = row(ff_cost_report(16, 16, UNIT, 0.5), "nmc").energy
    assert e16.breakdown["synapse"] == 4 * e8.breakdown["synapse"]
    assert e16.breakdown["spike"] == 4 * e8.breakdown["spike"]
    assert e16.breakdown["spikegen"] == 2 * e8.breakdown["spikegen"]


def test_ff_report_validation():
    for bad in (0, 2.5, True, np.True_, np.float64(4.0)):
        with pytest.raises(ValueError, match="n_i must be an integer >= 1"):
            ff_cost_report(bad, 4, UNIT, 0.5)
    assert ff_cost_report(np.int64(8), np.int32(4), UNIT, 0.5) == ff_cost_report(8, 4, UNIT, 0.5)
    with pytest.raises(FiringRateOutOfRange):
        ff_cost_report(4, 4, UNIT, 1.5)
