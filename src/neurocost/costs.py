"""Closed-form time, space, and energy bounds for both architectures.

The conventional side follows the work/span model: time is sandwiched by
max(t_inf, ceil(t1/p)) and ceil(t1/p) + t_inf, and energy scales with the
total work t1. The neuromorphic side runs the whole graph as a physical
network: ideal time is the depth t_inf alone, space scales with the
instantiated neurons and synapses, and energy per step scales with the
firing rate, so a converging computation gets cheaper as it settles.

All evaluators are pure functions of their arguments; energy totals are
built by summing the breakdown terms in a fixed order so the identity
total == sum(breakdown.values()) holds bit-exactly.

`energy_terms` is the single per-step event-driven energy formula. The
simulator charges each step with it from recorded event counts, the
reconciliation audit recomputes each step with it, and the analytic
per-step models evaluate it at expected counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

from .errors import FiringRateOutOfRange, UnknownPreset, check_count
from .graph import GraphMetrics
from .neural import ResourceCount

TIME_MODELS = ("cpu_ideal", "nmc_ideal", "nmc_realized")


@dataclass(frozen=True)
class CostConstants:
    """Per-event and per-unit constants for both cost models.

    e_op / e_mem / b_p drive the conventional energy model; c_p / c_mem are
    conventional space constants; c_n / c_s are per-neuron and per-synapse
    space; e_voltage / e_spikegen / e_synapse / e_spike / ell drive the
    event-driven energy model. The core count of a realized machine is an
    argument of nmc_time and nmc_space, not a constant.
    """

    e_op: float = 1.0
    e_mem: float = 1.0
    b_p: float = 1.0
    c_p: float = 1.0
    c_mem: float = 1.0
    c_n: float = 1.0
    c_s: float = 1.0
    e_voltage: float = 1.0
    e_spikegen: float = 1.0
    e_synapse: float = 1.0
    e_spike: float = 1.0
    ell: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            elif not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            elif value < 0:
                raise ValueError(f"{f.name} must be nonnegative, got {value}")
        # energy_terms charges e_spike * ell per event: an overflow to inf
        # would make a step without events cost inf * 0 = nan.
        if not math.isfinite(self.e_spike * self.ell):
            raise ValueError(f"e_spike * ell must be finite, got {self.e_spike} * {self.ell}")


#: Built-in presets: "unit" sets every constant to 1; "digital-skew" makes
#: communication-heavy events expensive relative to local ones.
PRESETS: Mapping[str, CostConstants] = {
    "unit": CostConstants(),
    "digital-skew": CostConstants(e_spike=100.0, e_spikegen=10.0, e_synapse=5.0,
                                  e_voltage=1.0),
}


def preset(name: str) -> CostConstants:
    try:
        return PRESETS[name]
    except KeyError:
        raise UnknownPreset(name) from None


@dataclass(frozen=True)
class TimeBounds:
    lower: float
    upper: float
    model: str

    def __post_init__(self):
        if self.model not in TIME_MODELS:
            raise ValueError(f"unknown time model {self.model!r}")
        if self.lower > self.upper:
            raise ValueError(f"time bounds inverted: [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class SpaceBounds:
    """Space bounds; `upper` may be inf, but a lower bound or term that overflows raises."""

    lower: float
    upper: float
    breakdown: Mapping[str, float] | None = None

    def __post_init__(self):
        for name, value in (("lower bound", self.lower), *(self.breakdown or {}).items()):
            if not math.isfinite(value):
                raise ValueError(
                    f"space {name} overflows to {value}: a cost constant is too large")


@dataclass(frozen=True)
class EnergyEstimate:
    """An energy total and its terms; a total that overflows raises ValueError."""

    total: float
    breakdown: Mapping[str, float]

    def __post_init__(self):
        if not math.isfinite(self.total):
            raise ValueError(
                f"energy total overflows to {self.total}: a cost constant is too large")
        object.__setattr__(self, "breakdown", dict(self.breakdown))

    def times(self, steps: float) -> EnergyEstimate:
        """Every term times `steps`, the total summed again from the terms."""
        return _estimate({name: value * steps for name, value in self.breakdown.items()})


def _estimate(breakdown: dict[str, float]) -> EnergyEstimate:
    # Plain left-to-right sum in insertion order; keeps total == sum(terms)
    # reproducible bit for bit.
    total = 0.0
    for value in breakdown.values():
        total += value
    return EnergyEstimate(total=total, breakdown=breakdown)


def energy_terms(c: CostConstants, touched: float, spikes: float,
                 events: float) -> tuple[float, float, float, float, float]:
    """Per-step event-driven energy: (voltage, spikegen, synapse, spike, total).

    e_voltage per changed state word, e_spikegen per spike, and
    e_synapse + e_spike * ell per synaptic event; the total is summed left
    to right in that order. Counts may be recorded integers or expected
    (real-valued) counts.
    """
    voltage = c.e_voltage * touched
    spikegen = c.e_spikegen * spikes
    synapse = c.e_synapse * events
    spike = c.e_spike * c.ell * events
    return voltage, spikegen, synapse, spike, voltage + spikegen + synapse + spike


def conventional_time(m: GraphMetrics, p_threads: int) -> TimeBounds:
    """Work/span sandwich for p_threads parallel execution units."""
    check_count("p_threads", p_threads)
    chunks = math.ceil(m.t1 / p_threads)
    return TimeBounds(lower=max(m.t_inf, chunks), upper=chunks + m.t_inf, model="cpu_ideal")


def nmc_time(m: GraphMetrics, n_core: int | None = None) -> TimeBounds:
    """Ideal network time is the depth alone; a realized machine with
    n_core cores pays at most n_core times that."""
    if n_core is None:
        return TimeBounds(lower=m.t_inf, upper=m.t_inf, model="nmc_ideal")
    check_count("n_core", n_core)
    return TimeBounds(lower=m.t_inf, upper=n_core * m.t_inf, model="nmc_realized")


def conventional_space(c: CostConstants, p: int, program_size: float,
                       data_size: float) -> SpaceBounds:
    """Lower bound c_p * p + program + data; no useful upper bound exists
    (a conventional machine may cache and copy arbitrarily)."""
    check_count("processor count", p)
    if program_size < 0 or data_size < 0:
        raise ValueError("program_size and data_size must be nonnegative")
    lower = c.c_p * p + program_size + data_size
    return SpaceBounds(lower=lower, upper=math.inf,
                       breakdown={"processors": c.c_p * p,
                                  "program": float(program_size),
                                  "data": float(data_size)})


def nmc_space(r: ResourceCount, m: GraphMetrics, c: CostConstants,
              n_core: int | None = None) -> SpaceBounds:
    """Structural network capacity.

    Instantiating the whole graph costs (c_n * n_bar + c_s * s_bar) * t1;
    reusing physical neurons across the t_inf levels compresses that by at
    most t1 / t_inf, giving the lower bound. The realized variant divides
    both bounds by n_core.
    """
    per_op = c.c_n * r.n_bar + c.c_s * r.s_bar
    upper = per_op * m.t1
    lower = upper / m.t_inf
    divisor = 1
    if n_core is not None:
        check_count("n_core", n_core)
        divisor = n_core
    return SpaceBounds(
        lower=lower / divisor,
        upper=upper / divisor,
        breakdown={"neurons": c.c_n * r.n_bar * m.t1 / divisor,
                   "synapses": c.c_s * r.s_bar * m.t1 / divisor},
    )


def conventional_energy(m: GraphMetrics, c: CostConstants) -> EnergyEstimate:
    """Every operation costs e_op, plus e_mem * b_p of traffic per op."""
    return _estimate({
        "operations": c.e_op * m.t1,
        "communication": c.e_mem * c.b_p * m.t1,
    })


def nmc_energy_per_step(r: ResourceCount, c: CostConstants, f_t: float) -> EnergyEstimate:
    """Event-driven per-step energy at firing rate f_t.

    Terms: membrane upkeep (e_voltage, over all neurons), spike
    generation (per firing neuron), synaptic operations and spike
    transport (per active synapse, transport scaled by wire length ell).
    """
    if not (0.0 <= f_t <= 1.0):
        raise FiringRateOutOfRange(f_t)
    voltage, spikegen, synapse, spike, total = energy_terms(
        c, r.n_total, f_t * r.n_total, f_t * r.s_total)
    return EnergyEstimate(total=total, breakdown={
        "voltage": voltage, "spikegen": spikegen, "synapse": synapse, "spike": spike})


@dataclass(frozen=True)
class ComparisonRow:
    architecture: str
    time: TimeBounds
    space: SpaceBounds
    energy: EnergyEstimate


@dataclass(frozen=True)
class ComparisonTable:
    """Side-by-side analytic bounds, one row per architecture."""

    workload: str
    rows: tuple[ComparisonRow, ...]
    crossover_step: int | None = None
    nmc_energy_series: tuple[float, ...] = ()
    conv_energy_per_step: float | None = None

    def row(self, architecture: str) -> ComparisonRow:
        for r in self.rows:
            if r.architecture == architecture:
                return r
        raise KeyError(architecture)


def mesh_cost_report(m_s: int, m_t: int, k: int, t1s: int, t_infs: int,
                     n_mesh: int, c: CostConstants, f_series: Sequence[float]) -> ComparisonTable:
    """Compare both architectures on an iterated stencil of m_s points.

    Conventional: one processor; the whole graph has work m_s * m_t * t1s
    and depth m_t * t_infs; energy is e_op per operation. Neuromorphic:
    the mesh instantiates n_total = m_s * n_mesh neurons and s_total =
    k * n_total synapses; per-step energy is `energy_terms` with every
    neuron touched and f_t * k * n_total spikes and synaptic events,
    evaluated over the supplied firing-rate series.

    crossover_step is the earliest step index after which the cumulative
    neuromorphic energy stays strictly below the cumulative conventional
    energy, or None if that never happens within the series.
    """
    m_s, m_t, k, t1s, t_infs, n_mesh = map(
        check_count, ("m_s", "m_t", "k", "t1s", "t_infs", "n_mesh"),
        (m_s, m_t, k, t1s, t_infs, n_mesh), (1, 1, 0, 1, 1, 2))
    if len(f_series) == 0:
        raise ValueError("f_series must contain at least one firing rate")
    metrics = GraphMetrics(t1=m_s * m_t * t1s, t_inf=m_t * t_infs,
                           level_widths=(), max_fan_in=k, max_fan_out=k)
    conv_energy = _estimate({"operations": c.e_op * m_s * m_t * t1s})
    conv_per_step = conv_energy.total / m_t

    n_total = m_s * n_mesh
    per_step: list[float] = []
    for f_t in f_series:
        if not (0.0 <= f_t <= 1.0):
            raise FiringRateOutOfRange(f_t)
        events = f_t * k * n_total
        per_step.append(energy_terms(c, n_total, events, events)[-1])

    crossover = None
    conv_cum = 0.0
    nmc_cum = 0.0
    for t, e_t in enumerate(per_step):
        conv_cum += conv_per_step
        nmc_cum += e_t
        if nmc_cum < conv_cum:
            if crossover is None:
                crossover = t
        else:
            crossover = None  # must stay below through the end of the series
    nmc_energy = _estimate({"per_step_series": nmc_cum})

    conv_row = ComparisonRow(
        architecture="conventional",
        time=conventional_time(metrics, 1),
        space=conventional_space(c, 1, program_size=t1s, data_size=c.c_mem * m_s),
        energy=conv_energy,
    )
    nmc_row = ComparisonRow(
        architecture="nmc",
        time=nmc_time(metrics),
        space=SpaceBounds(lower=c.c_n * n_total, upper=c.c_n * n_total,
                          breakdown={"neurons": c.c_n * n_total}),
        energy=nmc_energy,
    )
    return ComparisonTable(
        workload="mesh",
        rows=(conv_row, nmc_row),
        crossover_step=crossover,
        nmc_energy_series=tuple(per_step),
        conv_energy_per_step=conv_per_step,
    )


def ff_cost_report(n_i: int, n_j: int, c: CostConstants, f_t: float) -> ComparisonTable:
    """Compare both architectures on one dense feed-forward layer.

    The layer decomposes into n_i * n_j synaptic operations, n_j
    summations, and n_j nonlinearities (depth 3). The network form uses
    one neuron per unit (n_total = n_i + n_j, s_total = n_i * n_j), so the
    firing-dependent synapse and spike terms carry the quadratic cost. The
    conventional side runs on one processor.
    """
    n_i, n_j = check_count("n_i", n_i), check_count("n_j", n_j)
    s_total = n_i * n_j
    n_total = n_i + n_j
    t1 = n_i * n_j + 2 * n_j
    metrics = GraphMetrics(t1=t1, t_inf=3, level_widths=(n_i * n_j, n_j, n_j),
                           max_fan_in=n_i, max_fan_out=n_j)
    resources = ResourceCount(n_total=n_total, s_total=s_total,
                              n_bar=1.0, s_bar=s_total / n_total)
    conv_row = ComparisonRow(
        architecture="conventional",
        time=conventional_time(metrics, 1),
        space=conventional_space(c, 1, program_size=3, data_size=c.c_mem * s_total),
        energy=conventional_energy(metrics, c),
    )
    nmc_row = ComparisonRow(
        architecture="nmc",
        time=nmc_time(metrics),
        space=SpaceBounds(lower=c.c_n * n_total + c.c_s * s_total,
                          upper=c.c_n * n_total + c.c_s * s_total,
                          breakdown={"neurons": c.c_n * n_total,
                                     "synapses": c.c_s * s_total}),
        energy=nmc_energy_per_step(resources, c, f_t),
    )
    return ComparisonTable(workload="ff_layer", rows=(conv_row, nmc_row))
