"""Parameter sweeps: run a workload across swept values and fit the
scaling exponent with a log-log regression."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .costs import CostConstants
from .errors import check_count
from .fileio import load_constants
from .graph import validate_graph
from .neural import count_resources, lower_graph
from .sim import AnalogEncoding, ZeroActivity, init_sim, reconcile_energy, run_sim
from .workloads import (
    Diffusion,
    FFLayerSpec,
    MeshSpec,
    ff_input_schedule,
    gen_ff_layer,
    gen_mesh,
    gen_random_dag,
    sinusoid_init,
)

SWEEP_WORKLOADS = ("mesh", "ff", "random")

#: The parameters each workload's point runner reads; a sweep may vary or
#: fix only these.
SWEEP_PARAMS: Mapping[str, frozenset[str]] = {
    "mesh": frozenset({"m_s", "k", "m_t", "n_mesh", "v_thresh", "amplitude", "mean",
                       "cycles", "alpha"}),
    "ff": frozenset({"n_i", "n_j", "n", "rate", "steps_per_presentation", "presentations"}),
    "random": frozenset({"n", "density", "steps"}),
}


@dataclass(frozen=True)
class RegressionResult:
    """Least-squares fit of ln(y) = slope * ln(x) + intercept."""

    slope: float
    intercept: float
    r_squared: float


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> RegressionResult:
    """Ordinary least squares on the log-log points; requires strictly
    positive data and at least two distinct x values."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log regression needs strictly positive data")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    vx = float(np.var(lx))
    if vx == 0.0:
        raise ValueError("swept values must not all be equal")
    slope = float(np.cov(lx, ly, bias=True)[0, 1] / vx)
    intercept = float(ly.mean() - slope * lx.mean())
    residuals = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residuals ** 2)) / ss_tot
    return RegressionResult(slope=slope, intercept=intercept,
                            r_squared=min(max(r2, 0.0), 1.0))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a workload, the parameter to vary, and fixed context."""

    workload: str
    param: str
    values: tuple[float, ...]
    fixed: tuple[tuple[str, float], ...] = ()
    repetitions: int = 1
    constants: CostConstants | None = None

    def __post_init__(self) -> None:
        if self.workload not in SWEEP_WORKLOADS:
            raise ValueError(f"workload must be one of {SWEEP_WORKLOADS}, got {self.workload!r}")
        known = SWEEP_PARAMS[self.workload]
        keys = [self.param, *(key for key, _value in self.fixed)]
        for key in keys:
            if key not in known:
                raise ValueError(f"workload {self.workload!r} has no parameter {key!r}; "
                                 f"it reads {', '.join(sorted(known))}")
        if self.param in keys[1:]:
            raise ValueError(f"parameter {self.param!r} is both swept and fixed")
        for key in keys[1:]:
            if keys.count(key) > 1:
                raise ValueError(f"parameter {key!r} is fixed more than once")
        if len(self.values) < 2:
            raise ValueError("a sweep needs at least two values to regress over")
        check_count("repetitions", self.repetitions)


@dataclass(frozen=True)
class SweepRow:
    value: float
    mean_e_t: float
    total_e_n: float
    steps: int


SWEEP_COLUMNS = ("value", "mean_e_t", "total_e_n", "steps")

#: One point's measurement: (mean_e_t, total_e_n, steps).
PointResult = tuple[float, float, int]


def _mesh_point(params: Mapping[str, float], constants: CostConstants,
                seed: int, window: int) -> PointResult:
    m_s = int(params.get("m_s", 64))
    k = int(params.get("k", 4))
    m_t = int(params.get("m_t", 60))
    n_mesh = int(params.get("n_mesh", 2))
    v_thresh = float(params.get("v_thresh", 0.25))
    amplitude = float(params.get("amplitude", 1.0))
    mean = float(params.get("mean", 1.0))
    cycles = int(params.get("cycles", max(1, m_s // 16)))
    alpha = float(params.get("alpha", 0.5))
    spec = MeshSpec(
        m_s=m_s, k=k, m_t=m_t, dynamics=Diffusion(alpha),
        init=sinusoid_init(m_s, amplitude=amplitude, mean=mean, cycles=cycles),
        n_mesh=n_mesh, v_thresh=v_thresh,
    )
    _template, ng = gen_mesh(spec)
    state = init_sim(ng, AnalogEncoding(), seed, constants)
    trace = run_sim(state, max_steps=m_t, stop=ZeroActivity(window=3))
    reconcile_energy(trace, count_resources(ng), constants)
    warm = [rec.e_t for rec in trace.records[:window]]
    return float(sum(warm) / len(warm)), trace.e_n, len(trace.records)


def _ff_point(params: Mapping[str, float], constants: CostConstants,
              seed: int, window: int) -> PointResult:
    n_i = int(params.get("n_i", params.get("n", 8)))
    n_j = int(params.get("n_j", params.get("n", 8)))
    rate = float(params.get("rate", 0.5))
    spp = int(params.get("steps_per_presentation", 10))
    presentations = int(params.get("presentations", 3))
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 1.0, size=(n_i, n_j))
    spec = FFLayerSpec.from_arrays(weights, [rate] * n_i, spp)
    ng = gen_ff_layer(spec)
    state = init_sim(ng, AnalogEncoding(), seed, constants)
    trace = run_sim(state, max_steps=presentations * spp,
                    inputs=ff_input_schedule(spec))
    reconcile_energy(trace, count_resources(ng), constants)
    return float(trace.e_n / presentations), trace.e_n, len(trace.records)


def _random_point(params: Mapping[str, float], constants: CostConstants,
                  seed: int, window: int) -> PointResult:
    n = int(params.get("n", 32))
    density = float(params.get("density", 0.2))
    steps = int(params.get("steps", 50))
    graph = gen_random_dag(n, density, ("add", "mul", "relay"), seed)
    ng, _am = lower_graph(validate_graph(graph))
    kick = tuple((nid, 1.5) for nid in ng.input_neurons)
    state = init_sim(ng, AnalogEncoding(), seed, constants)
    trace = run_sim(state, max_steps=steps, stop=ZeroActivity(window=3),
                    inputs={0: kick})
    reconcile_energy(trace, count_resources(ng), constants)
    warm = [rec.e_t for rec in trace.records[:window]]
    return float(sum(warm) / len(warm)), trace.e_n, len(trace.records)


#: The workloads whose mean_e_t averages a warm-up window of steps.
WINDOWED_WORKLOADS = ("mesh", "random")
DEFAULT_WINDOW = 5

_POINT_RUNNERS: dict[str, Callable[..., PointResult]] = {
    "mesh": _mesh_point,
    "ff": _ff_point,
    "random": _random_point,
}


def run_sweep(spec: SweepSpec, seed: int = 0, window: int | None = None
              ) -> tuple[tuple[SweepRow, ...], RegressionResult | None]:
    """Execute the sweep and fit the scaling exponent.

    `window` is the number of warm-up steps averaged into mean_e_t
    (default 5) for the workloads in WINDOWED_WORKLOADS; the ff workload
    reports energy per presentation instead and rejects a window.
    Repetitions at each value are averaged before fitting. The
    regression is skipped (None) when any averaged energy is zero,
    since a log-log fit is undefined there.
    """
    if window is None:
        window = DEFAULT_WINDOW
    elif spec.workload not in WINDOWED_WORKLOADS:
        raise ValueError(f"workload {spec.workload!r} has no warm-up window; "
                         f"window applies to {', '.join(WINDOWED_WORKLOADS)}")
    constants = spec.constants if spec.constants is not None else load_constants()
    runner = _POINT_RUNNERS[spec.workload]
    rows: list[SweepRow] = []
    for value in sorted(spec.values):
        params = dict(spec.fixed)
        params[spec.param] = value
        reps = [runner(params, constants, seed + r, window)
                for r in range(spec.repetitions)]
        mean_e_t, total_e_n, steps = (sum(column) / len(reps) for column in zip(*reps))
        rows.append(SweepRow(value=float(value), mean_e_t=float(mean_e_t),
                             total_e_n=float(total_e_n), steps=round(steps)))
    if any(row.mean_e_t <= 0.0 for row in rows):
        return tuple(rows), None
    reg = fit_loglog([row.value for row in rows], [row.mean_e_t for row in rows])
    return tuple(rows), reg
