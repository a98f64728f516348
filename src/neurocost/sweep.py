"""Parameter sweeps: run a workload across swept values and fit the
scaling exponent with a log-log regression."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .costs import PRESETS, CostConstants
from .errors import check_count
from .graph import validate_graph
from .neural import NeuralGraph, count_resources, lower_graph
from .sim import AnalogEncoding, SimTrace, ZeroActivity, init_sim, reconcile_energy, run_sim
from .workloads import (
    Diffusion,
    FFLayerSpec,
    MeshSpec,
    check_random_dag,
    ff_input_schedule,
    gen_ff_layer,
    gen_mesh,
    gen_random_dag,
    sinusoid_init,
)


@dataclass(frozen=True)
class RegressionResult:
    """Least-squares fit of ln(y) = slope * ln(x) + intercept."""

    slope: float
    intercept: float
    r_squared: float


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> RegressionResult:
    """Ordinary least squares on the log-log points; requires finite,
    strictly positive data and at least two distinct x values."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs")
    if not all(0 < v < math.inf for v in (*xs, *ys)):  # false for nan too
        raise ValueError("log-log regression needs finite, strictly positive data")
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
class SweepRow:
    value: float
    mean_e_t: float
    total_e_n: float
    steps: int


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))

#: One point's parameters by name, and its measurement: (mean_e_t, total_e_n, steps).
Point = Mapping[str, float]
PointResult = tuple[float, float, int]


def _simulate(ng: NeuralGraph, constants: CostConstants, seed: int, max_steps: int,
              **run_args) -> SimTrace:
    """Init, run and reconcile one network under the analog encoding."""
    state = init_sim(ng, AnalogEncoding(), seed, constants)
    trace = run_sim(state, max_steps=max_steps, **run_args)
    reconcile_energy(trace, count_resources(ng), constants)
    return trace


def _warm_up(trace: SimTrace, window: int) -> PointResult:
    """mean_e_t as the mean energy of the first `window` steps."""
    warm = [rec.e_t for rec in trace.records[:window]]
    return float(sum(warm) / len(warm)), trace.e_n, len(trace.records)


def _mesh_spec(p: Point) -> MeshSpec:
    init = sinusoid_init(p["m_s"], amplitude=p["amplitude"], mean=p["mean"], cycles=p["cycles"])
    return MeshSpec(m_s=p["m_s"], k=p["k"], m_t=p["m_t"], init=init,
                    dynamics=Diffusion(p["alpha"]), n_mesh=p["n_mesh"], v_thresh=p["v_thresh"])


def _mesh_check(p: Point) -> None:
    _mesh_spec(p)


def _mesh_point(p: Point, constants: CostConstants, seed: int) -> PointResult:
    _template, ng = gen_mesh(_mesh_spec(p))
    trace = _simulate(ng, constants, seed, p["m_t"], stop=ZeroActivity(window=3))
    return _warm_up(trace, p["window"])


def _ff_check(p: Point) -> None:
    FFLayerSpec(np.ones((1, 1)), [p["rate"]], p["steps_per_presentation"])  # one source, one unit


def _ff_point(p: Point, constants: CostConstants, seed: int) -> PointResult:
    weights = np.random.default_rng(seed).uniform(0.2, 1.0, size=(p["n_i"], p["n_j"]))
    spec = FFLayerSpec(weights, [p["rate"]] * p["n_i"], p["steps_per_presentation"])
    trace = _simulate(gen_ff_layer(spec), constants, seed,
                      p["presentations"] * p["steps_per_presentation"],
                      inputs=ff_input_schedule(spec))
    return float(trace.e_n / p["presentations"]), trace.e_n, len(trace.records)


_ALPHABET = ("add", "mul", "relay")


def _random_check(p: Point) -> None:
    check_random_dag(p["density"], _ALPHABET)


def _random_point(p: Point, constants: CostConstants, seed: int) -> PointResult:
    graph = gen_random_dag(p["n"], p["density"], _ALPHABET, seed)
    ng, _am = lower_graph(validate_graph(graph))
    kick = tuple((nid, 1.5) for nid in ng.input_neurons)
    trace = _simulate(ng, constants, seed, p["steps"], stop=ZeroActivity(window=3),
                      inputs={0: kick})
    return _warm_up(trace, p["window"])


@dataclass(frozen=True)
class Param:
    """A workload parameter: its default (a number, or a function of the parameters
    listed before it, written out as `shown`) and, for a count, its least value."""

    default: float | Callable[[Point], float]
    minimum: int | None = None
    shown: str = ""

    def read(self, name: str, value: float) -> float:
        """A count as a checked int, any other value as a float."""
        if self.minimum is None:
            return float(value)
        return check_count(name, int(value) if float(value).is_integer() else value, self.minimum)


#: Each workload's check, point -> None, which raises on a value the workload
#: rejects and draws nothing; its run, (point, constants, seed) -> PointResult,
#: which builds its own spec, weights or graph; and its parameters in help
#: order, each as Param(default, least value if a count, text of a derived default).
SWEEP_TABLE: Mapping[str, tuple[Callable[[Point], None], Callable[..., PointResult],
                                Mapping[str, Param]]] = {
    "mesh": (_mesh_check, _mesh_point, {
        "m_s": Param(64, 1), "k": Param(4, 0), "m_t": Param(60, 1), "n_mesh": Param(2, 2),
        "v_thresh": Param(0.25), "amplitude": Param(1.0), "mean": Param(1.0),
        "cycles": Param(lambda p: max(1, p["m_s"] // 16), 0, "max(1,m_s//16)"),
        "alpha": Param(0.5), "window": Param(5, 1)}),
    "ff": (_ff_check, _ff_point, {
        "n": Param(8, 1), "n_i": Param(lambda p: p["n"], 1, "n"),
        "n_j": Param(lambda p: p["n"], 1, "n"), "rate": Param(0.5),
        "steps_per_presentation": Param(10, 1), "presentations": Param(3, 1)}),
    "random": (_random_check, _random_point, {
        "n": Param(32, 1), "density": Param(0.2), "steps": Param(50, 1),
        "window": Param(5, 1)}),
}
SWEEP_WORKLOADS = tuple(SWEEP_TABLE)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a workload, the parameter to vary, and fixed context.
    Every swept and fixed value is checked when the spec is built, the
    swept ones also for what the log-log fit needs; then each point's
    check runs, so a value the workload rejects fails before any point
    runs. A check draws nothing: each weight matrix or graph is drawn
    once, by `run_sweep`."""

    workload: str
    param: str
    values: tuple[float, ...]
    fixed: tuple[tuple[str, float], ...] = ()
    repetitions: int = 1
    constants: CostConstants = PRESETS["unit"]

    def __post_init__(self) -> None:
        if self.workload not in SWEEP_TABLE:
            raise ValueError(f"workload must be one of {SWEEP_WORKLOADS}, got {self.workload!r}")
        known = SWEEP_TABLE[self.workload][2]
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
        object.__setattr__(self, "repetitions", check_count("repetitions", self.repetitions))
        for value in self.values:
            self.point(value)
        if not all(0 < v < math.inf for v in self.values):
            raise ValueError(f"swept values must be finite and positive, got {self.values}")
        if len(set(self.values)) == 1:
            raise ValueError("swept values must not all be equal")
        for value in self.values:
            SWEEP_TABLE[self.workload][0](self.point(value))

    def point(self, value: float) -> dict[str, float]:
        """Every parameter at the swept `value`, in table order, as check and run read it."""
        given = {**dict(self.fixed), self.param: value}
        point: dict[str, float] = {}
        for key, param in SWEEP_TABLE[self.workload][2].items():
            point[key] = (param.read(key, given[key]) if key in given else
                          param.default(point) if callable(param.default) else param.default)
        return point


def run_sweep(spec: SweepSpec, seed: int = 0
              ) -> tuple[tuple[SweepRow, ...], RegressionResult | None]:
    """Execute the sweep and fit the scaling exponent.

    mean_e_t is the mean energy of the first `window` steps for mesh and
    random, and the energy per presentation for ff. Repetitions at each
    value are averaged before fitting. The regression is skipped (None)
    when any averaged energy is zero, since a log-log fit is undefined.
    """
    run = SWEEP_TABLE[spec.workload][1]
    rows: list[SweepRow] = []
    for value in sorted(spec.values):
        point = spec.point(value)
        reps = [run(point, spec.constants, seed + r) for r in range(spec.repetitions)]
        mean_e_t, total_e_n, steps = (sum(column) / len(reps) for column in zip(*reps))
        rows.append(SweepRow(value=float(value), mean_e_t=float(mean_e_t),
                             total_e_n=float(total_e_n), steps=round(steps)))
    if any(row.mean_e_t <= 0.0 for row in rows):
        return tuple(rows), None
    reg = fit_loglog([row.value for row in rows], [row.mean_e_t for row in rows])
    return tuple(rows), reg
