"""Workload generators and reference oracles.

Two families of benchmark workloads plus random-graph fuel for property
tests:

* an iterative mesh relaxation (nearest-neighbour diffusion on a ring)
  realized as a spiking network that transports residual in
  threshold-sized quanta, so activity dies out as the solution converges;
* a dense feed-forward layer (vector-matrix multiply plus nonlinearity)
  driven by deterministic rate-coded spike trains.

The mesh oracle iterates the sparse rows of the coupling matrix, so it
costs O(m_s * k) memory like the network itself; the spiking version is
compared against it by decoding membrane state back to mesh values.

Specs hold their numbers as read-only float copies of the caller's
values, and compare by identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateMesh, check_count
from .graph import ComputeGraph
from .neural import NeuralGraph, NeuronSpec
from .sim import SimState


def _frozen(values) -> np.ndarray:
    """A read-only float copy of `values`."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Diffusion:
    """Nearest-neighbor averaging on a ring: each point keeps (1 - alpha)
    of its value and receives alpha/k from each of its k ring neighbors."""

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True, eq=False)
class MeshSpec:
    """A mesh relaxation problem: a diffusion ring of m_s points, fan-out
    k, m_t timesteps, n_mesh neurons per point, and an initial state
    vector. The ring is checked once, here."""

    m_s: int
    k: int
    m_t: int
    dynamics: Diffusion
    init: np.ndarray
    n_mesh: int = 2
    v_thresh: float = 0.05

    def __post_init__(self) -> None:
        # n_mesh is at least 2: one rail per residual sign
        for name, least in (("m_s", 1), ("k", 0), ("m_t", 1), ("n_mesh", 2)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), least))
        if isinstance(self.v_thresh, bool) or not (math.isfinite(self.v_thresh)
                                                   and self.v_thresh > 0):
            raise ValueError(f"v_thresh must be a finite positive number, got {self.v_thresh!r}")
        object.__setattr__(self, "init", _frozen(self.init))
        if self.init.shape != (self.m_s,):
            raise ValueError(f"init has {self.init.size} entries for m_s={self.m_s}")
        if not np.all(np.isfinite(self.init)):
            raise ValueError("init must be finite")
        if not isinstance(self.dynamics, Diffusion):
            raise ValueError(f"dynamics must be a Diffusion, got {type(self.dynamics).__name__}")
        if self.m_s > 1:
            if self.k == 0:
                raise DegenerateMesh("k=0 with more than one mesh point leaves the mesh uncoupled")
            if self.k % 2 != 0:
                raise DegenerateMesh(f"ring diffusion needs an even fan-out, got k={self.k}")
            if self.k >= self.m_s:
                raise DegenerateMesh(
                    f"fan-out k={self.k} does not fit a ring of {self.m_s} points")


def _coupling_rows(spec: MeshSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros of the ring's update matrix W as (rows, cols, vals), row
    by row with columns ascending, in O(m_s * k): 1 - alpha on the
    diagonal, alpha/k on each ring offset."""
    if spec.m_s == 1:
        return np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), np.ones(1)
    offsets = [0] + [off for d in range(1, spec.k // 2 + 1) for off in (d, -d)]
    point = np.arange(spec.m_s)[:, None]
    cols = np.sort((point + np.array(offsets)) % spec.m_s, axis=1)
    vals = np.where(cols == point, 1.0 - spec.dynamics.alpha, spec.dynamics.alpha / spec.k)
    return np.repeat(point.ravel(), spec.k + 1), cols.ravel(), vals.ravel()


def reference_mesh_solve(spec: MeshSpec) -> np.ndarray:
    """Oracle: iterate x <- x @ W for m_t steps over the sparse rows of W.

    Returns an (m_t + 1, m_s) array whose row t is the state after t
    steps; row 0 is the initial state.
    """
    _rows, cols, vals = _coupling_rows(spec)
    vals = vals.reshape(spec.m_s, -1)  # row i's nonzeros: x[i] scales them with one broadcast
    series = np.empty((spec.m_t + 1, spec.m_s))
    series[0] = spec.init
    for t in range(spec.m_t):
        products = series[t][:, None] * vals  # x[rows] * vals, in the same order
        series[t + 1] = np.bincount(cols, weights=products.ravel(), minlength=spec.m_s)
    return series


def mesh_equilibrium(spec: MeshSpec) -> np.ndarray:
    """Fixed point the iteration relaxes toward: diffusion mixes toward
    the mean of the initial state."""
    return np.full(spec.m_s, spec.init.mean())


def rail_ids(spec: MeshSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Neuron ids of the positive and negative residual rails."""
    pos = tuple(f"p{i}" for i in range(spec.m_s))
    neg = tuple(f"n{i}" for i in range(spec.m_s))
    return pos, neg


def gen_mesh(spec: MeshSpec) -> tuple[ComputeGraph, NeuralGraph]:
    """Mesh template graph plus its spiking realization.

    The template is the per-point op chain (gather neighbor values,
    form the residual, apply the update), so its metrics give the
    per-point work and depth of one timestep.

    The network carries each point's deviation from the known fixed
    point on two integrate-and-fire rails (one per sign). A rail fires
    when its held residual exceeds v_thresh and the spike transports
    one threshold quantum along the coupling weights, so firing is
    driven by local residual and stops once every residual sits below
    threshold. Points beyond the two rails (n_mesh > 2) are padded with
    silent neurons so resource counts match the configured density.
    """
    template = ComputeGraph.from_columns(
        ("gather", "residual", "update"), ("dot", "sub", "add"), ((), ("gather",), ("residual",)),
        declared_inputs=("gather",), declared_outputs=("update",))

    rows, cols, vals = _coupling_rows(spec)
    equilibrium = mesh_equilibrium(spec)
    deviation = spec.init - equilibrium
    pos_ids, neg_ids = rail_ids(spec)

    # Rails: every pos neuron, every neg neuron, then the padding. x0 is
    # max(+-deviation, 0.0) with Python's tie rule, so -0.0 stays -0.0.
    pad = spec.n_mesh - 2
    ids = pos_ids + neg_ids
    if pad:
        ids += tuple(f"r{i}_{j}" for i in range(spec.m_s) for j in range(pad))
    x0 = np.concatenate([np.where(0.0 > deviation, 0.0, deviation),
                         np.where(0.0 > -deviation, 0.0, -deviation),
                         np.zeros(spec.m_s * pad)])
    rail = NeuronSpec("lif", v_thresh=spec.v_thresh, v_reset=0.0)

    # One threshold quantum scaled by each coupling weight, row i then
    # column j ascending, the pos rail before the neg rail.
    m = 2 * len(rows)
    network = NeuralGraph(
        ids, (rail,), np.zeros(len(ids), dtype=np.intp), x0,
        source=np.column_stack([rows, rows + spec.m_s]).reshape(m),
        target=np.column_stack([cols, cols + spec.m_s]).reshape(m),
        weight=np.repeat(spec.v_thresh * vals, 2),
        delay=np.ones(m, dtype=np.int64),
    )
    return template, network


def decode_mesh_state(spec: MeshSpec, state: SimState) -> np.ndarray:
    """Read the mesh values back out of rail membranes.

    `gen_mesh` places the pos rails at positions [0, m_s) and the neg rails
    at [m_s, 2*m_s); raises ValueError when `state` does not hold them there.
    """
    m = spec.m_s
    pos_ids, neg_ids = rail_ids(spec)
    if state.net.ids[:2 * m] != pos_ids + neg_ids:
        raise ValueError(f"state does not hold the rails of the m_s={m}, k={spec.k} mesh "
                         f"at positions [0, {2 * m})")
    return mesh_equilibrium(spec) + (state.x[:m] - state.x[m:2 * m])


def sinusoid_init(m_s: int, amplitude: float = 1.0, mean: float = 1.0,
                  cycles: int = 1) -> np.ndarray:
    """Smooth periodic initial state, handy for size sweeps."""
    phase = 2.0 * math.pi * cycles * np.arange(m_s) / m_s
    return mean + amplitude * np.sin(phase)


@dataclass(frozen=True, eq=False)
class FFLayerSpec:
    """A dense layer: an n_i x n_j weight matrix from n_i sources to n_j
    units, and a deterministic rate code (one rate per source, steps per
    presentation)."""

    weights: np.ndarray
    rates: np.ndarray
    steps_per_presentation: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _frozen(self.weights))
        object.__setattr__(self, "rates", _frozen(self.rates))
        if self.weights.ndim != 2:
            raise ValueError("weights must be a 2-d matrix")
        check_count("n_i", self.n_i)
        check_count("n_j", self.n_j)
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if self.rates.shape != (self.n_i,):
            raise ValueError(f"rate code has {self.rates.size} rates for n_i={self.n_i}")
        if not np.all((self.rates >= 0.0) & (self.rates <= 1.0)):
            raise ValueError("rates must lie in [0, 1]")
        object.__setattr__(self, "steps_per_presentation", check_count(
            "steps per presentation", self.steps_per_presentation))

    from_arrays = classmethod(lambda cls, *args: cls(*args))  # the constructor's earlier name

    @property
    def n_i(self) -> int:
        return self.weights.shape[0]

    @property
    def n_j(self) -> int:
        return self.weights.shape[1]


FF_INPUT_THRESH = 0.5


def ff_input_ids(spec: FFLayerSpec) -> tuple[str, ...]:
    return tuple(f"in{i}" for i in range(spec.n_i))


def ff_output_ids(spec: FFLayerSpec) -> tuple[str, ...]:
    return tuple(f"out{j}" for j in range(spec.n_j))


def gen_ff_layer(spec: FFLayerSpec) -> NeuralGraph:
    """Dense layer network: every source couples to every unit.

    Sources are integrate-and-fire relays driven by injected spikes;
    units apply a rectifying nonlinearity to their weighted input sum.
    All n_i * n_j synapses are materialized, zero weights included, so
    the structural synapse count is exactly the weight-matrix size.
    """
    sources = ff_input_ids(spec)
    units = ff_output_ids(spec)
    source_spec = NeuronSpec("lif", v_thresh=FF_INPUT_THRESH, v_reset=0.0)
    unit_spec = NeuronSpec("ann_relu")
    m = spec.n_i * spec.n_j
    return NeuralGraph(
        sources + units, (source_spec, unit_spec),
        np.repeat([0, 1], [spec.n_i, spec.n_j]), np.zeros(spec.n_i + spec.n_j),
        source=np.repeat(np.arange(spec.n_i), spec.n_j),
        target=np.tile(np.arange(spec.n_i, spec.n_i + spec.n_j), spec.n_i),
        weight=spec.weights.reshape(m),
        delay=np.ones(m, dtype=np.int64),
        input_neurons=sources,
        output_neurons=units,
    )


def ff_input_schedule(spec: FFLayerSpec) -> Callable[[int], tuple[tuple[str, float], ...]]:
    """Evenly spaced spike trains realizing the configured rates.

    Within each presentation of S steps a source with rate r fires on
    exactly floor(S * r) steps, spaced as evenly as integer arithmetic
    allows; the pattern repeats every presentation. The returned callable
    maps a step index to (neuron id, injected value) pairs; each phase's
    pairs are computed on its first use and then reused.
    """
    rates, steps = spec.rates.tolist(), spec.steps_per_presentation
    sources = ff_input_ids(spec)
    phases: dict[int, tuple[tuple[str, float], ...]] = {}

    def schedule(t: int) -> tuple[tuple[str, float], ...]:
        s = t % steps
        fires = phases.get(s)
        if fires is None:
            fires = phases[s] = tuple(
                (nid, 1.0) for nid, rate in zip(sources, rates)
                if math.floor((s + 1) * rate) > math.floor(s * rate))
        return fires

    return schedule


def gen_self_exciting_loop(v_thresh: float = 1.0,
                           weight: float | None = None) -> NeuralGraph:
    """One neuron that keeps itself firing: the non-converging control.

    The loop starts above threshold and each spike re-injects more than
    a threshold's worth of drive, so it fires every step forever and
    its cumulative energy is exactly linear in the step count.
    """
    if weight is None:
        weight = 1.5 * v_thresh
    spec = NeuronSpec("lif", v_thresh=v_thresh, v_reset=0.0)
    return NeuralGraph(("loop0",), (spec,), [0], [1.5 * v_thresh], source=[0], target=[0],
                       weight=[weight], delay=[1], output_neurons=("loop0",))


def check_random_dag(edge_density: float, alphabet: Sequence[str]) -> None:
    """Raise ValueError unless gen_random_dag takes these; draws nothing."""
    if not (0.0 <= edge_density <= 1.0):
        raise ValueError(f"edge_density must lie in [0, 1], got {edge_density}")
    if not alphabet:
        raise ValueError("alphabet must be non-empty")


def gen_random_dag(n: int, edge_density: float, alphabet: Sequence[str],
                   seed: int) -> ComputeGraph:
    """Seed-deterministic random DAG; edges only run from lower to
    higher index, so the result is acyclic by construction."""
    check_random_dag(edge_density, alphabet)
    rng = np.random.default_rng(seed)
    kinds = [str(alphabet[int(k)]) for k in rng.integers(0, len(alphabet), size=n)]
    ids = [f"x{i}" for i in range(n)]
    # Row j draws j coins, one per lower index; an edge i -> j where coin i wins.
    inputs = [()] if n else []
    inputs += [tuple(map(ids.__getitem__, np.flatnonzero(rng.random(j) < edge_density).tolist()))
               for j in range(1, n)]
    has_out = set(chain.from_iterable(inputs))
    return ComputeGraph.from_columns(
        ids, kinds, inputs, declared_inputs=[nid for nid, refs in zip(ids, inputs) if not refs],
        declared_outputs=[nid for nid in ids if nid not in has_out])
