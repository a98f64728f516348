"""Event-driven spiking simulator with per-step energy instrumentation.

The engine only touches neurons that have work to do: a neuron is
evaluated on a step when summed synaptic input arrives, when membrane
decay would change its state representation, or (once, at t = 0) when its
initial state already satisfies the firing condition. Untouched neurons
cost nothing, which is the whole accounting model: energy follows change
of state, not wall-clock time.

Per step the recorded energy is `costs.energy_terms`, the single per-step
formula:

    e_t = e_voltage * neurons_touched + e_spikegen * spikes
        + e_synapse * synaptic_events + e_spike * ell * synaptic_events

where neurons_touched counts neurons whose state word actually changed
under the configured encoding. Digital encodings quantize the membrane to
a two's-complement fixed-point word and measure change as Hamming
distance; the analog encoding measures summed |dx|.

Event core: outgoing synapses are compiled once into a CSR sorted stably
by source (zero-weight synapses left out unless they are delivered).
Emit gathers the synapses of all of a step's firing sources, in source
order, with one CSR gather and appends one (targets, values) pair per
distinct delay to the slot of the step it falls due. Delivery
concatenates the due slot's pairs in append order and sums them into the
input vector with one `np.bincount`. Summation order is part of the
contract: each target's input is the left-to-right sum of its events in
(emit step, source, synapse) order, never pre-summed at emit time, so
traces stay bitwise stable.

Determinism: identical graph, encoding and inputs reproduce the trace
bitwise. The engine draws no random numbers; `init_sim` accepts a seed
and ignores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .costs import PRESETS, CostConstants, energy_terms, nmc_energy_per_step
from .errors import (
    EmptyGraph,
    MismatchDetected,
    NonFiniteInput,
    NonFiniteState,
    UnknownInputNeuron,
)
from .neural import NeuralGraph, NeuronSpec, ResourceCount, advance


@dataclass(frozen=True)
class DigitalEncoding:
    """Fixed-point state words: clamp to [-scale, +scale), word_width bits."""

    word_width: int = 16
    scale: float = 1.0

    def __post_init__(self):
        if not (4 <= self.word_width <= 64):
            raise ValueError(f"word_width must be in [4, 64], got {self.word_width}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def words(self, x: np.ndarray) -> np.ndarray:
        w = self.word_width
        lo = -(2 ** (w - 1))
        hi = 2 ** (w - 1) - 1
        step = self.scale / 2 ** (w - 1)
        q = np.floor(np.asarray(x, dtype=float) / step)
        # For w > 53 the exact ceiling is not float-representable; snap to
        # the largest representable value below it (clamp-edge artifact).
        hi_f = float(hi) if w <= 53 else math.nextafter(float(2 ** (w - 1)), 0.0)
        q = np.clip(q, float(lo), hi_f)
        return q.astype(np.int64)


@dataclass(frozen=True)
class AnalogEncoding:
    """Continuous state; change of state is summed |dx|."""


EncodingMode = DigitalEncoding | AnalogEncoding

_NO_INDEX = np.zeros(0, dtype=np.intp)

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def _popcount(v: np.ndarray) -> np.ndarray:
    """Vectorized SWAR bit count on uint64 words."""
    v = v - ((v >> np.uint64(1)) & _M1)
    v = (v & _M2) + ((v >> np.uint64(2)) & _M2)
    v = (v + (v >> np.uint64(4))) & _M4
    return (v * _H01) >> np.uint64(56)


def hamming_bits(old_words: np.ndarray, new_words: np.ndarray, word_width: int) -> np.ndarray:
    """Per-element changed-bit counts between two's-complement words."""
    mask = np.uint64((1 << word_width) - 1) if word_width < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    xor = (old_words.view(np.uint64) ^ new_words.view(np.uint64)) & mask
    return _popcount(xor).astype(np.int64)


@dataclass(frozen=True)
class StepRecord:
    """Events and energy of one simulation step."""

    t: int
    spikes: int
    spike_ids: tuple[str, ...]
    synaptic_events: int
    neurons_touched: int
    delta_n: float
    e_voltage_term: float
    e_spikegen_term: float
    e_synapse_term: float
    e_spike_term: float
    e_t: float


@dataclass(frozen=True)
class SimTrace:
    """Whole-run record: per-step events, firing-rate series, outputs."""

    records: tuple[StepRecord, ...]
    f_series: np.ndarray
    e_n: float
    outputs: np.ndarray
    output_ids: tuple[str, ...]
    n_total: int

    def __len__(self) -> int:
        return len(self.records)


class _CompiledNet:
    """Index view of a NeuralGraph: spec groups plus CSR outgoing synapses.

    Groups follow the graph's spec table (first-appearance order), each
    with its neuron indices ascending. Synapses are sorted stably by
    source, so each source's slice keeps declaration order. Zero-weight
    synapses are left out unless they are delivered.
    """

    def __init__(self, ng: NeuralGraph, deliver_zero_weight: bool = False):
        self.graph = ng
        self.ids = ng.neuron_ids
        self.n = len(self.ids)
        self.x0 = ng.x0

        by_spec = np.argsort(ng.spec_index, kind="stable")
        sizes = np.bincount(ng.spec_index, minlength=len(ng.specs))
        self.groups: list[tuple[NeuronSpec, np.ndarray]] = list(
            zip(ng.specs, np.split(by_spec, np.cumsum(sizes)[:-1])))

        source = ng.source
        kept = np.arange(len(source)) if deliver_zero_weight else np.flatnonzero(ng.weight)
        order = kept[np.argsort(source[kept], kind="stable")]
        self.syn_target = ng.target[order]
        self.syn_weight = ng.weight[order]
        self.syn_delay = ng.delay[order]
        self.delays: list[int] = np.unique(self.syn_delay).tolist()  # distinct, ascending
        self.out_indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(source[kept], minlength=self.n), out=self.out_indptr[1:])

        self.input_idx = {ng.index[nid] for nid in ng.input_neurons}
        self.output_idx = np.array([ng.index[nid] for nid in ng.output_neurons],
                                   dtype=np.intp)


@dataclass
class SimState:
    """Mutable simulation state; create with init_sim."""

    net: _CompiledNet
    x: np.ndarray
    t: int
    encoding: EncodingMode
    constants: CostConstants
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]]  # due step -> pairs in append order
    armed: np.ndarray  # indices to evaluate at the first step, then empty
    last_y: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def n_total(self) -> int:
        return self.net.n

    def membrane(self, neuron_id: str) -> float:
        return float(self.x[self.net.graph.index[neuron_id]])


def init_sim(ng: NeuralGraph, encoding: EncodingMode, seed: int,
             constants: CostConstants = PRESETS["unit"],
             deliver_zero_weight: bool = False) -> SimState:
    """Compile the graph and seed initial state.

    Neurons whose initial state already satisfies their firing condition
    are marked for evaluation on the first step; an event-driven engine
    would otherwise never notice them. `deliver_zero_weight` is compiled
    into the synapse table; `seed` is unused (the engine is deterministic).
    Raises EmptyGraph for a network without neurons.
    """
    if not ng.neuron_ids:
        raise EmptyGraph("network has no neurons")
    net = _CompiledNet(ng, deliver_zero_weight)
    x = net.x0.copy()
    if not np.all(np.isfinite(x)):
        bad = net.ids[int(np.flatnonzero(~np.isfinite(x))[0])]
        raise NonFiniteState(f"initial state of {bad!r} is not finite")

    armed = []
    for spec, idx in net.groups:
        xi = x[idx]
        if spec.model_kind in ("threshold_gate", "lif"):
            hot = xi > spec.v_thresh
        elif spec.model_kind == "ann_relu":
            hot = xi > 0.0
        else:  # ann_tanh
            hot = xi != 0.0
        armed.append(idx[hot])

    return SimState(
        net=net,
        x=x,
        t=0,
        encoding=encoding,
        constants=constants,
        pending={},
        armed=np.sort(np.concatenate(armed)),
        last_y=np.zeros(net.n, dtype=float),
    )


def _transfer_only(spec: NeuronSpec, x: np.ndarray) -> np.ndarray:
    """Output rule applied to the current state without integrating input.

    Used for armed gate/ann neurons at t = 0: their state predates any
    input, so only the transfer function applies.
    """
    if spec.model_kind == "threshold_gate":
        return (x > spec.v_thresh).astype(float)
    if spec.model_kind == "ann_relu":
        return np.maximum(0.0, x)
    return np.tanh(x)  # ann_tanh


def _join(pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate (index, value) array pairs in order; one pair passes through."""
    if len(pairs) == 1:
        return pairs[0]
    return np.concatenate([p[0] for p in pairs]), np.concatenate([p[1] for p in pairs])


def step_sim(s: SimState, external_inputs: Sequence[tuple[str, float]] = ()) -> StepRecord:
    """Advance one step: deliver due events, evaluate touched neurons,
    enqueue emitted spikes, and account energy."""
    net = s.net
    t = s.t

    # 1. Deliver queued synaptic events due now, then external injections.
    due = s.pending.pop(t, None)
    if due is None:
        input_sum = np.zeros(net.n, dtype=float)
        synaptic_events = 0
    else:
        targets, values = _join(due)
        input_sum = np.bincount(targets, weights=values, minlength=net.n)
        synaptic_events = len(targets)
    for neuron_id, value in external_inputs:
        idx = net.graph.index.get(neuron_id)
        if idx is None or idx not in net.input_idx:
            raise UnknownInputNeuron(neuron_id)
        if not math.isfinite(value):
            raise NonFiniteInput(f"external input to {neuron_id!r} is {value}")
        input_sum[idx] += value

    has_input = input_sum != 0.0
    armed = s.armed
    if len(armed):
        s.armed = _NO_INDEX

    # 2. Evaluate neurons with input, with a decay-visible change, or armed.
    new_x = s.x  # copy-on-write per group below
    y_now = np.zeros(net.n, dtype=float)
    spike_parts: list[tuple[np.ndarray, np.ndarray]] = []
    touched_count = 0
    delta_n = 0.0
    evaluated_any = False

    digital = isinstance(s.encoding, DigitalEncoding)

    for spec, idx in net.groups:
        group_eval = has_input[idx]

        if spec.model_kind == "lif" and spec.decay_factor != 1.0:
            xi = s.x[idx]
            if digital:
                decays = s.encoding.words(xi * spec.decay_factor) != s.encoding.words(xi)
            else:
                decays = xi != 0.0
            group_eval = group_eval | decays

        armed_in_group = np.intersect1d(armed, idx, assume_unique=False) if len(armed) else None
        normal_idx = idx[group_eval]
        transfer_idx = _NO_INDEX
        if armed_in_group is not None and len(armed_in_group):
            if spec.model_kind == "lif":
                # Reset is part of the integration rule; a zero-input
                # evaluation handles an armed integrator correctly.
                normal_idx = np.union1d(normal_idx, armed_in_group).astype(np.intp)
            else:
                transfer_idx = np.setdiff1d(armed_in_group, normal_idx).astype(np.intp)

        if len(normal_idx) == 0 and len(transfer_idx) == 0:
            continue
        if not evaluated_any:
            new_x = s.x.copy()
            evaluated_any = True

        parts: list[tuple[np.ndarray, np.ndarray]] = []
        if len(normal_idx):
            x_next, y = advance(spec, s.x[normal_idx], input_sum[normal_idx])
            if not np.isfinite(x_next).all():
                bad = net.ids[int(normal_idx[int(np.flatnonzero(~np.isfinite(x_next))[0])])]
                raise NonFiniteState(f"state of {bad!r} diverged at t={t}")
            new_x[normal_idx] = x_next
            parts.append((normal_idx, y))
        if len(transfer_idx):
            parts.append((transfer_idx, _transfer_only(spec, s.x[transfer_idx])))

        eval_idx, y_all = _join(parts)
        y_now[eval_idx] = y_all

        # 4. Change-of-state accounting under the configured encoding.
        old_vals = s.x[eval_idx]
        new_vals = new_x[eval_idx]
        if digital:
            bits = hamming_bits(s.encoding.words(old_vals), s.encoding.words(new_vals),
                                s.encoding.word_width)
            touched_count += int(np.count_nonzero(bits))
            delta_n += float(bits.sum())
        else:
            diffs = np.abs(new_vals - old_vals)
            touched_count += int(np.count_nonzero(diffs))
            delta_n += float(diffs.sum())

        firing = y_all != 0.0
        if firing.any():
            spike_parts.append((eval_idx[firing], y_all[firing]))

    # 3. Emit: one CSR gather over every outgoing synapse of the firing
    # sources, in (source, synapse) order, queued once per distinct delay.
    if spike_parts:
        spikes, spike_y = _join(spike_parts)
        # One group's spikes are ascending, except on the first step, when
        # armed transfers follow the group's integrated neurons.
        if len(spike_parts) > 1 or len(armed):
            order = np.argsort(spikes, kind="stable")
            spikes, spike_y = spikes[order], spike_y[order]
        lo = net.out_indptr[spikes]
        lens = net.out_indptr[spikes + 1] - lo
        ends = lens.cumsum()
        if ends[-1]:
            # Event k of source j reads synapse lo[j] + (k - first event of j).
            pos = (lo - ends + lens).repeat(lens)
            pos += np.arange(ends[-1])
            targets = net.syn_target[pos]
            values = net.syn_weight[pos]
            values *= spike_y.repeat(lens)
            if len(net.delays) == 1:
                s.pending.setdefault(t + net.delays[0], []).append((targets, values))
            else:
                delays = net.syn_delay[pos]
                for d in np.unique(delays):
                    sel = delays == d
                    s.pending.setdefault(t + int(d), []).append((targets[sel], values[sel]))
        spike_count = int(len(spikes))
        spike_ids = tuple(net.ids[int(i)] for i in spikes)
    else:
        spike_count = 0
        spike_ids = ()

    # 5. Energy from this step's events, fixed term order.
    e_voltage_term, e_spikegen_term, e_synapse_term, e_spike_term, e_t = energy_terms(
        s.constants, touched_count, spike_count, synaptic_events)

    s.x = new_x
    s.last_y = y_now
    s.t = t + 1
    return StepRecord(
        t=t,
        spikes=spike_count,
        spike_ids=spike_ids,
        synaptic_events=synaptic_events,
        neurons_touched=touched_count,
        delta_n=delta_n,
        e_voltage_term=e_voltage_term,
        e_spikegen_term=e_spikegen_term,
        e_synapse_term=e_synapse_term,
        e_spike_term=e_spike_term,
        e_t=e_t,
    )


@dataclass(frozen=True)
class ZeroActivity:
    """Stop after `window` consecutive steps with zero spikes."""

    window: int = 3

    def __post_init__(self):
        if isinstance(self.window, bool) or not isinstance(self.window, int) or self.window < 1:
            raise ValueError(f"window must be an integer >= 1, got {self.window!r}")


@dataclass(frozen=True)
class OutputConvergence:
    """Stop when output neuron emissions change by < tol over `window` steps."""

    window: int = 3
    tol: float = 1e-6

    def __post_init__(self):
        ZeroActivity.__post_init__(self)
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")


StopCondition = ZeroActivity | OutputConvergence | None

InputSchedule = Callable[[int], Sequence[tuple[str, float]]] | Mapping[int, Sequence[tuple[str, float]]] | None


def run_sim(s: SimState, max_steps: int, stop: StopCondition = None,
            inputs: InputSchedule = None) -> SimTrace:
    """Run up to max_steps, optionally stopping early, and build the trace.

    `inputs` maps a step index to external (neuron id, value) injections,
    either as a mapping or a callable.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    net = s.net
    records: list[StepRecord] = []
    out_rows: list[np.ndarray] = []
    zero_run = 0

    for k in range(max_steps):
        if inputs is None:
            ext: Sequence[tuple[str, float]] = ()
        elif callable(inputs):
            ext = inputs(s.t)
        else:
            ext = inputs.get(s.t, ())

        rec = step_sim(s, ext)
        records.append(rec)
        out_rows.append(s.last_y[net.output_idx].copy())

        if isinstance(stop, ZeroActivity):
            zero_run = zero_run + 1 if rec.spikes == 0 else 0
            if zero_run >= stop.window:
                break
        elif isinstance(stop, OutputConvergence) and len(records) > stop.window:
            recent = out_rows[-(stop.window + 1):]
            deltas = [float(np.max(np.abs(a - b))) if len(a) else 0.0
                      for a, b in zip(recent[1:], recent)]
            if max(deltas) < stop.tol:
                break

    e_n = 0.0
    for rec in records:
        e_n += rec.e_t
    f_series = np.array([rec.spikes / net.n for rec in records], dtype=float)
    return SimTrace(
        records=tuple(records),
        f_series=f_series,
        e_n=e_n,
        outputs=np.vstack(out_rows) if out_rows else np.zeros((0, 0)),
        output_ids=s.net.graph.output_neurons,
        n_total=net.n,
    )


def measure_firing_rate(tr: SimTrace, window: int) -> np.ndarray:
    """Mean firing rate per non-overlapping window of `window` steps."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > len(tr.records):
        raise ValueError(f"window {window} exceeds trace length {len(tr.records)}")
    n_windows = len(tr.records) // window
    rates = np.empty(n_windows, dtype=float)
    for w in range(n_windows):
        chunk = tr.records[w * window:(w + 1) * window]
        rates[w] = sum(rec.spikes for rec in chunk) / (window * tr.n_total)
    return rates


@dataclass(frozen=True)
class TermComparison:
    analytic: float
    measured: float
    ratio: float


@dataclass(frozen=True)
class ReconciliationReport:
    """Bit-exact recomputation result plus analytic-vs-measured ratios."""

    steps: int
    f_mean: float
    terms: Mapping[str, TermComparison]
    voltage_measured_mean: float
    voltage_unrefined_prediction: float
    voltage_refined_prediction: float


def reconcile_energy(tr: SimTrace, r: ResourceCount, c: CostConstants) -> ReconciliationReport:
    """Recompute every e_t from its recorded event counts (must match
    bit-exactly; MismatchDetected otherwise) and compare the measured
    firing-dependent terms against their closed-form predictions at the
    trace's mean firing rate."""
    e_n = 0.0
    for rec in tr.records:
        e_voltage_term, e_spikegen_term, e_synapse_term, e_spike_term, e_t = energy_terms(
            c, rec.neurons_touched, rec.spikes, rec.synaptic_events)
        if (e_voltage_term != rec.e_voltage_term or e_spikegen_term != rec.e_spikegen_term
                or e_synapse_term != rec.e_synapse_term or e_spike_term != rec.e_spike_term
                or e_t != rec.e_t):
            raise MismatchDetected(f"recorded energy at t={rec.t} disagrees with its events")
        e_n += e_t
    if e_n != tr.e_n:
        raise MismatchDetected("trace total energy disagrees with per-step records")

    steps = len(tr.records)
    f_mean = float(np.mean(tr.f_series)) if steps else 0.0

    def mean_of(attr: str) -> float:
        return sum(getattr(rec, attr) for rec in tr.records) / steps if steps else 0.0

    predicted = nmc_energy_per_step(r, c, f_mean).breakdown
    analytic = {name: predicted[name] for name in ("spikegen", "synapse", "spike")}
    measured = {name: mean_of(f"e_{name}_term") for name in analytic}
    terms = {}
    for name in analytic:
        a, m = analytic[name], measured[name]
        if a == 0.0 and m == 0.0:
            ratio = 1.0
        elif m == 0.0:
            ratio = math.inf
        else:
            ratio = a / m
        terms[name] = TermComparison(analytic=a, measured=m, ratio=ratio)

    k_bar = r.s_total / r.n_total if r.n_total else 0.0
    refined = c.e_voltage * r.n_total * (1.0 - (1.0 - f_mean) ** k_bar) if k_bar else 0.0
    return ReconciliationReport(
        steps=steps,
        f_mean=f_mean,
        terms=terms,
        voltage_measured_mean=mean_of("e_voltage_term"),
        voltage_unrefined_prediction=predicted["voltage"],
        voltage_refined_prediction=refined,
    )
