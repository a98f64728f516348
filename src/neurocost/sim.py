"""Event-driven spiking simulator with per-step energy instrumentation.

The engine only touches neurons that have work to do: a neuron is
evaluated on a step when summed synaptic input arrives, when membrane
decay would change its state representation, or (once, at t = 0) when it
is armed: its initial output `transfer(spec, x0)` is nonzero. Untouched
neurons cost nothing, which is the whole accounting model: energy follows
change of state, not wall-clock time.

Per step the recorded energy is `costs.energy_terms`, the single per-step
formula:

    e_t = e_voltage * neurons_touched + e_spikegen * spikes
        + e_synapse * synaptic_events + e_spike * ell * synaptic_events

where neurons_touched counts neurons whose state word actually changed
under the configured encoding. Digital encodings quantize the membrane to
a two's-complement fixed-point word and measure change as Hamming
distance; the analog encoding measures summed |dx|.

Event core: outgoing synapses are compiled once into a read-only CSR
sorted stably by source (zero-weight synapses left out unless they are
delivered). Emit gathers the synapses of all of a step's firing sources,
in source order, with one CSR gather (one contiguous slice when a single
source fires) and appends one (targets, values) pair per distinct delay
to the slot of the step it falls due. A value is the weight times the
source's output y. Spiking sources (gate, lif) fire with y exactly 1.0 and
w * 1.0 == w bit for bit, so they emit their weights as they are; only a
network where a relu or tanh neuron has outgoing synapses multiplies.
Delivery concatenates the due slot's pairs in append order and sums them
into the input vector with one `np.bincount`, then adds external
injections with `np.add.at`, which is unbuffered and in order. Summation
order is part of the contract: each target's input is the left-to-right
sum of its events in (emit step, source, synapse) order, never pre-summed
at emit time, so traces stay bitwise stable.

Evaluation set: a step's work follows touched neurons and events, not
network size. The fed neurons, the nonzero entries of the input vector
(inputs that cancel to exactly 0.0 wake nothing), are split by spec group.
Each leaky LIF group keeps the set of its nonzero-state neurons, tests
decay on that set only and updates it from the neurons the step wrote.
Armed neurons join on the first step. A quiet step (no slot due, no
injection) skips delivery and allocates nothing of size n. State is
written in place; `last_y` is cleared only where the previous step wrote.

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
from .neural import NeuralGraph, NeuronSpec, ResourceCount, advance, transfer


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


def hamming_bits(old_words: np.ndarray, new_words: np.ndarray, word_width: int) -> np.ndarray:
    """Per-element changed-bit counts between two's-complement words."""
    mask = np.uint64((1 << word_width) - 1) if word_width < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    xor = (old_words.view(np.uint64) ^ new_words.view(np.uint64)) & mask
    return np.bitwise_count(xor).astype(np.int64)


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
    synapses are left out unless they are delivered. The CSR columns are
    read-only, because emit may queue a view of `syn_weight`. `scaled` is
    true when some non-spiking neuron has an outgoing synapse: only then
    must an emitted weight be multiplied by its source's output.
    """

    def __init__(self, ng: NeuralGraph, deliver_zero_weight: bool = False):
        self.graph = ng
        self.ids = ng.neuron_ids
        self.n = len(self.ids)

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
        for col in (self.syn_target, self.syn_weight, self.syn_delay, self.out_indptr):
            col.flags.writeable = False
        indptr = self.out_indptr
        self.scaled = any(bool((indptr[idx + 1] > indptr[idx]).any())
                          for spec, idx in self.groups if not spec.spiking)

        self.input_pos = {nid: ng.index[nid] for nid in ng.input_neurons}
        self.output_idx = np.array([ng.index[nid] for nid in ng.output_neurons],
                                   dtype=np.intp)

    def by_group(self, idx: np.ndarray) -> list[np.ndarray]:
        """Ascending neuron indices split into one ascending part per group."""
        if len(self.groups) == 1:
            return [idx]
        g = self.graph.spec_index[idx]
        bounds = np.cumsum(np.bincount(g, minlength=len(self.groups))).tolist()
        idx = idx[np.argsort(g, kind="stable")]
        return [idx[a:b] for a, b in zip([0] + bounds, bounds)]


@dataclass
class SimState:
    """Mutable simulation state; create with init_sim.

    `x` is the same array object for the whole run; a step writes it in
    place only after every group passed the finite check, so a step that
    raises NonFiniteState leaves it as it was. `decaying[g]` holds the
    ascending indices of a leaky LIF group's nonzero-state neurons.
    """

    net: _CompiledNet
    x: np.ndarray
    t: int
    encoding: EncodingMode
    constants: CostConstants
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]]  # due step -> pairs in append order
    armed: np.ndarray  # indices to evaluate at the first step, then empty
    decaying: list[np.ndarray | None]
    last_y: np.ndarray
    y_written: list[np.ndarray] = field(default_factory=list)  # entries of last_y now set

    @property
    def n_total(self) -> int:
        return self.net.n

    def membrane(self, neuron_id: str) -> float:
        return float(self.x[self.net.graph.index[neuron_id]])


def init_sim(ng: NeuralGraph, encoding: EncodingMode, seed: int,
             constants: CostConstants = PRESETS["unit"],
             deliver_zero_weight: bool = False) -> SimState:
    """Compile the graph and seed initial state.

    Armed neurons, whose initial output `transfer(spec, x0)` is nonzero,
    are marked for evaluation on the first step; an event-driven engine
    would otherwise never notice them. `deliver_zero_weight` is compiled
    into the synapse table; `seed` is unused (the engine is deterministic).
    Raises EmptyGraph for a network without neurons.
    """
    if not ng.neuron_ids:
        raise EmptyGraph("network has no neurons")
    net = _CompiledNet(ng, deliver_zero_weight)
    x = ng.x0.copy()
    if not np.all(np.isfinite(x)):
        bad = net.ids[int(np.flatnonzero(~np.isfinite(x))[0])]
        raise NonFiniteState(f"initial state of {bad!r} is not finite")

    armed, decaying = [], []
    for spec, idx in net.groups:
        xi = x[idx]
        armed.append(idx[transfer(spec, xi) != 0.0])
        decaying.append(idx[xi != 0.0] if spec.leaky else None)

    return SimState(
        net=net,
        x=x,
        t=0,
        encoding=encoding,
        constants=constants,
        pending={},
        armed=np.sort(np.concatenate(armed)),
        decaying=decaying,
        last_y=np.zeros(net.n, dtype=float),
    )


def _join(pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate (index, value) array pairs in order."""
    return np.concatenate([p[0] for p in pairs]), np.concatenate([p[1] for p in pairs])


def _diverged(net: _CompiledNet, ev: np.ndarray, x_next: np.ndarray, t: int) -> NonFiniteState:
    bad = net.ids[int(ev[int(np.flatnonzero(~np.isfinite(x_next))[0])])]
    return NonFiniteState(f"state of {bad!r} diverged at t={t}")


def step_sim(s: SimState, external_inputs: Sequence[tuple[str, float]] = ()) -> StepRecord:
    """Advance one step: deliver due events, evaluate touched neurons,
    enqueue emitted spikes, and account energy."""
    net = s.net
    t = s.t

    # 1. Deliver queued synaptic events due now, then external injections.
    # A quiet step (nothing due, nothing injected) skips delivery.
    due = s.pending.pop(t, None)
    synaptic_events = 0
    input_sum = fed = None
    if due is not None:
        targets, values = due[0] if len(due) == 1 else _join(due)
        synaptic_events = len(targets)
        input_sum = np.bincount(targets, weights=values, minlength=net.n)
    if external_inputs:
        ids, given = zip(*external_inputs)
        pos = [net.input_pos.get(nid) for nid in ids]
        injected = np.array(given, dtype=float)
        if None in pos or not np.isfinite(injected).all():
            for neuron_id, value, idx in zip(ids, given, pos):  # the first bad pair decides
                if idx is None:
                    raise UnknownInputNeuron(neuron_id)
                if not math.isfinite(value):
                    raise NonFiniteInput(f"external input to {neuron_id!r} is {value}")
        input_sum = np.zeros(net.n) if input_sum is None else input_sum
        np.add.at(input_sum, pos, injected)  # unbuffered, in order: a left-to-right sum
    if input_sum is not None:
        fed_idx = input_sum.nonzero()[0]  # ascending
        fed = [fed_idx] if len(net.groups) == 1 else net.by_group(fed_idx)

    armed = s.armed
    if len(armed):
        s.armed = _NO_INDEX
        armed = net.by_group(armed)

    # 2. Evaluate neurons with input, with a decay-visible change, or armed.
    # Writes wait until every group passed the finite check.
    encoding = s.encoding
    digital = isinstance(encoding, DigitalEncoding)
    scaled = net.scaled
    writes: list[tuple[int, np.ndarray, np.ndarray]] = []
    outs: list[tuple[np.ndarray, np.ndarray]] = []
    spike_idx: list[np.ndarray] = []
    spike_out: list[np.ndarray] = []  # their outputs, kept only when scaled
    touched_count = 0
    delta_n = 0.0

    for g, (spec, _idx) in enumerate(net.groups):
        ev = _NO_INDEX if fed is None else fed[g]
        decaying = s.decaying[g]
        if decaying is not None and len(decaying):
            if digital:
                xd = s.x[decaying]
                decaying = decaying[encoding.words(xd * spec.decay_factor) != encoding.words(xd)]
            ev = np.union1d(ev, decaying)
        unfed = _NO_INDEX
        if len(armed) and len(armed[g]):
            if spec.memoryless:
                unfed = np.setdiff1d(armed[g], ev, assume_unique=True)
            else:
                # Reset is part of the integration rule; a zero-input
                # evaluation handles an armed integrator correctly.
                ev = np.union1d(ev, armed[g])
        if not len(ev) and not len(unfed):
            continue
        old = s.x[ev]
        x_next, y = advance(spec, old, np.zeros(len(ev)) if input_sum is None else input_sum[ev])
        if digital and not np.isfinite(x_next).all():  # words() needs finite states
            raise _diverged(net, ev, x_next, t)
        if len(unfed):  # output only: their state is kept, so it counts as unchanged
            # Appended after the evaluated neurons: their zero diffs are terms
            # of the pairwise np.add.reduce that gives delta_n, and moving or
            # dropping them regroups that sum, which can change its bits.
            y = np.concatenate((y, transfer(spec, s.x[unfed])))
            x_next = np.concatenate((x_next, s.x[unfed]))
            ev = np.concatenate((ev, unfed))
            old = s.x[ev]

        # 4. Change-of-state accounting under the configured encoding.
        if digital:
            diffs = hamming_bits(encoding.words(old), encoding.words(x_next), encoding.word_width)
        else:
            diffs = np.abs(x_next - old)
        delta = float(np.add.reduce(diffs))
        # Old states are finite, so a finite |dx| sum proves the new ones are;
        # only a non-finite sum (a bad state, or an overflow) needs the scan.
        if not digital and not math.isfinite(delta) and not np.isfinite(x_next).all():
            raise _diverged(net, ev, x_next, t)
        touched_count += int(np.count_nonzero(diffs))
        delta_n += delta
        writes.append((g, ev, x_next))
        outs.append((ev, y))

        firing = y.nonzero()[0]
        if len(firing):
            spike_idx.append(ev[firing])
            if scaled:
                spike_out.append(y[firing])

    for idx in s.y_written:
        s.last_y[idx] = 0.0
    for idx, y in outs:
        s.last_y[idx] = y
    s.y_written = [idx for idx, _y in outs]
    for g, ev, x_next in writes:
        s.x[ev] = x_next
        if s.decaying[g] is not None:
            rest = (np.setdiff1d(s.decaying[g], ev, assume_unique=True) if digital
                    else _NO_INDEX)  # analog evaluates every nonzero state
            s.decaying[g] = np.union1d(rest, ev[x_next.nonzero()[0]])

    # 3. Emit: every outgoing synapse of the firing sources, in (source,
    # synapse) order, queued once per distinct delay. A spiking source's
    # output is exactly 1.0 and w * 1.0 == w bit for bit, so unless the
    # network is scaled the weights are emitted as they are.
    spike_count = 0
    spike_ids: tuple[str, ...] = ()
    if spike_idx:
        spikes = spike_idx[0] if len(spike_idx) == 1 else np.concatenate(spike_idx)
        if scaled:
            spike_y = spike_out[0] if len(spike_out) == 1 else np.concatenate(spike_out)
        # One group's spikes are ascending, except on the first step, when
        # unfed armed neurons follow the group's evaluated neurons.
        if len(spike_idx) > 1 or len(armed):
            order = np.argsort(spikes, kind="stable")
            spikes = spikes[order]
            if scaled:
                spike_y = spike_y[order]
        spike_list = spikes.tolist()
        spike_count = len(spike_list)
        spike_ids = tuple([net.ids[i] for i in spike_list])
        if spike_count == 1:
            # One source: its synapses are one contiguous CSR slice.
            pos = slice(*net.out_indptr[spike_list[0]:spike_list[0] + 2].tolist())
            values = net.syn_weight[pos] * spike_y if scaled else net.syn_weight[pos]
        else:
            lo = net.out_indptr[spikes]
            lens = net.out_indptr[spikes + 1] - lo
            ends = lens.cumsum()
            # Event k of source j reads synapse lo[j] + (k - first event of j).
            pos = (lo - ends + lens).repeat(lens)
            pos += np.arange(ends[-1])
            values = net.syn_weight[pos]
            if scaled:
                values *= spike_y.repeat(lens)
        if len(values):
            targets = net.syn_target[pos]
            if len(net.delays) == 1:
                s.pending.setdefault(t + net.delays[0], []).append((targets, values))
            else:
                delays = net.syn_delay[pos]
                for d in np.unique(delays).tolist():
                    sel = delays == d
                    s.pending.setdefault(t + d, []).append((targets[sel], values[sel]))

    # 5. Energy from this step's events, fixed term order.
    e_voltage_term, e_spikegen_term, e_synapse_term, e_spike_term, e_t = energy_terms(
        s.constants, touched_count, spike_count, synaptic_events)

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
    schedule = {} if inputs is None else inputs
    lookup = schedule if callable(schedule) else schedule.get
    quiet_stop = isinstance(stop, ZeroActivity)
    converge_stop = isinstance(stop, OutputConvergence)

    for _ in range(max_steps):
        rec = step_sim(s, lookup(s.t) or ())
        records.append(rec)
        out_rows.append(s.last_y[net.output_idx])

        if quiet_stop:
            zero_run = zero_run + 1 if rec.spikes == 0 else 0
            if zero_run >= stop.window:
                break
        elif converge_stop and len(records) > stop.window:
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
        outputs=np.array(out_rows),
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
    # One pass in step order: the check, e_n and the four term sums, each
    # a left-to-right sum from 0.0.
    e_n = voltage = spikegen = synapse = spike = 0.0
    for rec in tr.records:
        recorded = (rec.e_voltage_term, rec.e_spikegen_term, rec.e_synapse_term,
                    rec.e_spike_term, rec.e_t)
        if energy_terms(c, rec.neurons_touched, rec.spikes, rec.synaptic_events) != recorded:
            raise MismatchDetected(f"recorded energy at t={rec.t} disagrees with its events")
        e_n += recorded[4]
        voltage += recorded[0]
        spikegen += recorded[1]
        synapse += recorded[2]
        spike += recorded[3]
    if e_n != tr.e_n:
        raise MismatchDetected("trace total energy disagrees with per-step records")

    steps = len(tr.records)
    f_mean = float(np.mean(tr.f_series)) if steps else 0.0
    sums = {"voltage": voltage, "spikegen": spikegen, "synapse": synapse, "spike": spike}
    mean = {name: total / steps if steps else 0.0 for name, total in sums.items()}

    predicted = nmc_energy_per_step(r, c, f_mean).breakdown
    analytic = {name: predicted[name] for name in ("spikegen", "synapse", "spike")}
    measured = {name: mean[name] for name in analytic}
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
    refined = c.e_voltage * r.n_total * (1.0 - (1.0 - f_mean) ** k_bar)
    return ReconciliationReport(
        steps=steps,
        f_mean=f_mean,
        terms=terms,
        voltage_measured_mean=mean["voltage"],
        voltage_unrefined_prediction=predicted["voltage"],
        voltage_refined_prediction=refined,
    )
