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

Event core: outgoing synapses are compiled once, in linear time, into a
read-only CSR without zero-weight synapses (`_CompiledNet`). Emit gathers
the synapses of a step's firing sources, in source order, and appends one
(targets, values) pair per distinct delay to the slot of the step it
falls due. A value is the weight times the source's output y. Spiking
sources (gate, lif) fire with y exactly 1.0 and w * 1.0 == w bit for bit,
so they emit their weights as they are; only a network where a relu or
tanh neuron has outgoing synapses multiplies. Delivery concatenates the
due slot's pairs in append order and sums them into the input vector with
one `np.bincount`, then adds external injections with `np.add.at`, which
is unbuffered and in order. Summation order is part of the contract: each
target's input is the left-to-right sum of its events in (emit step,
source, synapse) order, never pre-summed at emit time, so traces stay
bitwise stable. A neuron that fires alone on consecutive steps pays once
for its events (`_Solo`).

Evaluation set: a step's work follows touched neurons and events, not
network size. The fed neurons, the nonzero entries of the input vector
(inputs that cancel to exactly 0.0 wake nothing), are split by spec group.
Each leaky LIF group keeps the set of its nonzero-state neurons, tests
decay on that set only and updates it from the neurons the step wrote.
On the first step an armed integrator is evaluated with its input (zero
if unfed), and an unfed armed memoryless neuron is fed its own state and
keeps it. A quiet step (no slot due, no injection) skips delivery and
allocates nothing of size n. State is written in place; `last_y` is
cleared only where the previous step wrote.

Per-step cost: what is fixed for a run is computed once (by the compiled
net, the specs, the encoding and `run_sim`), and a step's pieces are
C-level calls, not Python work or numpy wrappers. Index sets are joined,
and a multi-delay emit's delays found, by `graph.sorted_unique`: a bare
`np.unique` imports `numpy.ma` on first use. A step keeps only its
record; consecutive steps with equal counts share one `energy_terms`
tuple.

Determinism: identical graph, encoding and inputs reproduce the trace
bitwise. The engine draws no random numbers; `init_sim` accepts a seed
and ignores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from numpy._core.multiarray import count_nonzero  # np.count_nonzero's C function, no wrapper
from numpy._core.umath import clip  # the ufunc behind np.clip, one C call

from .costs import PRESETS, CostConstants, energy_terms, nmc_energy_per_step
from .errors import (
    MismatchDetected,
    NonFiniteInput,
    NonFiniteState,
    UnknownInputNeuron,
    check_count,
)
from .graph import sorted_unique
from .neural import NeuralGraph, NeuronSpec, ResourceCount, advance, transfer


@dataclass(frozen=True)
class DigitalEncoding:
    """Fixed-point state words: clamp to [-scale, +scale), word_width bits.
    The word bounds, word step and Hamming mask are computed once."""

    word_width: int = 16
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "word_width", check_count("word_width", self.word_width, 4))
        if self.word_width > 64:
            raise ValueError(f"word_width must be at most 64, got {self.word_width}")
        if isinstance(self.scale, bool) or not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be a finite positive number, got {self.scale!r}")
        half = 2 ** (self.word_width - 1)
        # For w > 53 the exact ceiling is not float-representable; snap to
        # the largest representable value below it (clamp-edge artifact).
        hi = float(half - 1) if self.word_width <= 53 else math.nextafter(float(half), 0.0)
        for name, value in (("_lo", float(-half)), ("_hi", hi), ("_step", self.scale / half),
                            ("_edge", 2.0 * self.scale),
                            ("_mask", np.uint64((1 << self.word_width) - 1))):
            object.__setattr__(self, name, value)

    def words(self, x: np.ndarray) -> np.ndarray:
        # Clamped to +-2 * scale first, a state far outside the word cannot
        # overflow the divide; every clamped value still floors outside
        # [_lo, _hi], so the words are the same.
        q = clip(x, -self._edge, self._edge, dtype=float)
        np.divide(q, self._step, out=q)
        np.floor(q, out=q)
        clip(q, self._lo, self._hi, out=q)  # x is finite: the same bits as maximum, then minimum
        return q.astype(np.int64)


@dataclass(frozen=True)
class AnalogEncoding:
    """Continuous state; change of state is summed |dx|."""


EncodingMode = DigitalEncoding | AnalogEncoding

_NO_INDEX = np.zeros(0, dtype=np.intp)
_ZERO = np.zeros(())  # a 0-d +0.0: numpy assigns it without converting a Python float
_FIRST_ROWS = 64  # run_sim's output rows before the first doubling


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.union1d(a, b) for 1-D integer arrays."""
    return sorted_unique(np.concatenate((a, b)))


def _hamming(old_words: np.ndarray, new_words: np.ndarray, mask: np.uint64) -> np.ndarray:
    xor = np.bitwise_xor(old_words.view(np.uint64), new_words.view(np.uint64))
    xor &= mask
    return np.bitwise_count(xor)  # uint8


def hamming_bits(old_words: np.ndarray, new_words: np.ndarray, word_width: int) -> np.ndarray:
    """Per-element changed-bit counts between two's-complement words."""
    return _hamming(old_words, new_words, np.uint64((1 << word_width) - 1)).astype(np.int64)


@dataclass(slots=True)
class StepRecord:
    """Events and energy of one simulation step. Built positionally, and
    slotted, not frozen: a frozen `__init__` sets each field through
    `object.__setattr__`."""

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
    """Whole-run record: per-step events, firing-rate series, outputs.

    `outputs` is one float64 array of shape (steps, len(output_ids)): row t
    holds the outputs y of the output neurons after step t, 0.0 where one
    was not evaluated. `f_series[t]` is step t's spike count over `n_total`.
    """

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
    with its neuron indices ascending; `rows` holds each group's index,
    spec and the spec's `memoryless` and `leaky` flags, read every step,
    and `one_group` says the fed set needs no split. Nonzero-weight
    synapses are sorted stably by source on the narrowest unsigned key
    (the permutation an intp key gives; numpy radix-sorts keys up to 16
    bits), so a source's slice keeps declaration order. `delay` is the one
    delay when every kept synapse has it, else None; the sorted delay
    column `syn_delay` is kept only when `delay` is None, and is None
    otherwise. The CSR columns are read-only, because emit may queue a view
    of `syn_weight`.
    `scaled` is true when some non-spiking neuron has an outgoing synapse:
    only then must an emitted weight be multiplied by its source's output.
    """

    def __init__(self, ng: NeuralGraph):
        self.graph = ng
        self.ids = ng.neuron_ids
        self.n = len(self.ids)
        # The same str objects, for one gather; fromiter skips np.array's shape discovery.
        self.id_array = np.fromiter(self.ids, dtype=object, count=self.n)

        by_spec = np.argsort(ng.spec_index, kind="stable")
        sizes = np.bincount(ng.spec_index, minlength=len(ng.specs))
        self.groups: list[tuple[NeuronSpec, np.ndarray]] = list(
            zip(ng.specs, np.split(by_spec, np.cumsum(sizes)[:-1])))
        self.rows = [(g, spec, spec.memoryless, spec.leaky) for g, spec in enumerate(ng.specs)]
        self.one_group = len(self.groups) == 1

        # Each temporary is freed once used, so the compile peaks near what it keeps.
        kept = np.flatnonzero(ng.weight)
        source = ng.source[kept]
        self.out_indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(source, minlength=self.n), out=self.out_indptr[1:])
        source = source.astype(np.min_scalar_type(self.n - 1))  # the sort key
        order = np.argsort(source, kind="stable")
        del source
        order = kept[order]
        del kept
        self.syn_delay = d = ng.delay[order]
        self.delay = int(d[0]) if len(d) and d.min() == d.max() else None
        if self.delay is not None:  # `delay` is every kept synapse's: free the column first
            self.syn_delay = d = None
        self.syn_target = ng.target[order]
        self.syn_weight = ng.weight[order]
        for col in (self.syn_target, self.syn_weight, self.syn_delay, self.out_indptr):
            if col is not None:
                col.flags.writeable = False
        indptr = self.out_indptr
        self.scaled = any(bool((indptr[idx + 1] > indptr[idx]).any())
                          for spec, idx in self.groups if not spec.spiking)

        self.input_pos = {nid: ng.index[nid] for nid in ng.input_neurons}
        self.output_idx = np.array([ng.index[nid] for nid in ng.output_neurons],
                                   dtype=np.intp)

    def by_group(self, idx: np.ndarray) -> list[np.ndarray]:
        """Ascending indices split into one ascending part per group, of several."""
        g = self.graph.spec_index[idx]
        bounds = np.bincount(g, minlength=len(self.groups)).cumsum().tolist()
        idx = idx[g.argsort(kind="stable")]  # methods skip np.argsort's Python wrapper
        return [idx[a:b] for a, b in zip([0] + bounds, bounds)]


class _Solo(NamedTuple):
    """The last neuron that fired alone (`SimState.solo`), a one-entry memo
    that lets a neuron firing alone on consecutive steps pay once for its
    events.

    It holds the neuron's `(id,)` tuple, shared by the records of those
    steps, and its CSR views: `pair`, read-only (targets, weights), and its
    delay view when the net keeps a delay column. An unscaled net with one
    delay queues `pair` itself, so no step slices the CSR again. When that
    pair was a step's only due events (no injection) and the neuron fires
    alone again, `delivered` keeps the input vector and fed split that the
    delivery gave, read-only; a later step whose due slot is exactly that
    pair object reuses them without `bincount`, `nonzero` or the group
    split, and adds an injection to a copy. The store waits for the repeat,
    so a relay chain (a new lone firer on each step) keeps and pays
    nothing. Scaled values (w * y), multi-delay splits and every other slot
    are made fresh and never kept, so at most one vector of n floats is.
    """

    i: int
    spike_ids: tuple[str, ...]
    pair: tuple[np.ndarray, np.ndarray] | None
    delays: np.ndarray | None
    delivered: tuple[np.ndarray, tuple[np.ndarray, ...]] | None = None


@dataclass
class SimState:
    """Mutable simulation state; create with init_sim.

    `x`, `words` and `last_y` are the same array objects for the whole run.
    `words` is `encoding.words(x)` under a DigitalEncoding, kept so that a
    step converts only its new states, and None under analog. A step writes
    `x` and `words` in place only after every group passed the finite check,
    so a step that raises NonFiniteState leaves both as they were. `decaying[g]`
    holds the ascending indices of a leaky LIF group's nonzero-state
    neurons. `energy` is a one-entry memo, the last step's counts
    `(touched, spikes, events)` and their `energy_terms`, which the next
    step with equal counts shares. `solo` is another (`_Solo`).
    """

    net: _CompiledNet
    x: np.ndarray
    t: int
    encoding: EncodingMode
    words: np.ndarray | None
    constants: CostConstants
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]]  # due step -> pairs in append order
    armed: list[np.ndarray] | None  # per group, evaluated at the first step, then None
    decaying: list[np.ndarray | None]
    last_y: np.ndarray
    y_written: list[np.ndarray] = field(default_factory=list)  # entries of last_y now set
    energy: tuple[tuple, tuple] = ((), ())
    solo: _Solo = _Solo(-1, (), None, None)

    def membrane(self, neuron_id: str) -> float:
        return float(self.x[self.net.graph.index[neuron_id]])


def init_sim(ng: NeuralGraph, encoding: EncodingMode, seed: int,
             constants: CostConstants = PRESETS["unit"]) -> SimState:
    """Compile the graph and seed initial state.

    Armed neurons, whose initial output `transfer(spec, x0)` is nonzero,
    are marked for evaluation on the first step; an event-driven engine
    would otherwise never notice them. `seed` is unused (the engine is
    deterministic). NeuralGraph has already checked emptiness and x0.
    """
    net = _CompiledNet(ng)
    x = ng.x0.copy()

    armed, decaying = [], []
    for spec, idx in net.groups:
        xi = x[idx]
        armed.append(idx[transfer(spec, xi) != 0.0])
        decaying.append(idx[xi != 0.0] if spec.leaky else None)

    words = encoding.words(x) if isinstance(encoding, DigitalEncoding) else None
    return SimState(net=net, x=x, t=0, encoding=encoding, words=words, constants=constants,
                    pending={}, armed=armed, decaying=decaying, last_y=np.zeros(net.n))


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
    own = due is not None and len(due) == 1 and due[0] is s.solo.pair
    if own and s.solo.delivered is not None:
        input_sum, fed = s.solo.delivered
        synaptic_events = len(due[0][0])
    elif due is not None:
        targets, values = due[0] if len(due) == 1 else map(np.concatenate, zip(*due))
        synaptic_events = len(targets)
        input_sum = np.bincount(targets, weights=values, minlength=net.n)
    if external_inputs:
        ids, given = zip(*external_inputs)
        injected = np.array(given, dtype=float)
        try:
            pos = np.fromiter(map(net.input_pos.__getitem__, ids), np.intp, len(ids))
        except KeyError:  # an unknown id: the scan below names the first bad pair
            pos = None
        # Python's float sum never warns; it is non-finite if any value is (ravel: 2-D fails below)
        if pos is None or not math.isfinite(sum(injected.ravel().tolist())):  # or it overflows
            for neuron_id, value in zip(ids, given):  # the first bad pair decides
                if neuron_id not in net.input_pos:
                    raise UnknownInputNeuron(neuron_id)
                if not math.isfinite(value):
                    raise NonFiniteInput(f"external input to {neuron_id!r} is {value}")
        if input_sum is None:
            input_sum = np.zeros(net.n)
        elif fed is not None:  # the memo's read-only vector: inject into a copy
            input_sum = input_sum.copy()
        np.add.at(input_sum, pos, injected)  # unbuffered, in order
        fed, own = None, False
    if fed is None and input_sum is not None:
        fed = input_sum.nonzero()[0]
        fed = [fed] if net.one_group else net.by_group(fed)
    armed, s.armed = s.armed, None

    # 2. Evaluate neurons with input, with a decay-visible change, or armed.
    # Writes wait until every group passed the finite check.
    encoding = s.encoding
    x, words = s.x, s.words
    digital = words is not None
    # g, leaky, ev, x', y and, under a digital encoding, the new words
    done: list[tuple[int, bool, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]] = []
    spike_idx: list[np.ndarray] = []
    touched_count = 0
    delta_n = 0.0

    for g, spec, memoryless, leaky in net.rows:
        ev = _NO_INDEX if fed is None else fed[g]
        if leaky and len(decaying := s.decaying[g]):
            if digital:
                decaying = decaying[encoding.words(x[decaying] * spec.decay_factor)
                                    != words[decaying]]
            ev = _union(ev, decaying)
        unfed = None
        if armed is not None and len(armed[g]):  # the first step
            if memoryless:
                # g(x, u) = u: fed its own state, an unfed armed neuron keeps it
                # and outputs f(x0). Appended last, their zero diffs end the
                # pairwise np.add.reduce for delta_n and leave its bits as they are.
                unfed = np.setdiff1d(armed[g], ev, assume_unique=True)
                ev = np.concatenate((ev, unfed))
            else:  # an integrator's zero-input evaluation applies its decay and reset
                ev = _union(ev, armed[g])
        if not len(ev):
            continue
        u = np.zeros(len(ev)) if input_sum is None else input_sum[ev]
        if unfed is not None:  # their input is 0.0: overwrite it with their state
            u[len(ev) - len(unfed):] = x[unfed]
        old = x[ev]
        x_next, y = advance(spec, old, u)
        if digital and not np.logical_and.reduce(np.isfinite(x_next)):  # words() needs finite x
            raise _diverged(net, ev, x_next, t)

        # 4. Change-of-state accounting under the configured encoding.
        if digital:  # uint8 bit counts: np.add.reduce sums them in 64 bits, without a copy
            new_words = encoding.words(x_next)
            diffs = _hamming(words[ev], new_words, encoding._mask)
        else:  # dx, made |dx| in place only if some state changed
            diffs = x_next - old
        # Counted first: with no changed word every diff is 0 (NaN counts as
        # changed), so the skipped sum would add +0.0 and change no bit.
        if changed := count_nonzero(diffs):
            delta = float(np.add.reduce(diffs if digital else np.abs(diffs, out=diffs)))
            # Old states are finite, so a finite |dx| sum proves the new ones are;
            # only a non-finite sum (a bad state, or an overflow) needs the scan.
            if not digital and not math.isfinite(delta) and not np.isfinite(x_next).all():
                raise _diverged(net, ev, x_next, t)
            touched_count += int(changed)  # int(): no numpy scalar in the records
            delta_n += delta
        done.append((g, leaky, ev, x_next, y, new_words if digital else None))

        firing = y.nonzero()[0]
        if len(firing):
            spike_idx.append(ev[firing])

    last_y = s.last_y
    for idx in s.y_written:
        last_y[idx] = _ZERO
    s.y_written = []
    for g, leaky, ev, x_next, y, new_words in done:
        last_y[ev] = y
        x[ev] = x_next
        if digital:
            words[ev] = new_words
        s.y_written.append(ev)
        if leaky:  # analog evaluated every nonzero state: nothing stays
            s.decaying[g] = _union(np.setdiff1d(s.decaying[g], ev, assume_unique=True),
                                  ev[x_next != 0])

    # 3. Emit: every outgoing synapse of the firing sources, in (source,
    # synapse) order, queued once per distinct delay. A spiking source's
    # output is exactly 1.0 and w * 1.0 == w bit for bit, so unless the
    # network is scaled the weights are emitted as they are; a scaled
    # network reads its sources' outputs from last_y, written above.
    spike_count = 0
    spike_ids: tuple[str, ...] = ()
    if spike_idx:
        spikes = spike_idx[0] if len(spike_idx) == 1 else np.concatenate(spike_idx)
        # One group's spikes are ascending, except on the first step, when
        # unfed armed neurons follow the group's evaluated neurons.
        if len(spike_idx) > 1 or armed is not None:
            spikes.sort()  # a fresh array: the concatenation, or ev[firing]
        spike_count = len(spikes)
        if spike_count == 1:
            i = spikes.item()  # one source: its synapses are one CSR slice
            solo = s.solo
            if solo.i != i:
                a, b = net.out_indptr[i:i + 2].tolist()
                s.solo = solo = _Solo(i, (net.ids[i],), (net.syn_target[a:b], net.syn_weight[a:b]),
                                      None if net.syn_delay is None else net.syn_delay[a:b])
            elif own and solo.delivered is None:  # it fired alone again: keep the delivery
                fed = tuple(fed)
                for part in (input_sum, *fed):
                    part.flags.writeable = False
                s.solo = solo = solo._replace(delivered=(input_sum, fed))
            spike_ids, events, delays = solo.spike_ids, solo.pair, solo.delays
            if net.scaled:
                events = (events[0], events[1] * last_y[spikes])
        else:
            spike_ids = tuple(net.id_array[spikes].tolist())
            lo = net.out_indptr[spikes]
            lens = net.out_indptr[spikes + 1] - lo
            ends = lens.cumsum()
            # Event k of source j reads synapse lo[j] + (k - first event of j).
            pos = (lo - ends + lens).repeat(lens)
            pos += np.arange(ends[-1])
            values = net.syn_weight[pos]
            if net.scaled:
                values *= last_y[spikes].repeat(lens)
            events = (net.syn_target[pos], values)
            delays = None if net.syn_delay is None else net.syn_delay[pos]
        if len(events[0]):
            if delays is None:
                s.pending.setdefault(t + net.delay, []).append(events)
            else:
                targets, values = events
                for d in sorted_unique(delays).tolist():
                    sel = delays == d
                    s.pending.setdefault(t + d, []).append((targets[sel], values[sel]))

    # 5. Energy from this step's events, fixed term order.
    s.t = t + 1
    counts = (touched_count, spike_count, synaptic_events)
    if s.energy[0] != counts:
        s.energy = (counts, energy_terms(s.constants, touched_count, spike_count, synaptic_events))
    return StepRecord(t, spike_count, spike_ids, synaptic_events, touched_count, delta_n,
                      *s.energy[1])


@dataclass(frozen=True)
class ZeroActivity:
    """Stop after `window` consecutive steps with zero spikes."""

    window: int = 3

    def __post_init__(self):
        object.__setattr__(self, "window", check_count("window", self.window))


StopCondition = ZeroActivity | None

InputSchedule = Callable[[int], Sequence[tuple[str, float]]] | Mapping[int, Sequence[tuple[str, float]]] | None


def run_sim(s: SimState, max_steps: int, stop: StopCondition = None,
            inputs: InputSchedule = None) -> SimTrace:
    """Run up to max_steps, optionally stopping early, and build the trace.

    `inputs` maps a step index to external (neuron id, value) injections,
    either as a mapping or a callable. Raises ValueError if e_n overflows.
    Each step's output row is written into one array that holds 64 rows,
    doubles when full (at most to max_steps) and is trimmed in place to the
    steps run, so the trace's `outputs` is that array, not a copy.
    """
    check_count("max_steps", max_steps)
    net = s.net
    records: list[StepRecord] = []
    add_record = records.append
    last_y, output_idx = s.last_y, net.output_idx
    width = len(output_idx)
    outputs = np.empty((rows := min(max_steps, _FIRST_ROWS), width))
    lookup = None if inputs is None else inputs if callable(inputs) else inputs.get
    zero_run = 0

    e_n = 0.0
    for k in range(max_steps):
        rec = step_sim(s) if lookup is None else step_sim(s, lookup(s.t) or ())
        add_record(rec)
        e_n += rec.e_t
        if k == rows:
            # No view of `outputs` exists before the run ends, so resizing in place is safe.
            outputs.resize((rows := min(2 * rows, max_steps), width), refcheck=False)
        outputs[k] = last_y[output_idx]

        if stop is not None:
            zero_run = zero_run + 1 if rec.spikes == 0 else 0
            if zero_run >= stop.window:
                break
    if not math.isfinite(e_n):
        raise ValueError(f"total energy e_n overflows to {e_n}: a cost constant is too large")

    steps = len(records)
    if steps < rows:
        outputs.resize((steps, width), refcheck=False)
    # Counts below 2**53 convert exactly, so this is rec.spikes / n bit for bit.
    f_series = np.fromiter(map(attrgetter("spikes"), records), dtype=float, count=steps)
    f_series /= net.n
    return SimTrace(records=tuple(records), f_series=f_series, e_n=e_n, outputs=outputs,
                    output_ids=net.graph.output_neurons, n_total=net.n)


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


def reconcile_energy(tr: SimTrace, r: ResourceCount, c: CostConstants) -> ReconciliationReport:
    """Recompute every e_t from its recorded event counts (must match
    bit-exactly; MismatchDetected otherwise) and compare the measured
    firing-dependent terms against their closed-form predictions at the
    trace's mean firing rate."""
    # One pass in step order: the check (equal consecutive counts share one
    # recomputation), e_n and the three term sums, left to right from 0.0.
    e_n = spikegen = synapse = spike = 0.0
    last = terms = None
    for rec in tr.records:
        recorded = (rec.e_voltage_term, rec.e_spikegen_term, rec.e_synapse_term,
                    rec.e_spike_term, rec.e_t)
        if (counts := (rec.neurons_touched, rec.spikes, rec.synaptic_events)) != last:
            last = counts
            terms = energy_terms(c, rec.neurons_touched, rec.spikes, rec.synaptic_events)
        if terms != recorded:
            raise MismatchDetected(f"recorded energy at t={rec.t} disagrees with its events")
        e_n += recorded[4]
        spikegen += recorded[1]
        synapse += recorded[2]
        spike += recorded[3]
    if e_n != tr.e_n:
        raise MismatchDetected("trace total energy disagrees with per-step records")

    steps = len(tr.records)
    f_mean = float(np.mean(tr.f_series)) if steps else 0.0
    sums = {"spikegen": spikegen, "synapse": synapse, "spike": spike}
    predicted = nmc_energy_per_step(r, c, f_mean).breakdown
    terms = {}
    for name, total in sums.items():
        a, m = predicted[name], total / steps if steps else 0.0
        if a == 0.0 and m == 0.0:
            ratio = 1.0
        elif m == 0.0:
            ratio = math.inf
        else:
            ratio = a / m
        terms[name] = TermComparison(analytic=a, measured=m, ratio=ratio)
    return ReconciliationReport(steps=steps, f_mean=f_mean, terms=terms)
