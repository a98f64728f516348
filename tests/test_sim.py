"""Simulator tests: event accounting, encodings, stop rules, and audits."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import neurocost as nc
from conftest import network
from neurocost.sim import _hamming, _union
from oracles import measure_firing_rate

RELAY = nc.NeuronSpec(model_kind="lif", v_thresh=1.0)


def two_neuron(weight, delay=1, a0=1.5):
    """A -> B with one synapse; A starts at a0 so it is armed when a0 > 1."""
    return network(
        neurons=(("A", RELAY, a0), ("B", RELAY, 0.0)),
        synapses=(("A", "B", weight, delay),),
        input_neurons=("A",),
        output_neurons=("B",),
    )


def run(ng, steps, **kw):
    state = nc.init_sim(ng, kw.pop("encoding", nc.AnalogEncoding()), 0,
                        kw.pop("constants", nc.PRESETS["unit"]))
    return nc.run_sim(state, steps, **kw)


def lowered_footnote(footnote):
    ng, amap = nc.lower_graph(footnote, nc.relay_rules({"sub", "mul", "pow"}))
    return ng, amap


@pytest.fixture()
def footnote_net(footnote):
    ng, _ = lowered_footnote(footnote)
    return ng


@pytest.fixture()
def footnote_trace(footnote_net):
    kick = {0: tuple((nid, 1.5) for nid in footnote_net.input_neurons)}
    state = nc.init_sim(footnote_net, nc.AnalogEncoding(), 0)
    return nc.run_sim(state, 20, stop=nc.ZeroActivity(3), inputs=kick)


class TestStepAccounting:
    def test_quiescent_network_records_all_zero(self):
        ng = network(
            neurons=(("q", RELAY, 0.0),),
            synapses=(),
            input_neurons=("q",),
            output_neurons=("q",),
        )
        tr = run(ng, 5)
        assert len(tr.records) == 5
        for rec in tr.records:
            assert rec.spikes == 0
            assert rec.synaptic_events == 0
            assert rec.neurons_touched == 0
            assert rec.e_t == 0.0
        assert tr.e_n == 0.0

    def test_armed_neuron_fires_on_first_step(self):
        ng = network(
            neurons=(("A", RELAY, 1.5),),
            synapses=(),
            input_neurons=("A",),
            output_neurons=("A",),
        )
        tr = run(ng, 3)
        first = tr.records[0]
        # state write 1.5 -> 0 plus the emitted spike; nothing downstream
        assert first.spikes == 1
        assert first.spike_ids == ("A",)
        assert first.neurons_touched == 1
        assert first.e_t == 2.0
        assert [r.e_t for r in tr.records[1:]] == [0.0, 0.0]

    def test_chain_delivers_on_next_step(self):
        tr = run(two_neuron(2.0), 4)
        t0, t1, t2, t3 = tr.records
        assert (t0.spikes, t0.spike_ids, t0.synaptic_events) == (1, ("A",), 0)
        assert t0.neurons_touched == 1 and t0.e_t == 2.0
        # B integrates 2.0, fires, resets to its starting value: no net
        # state change, so the step costs spikegen + synapse + delivery.
        assert (t1.spikes, t1.spike_ids, t1.synaptic_events) == (1, ("B",), 1)
        assert t1.neurons_touched == 0 and t1.e_t == 3.0
        assert t2.e_t == 0.0 and t3.e_t == 0.0

    def test_synapse_delay_shifts_delivery(self):
        tr = run(two_neuron(2.0, delay=3), 6)
        assert [r.spikes for r in tr.records] == [1, 0, 0, 1, 0, 0]
        assert tr.records[3].spike_ids == ("B",)

    def test_exact_threshold_does_not_fire(self):
        # firing requires x strictly above v_thresh
        tr = run(two_neuron(1.0), 4)
        t1 = tr.records[1]
        assert t1.spikes == 0
        assert t1.synaptic_events == 1
        assert t1.neurons_touched == 1  # B moved 0 -> 1 and holds there
        assert t1.e_t == 3.0
        assert tr.records[2].e_t == 0.0

    def test_zero_weight_suppressed_by_default(self):
        tr = run(two_neuron(0.0), 3)
        assert [r.synaptic_events for r in tr.records] == [0, 0, 0]
        assert [r.e_t for r in tr.records] == [2.0, 0.0, 0.0]

    def test_zero_weight_fanout_is_not_delivered(self):
        # A fires into B over a zero and a nonzero synapse and into C over
        # -0.0: only the nonzero one is compiled, carried and billed.
        ng = network(
            neurons=(("A", RELAY, 1.5), ("B", RELAY, 0.0), ("C", RELAY, 0.0)),
            synapses=(("A", "B", 0.0), ("A", "B", 0.5), ("A", "C", -0.0)),
            input_neurons=("A",),
            output_neurons=("B", "C"),
        )
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        assert state.net.out_indptr.tolist() == [0, 1, 1, 1]
        assert state.net.syn_weight.tolist() == [0.5]
        tr = nc.run_sim(state, 3)
        assert [r.synaptic_events for r in tr.records] == [0, 1, 0]
        assert tr.records[1].neurons_touched == 1
        assert (state.membrane("B"), state.membrane("C")) == (0.5, 0.0)

    def test_armed_relu_emits_without_state_write(self):
        ann = nc.NeuronSpec(model_kind="ann_relu")
        ng = network(
            neurons=(("r", ann, 2.0),),
            synapses=(),
            input_neurons=("r",),
            output_neurons=("r",),
        )
        tr = run(ng, 2)
        first = tr.records[0]
        assert first.spikes == 1
        assert first.neurons_touched == 0
        assert first.e_t == 1.0
        assert tr.outputs[0].tolist() == [2.0]
        assert tr.records[1].e_t == 0.0

    @pytest.mark.parametrize("encoding", [nc.AnalogEncoding(), nc.DigitalEncoding()],
                             ids=["analog", "digital"])
    def test_fed_armed_memoryless_neuron_is_evaluated_once(self, encoding):
        ng = network(
            neurons=(("r", nc.NeuronSpec(model_kind="ann_relu"), 0.7),
                     ("g", nc.NeuronSpec(model_kind="threshold_gate", v_thresh=0.2), 0.6)),
            synapses=(),
            input_neurons=("r", "g"),
            output_neurons=("r", "g"),
        )
        state = nc.init_sim(ng, encoding, 0)
        tr = nc.run_sim(state, 1, inputs={0: (("r", 0.25), ("g", 0.1))})
        assert tr.records[0].spike_ids == ("r",)
        assert tr.outputs[0].tolist() == [0.25, 0.0]
        assert (state.membrane("r"), state.membrane("g")) == (0.25, 0.1)

    def test_self_exciting_loop_energy_series(self):
        ng = nc.gen_self_exciting_loop()
        tr = run(ng, 8)
        assert [r.spikes for r in tr.records] == [1] * 8
        assert tr.records[0].e_t == 2.0
        assert [r.e_t for r in tr.records[1:]] == [3.0] * 7
        assert tr.e_n == 2.0 + 3.0 * 7

    def test_trace_outputs_and_rates(self):
        tr = run(two_neuron(2.0), 4)
        assert tr.output_ids == ("B",)
        assert tr.n_total == 2
        assert tr.outputs.tolist() == [[0.0], [1.0], [0.0], [0.0]]
        assert tr.f_series.tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_delivery_sums_in_emit_order(self):
        # A fires at t=0 over a 2-step delay, B and C at t=1 over 1 step:
        # all three events reach T at t=2. Left-to-right summation in
        # (emit step, source) order gives 4.0 (3 + 1e16 rounds up to the
        # even neighbour); pre-summing each emit step would give 3.0.
        relu = nc.NeuronSpec(model_kind="ann_relu")
        ng = network(
            neurons=tuple((nid, relu, 0.0) for nid in ("A", "B", "C", "T")),
            synapses=(("A", "T", 3.0, 2), ("B", "T", 1e16, 1), ("C", "T", -1e16, 1)),
            input_neurons=("A", "B", "C"),
            output_neurons=("T",),
        )
        inputs = {0: (("A", 1.0),), 1: (("B", 1.0), ("C", 1.0))}
        tr = run(ng, 3, inputs=inputs)
        expected = 0.0
        for value in (3.0, 1e16, -1e16):
            expected += value
        assert expected == 4.0
        assert tr.records[2].synaptic_events == 3
        assert tr.outputs[2].tolist() == [expected]

    @pytest.mark.parametrize("kind, weight, scaled", [
        ("lif", 0.5, False),
        ("threshold_gate", 0.5, False),
        ("ann_relu", 0.5, True),
        ("ann_tanh", 0.5, True),
        ("ann_relu", 0.0, False),   # its only synapse is filtered out
    ])
    def test_only_non_spiking_senders_scale_emitted_weights(self, kind, weight, scaled):
        relu = nc.NeuronSpec("ann_relu")
        sender = nc.NeuronSpec(kind, v_thresh=1.0 if kind == "lif" else 0.0)
        ng = network(neurons=(("s", sender, 0.0), ("t", relu, 0.0)),
                     synapses=(("s", "t", weight),),
                     input_neurons=("s",), output_neurons=("t",))
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        assert state.net.scaled is scaled
        tr = nc.run_sim(state, 2, inputs={0: (("s", 3.0),)})
        y = float(nc.transfer(sender, np.array([3.0]))[0])
        assert tr.outputs[1].tolist() == [weight * y if weight > 0 else 0.0]

    def test_compiled_synapse_columns_are_read_only(self):
        # Emit may queue a view of the weight column; a write must raise.
        # One delay keeps no delay column, so that one comes from two delays.
        net = nc.init_sim(two_neuron(2.0), nc.AnalogEncoding(), 0).net
        two_delays = compiled(2, [0, 0], [1, 1], [1.0, 1.0], [1, 2])
        for col in (net.syn_target, net.syn_weight, net.out_indptr, two_delays.syn_delay):
            with pytest.raises(ValueError):
                col[0] = 0


def test_spike_ids_are_the_graph_id_strings():
    # Two groups fire on the first step: their spikes are joined, sorted
    # into index order, and named by the graph's own id objects.
    other = nc.NeuronSpec("lif", v_thresh=1.0, tau=5.0)
    ng = network(neurons=(("a", RELAY, 1.5), ("b", other, 1.5), ("c", RELAY, 1.5),
                          ("d", RELAY, 0.0)), synapses=())
    rec = nc.step_sim(nc.init_sim(ng, nc.AnalogEncoding(), 0))
    assert rec.spike_ids == ("a", "b", "c") and rec.spikes == 3
    assert all(got is nid for got, nid in zip(rec.spike_ids, ng.neuron_ids))


def compiled(n, source, target, weight, delay):
    """The compiled table of n relays joined by the given synapse columns."""
    ng = nc.NeuralGraph([f"n{i}" for i in range(n)], [RELAY], np.zeros(n, int), np.zeros(n),
                        source, target, weight, delay)
    return nc.init_sim(ng, nc.AnalogEncoding(), 0).net


def fan_out(*synapses):
    """A (armed) fires once at t=0 into B and C over (target, weight, delay) synapses."""
    return network(
        neurons=(("A", RELAY, 1.5), ("B", RELAY, 0.0), ("C", RELAY, 0.0)),
        synapses=tuple(("A", tgt, w, d) for tgt, w, d in synapses),
        input_neurons=("A",), output_neurons=("B", "C"))


class TestCompile:
    # 256 neurons still key on uint8, 65,536 on uint16; 65,537 need uint32.
    @pytest.mark.parametrize("n", [255, 256, 65_535, 65_536, 65_537])
    def test_csr_matches_stable_sort_at_each_key_width(self, n):
        rng = np.random.default_rng(n)
        m = 3000
        source = rng.integers(0, n, m)
        source[:6] = [n - 1, 0, n - 1, n // 2, 0, n - 1]  # out of order, repeated
        target = rng.integers(0, n, m)
        weight = rng.uniform(0.5, 1.5, m) * rng.choice([-1.0, 1.0], m)
        weight[[2, 7]] = [0.0, -0.0]
        delay = rng.integers(1, 4, m)
        net = compiled(n, source, target, weight, delay)

        order = np.lexsort((np.arange(m), source))
        order = order[weight[order] != 0.0]
        assert len(order) == m - 2
        assert np.array_equal(net.syn_target, target[order])
        assert net.syn_weight.tobytes() == weight[order].tobytes()
        assert net.delay is None and np.array_equal(net.syn_delay, delay[order])
        counts = np.bincount(source[order], minlength=n)
        assert np.array_equal(net.out_indptr, np.concatenate(([0], np.cumsum(counts))))

    def test_one_delay_lands_every_event_that_many_steps_later(self):
        state = nc.init_sim(fan_out(("B", 2.0, 3), ("C", 2.0, 3)), nc.AnalogEncoding(), 0)
        assert state.net.delay == 3 and type(state.net.delay) is int
        assert state.net.syn_delay is None  # `delay` stands for every kept synapse's
        tr = nc.run_sim(state, 6)
        assert [r.synaptic_events for r in tr.records] == [0, 0, 0, 2, 0, 0]
        assert [r.spikes for r in tr.records] == [1, 0, 0, 2, 0, 0]

    def test_delay_of_a_zero_weight_synapse_does_not_count(self):
        state = nc.init_sim(fan_out(("B", 2.0, 3), ("C", -0.0, 1), ("C", 0.0, 2)),
                            nc.AnalogEncoding(), 0)
        assert state.net.delay == 3 and state.net.syn_delay is None
        tr = nc.run_sim(state, 5)
        assert [r.synaptic_events for r in tr.records] == [0, 0, 0, 1, 0]
        assert tr.records[3].spike_ids == ("B",)

    def test_two_kept_delays_deliver_each_on_its_own_step(self):
        state = nc.init_sim(fan_out(("B", 2.0, 1), ("C", 2.0, 3)), nc.AnalogEncoding(), 0)
        assert state.net.delay is None
        tr = nc.run_sim(state, 5)
        assert [r.spike_ids for r in tr.records] == [("A",), ("B",), (), ("C",), ()]
        assert [r.synaptic_events for r in tr.records] == [0, 1, 0, 1, 0]

    # Four events, two with a repeated delay; a delay may exceed the event count.
    @pytest.mark.parametrize("delays", [(3, 1, 3, 2), (7, 1, 10**6, 7)])
    def test_each_distinct_delay_is_queued_once_in_ascending_order(self, delays):
        targets = ("C", "B", "C", "B")
        state = nc.init_sim(fan_out(*zip(targets, (2.0, 2.5, 3.0, 3.5), delays)),
                            nc.AnalogEncoding(), 0)
        nc.step_sim(state)
        assert list(state.pending) == sorted(set(delays))  # keys are t + d at t = 0
        for d, [(tgt, values)] in state.pending.items():
            sel = [k for k in range(4) if delays[k] == d]
            assert [state.net.ids[i] for i in tgt.tolist()] == [targets[k] for k in sel]
            assert values.tolist() == [(2.0, 2.5, 3.0, 3.5)[k] for k in sel]

    def test_compile_peaks_near_what_it_keeps(self):
        # init_sim on a 10**5-point mesh (200,000 neurons, 10**6 synapses),
        # tracemalloc: 23.1 MB kept and 44.8 MB at peak while the compile
        # held every sort temporary to its end; 24.7 MB kept (1.6 MB of it
        # the id array) and 28.8 MB at peak once each is freed when used.
        spec = nc.MeshSpec(m_s=100_000, k=4, m_t=1, dynamics=nc.Diffusion(0.5),
                           init=nc.sinusoid_init(100_000, cycles=2), v_thresh=0.25)
        _, ng = nc.gen_mesh(spec)
        tracemalloc.start()
        try:
            state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(state.net.syn_weight) == 10 ** 6
        assert peak <= 1.5 * kept

    def test_no_synapses_have_no_delay(self):
        net = compiled(3, [], [], [], [])
        assert net.delay is None and net.out_indptr.tolist() == [0, 0, 0, 0]
        assert nc.init_sim(fan_out(("B", 0.0, 2)), nc.AnalogEncoding(), 0).net.delay is None


class TestDigitalEncoding:
    def test_word_transition_bit_counts(self):
        spec = nc.NeuronSpec(model_kind="lif", v_thresh=1000.0)
        ng = network(
            neurons=(("m", spec, 63.0),),
            synapses=(),
            input_neurons=("m",),
            output_neurons=("m",),
        )
        state = nc.init_sim(ng, nc.DigitalEncoding(8, scale=128.0), 0)
        tr = nc.run_sim(state, 3, inputs={0: (("m", 1.0),), 1: (("m", 1.0),)})
        # 63 -> 64 flips seven bits, 64 -> 65 flips one
        assert tr.records[0].delta_n == 7.0
        assert tr.records[1].delta_n == 1.0
        assert tr.records[2].delta_n == 0.0
        assert [r.neurons_touched for r in tr.records] == [1, 1, 0]

    def test_hamming_bits(self):
        old = np.array([63, 0, -1])
        new = np.array([64, 0, 0])
        assert nc.hamming_bits(old, new, 8).tolist() == [7, 0, 8]

    @pytest.mark.parametrize("width", [4, 16, 53, 63, 64])
    def test_hamming_bits_matches_python_bit_count(self, width):
        lo, hi = -(2 ** (width - 1)), 2 ** (width - 1) - 1
        edges = [0, -1, lo, hi, 1 << (width - 1) if width < 64 else lo, lo + 1, hi - 1]
        rng = np.random.default_rng(width)
        words = edges + rng.integers(lo, hi, size=40, endpoint=True).tolist()
        old = np.array([a for a in words for _b in words], dtype=np.int64)
        new = np.array([b for _a in words for b in words], dtype=np.int64)
        mask = (1 << width) - 1
        expect = [bin((a ^ b) & mask).count("1") for a, b in zip(old.tolist(), new.tolist())]
        got = nc.hamming_bits(old, new, width)
        assert got.dtype == np.int64
        assert got.tolist() == expect

    def test_words_quantize_and_clamp(self):
        enc = nc.DigitalEncoding(8, scale=1.0)
        w = enc.words(np.array([2.0, -1.0, 0.4, -2.0]))
        assert w.tolist() == [127, -128, 51, -128]

    @staticmethod
    def _words_formula(x, width, scale):
        """The word formula, every constant derived on each call."""
        lo = -(2 ** (width - 1))
        hi = 2 ** (width - 1) - 1
        step = scale / 2 ** (width - 1)
        q = np.floor(np.asarray(x, dtype=float) / step)
        hi_f = float(hi) if width <= 53 else math.nextafter(float(2 ** (width - 1)), 0.0)
        return np.clip(q, float(lo), hi_f).astype(np.int64)

    @pytest.mark.parametrize("scale", [1.0, 4.0, 0.3, 0.37, 1e-300, 1e300])
    @pytest.mark.parametrize("width", [4, 16, 53, 54, 64])
    def test_precomputed_words_and_bits_equal_the_formula(self, width, scale):
        enc = nc.DigitalEncoding(width, scale)
        step = scale / 2 ** (width - 1)
        rng = np.random.default_rng(width)
        magnitudes = 10.0 ** np.arange(-300, 301, 10)
        x = np.concatenate(([scale, -scale, scale - step, -0.0, 0.0, 1e300, -1e300,
                             2 * scale, -2 * scale, 5e-324, -5e-324, 2.2e-308],
                            magnitudes, -magnitudes,
                            rng.normal(scale=scale, size=300),
                            rng.uniform(-2 * scale, 2 * scale, size=300)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # words() clamps before it divides: nothing overflows
            words = enc.words(x)
        with np.errstate(over="ignore"):  # the formula's x / step overflows to inf; it clamps
            formula = self._words_formula(x, width, scale)
        assert words.dtype == np.int64
        assert words.tobytes() == formula.tobytes()
        old, new = words, np.roll(words, 1)
        mask = np.uint64((1 << width) - 1)
        expect = np.bitwise_count((old.view(np.uint64) ^ new.view(np.uint64)) & mask)
        got = _hamming(old, new, enc._mask)
        assert got.dtype == np.uint8 and got.tolist() == expect.tolist()
        got = nc.hamming_bits(old, new, width)
        assert got.dtype == np.int64 and got.tolist() == expect.tolist()

    def test_a_huge_state_clamps_without_a_warning(self):
        # Dividing first, 1e300 overflowed to inf with a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = nc.DigitalEncoding(64).words(np.array([1e300, -1e300, math.inf, -math.inf]))
        hi = int(math.nextafter(2.0 ** 63, 0.0))
        assert words.tolist() == [hi, -(2 ** 63), hi, -(2 ** 63)]

    @pytest.mark.parametrize("bad", [
        dict(word_width=3), dict(word_width=65), dict(word_width=16.5), dict(word_width=True),
        dict(scale=0.0), dict(scale=-1.0), dict(scale=True), dict(scale=float("inf")),
        dict(scale=float("nan")),
        dict(word_width=np.True_), dict(word_width=np.float64(16.0)), dict(word_width=np.int64(65)),
    ])
    def test_encoding_validation(self, bad):
        with pytest.raises(ValueError):
            nc.DigitalEncoding(**{"word_width": 8, "scale": 1.0, **bad})

    @pytest.mark.parametrize("width, scale", [(4, 1.0), (64, 1.0), (8, 2)])
    def test_encoding_accepts_bounds_and_int_scale(self, width, scale):
        enc = nc.DigitalEncoding(width, scale=scale)
        ref = nc.DigitalEncoding(width, scale=float(scale))
        x = np.array([0.3, -0.7, 1.9, -5.0])
        assert enc.words(x).tolist() == ref.words(x).tolist()

    @pytest.mark.parametrize("width", [np.int64(4), np.int32(16), np.int64(64), np.uint8(53)])
    def test_encoding_accepts_numpy_word_width(self, width):
        # A numpy width used to be rejected; kept as numpy, 2 ** 63 would overflow at 64.
        enc = nc.DigitalEncoding(width)
        assert type(enc.word_width) is int and enc.word_width == width
        x = np.array([0.3, -0.7, 1.9, -5.0, 1e-9])
        assert enc.words(x).tolist() == nc.DigitalEncoding(int(width)).words(x).tolist()

    def test_digital_decay_freezes_below_quantum(self):
        leaky = nc.NeuronSpec(model_kind="lif", v_thresh=10.0, tau=3.0)
        ng = network(
            neurons=(("d", leaky, 0.8),),
            synapses=(),
            input_neurons=("d",),
            output_neurons=("d",),
        )
        analog = nc.run_sim(nc.init_sim(ng, nc.AnalogEncoding(), 0), 30)
        assert sum(r.neurons_touched for r in analog.records) == 30

        digital = nc.run_sim(nc.init_sim(ng, nc.DigitalEncoding(8, scale=1.0), 0), 30)
        touched = [r.neurons_touched for r in digital.records]
        # once the decayed value floors to the same word, the state freezes
        assert touched[:12] == [1] * 12
        assert touched[12:] == [0] * 18
        assert all(r.e_t == 0.0 for r in digital.records[12:])


class TestRunControl:
    def test_empty_network_is_named_error(self):
        # The network rejects itself when built, before init_sim sees it.
        with pytest.raises(nc.EmptyGraph, match="network has no neurons"):
            network(neurons=(), synapses=())

    def test_max_steps_validation(self):
        ng = two_neuron(2.0)
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        for bad in (0, 1.5, True):
            with pytest.raises(ValueError, match="max_steps must be an integer >= 1"):
                nc.run_sim(state, bad)

    def test_energy_that_overflows_raises(self):
        # Every step costs about 1e308, which is finite; their sum is not,
        # and used to be returned as e_n = inf.
        c = nc.CostConstants(e_spikegen=1e308)
        state = nc.init_sim(nc.gen_self_exciting_loop(), nc.AnalogEncoding(), 0, c)
        assert nc.run_sim(state, 1).e_n == 1e308
        with pytest.raises(ValueError, match="total energy e_n overflows to inf"):
            nc.run_sim(state, 2)

    def test_zero_activity_stop_length(self):
        ng = network(
            neurons=(("q", RELAY, 0.0),),
            synapses=(),
            input_neurons=("q",),
            output_neurons=("q",),
        )
        tr = run(ng, 50, stop=nc.ZeroActivity(np.int64(3)))
        assert len(tr) == len(tr.records) == 3
        assert type(nc.ZeroActivity(np.int64(3)).window) is int

    @pytest.mark.parametrize("make", [
        lambda: nc.ZeroActivity(0), lambda: nc.ZeroActivity(-2), lambda: nc.ZeroActivity(1.5),
        lambda: nc.ZeroActivity(True),
    ], ids=["za0", "za-2", "za1.5", "zaTrue"])
    def test_stop_window_must_be_at_least_one(self, make):
        # window 0 used to stop a still-firing loop after one step
        with pytest.raises(ValueError, match="window"):
            make()

    def test_no_stop_runs_every_step(self):
        ng = network(
            neurons=(("q", RELAY, 0.0),),
            synapses=(),
            input_neurons=("q",),
            output_neurons=("q",),
        )
        tr = run(ng, 9, stop=None)
        assert len(tr) == len(tr.records) == 9
        assert [r.e_t for r in tr.records] == [0.0] * 9

    def test_window_one_never_stops_a_firing_loop(self):
        tr = run(nc.gen_self_exciting_loop(), 12, stop=nc.ZeroActivity(1))
        assert [r.spikes for r in tr.records] == [1] * 12

    def test_callable_schedule(self):
        ng = two_neuron(2.0, a0=0.0)

        def drive(t):
            return (("A", 1.5),) if t == 0 else ()

        tr = run(ng, 4, inputs=drive)
        assert [r.spikes for r in tr.records] == [1, 1, 0, 0]

    def test_unknown_injection_target(self):
        ng = two_neuron(2.0, a0=0.0)
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        with pytest.raises(nc.UnknownInputNeuron) as exc:
            nc.run_sim(state, 3, inputs={0: (("ghost", 1.0),)})
        assert exc.value.neuron_id == "ghost"

    def test_injection_into_undeclared_neuron(self):
        # B exists but is not a declared input
        ng = two_neuron(2.0, a0=0.0)
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        with pytest.raises(nc.UnknownInputNeuron) as exc:
            nc.run_sim(state, 3, inputs={0: (("B", 1.0),)})
        assert exc.value.neuron_id == "B"

    def test_first_bad_injection_decides_the_error(self):
        ng = two_neuron(2.0, a0=0.0)
        nan_first = (("A", 0.5), ("A", float("nan")), ("ghost", 1.0))
        ghost_first = (("A", 0.5), ("ghost", 1.0), ("A", float("nan")))
        with pytest.raises(nc.NonFiniteInput):
            nc.step_sim(nc.init_sim(ng, nc.AnalogEncoding(), 0), nan_first)
        with pytest.raises(nc.UnknownInputNeuron) as exc:
            nc.step_sim(nc.init_sim(ng, nc.AnalogEncoding(), 0), ghost_first)
        assert exc.value.neuron_id == "ghost"

    def test_injections_add_left_to_right(self):
        # 1e16 + 1.0 + 1.0 rounds twice to 1e16; pre-summing gives 1e16 + 2.
        relu = nc.NeuronSpec("ann_relu")
        ng = network(neurons=(("R", relu, 0.0), ("S", relu, 0.0)), synapses=(),
                     input_neurons=("R", "S"))
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        nc.step_sim(state, (("R", 1e16), ("S", 3.0), ("R", 1.0), ("R", 1.0)))
        assert state.membrane("R") == (1e16 + 1.0) + 1.0 == 1e16
        assert state.membrane("S") == 3.0

    def test_non_finite_injection(self):
        ng = two_neuron(2.0, a0=0.0)
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        with pytest.raises(nc.NonFiniteInput):
            nc.run_sim(state, 3, inputs={0: (("A", float("nan")),)})

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_runaway_state_detected(self):
        ann = nc.NeuronSpec(model_kind="ann_relu")
        ng = network(
            neurons=(("r", ann, 1e308),),
            synapses=(("r", "r", 2.0),),
            input_neurons=("r",),
            output_neurons=("r",),
        )
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        with pytest.raises((nc.NonFiniteState, nc.NonFiniteInput)):
            nc.run_sim(state, 5)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_change_sum_is_not_divergence(self):
        # Both new states are finite; only their summed |dx| overflows.
        relu = nc.NeuronSpec("ann_relu")
        ng = network(neurons=(("a", relu, 0.0), ("b", relu, 0.0)), synapses=(),
                     input_neurons=("a", "b"))
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        rec = nc.step_sim(state, (("a", 1e308), ("b", 1e308)))
        assert rec.delta_n == float("inf") and rec.neurons_touched == 2
        assert state.x.tolist() == [1e308, 1e308]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_injection_sum_is_not_digital_divergence(self):
        # The digital twin of the test above: both injections and states are
        # finite, only their float sum overflows; each word clamps to 0x7fff.
        relu = nc.NeuronSpec("ann_relu")
        ng = network(neurons=(("a", relu, 0.0), ("b", relu, 0.0)), synapses=(),
                     input_neurons=("a", "b"))
        state = nc.init_sim(ng, nc.DigitalEncoding(16), 0)
        rec = nc.step_sim(state, (("a", 1e308), ("b", 1e308)))
        assert rec.delta_n == 30.0 and rec.neurons_touched == 2
        assert state.x.tolist() == [1e308, 1e308]

    @pytest.mark.parametrize("given, error", [
        ((0.5, "abc"), ValueError), ((0.5, None), TypeError), ((0.5, object()), TypeError),
        ((0.5, 1j), TypeError), ((0.5, [0.5, 0.5]), ValueError),
        ((0.5, np.array([0.5])), ValueError),
        (([0.5, 0.5], [0.5, 0.5]), ValueError),  # one shared length: rejected by np.add.at
    ])
    def test_non_numeric_injection_raises_the_float_conversion_error(self, given, error):
        ng = two_neuron(2.0, a0=0.0)
        with pytest.raises(error) as exc:
            nc.step_sim(nc.init_sim(ng, nc.AnalogEncoding(), 0), [("A", v) for v in given])
        assert type(exc.value) is error

    def test_deterministic_repeat(self):
        def once():
            spec = nc.MeshSpec(
                m_s=32, k=2, m_t=25,
                dynamics=nc.Diffusion(alpha=0.5),
                init=nc.sinusoid_init(32, amplitude=1.0, mean=1.0, cycles=2),
                v_thresh=0.25,
            )
            _, ng = nc.gen_mesh(spec)
            state = nc.init_sim(ng, nc.AnalogEncoding(), 7)
            return nc.run_sim(state, 25)

        a, b = once(), once()
        assert a.records == b.records
        assert np.array_equal(a.f_series, b.f_series)
        assert np.array_equal(a.outputs, b.outputs)
        assert a.e_n == b.e_n


def reference_outputs(ng, encoding, max_steps, stop=None):
    """Outputs and f_series built the plain way: step, then stack last_y[output_idx]."""
    state = nc.init_sim(ng, encoding, 0)
    rows, rates, zero_run = [], [], 0
    for _ in range(max_steps):
        rec = nc.step_sim(state)
        rows.append(state.last_y[state.net.output_idx].copy())
        rates.append(rec.spikes / state.net.n)
        zero_run = zero_run + 1 if rec.spikes == 0 else 0
        if stop is not None and zero_run >= stop.window:
            break
    return np.array(rows).reshape(len(rows), len(state.net.output_idx)), np.array(rates)


def relu_driver():
    """An armed relu source (output 0.7, not 1.0) driving a lif relay: a scaled network."""
    return network(neurons=(("r", nc.NeuronSpec("ann_relu"), 0.7), ("q", RELAY, 0.0)),
                   synapses=(("r", "q", 2.0), ("q", "q", 1.5)), output_neurons=("r", "q"))


def small_mesh():
    spec = nc.MeshSpec(m_s=16, k=4, m_t=1, dynamics=nc.Diffusion(0.5),
                       init=nc.sinusoid_init(16, cycles=2), v_thresh=0.25)
    return nc.gen_mesh(spec)[1]


class TestTraceStorage:
    # The output buffer holds 64 rows, then doubles: 1, 63, 64 and 65 steps
    # sit at the first boundary, 600 crosses 64, 128, 256 and 512.
    @pytest.mark.parametrize("encoding", [nc.AnalogEncoding(), nc.DigitalEncoding()],
                             ids=["analog", "digital"])
    @pytest.mark.parametrize("make, max_steps, stop", [
        (nc.gen_self_exciting_loop, 1, None),
        (nc.gen_self_exciting_loop, 63, None),
        (nc.gen_self_exciting_loop, 64, None),
        (nc.gen_self_exciting_loop, 65, None),
        (nc.gen_self_exciting_loop, 600, None),
        (lambda: two_neuron(2.0), 200, nc.ZeroActivity(3)),
        (lambda: network(neurons=(("q", RELAY, 1.5),), synapses=()), 70, None),
        (relu_driver, 130, None),
        (small_mesh, 90, nc.ZeroActivity(5)),
    ], ids=["loop1", "loop63", "loop64", "loop65", "loop600", "early_stop", "no_outputs",
            "scaled", "mesh"])
    def test_outputs_and_rates_equal_step_by_step_reference(self, make, max_steps, stop,
                                                             encoding):
        ng = make()
        rows, rates = reference_outputs(ng, encoding, max_steps, stop)
        tr = nc.run_sim(nc.init_sim(ng, encoding, 0), max_steps, stop=stop)
        assert tr.outputs.shape == rows.shape == (len(tr.records), len(ng.output_neurons))
        assert tr.outputs.dtype == rows.dtype and tr.outputs.tobytes() == rows.tobytes()
        assert tr.f_series.dtype == rates.dtype and tr.f_series.tobytes() == rates.tobytes()
        if stop is not None:
            assert len(tr.records) < max_steps

    def test_energy_memo_misses_on_each_change_of_counts(self):
        # Counts (touched, spikes, events) run A, B, A, A: a sub-threshold
        # input, a spike that resets the state, then two sub-threshold inputs.
        ng = network(neurons=(("q", RELAY, 0.0),), synapses=(), input_neurons=("q",))
        drive = {0: (("q", 0.5),), 1: (("q", 2.0),), 2: (("q", 0.5),), 3: (("q", 0.25),)}
        constants = nc.PRESETS["digital-skew"]
        tr = run(ng, 4, inputs=drive, constants=constants)
        counts = [(r.neurons_touched, r.spikes, r.synaptic_events) for r in tr.records]
        assert counts == [(1, 0, 0), (1, 1, 0), (1, 0, 0), (1, 0, 0)]
        for rec, (touched, spikes, events) in zip(tr.records, counts):
            assert (rec.e_voltage_term, rec.e_spikegen_term, rec.e_synapse_term,
                    rec.e_spike_term, rec.e_t) == nc.energy_terms(constants, touched, spikes,
                                                                  events)
        assert tr.records[0].e_t != tr.records[1].e_t
        assert tr.records[3].e_t is tr.records[2].e_t  # equal counts share one tuple

    def test_sparse_run_keeps_only_its_records(self):
        # Bytes per step of the 20,000-step self-exciting loop (tracemalloc):
        # 368 kept and 537 at peak when each step kept its own output row,
        # energy floats and (id,) tuple; about 200 and 210 with one output
        # array, shared energy terms and one-spike ids.
        steps = 20_000
        state = nc.init_sim(nc.gen_self_exciting_loop(), nc.AnalogEncoding(), 0)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tr = nc.run_sim(state, steps)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tr.records) == steps and tr.records[5].spike_ids is tr.records[6].spike_ids
        assert (kept - base) / steps <= 240
        assert (peak - base) / steps <= 280

    def test_new_firer_each_step_keeps_no_more_than_a_fresh_id(self):
        # A relay chain kicked once fires a new neuron alone on every step,
        # so the one-spike id memo misses each time. Bytes per step of a
        # 4,000-step chain (tracemalloc): 367 kept and 535 at peak when each
        # step kept its own output row, energy floats and (id,) tuple; 481
        # and 489 with a per-neuron cache of ids and slices; about 246 and
        # 254 with the one-entry memo.
        n = 4000
        relay = nc.NeuronSpec("lif", v_thresh=1.0)
        ids = [f"c{i}" for i in range(n)]
        x0 = np.zeros(n)
        x0[0] = 1.5
        ng = nc.NeuralGraph(ids, [relay], np.zeros(n, dtype=np.intp), x0, np.arange(n - 1),
                            np.arange(1, n), np.full(n - 1, 1.5), np.ones(n - 1, dtype=np.intp),
                            (), (ids[-1],))
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tr = nc.run_sim(state, n)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [r.spike_ids for r in tr.records] == [(i,) for i in ids]
        assert [r.synaptic_events for r in tr.records] == [0] + [1] * (n - 1)
        assert (kept - base) / n <= 280
        assert (peak - base) / n <= 300


SILENT = nc.NeuronSpec("lif", v_thresh=1e9)  # an integrator that never fires


def loop_with_integrator(delay=1):
    """The self-exciting loop L also feeding 0.25 to a silent integrator."""
    return network(neurons=(("L", RELAY, 1.5), ("acc", SILENT, 0.0)),
                   synapses=(("L", "L", 1.5), ("L", "acc", 0.25, delay)),
                   input_neurons=("acc",), output_neurons=("acc",))


def count_deliveries(monkeypatch) -> list:
    """Records each weighted np.bincount call: one per summed delivery."""
    calls, real = [], np.bincount

    def bincount(*args, **kwargs):
        if "weights" in kwargs:
            calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", bincount)
    return calls


def memo_arrays(solo) -> list[np.ndarray]:
    input_sum, fed = solo.delivered or (None, ())
    return [a for a in (*solo.pair, solo.delays, input_sum, *fed) if a is not None]


class TestLoneFirerMemo:
    @pytest.mark.parametrize("encoding", [nc.AnalogEncoding(), nc.DigitalEncoding()],
                             ids=["analog", "digital"])
    def test_loop_queues_its_pair_and_reuses_its_delivery(self, monkeypatch, encoding):
        s = nc.init_sim(nc.gen_self_exciting_loop(), encoding, 0)
        nc.step_sim(s)  # step 0: the armed neuron fires alone and queues its pair
        nc.step_sim(s)  # step 1: that pair is delivered alone; L fires alone again: kept
        delivered = s.solo.delivered
        assert delivered is not None and delivered[0].tolist() == [1.5]
        calls = count_deliveries(monkeypatch)
        for t in range(2, 40):
            due = s.pending[t]
            assert len(due) == 1 and due[0] is s.solo.pair
            rec = nc.step_sim(s)
            assert (rec.spikes, rec.synaptic_events) == (1, 1)
            assert s.solo.delivered is delivered
        assert calls == []
        assert all(not a.flags.writeable for a in memo_arrays(s.solo))

    def test_injection_on_a_reuse_step_stays_out_of_the_kept_vector(self, monkeypatch):
        calls = count_deliveries(monkeypatch)
        s = nc.init_sim(loop_with_integrator(), nc.AnalogEncoding(), 0)
        tr = nc.run_sim(s, 20, inputs={5: (("acc", 2.0),)})
        assert [r.spike_ids for r in tr.records] == [("L",)] * 20
        assert len(calls) == 1  # step 1 delivers; steps 2 to 19 reuse, step 5 on a copy
        # 0.25 on each of steps 1 to 19, and 2.0 once: exact in binary.
        assert s.membrane("acc") == 0.25 * 19 + 2.0
        assert tr.outputs[:, 0].tolist() == [0.0] * 20
        assert s.solo.delivered[0].tolist() == [1.5, 0.25]
        assert all(not a.flags.writeable for a in memo_arrays(s.solo))

    @pytest.mark.parametrize("make", [
        # a relu source outputs 0.7, not 1.0, so its values are w * y: a scaled net
        lambda: network(neurons=(("r", nc.NeuronSpec("ann_relu"), 0.7),),
                        synapses=(("r", "r", 1.0),)),
        lambda: loop_with_integrator(delay=2),  # delays 1 and 2: the emit splits
    ], ids=["scaled", "multi_delay"])
    def test_fresh_events_are_never_stored(self, monkeypatch, make):
        s = nc.init_sim(make(), nc.AnalogEncoding(), 0)
        calls = count_deliveries(monkeypatch)
        for t in range(30):
            rec = nc.step_sim(s)
            assert rec.spikes == 1
            assert all(pair is not s.solo.pair for pair in s.pending[t + 1])
            assert s.solo.delivered is None
        assert len(calls) == 29  # each step after the first delivers its own events
        assert all(not a.flags.writeable for a in memo_arrays(s.solo))

    def test_a_new_firer_each_step_keeps_no_vector(self):
        # A relay chain: each pair is due alone once, and its firer never again.
        n = 50
        ng = network(neurons=[(f"c{i}", RELAY, 1.5 if i == 0 else 0.0) for i in range(n)],
                     synapses=[(f"c{i}", f"c{i + 1}", 1.5) for i in range(n - 1)])
        s = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        for t in range(n):
            assert nc.step_sim(s).spike_ids == (f"c{t}",)
            assert s.solo.delivered is None


class TestUnion:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_union1d_on_ascending_indices(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(0, 40))
            # densities of 0 and 1 make either input empty or full
            a, b = (np.flatnonzero(rng.random(n) < p) for p in rng.choice([0.0, 0.2, 0.7, 1.0], 2))
            got, want = _union(a, b), np.union1d(a, b)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sizes", [(0, 0), (0, 3), (3, 0), (4, 5)])
    def test_empty_inputs(self, sizes):
        a, b = (np.arange(k) * (i + 2) for i, k in enumerate(sizes))
        got, want = _union(a, b), np.union1d(a, b)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_single_delay_run_never_imports_numpy_ma():
    # np.unique's first call in a process imports numpy.ma, about 1.7 MB of
    # peak RSS. The leaky group of "a" and "b" takes the decay union, the
    # decaying update and, "a" being armed, the first-step integrator union.
    script = textwrap.dedent("""
        import sys
        import neurocost as nc
        leaky = nc.NeuronSpec("lif", v_thresh=1.0, tau=4.0)
        relay = nc.NeuronSpec("lif", v_thresh=1.0)
        ng = nc.NeuralGraph(["a", "b", "c"], [leaky, relay], [0, 0, 1], [1.5, 0.0, 0.0],
                            [0, 1, 2], [1, 2, 0], [1.2, 1.5, 1.5], [1, 1, 1], ("a",), ("c",))
        tr = nc.run_sim(nc.init_sim(ng, nc.AnalogEncoding(), 0), 6)
        print(sum(r.spikes for r in tr.records), "numpy.ma" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(nc.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    spikes, imported = proc.stdout.split()
    assert int(spikes) > 0
    assert imported == "False"


def silent_mesh(m_s: int) -> nc.SimState:
    """A mesh started at its fixed point: every rail holds 0, nothing fires."""
    spec = nc.MeshSpec(m_s=m_s, k=4, m_t=1, dynamics=nc.Diffusion(0.5), init=(1.0,) * m_s)
    _, ng = nc.gen_mesh(spec)
    return nc.init_sim(ng, nc.AnalogEncoding(), 0)


class TestInPlaceState:
    def test_silent_step_allocates_constant_bytes(self):
        def step_peak(m_s):
            state = silent_mesh(m_s)
            for _ in range(50):  # the interpreter's own caches settle first
                nc.step_sim(state)
            tracemalloc.start()
            try:
                rec = nc.step_sim(state)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (rec.spikes, rec.synaptic_events, rec.neurons_touched) == (0, 0, 0)
            return peak

        small, large = step_peak(2048), step_peak(131072)  # 4,096 and 262,144 neurons
        assert large <= 4096
        assert large == small

    @staticmethod
    def _diverging_step(encoding):
        # "a" (first group) integrates a finite input on the same step on
        # which "r" receives inf; neither write may land.
        ng = network(
            neurons=(("a", nc.NeuronSpec("lif", v_thresh=1e308), 0.0),
                     ("r", nc.NeuronSpec("ann_relu"), 1e308)),
            synapses=(("r", "a", 0.5), ("r", "r", 2.0)),
        )
        state = nc.init_sim(ng, encoding, 0)
        nc.step_sim(state)
        before = state.x.copy()
        words = None if state.words is None else state.words.copy()
        with pytest.raises(nc.NonFiniteState, match="'r'"):
            nc.step_sim(state)
        assert state.x.tobytes() == before.tobytes()
        if words is None:  # an analog state keeps no words
            assert isinstance(encoding, nc.AnalogEncoding) and state.words is None
        else:  # "a"'s new word was converted, and left unwritten
            assert state.words.tobytes() == words.tobytes()
            assert state.words.tobytes() == encoding.words(state.x).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_state_leaves_state_untouched(self):
        self._diverging_step(nc.AnalogEncoding())

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_state_leaves_digital_state_untouched(self):
        self._diverging_step(nc.DigitalEncoding())

    def test_state_is_one_array_and_x0_is_never_written(self):
        spec = nc.MeshSpec(m_s=32, k=4, m_t=1, dynamics=nc.Diffusion(0.5),
                           init=nc.sinusoid_init(32, cycles=2), v_thresh=0.25)
        _, ng = nc.gen_mesh(spec)
        x0 = ng.x0.copy()
        state = nc.init_sim(ng, nc.DigitalEncoding(), 0)
        x = state.x
        tr = nc.run_sim(state, 30)
        nc.step_sim(state)
        assert sum(r.neurons_touched for r in tr.records) > 0
        assert state.x is x and x is not ng.x0
        assert ng.x0.tobytes() == x0.tobytes()

    def test_a_digital_step_converts_each_word_once(self, monkeypatch):
        # The old words are kept with the state, so init_sim converts x0 once
        # and a step converts only its new states: one words() call per group.
        calls = []
        words = nc.DigitalEncoding.words

        def counted(encoding, x):
            calls.append(len(x))
            return words(encoding, x)

        monkeypatch.setattr(nc.DigitalEncoding, "words", counted)
        state = nc.init_sim(nc.gen_self_exciting_loop(), nc.DigitalEncoding(), 0)
        assert calls == [1]
        tr = nc.run_sim(state, 50)
        assert [r.spikes for r in tr.records] == [1] * 50
        assert calls == [1] * 51


class TestCountBeforeSum:
    """A group whose state words all hold adds nothing to delta_n; the
    changed words are counted first and only a nonzero count is summed."""

    @pytest.mark.parametrize("encoding", [nc.AnalogEncoding(), nc.DigitalEncoding()],
                             ids=["analog", "digital"])
    def test_loop_steps_change_no_word(self, encoding):
        # After the armed first step the neuron goes 0 -> 1.5 -> reset 0.
        tr = run(nc.gen_self_exciting_loop(), 6, encoding=encoding)
        assert tr.records[0].neurons_touched == 1 and tr.records[0].delta_n > 0.0
        for rec in tr.records[1:]:
            assert (rec.spikes, rec.synaptic_events, rec.neurons_touched) == (1, 1, 0)
            assert rec.delta_n == 0.0 and math.copysign(1.0, rec.delta_n) == 1.0

    def test_digital_input_that_keeps_the_word(self):
        # Words of 0.5: 0.1 and 0.1 + 0.2 both floor to word 0.
        ng = network(neurons=(("q", RELAY, 0.1),), synapses=(), input_neurons=("q",))
        state = nc.init_sim(ng, nc.DigitalEncoding(word_width=4, scale=4.0), 0)
        rec = nc.step_sim(state, (("q", 0.2),))
        assert state.membrane("q") == 0.1 + 0.2  # evaluated and written
        assert (rec.spikes, rec.neurons_touched) == (0, 0)
        assert rec.delta_n == 0.0 and math.copysign(1.0, rec.delta_n) == 1.0
        assert type(rec.neurons_touched) is int and type(rec.delta_n) is float

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_analog_nan_state_raises(self):
        # Two armed relus send +inf and -inf to "o", whose new state is NaN.
        relu = nc.NeuronSpec("ann_relu")
        ng = network(neurons=(("p", relu, 1e308), ("q", relu, 1e308), ("o", relu, 0.0)),
                     synapses=(("p", "o", 10.0), ("q", "o", -10.0)))
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        nc.step_sim(state)
        before = state.x.copy()
        with pytest.raises(nc.NonFiniteState, match=r"^state of 'o' diverged at t=1$"):
            nc.step_sim(state)
        assert state.x.tobytes() == before.tobytes() and state.t == 1

    def test_nan_input_is_refused_before_any_write(self):
        ng = two_neuron(2.0, a0=0.5)
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        with pytest.raises(nc.NonFiniteInput, match=r"^external input to 'A' is nan$"):
            nc.step_sim(state, (("A", 0.25), ("A", float("nan"))))
        assert state.x.tolist() == [0.5, 0.0] and state.t == 0


class TestFiringRates:
    def _synthetic_trace(self):
        zeros = dict(synaptic_events=0, neurons_touched=0, delta_n=0.0,
                     e_voltage_term=0.0, e_spikegen_term=0.0,
                     e_synapse_term=0.0, e_spike_term=0.0, e_t=0.0)
        records = tuple(
            nc.StepRecord(t=t, spikes=1 if t < 20 else 0,
                          spike_ids=("n",) if t < 20 else (), **zeros)
            for t in range(50)
        )
        return nc.SimTrace(records=records,
                           f_series=np.zeros(50),
                           e_n=0.0,
                           outputs=np.zeros((50, 1)),
                           output_ids=("n",),
                           n_total=10)

    def test_windowed_rates(self):
        tr = self._synthetic_trace()
        rates = measure_firing_rate(tr, 5)
        assert rates.tolist() == [0.1] * 4 + [0.0] * 6

    def test_window_validation(self):
        tr = self._synthetic_trace()
        for bad in (0, 1.5, True):
            with pytest.raises(ValueError, match="window must be an integer >= 1"):
                measure_firing_rate(tr, bad)
        with pytest.raises(ValueError):
            measure_firing_rate(tr, 51)


class TestEnergyAudit:
    def test_footnote_kick_trace(self, footnote_trace):
        tr = footnote_trace
        assert [r.spikes for r in tr.records] == [2, 1, 1, 0, 0, 0]
        assert [r.e_t for r in tr.records] == [2.0, 5.0, 3.0, 0.0, 0.0, 0.0]
        assert tr.e_n == 10.0
        assert tr.f_series.tolist() == [0.5, 0.25, 0.25, 0.0, 0.0, 0.0]

    def test_reconcile_exact_on_kick(self, footnote_net, footnote_trace):
        r = nc.count_resources(footnote_net)
        rep = nc.reconcile_energy(footnote_trace, r, nc.preset("unit"))
        assert rep.steps == 6
        assert rep.f_mean == pytest.approx(1 / 6, abs=1e-15)
        assert set(rep.terms) == {"spikegen", "synapse", "spike"}
        for term in rep.terms.values():
            assert term.ratio == pytest.approx(1.0, abs=1e-12)
            assert term.analytic == pytest.approx(term.measured, abs=1e-12)

    def test_reconcile_detects_record_tamper(self, footnote_net, footnote_trace):
        bad_rec = dataclasses.replace(footnote_trace.records[1],
                                      e_t=footnote_trace.records[1].e_t + 1.0)
        tampered = dataclasses.replace(
            footnote_trace,
            records=footnote_trace.records[:1] + (bad_rec,) + footnote_trace.records[2:],
        )
        with pytest.raises(nc.MismatchDetected):
            nc.reconcile_energy(tampered, nc.count_resources(footnote_net),
                                nc.preset("unit"))

    def test_records_are_slotted_and_replaceable(self, footnote_trace):
        rec = footnote_trace.records[1]
        assert not hasattr(rec, "__dict__")
        bumped = dataclasses.replace(rec, spikes=rec.spikes + 1)
        assert bumped.spikes == rec.spikes + 1
        assert dataclasses.replace(bumped, spikes=rec.spikes) == rec

    @pytest.mark.parametrize("field, change", [("spikes", 1), ("synaptic_events", -1)])
    def test_reconcile_detects_replaced_count(self, footnote_net, footnote_trace, field, change):
        records = list(footnote_trace.records)
        records[1] = dataclasses.replace(records[1], **{field: getattr(records[1], field) + change})
        tampered = dataclasses.replace(footnote_trace, records=tuple(records))
        with pytest.raises(nc.MismatchDetected, match="at t=1 "):
            nc.reconcile_energy(tampered, nc.count_resources(footnote_net), nc.preset("unit"))

    def test_reconcile_detects_total_tamper(self, footnote_net, footnote_trace):
        tampered = dataclasses.replace(footnote_trace, e_n=footnote_trace.e_n + 0.5)
        with pytest.raises(nc.MismatchDetected):
            nc.reconcile_energy(tampered, nc.count_resources(footnote_net),
                                nc.preset("unit"))

    def test_reconcile_loop_boundary_ratio(self):
        # the last spike's delivery falls past the trace end, so measured
        # per-step synapse cost is (steps-1)/steps of the analytic rate
        ng = nc.gen_self_exciting_loop()
        tr = run(ng, 50)
        rep = nc.reconcile_energy(tr, nc.count_resources(ng), nc.preset("unit"))
        assert rep.f_mean == 1.0
        assert rep.terms["spikegen"].ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.terms["synapse"].ratio == pytest.approx(50 / 49, rel=1e-12)
        assert rep.terms["spike"].ratio == pytest.approx(50 / 49, rel=1e-12)

    @pytest.mark.parametrize("field", ["e_t", "e_synapse_term"])
    def test_reconcile_checks_each_record_of_a_run_of_equal_counts(self, field):
        # After its first step the loop repeats one set of counts, which
        # share one recomputation; a tampered record inside the run is named.
        ng = nc.gen_self_exciting_loop()
        tr = run(ng, 30)
        assert len({(r.neurons_touched, r.spikes, r.synaptic_events)
                    for r in tr.records[1:]}) == 1
        records = list(tr.records)
        records[17] = dataclasses.replace(records[17], **{field: getattr(records[17], field) + 1})
        tampered = dataclasses.replace(tr, records=tuple(records))
        with pytest.raises(nc.MismatchDetected, match="at t=17 "):
            nc.reconcile_energy(tampered, nc.count_resources(ng), nc.preset("unit"))

    def test_record_term_sum_matches_total(self, footnote_trace):
        for rec in footnote_trace.records:
            total = (rec.e_voltage_term + rec.e_spikegen_term
                     + rec.e_synapse_term + rec.e_spike_term)
            assert rec.e_t == total
