"""Golden trace digests: the simulator must reproduce recorded traces bit for bit.

Each case builds a network, runs it, and hashes every StepRecord field,
the output matrix, the firing-rate series, the total energy and the final
membrane state with SHA-256 (floats by their exact hex form). The digests
in GOLDEN were recorded with the per-source emit loop and `np.add.at`
delivery that preceded the vectorized event core, except those of
`cancelled_input`, `narrow_decay` and `armed_groups`, recorded with the
vectorized core before the evaluation set was made activity-proportional;
any engine rewrite must reproduce them exactly.

`PYTHONPATH=src python tests/test_golden.py` prints the digests of the
engine on the path, one `name: digest` line per case.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import neurocost as nc
import neurocost.sim as sim
from conftest import make_footnote, network

RANDOM_SPECS = (
    nc.NeuronSpec("threshold_gate", v_thresh=0.3),
    nc.NeuronSpec("ann_relu"),
    nc.NeuronSpec("ann_tanh"),
    nc.NeuronSpec("lif", v_thresh=1.0, v_reset=0.0, tau=4.0),
    nc.NeuronSpec("lif", v_thresh=0.8, v_reset=-0.2),
)
ENCODINGS = {
    "digital": nc.DigitalEncoding(word_width=12, scale=4.0),
    "analog": nc.AnalogEncoding(),
}


def _hex(v: float) -> str:
    return float(v).hex()


def trace_digest(tr: nc.SimTrace, state: nc.SimState) -> str:
    h = hashlib.sha256()
    for rec in tr.records:
        h.update(repr((
            rec.t, rec.spikes, rec.spike_ids, rec.synaptic_events, rec.neurons_touched,
            _hex(rec.delta_n), _hex(rec.e_voltage_term), _hex(rec.e_spikegen_term),
            _hex(rec.e_synapse_term), _hex(rec.e_spike_term), _hex(rec.e_t),
        )).encode())
    for arr in (tr.outputs, tr.f_series, state.x):
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((_hex(tr.e_n), tr.output_ids, tr.n_total)).encode())
    return h.hexdigest()


def _run(ng, encoding, steps, constants=nc.PRESETS["unit"], **kw):
    state = nc.init_sim(ng, encoding, 0, constants)
    return nc.run_sim(state, steps, **kw), state


def _kick(ng, value=1.5):
    return {0: tuple((nid, value) for nid in ng.input_neurons)}


def case_footnote():
    vg = nc.validate_graph(make_footnote())
    ng, _ = nc.lower_graph(vg, nc.relay_rules({"sub", "mul", "pow"}))
    return _run(ng, nc.AnalogEncoding(), 20, stop=nc.ZeroActivity(3), inputs=_kick(ng))


def case_random_dag():
    raw = nc.gen_random_dag(80, 0.08, ("add", "mul", "sub"), seed=5)
    vg = nc.validate_graph(raw)
    ng, _ = nc.lower_graph(vg, nc.relay_rules({"add", "mul", "sub"}))
    return _run(ng, nc.DigitalEncoding(), 200, stop=nc.ZeroActivity(3),
                inputs=_kick(ng), constants=nc.PRESETS["digital-skew"])


def case_ff_layer():
    rng = np.random.default_rng(11)
    w = rng.uniform(-0.5, 1.0, size=(24, 16))
    w[rng.random(w.shape) < 0.1] = 0.0
    spec = nc.FFLayerSpec(w, rng.uniform(0.05, 0.6, size=24), 10)
    ng = nc.gen_ff_layer(spec)
    return _run(ng, nc.DigitalEncoding(), 30, inputs=nc.ff_input_schedule(spec))


def case_mesh():
    spec = nc.MeshSpec(m_s=64, k=4, m_t=10, dynamics=nc.Diffusion(0.5),
                       init=nc.sinusoid_init(64, cycles=4))
    _template, ng = nc.gen_mesh(spec)
    return _run(ng, nc.AnalogEncoding(), 60)


def case_loop():
    return _run(nc.gen_self_exciting_loop(), nc.DigitalEncoding(), 50)


def random_network(seed: int) -> nc.NeuralGraph:
    """Cyclic network over every model kind: delays 1-4, about a tenth of
    the weights exactly zero (half of those -0.0), about a third of the
    neurons starting above their firing condition."""
    rng = np.random.default_rng(seed)
    n, n_syn = 30, 100
    neurons = []
    for i in range(n):
        spec = RANDOM_SPECS[int(rng.integers(len(RANDOM_SPECS)))]
        x0 = float(rng.uniform(-0.5, 1.5)) if rng.random() < 0.35 else 0.0
        neurons.append((f"u{i}", spec, x0))
    src = rng.integers(0, n, size=n_syn)
    tgt = rng.integers(0, n, size=n_syn)
    weight = rng.uniform(-1.0, 1.2, size=n_syn)
    zero = rng.random(n_syn) < 0.1
    weight[zero] = np.where(rng.random(n_syn) < 0.5, 0.0, -0.0)[zero]
    delay = rng.integers(1, 5, size=n_syn)
    synapses = tuple(
        (f"u{int(a)}", f"u{int(b)}", float(w), int(d))
        for a, b, w, d in zip(src, tgt, weight, delay)
    )
    return network(
        neurons=tuple(neurons),
        synapses=synapses,
        input_neurons=("u0", "u1", "u2", "u3"),
        output_neurons=("u4", "u5", "u6"),
    )


def random_inputs(seed: int, steps: int) -> dict[int, tuple[tuple[str, float], ...]]:
    rng = np.random.default_rng(seed + 1000)
    schedule = {}
    for t in range(steps):
        if rng.random() < 0.3:
            ids = rng.choice(4, size=int(rng.integers(1, 4)), replace=False)
            schedule[t] = tuple((f"u{int(i)}", float(rng.uniform(-0.5, 2.0))) for i in ids)
    return schedule


def case_random(seed: int, encoding: str):
    return _run(random_network(seed), ENCODINGS[encoding], 40, inputs=random_inputs(seed, 40))


def case_cancelled_input():
    """Inputs that sum to exactly 0.0 wake nothing: the gate (which would
    fire on input 0) stays silent and the relu keeps its held state."""
    relay = nc.NeuronSpec("lif", v_thresh=1.0)
    ng = network(
        neurons=(("a", relay, 1.5),
                 ("g", nc.NeuronSpec("threshold_gate", v_thresh=-0.5), 0.0),
                 ("r", nc.NeuronSpec("ann_relu"), 0.7),
                 ("l", nc.NeuronSpec("lif", v_thresh=1.0, tau=4.0), 0.5),
                 ("o", relay, 0.0)),
        synapses=(("a", "g", 0.5), ("a", "r", 0.25, 2), ("g", "o", 1.5), ("r", "o", 2.0),
                  ("l", "o", 1.5)),
        input_neurons=("g", "r", "l"),
        output_neurons=("g", "r", "o"),
    )
    inputs = {
        1: (("g", -0.5), ("l", 0.375), ("l", -0.375)),
        2: (("r", -0.25),),
        4: (("r", 0.4), ("r", -0.4), ("g", 0.75), ("g", -0.75)),
        6: (("g", -0.0), ("r", 0.3)),
    }
    return _run(ng, nc.AnalogEncoding(), 10, inputs=inputs)


def case_narrow_decay():
    """Leaky LIFs under a 6-bit word: the state is nonzero but one decay
    step keeps its word for many steps, so the neuron is not re-evaluated."""
    slow = nc.NeuronSpec("lif", v_thresh=1.5, v_reset=0.0, tau=40.0)
    fast = nc.NeuronSpec("lif", v_thresh=1.5, v_reset=0.0, tau=3.0)
    neurons = [("src", nc.NeuronSpec("lif", v_thresh=1.0), 0.0)]
    for i, x0 in enumerate((0.9, -0.01, 0.13, 1.4, -1.2, 0.0)):
        neurons.append((f"s{i}", slow, x0))
        neurons.append((f"f{i}", fast, -x0))
    synapses = tuple(("src", nid, 0.3, 1 + k % 3) for k, (nid, _s, _x) in enumerate(neurons[1:]))
    ng = network(neurons=tuple(neurons), synapses=synapses,
                 input_neurons=("src",), output_neurons=("s0", "f0", "s3"))
    inputs = {t: (("src", 1.25),) for t in (3, 11, 12, 20)}
    return _run(ng, nc.DigitalEncoding(word_width=6, scale=4.0), 30, inputs=inputs)


def case_armed_groups():
    """Neurons armed at t = 0 in three spec groups (lif, gate, tanh),
    interleaved by position, feeding each other over delays 1, 2, 3 and 5."""
    lif = nc.NeuronSpec("lif", v_thresh=1.0, tau=6.0)
    gate = nc.NeuronSpec("threshold_gate", v_thresh=0.2)
    tanh = nc.NeuronSpec("ann_tanh")
    specs = (lif, gate, tanh, nc.NeuronSpec("ann_relu"))
    neurons = tuple((f"v{i}", specs[i % 4], (1.3, 0.6, -0.4, 0.0, 0.0, 0.9)[i % 6])
                    for i in range(24))
    delays = (1, 2, 3, 5)
    synapses = tuple((f"v{i}", f"v{(i * 7 + 3) % 24}", 0.45 - 0.1 * (i % 5), delays[i % 4])
                     for i in range(24))
    synapses += tuple((f"v{i}", f"v{(i + 5) % 24}", 0.6, delays[(i + 1) % 4])
                      for i in range(0, 24, 3))
    ng = network(neurons=neurons, synapses=synapses, input_neurons=("v0",),
                 output_neurons=("v1", "v2", "v8"))
    return _run(ng, nc.DigitalEncoding(), 25)


CASES = {
    "footnote_kick": case_footnote,
    "random_dag": case_random_dag,
    "ff_layer": case_ff_layer,
    "mesh": case_mesh,
    "self_exciting_loop": case_loop,
    "cancelled_input": case_cancelled_input,
    "narrow_decay": case_narrow_decay,
    "armed_groups": case_armed_groups,
}
for _seed in range(4):
    for _enc in ENCODINGS:
        CASES[f"random_s{_seed}_{_enc}"] = lambda s=_seed, e=_enc: case_random(s, e)

GOLDEN: dict[str, str] = {
    'armed_groups': '7044d9be1423e8adac167d9b174b29d677be72a861666acca34099b36ca52d66',
    'cancelled_input': '37f58fa5a1a384c0c0065de100f8b146e87ef21dbcad8dd2aaf1367f6d8a6a70',
    'ff_layer': '029cb247e1a819f628bac23070865d1bfa4fe59158552a0f3f43873653678dcc',
    'footnote_kick': '69dc8723962b5a97f09b51ee72e207c86c0e5482a007225152549641038b4739',
    'mesh': '3f39499499525f0aff38381a287216939ac83bda121e22e1a793655d534749a6',
    'narrow_decay': 'a28a8e4ea90032e88ccfdd7b7fef65cdb5c92dafb11aab01749c2dce8af5c1e8',
    'random_dag': '43cc73caa38ad1387af0f18d6fbb3fe428c4b0d09f88363f045aecd1b8f8ee10',
    'random_s0_analog': 'd61c8a5ced99fd4a311376df7284802bfe132e7b9b1636baa064949141167b30',
    'random_s0_digital': 'edbf266abc1cec83cbb8931f4063599cb7260e3a7ce97e2a11dc9841e406e8d6',
    'random_s1_analog': '9eafd0b9677fa34c84340b337fabaa48ff757a85b48bd40a8487c0f336e09640',
    'random_s1_digital': '4bb3b5ba8f39990f283cc9f454ced9dc045685bc4896a042728eca27eb7436d5',
    'random_s2_analog': '62c87594f60d5bdcc2e8cacff34a7fdb4639fbfb73682e1eff4b97956a57b5fe',
    'random_s2_digital': 'bbb1683aad6b7f899be1e6f5a8af1e3c3556272a70515072d05d446b20e6da93',
    'random_s3_analog': 'd7e7da48781788f9438fec52c354fb057d5902eeab2b1fb70598593ee678181b',
    'random_s3_digital': '635f859145c68b72681a4c1e2e17503ec0bfda0496337a350f51b1d39aec4acd',
    'self_exciting_loop': '827db37041ae6a013d361f6404ae1dee9efabac390a05b30b08585124533fac4',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden_digest(name):
    tr, state = CASES[name]()
    assert trace_digest(tr, state) == GOLDEN[name]


@pytest.mark.parametrize("inputs", [None, {}, lambda t: ()], ids=["none", "mapping", "callable"])
@pytest.mark.parametrize("name", ["mesh", "self_exciting_loop"])
def test_empty_input_schedule_is_no_schedule(monkeypatch, name, inputs):
    # run_sim steps without a schedule lookup when inputs is None; an empty
    # mapping or a callable that injects nothing must give the same trace.
    run_sim = nc.run_sim
    monkeypatch.setattr(nc, "run_sim",
                        lambda s, steps, **kw: run_sim(s, steps, inputs=inputs, **kw))
    assert trace_digest(*CASES[name]()) == GOLDEN[name]


COUNT_FIELDS = ("t", "spikes", "synaptic_events", "neurons_touched")
FLOAT_FIELDS = ("delta_n", "e_voltage_term", "e_spikegen_term", "e_synapse_term",
                "e_spike_term", "e_t")


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_records_hold_builtin_types(monkeypatch, name, encoding):
    # A numpy scalar leaked from a C-level call hashes like its value but
    # prints as np.float64(...) in the trace CSV; every record field is a
    # built-in int, float or tuple of str, whichever encoding the case runs.
    init_sim = nc.init_sim
    monkeypatch.setattr(nc, "init_sim", lambda ng, _encoding, seed, constants:
                        init_sim(ng, ENCODINGS[encoding], seed, constants))
    tr, _state = CASES[name]()
    assert type(tr.e_n) is float
    for rec in tr.records:
        assert [type(getattr(rec, f)) for f in COUNT_FIELDS] == [int] * len(COUNT_FIELDS)
        assert [type(getattr(rec, f)) for f in FLOAT_FIELDS] == [float] * len(FLOAT_FIELDS)
        assert type(rec.spike_ids) is tuple
        assert all(type(nid) is str for nid in rec.spike_ids)


@pytest.mark.parametrize("name", sorted(CASES))
def test_kept_words_are_the_words_of_x(monkeypatch, name):
    # A digital state keeps every neuron's word; after every step it must be
    # encoding.words(x) bit for bit (decay tests and unfed armed neurons included).
    # A case run under the analog encoding runs here under the digital one.
    init_sim, step_sim = nc.init_sim, sim.step_sim
    checked = []

    def digital_init(ng, encoding, seed, constants):
        if not isinstance(encoding, nc.DigitalEncoding):
            encoding = ENCODINGS["digital"]
        return init_sim(ng, encoding, seed, constants)

    def watched(s, external_inputs=()):
        rec = step_sim(s, external_inputs)
        assert s.words.dtype == np.int64
        assert s.words.tobytes() == s.encoding.words(s.x).tobytes()
        checked.append(s.t)
        return rec

    monkeypatch.setattr(nc, "init_sim", digital_init)
    monkeypatch.setattr(sim, "step_sim", watched)
    tr, _state = CASES[name]()
    assert checked == list(range(1, len(tr.records) + 1))


def test_golden_digests_match_cases():
    # An orphan digest would never be checked; a case without one fails.
    assert set(GOLDEN) == set(CASES)


def test_random_networks_exercise_multi_delay_and_zero_weights():
    # The digests only protect the multi-delay and zero-weight paths if the
    # random runs actually carry events over them.
    ng = random_network(0)
    assert set(ng.delay.tolist()) == {1, 2, 3, 4}
    assert np.any(ng.weight == 0.0)
    tr, _ = case_random(0, "analog")
    assert sum(r.synaptic_events for r in tr.records) > 100


@pytest.mark.parametrize("seed", range(4))
def test_random_networks_compile_only_nonzero_weights(seed):
    # Zero-weight synapses, +0.0 and -0.0 alike, are left out of the table.
    ng = random_network(seed)
    ids = ng.neuron_ids
    kept = sorted((ids[a], ids[b], w, d) for a, b, w, d in zip(
        ng.source.tolist(), ng.target.tolist(), ng.weight.tolist(), ng.delay.tolist()) if w != 0.0)
    assert len(kept) < len(ng.source)
    net = nc.init_sim(ng, ENCODINGS["analog"], 0).net
    assert net.delay is None  # kept delays differ, so the sorted delay column is kept
    src = np.repeat(np.arange(net.n), np.diff(net.out_indptr))
    table = sorted((net.ids[a], net.ids[b], w, d) for a, b, w, d in zip(
        src.tolist(), net.syn_target.tolist(), net.syn_weight.tolist(), net.syn_delay.tolist()))
    assert table == kept


def test_cases_cover_spiking_and_scaled_emit(monkeypatch):
    # Emit multiplies weights by the source's output only in a scaled
    # network (a relu or tanh source with outgoing synapses). The digests
    # protect both emit forms only if some case is not scaled and some
    # scaled case sends events from a source whose output is not 1.0.
    step = sim.step_sim
    scaled_sends = []

    def watched(s, external_inputs=()):
        rec = step(s, external_inputs)
        if s.net.scaled:
            sends = np.diff(s.net.out_indptr) > 0
            scaled_sends.append(bool(np.any(sends & (s.last_y != 0.0) & (s.last_y != 1.0))))
        return rec

    monkeypatch.setattr(sim, "step_sim", watched)
    assert {CASES[name]()[1].net.scaled for name in sorted(CASES)} == {False, True}
    assert any(scaled_sends)


if __name__ == "__main__":
    for case_name in sorted(CASES):
        print(f"    {case_name!r}: {trace_digest(*CASES[case_name]())!r},")
