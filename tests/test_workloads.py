"""Workload generator tests: mesh transport, rate-coded layers, controls."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest

import neurocost as nc
from conftest import network
from test_front_end import MESH_TEMPLATE
from neurocost.workloads import (
    _coupling_rows,
    FFLayerSpec,
    decode_mesh_state,
    ff_input_ids,
    ff_input_schedule,
    ff_output_ids,
    gen_ff_layer,
    mesh_equilibrium,
    rail_ids,
    reference_mesh_solve,
)


def coupling_matrix(spec):
    """Reference: the dense row-stochastic W with x(t+1) = x(t) @ W,
    built from the sparse rows the generator and the oracle use."""
    rows, cols, vals = _coupling_rows(spec)
    w = np.zeros((spec.m_s, spec.m_s))
    w[rows, cols] = vals
    return w


def ring_spec(m_s, init, m_t=20, v_thresh=0.25, alpha=0.5, k=2):
    return nc.MeshSpec(m_s=m_s, k=k, m_t=m_t, dynamics=nc.Diffusion(alpha),
                       init=init, v_thresh=v_thresh)


class TestMeshTransport:
    def test_single_seed_ring(self):
        # one point one unit above a cold ring: a single spike carries a
        # quantum out and every later step stays within one quantum of
        # the dense reference trajectory
        spec = ring_spec(4, (1.0, 0.0, 0.0, 0.0), m_t=12)
        _, ng = nc.gen_mesh(spec)
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        ref = reference_mesh_solve(spec)
        spikes, errs = [], []
        for t in range(12):
            rec = nc.step_sim(state, ())
            spikes.append(rec.spikes)
            errs.append(float(np.max(np.abs(decode_mesh_state(spec, state) - ref[t + 1]))))
        assert sum(spikes) == 1 and spikes[0] == 1
        assert errs[0] == pytest.approx(0.25, abs=1e-12)
        assert max(errs) <= 0.25 + 1e-12

    def test_reference_conserves_mass(self):
        spec = ring_spec(8, nc.sinusoid_init(8, amplitude=0.5, mean=1.0))
        ref = reference_mesh_solve(spec)
        mass = float(np.sum(spec.init))
        for row in ref:
            assert float(row.sum()) == pytest.approx(mass, rel=1e-12)

    def test_equilibrium_is_uniform_for_diffusion(self):
        spec = ring_spec(4, (1.0, 0.0, 0.0, 0.0))
        assert mesh_equilibrium(spec).tolist() == [0.25] * 4

    def test_uniform_start_is_silent(self):
        spec = ring_spec(6, (1.0,) * 6, m_t=10)
        _, ng = nc.gen_mesh(spec)
        tr = nc.run_sim(nc.init_sim(ng, nc.AnalogEncoding(), 0), 10)
        assert sum(r.spikes for r in tr.records) == 0
        assert tr.e_n == 0.0

    def test_single_point_mesh(self):
        spec = nc.MeshSpec(m_s=1, k=0, m_t=5, dynamics=nc.Diffusion(0.5),
                           init=(2.0,), v_thresh=0.25)
        _, ng = nc.gen_mesh(spec)
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        assert len(ng.neuron_ids) == 2  # one rail pair
        assert decode_mesh_state(spec, state).tolist() == [2.0]
        tr = nc.run_sim(state, 5)
        assert sum(r.spikes for r in tr.records) == 0

    def test_rail_ids_cover_mesh(self):
        spec = ring_spec(4, (1.0, 0.0, 0.0, 0.0))
        pos, neg = rail_ids(spec)
        assert len(pos) == len(neg) == 4
        _, ng = nc.gen_mesh(spec)
        assert set(pos) | set(neg) == set(ng.neuron_ids)

    def test_fidelity_through_relaxation(self):
        # a full wave: amplitude 1 against threshold 0.25, tracked to the
        # flat state; decode error stays inside the transport budget
        spec = ring_spec(32, nc.sinusoid_init(32, amplitude=1.0, mean=1.0, cycles=2),
                         m_t=40)
        _, ng = nc.gen_mesh(spec)
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        ref = reference_mesh_solve(spec)
        worst = 0.0
        for t in range(40):
            nc.step_sim(state, ())
            err = float(np.max(np.abs(decode_mesh_state(spec, state) - ref[t + 1])))
            worst = max(worst, err)
        assert worst <= 5 * spec.v_thresh


class TestMeshValidation:
    @pytest.mark.parametrize("k", [0, 3, 4, 6])
    def test_degenerate_rings(self, k):
        # The ring is checked when the spec is built, not by gen_mesh.
        match = {0: "k=0 with more than one mesh point leaves the mesh uncoupled",
                 3: "ring diffusion needs an even fan-out, got k=3"}.get(
                     k, f"fan-out k={k} does not fit a ring of 4 points")
        with pytest.raises(nc.DegenerateMesh, match=match):
            nc.MeshSpec(m_s=4, k=k, m_t=5, dynamics=nc.Diffusion(0.5),
                        init=(1.0,) * 4, v_thresh=0.25)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            nc.MeshSpec(m_s=0, k=2, m_t=5, dynamics=nc.Diffusion(0.5),
                        init=(), v_thresh=0.25)
        for field, bad, least in (("m_s", 2.0, 1), ("k", True, 0), ("m_t", 1.5, 1),
                                  ("n_mesh", 1, 2), ("m_s", np.float64(2.0), 1),
                                  ("k", np.True_, 0), ("n_mesh", np.int64(1), 2)):
            args = dict(m_s=2, k=2, m_t=5, init=(1.0, 1.0)) | {field: bad}
            with pytest.raises(ValueError, match=f"{field} must be an integer >= {least}"):
                nc.MeshSpec(dynamics=nc.Diffusion(0.5), **args)
        with pytest.raises(ValueError):
            nc.MeshSpec(m_s=4, k=2, m_t=5, dynamics=nc.Diffusion(0.5),
                        init=(1.0,) * 3, v_thresh=0.25)
        with pytest.raises(ValueError, match="init must be finite"):
            nc.MeshSpec(m_s=4, k=2, m_t=5, dynamics=nc.Diffusion(0.5),
                        init=(1.0, math.nan, 1.0, 1.0), v_thresh=0.25)
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
                nc.Diffusion(alpha)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, 0, -0.05])
    def test_v_thresh_must_be_finite_positive_number(self, bad):
        # The oracle and the equilibrium read v_thresh before any neuron is built.
        with pytest.raises(ValueError, match="v_thresh must be a finite positive number"):
            ring_spec(4, (1.0,) * 4, v_thresh=bad)

    @pytest.mark.parametrize("good", [1, np.float64(0.05), 1e-300])
    def test_v_thresh_accepts_positive_numbers(self, good):
        assert ring_spec(4, (1.0,) * 4, v_thresh=good).v_thresh == good

    @pytest.mark.parametrize("dynamics", [0.5, None, (0.5,), np.eye(4)])
    def test_dynamics_must_be_a_diffusion(self, dynamics):
        # Checked when the spec is built, not as an AttributeError in gen_mesh.
        name = type(dynamics).__name__
        with pytest.raises(ValueError, match=f"dynamics must be a Diffusion, got {name}$"):
            nc.MeshSpec(m_s=4, k=2, m_t=5, dynamics=dynamics, init=(1.0,) * 4)

    def test_spec_owns_a_read_only_init(self):
        init = np.array([3.0, 1.0, 0.0, 2.0])
        spec = ring_spec(4, init, m_t=10)
        _template, net = nc.gen_mesh(spec)
        ref, equil = reference_mesh_solve(spec), mesh_equilibrium(spec)
        init[:] = 0.0
        assert spec.init.tolist() == [3.0, 1.0, 0.0, 2.0]
        assert nc.gen_mesh(spec)[1] == net
        assert np.array_equal(reference_mesh_solve(spec), ref)
        assert np.array_equal(mesh_equilibrium(spec), equil)
        with pytest.raises(ValueError, match="read-only"):
            spec.init[0] = 9.0

    def test_numpy_counts_are_kept_as_ints(self):
        # A count read off an array's shape used to be rejected as a non-integer.
        init = np.ones(4)
        spec = nc.MeshSpec(m_s=init.shape[0], k=np.int64(2), m_t=np.int32(5),
                           n_mesh=np.int64(3), dynamics=nc.Diffusion(0.5), init=init)
        counts = (spec.m_s, spec.k, spec.m_t, spec.n_mesh)
        assert counts == (4, 2, 5, 3) and all(type(c) is int for c in counts)
        assert len(nc.gen_mesh(spec)[1].neuron_ids) == 12


class TestSinusoidInit:
    def test_shape_and_bounds(self):
        init = nc.sinusoid_init(16, amplitude=0.5, mean=1.0, cycles=2)
        arr = np.asarray(init)
        assert len(init) == 16
        assert float(arr.mean()) == pytest.approx(1.0, abs=1e-12)
        assert float(arr.max()) <= 1.5 + 1e-12
        assert float(arr.min()) >= 0.5 - 1e-12

    def test_cycles_change_pattern(self):
        one = np.asarray(nc.sinusoid_init(16, cycles=1))
        two = np.asarray(nc.sinusoid_init(16, cycles=2))
        assert not np.allclose(one, two)


class TestFFLayer:
    def make_spec(self, n_i=8, n_j=4, rate=0.5, steps=10, seed=3):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 1.0, size=(n_i, n_j))
        return FFLayerSpec(weights, [rate] * n_i, steps)

    def test_structure(self):
        spec = self.make_spec()
        ng = gen_ff_layer(spec)
        assert len(ng.neuron_ids) == 12
        assert len(ng.source) == 8 * 4
        assert ng.input_neurons == ff_input_ids(spec)
        assert ng.output_neurons == ff_output_ids(spec)

    def test_zero_weights_are_materialized(self):
        spec = FFLayerSpec(np.zeros((8, 4)), [0.5] * 8, 10)
        assert len(gen_ff_layer(spec).source) == 32

    def test_schedule_spacing(self):
        sched = ff_input_schedule(self.make_spec(rate=0.5))
        pattern = [t for t in range(10) if sched(t)]
        assert pattern == [1, 3, 5, 7, 9]
        assert all(len(sched(t)) == 8 for t in pattern)
        # the pattern repeats every presentation
        assert [t for t in range(10, 20) if sched(t)] == [t + 10 for t in pattern]

    def test_schedule_counts_match_rate(self):
        for rate, expect in ((0.3, [3, 6, 9]), (0.0, []), (1.0, list(range(10)))):
            sched = ff_input_schedule(self.make_spec(rate=rate))
            assert [t for t in range(10) if sched(t)] == expect

    @pytest.mark.parametrize("steps", [1, 7, 20])
    def test_schedule_matches_the_per_step_formula(self, steps):
        rates = (0.0, 0.05, 0.5, 1.0)
        spec = FFLayerSpec(np.ones((4, 2)), rates, steps)
        ids = ff_input_ids(spec)

        def formula(t):
            s = t % steps
            return tuple((nid, 1.0) for nid, r in zip(ids, rates)
                         if math.floor((s + 1) * r) > math.floor(s * r))

        ts = range(3 * steps)
        sched = ff_input_schedule(spec)
        assert [sched(t) for t in ts] == [formula(t) for t in ts]
        sched = ff_input_schedule(spec)  # phases first seen out of order
        assert [sched(t) for t in reversed(ts)] == [formula(t) for t in reversed(ts)]

    def test_units_fire_after_each_volley(self):
        spec = self.make_spec()
        ng = gen_ff_layer(spec)
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        tr = nc.run_sim(state, 12, inputs=ff_input_schedule(spec))
        assert [r.spikes for r in tr.records] == [0, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8]
        outs = set(ff_output_ids(spec))
        unit_spikes = sum(1 for r in tr.records for sid in r.spike_ids if sid in outs)
        assert unit_spikes == 20

    def test_spec_validation(self):
        rng = np.random.default_rng(0)
        wts = rng.uniform(0.5, 1.0, size=(8, 4))
        for rate in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=re.escape("rates must lie in [0, 1]")):
                FFLayerSpec(wts, [rate] * 8, 10)
        with pytest.raises(ValueError, match="rate code has 7 rates for n_i=8"):
            FFLayerSpec(wts, [0.5] * 7, 10)
        with pytest.raises(ValueError, match="weights must be a 2-d matrix"):
            FFLayerSpec(np.ones(8), [0.5] * 8, 10)
        with pytest.raises(ValueError, match="weights must be finite"):
            FFLayerSpec(np.where(wts > 0.9, math.inf, wts), [0.5] * 8, 10)
        # n_i and n_j are the shape of the weights; an empty side is a count of 0
        for shape, name in (((0, 4), "n_i"), ((4, 0), "n_j"), ((0, 0), "n_i")):
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got 0"):
                FFLayerSpec(np.ones(shape), [0.5] * shape[0], 10)
        for bad in (0, 2.5, True, np.True_, np.float64(2.0)):
            with pytest.raises(ValueError, match="steps per presentation must be an integer >= 1"):
                FFLayerSpec(np.ones((2, 2)), [0.5, 0.5], bad)
        spec = FFLayerSpec(wts, [0.5] * 8, np.int64(10))
        assert (spec.n_i, spec.n_j) == (8, 4)
        assert type(spec.steps_per_presentation) is int and spec.steps_per_presentation == 10

    def test_spec_owns_read_only_copies(self):
        weights, rates = np.arange(6.0).reshape(3, 2), np.array([0.5, 0.25, 1.0])
        spec = FFLayerSpec(weights, rates, 4)
        net, schedule = gen_ff_layer(spec), ff_input_schedule(spec)
        phases = [schedule(t) for t in range(4)]
        weights[:] = 7.0
        rates[:] = 0.0
        assert spec.weights.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert spec.rates.tolist() == [0.5, 0.25, 1.0]
        assert gen_ff_layer(spec) == net
        assert [ff_input_schedule(spec)(t) for t in range(4)] == phases
        for arr, index in ((spec.weights, (0, 0)), (spec.rates, 0)):
            with pytest.raises(ValueError, match="read-only"):
                arr[index] = 9.0
        assert np.shares_memory(gen_ff_layer(spec).weight, spec.weights)

    def test_from_arrays_is_the_constructor(self):
        spec = FFLayerSpec.from_arrays(np.ones((2, 3)), [0.5, 0.5], 4)
        assert type(spec) is FFLayerSpec
        assert spec.weights.tolist() == [[1.0] * 3] * 2 and spec.rates.tolist() == [0.5, 0.5]
        assert spec.steps_per_presentation == 4


class TestSelfExcitingLoop:
    def test_fires_every_step(self):
        ng = nc.gen_self_exciting_loop()
        assert len(ng.neuron_ids) == 1
        assert np.all(ng.source == ng.target)
        tr = nc.run_sim(nc.init_sim(ng, nc.AnalogEncoding(), 0), 40)
        assert [r.spikes for r in tr.records] == [1] * 40
        assert tr.e_n == 2.0 + 3.0 * 39


def _dense_solve(spec):
    """x <- x @ W on the dense coupling matrix, the oracle's reference."""
    w = coupling_matrix(spec)
    series = [np.asarray(spec.init, dtype=float)]
    for _ in range(spec.m_t):
        series.append(series[-1] @ w)
    return np.array(series)


def _ring_cases():
    for m_s in (1, 3, 4, 8, 33):
        for k in ((0,) if m_s == 1 else range(2, m_s, 2)):
            for alpha in (0.5, 0.3):
                yield m_s, k, alpha



class TestSparseMesh:
    @pytest.mark.parametrize("m_s,k,alpha", list(_ring_cases()))
    def test_oracle_matches_dense_ring(self, m_s, k, alpha):
        init = nc.sinusoid_init(m_s, amplitude=0.7, mean=1.0, cycles=max(1, m_s // 4))
        spec = ring_spec(m_s, init, m_t=15, alpha=alpha, k=k)
        ref = reference_mesh_solve(spec)
        assert ref.shape == (16, m_s)
        assert np.max(np.abs(ref - _dense_solve(spec))) <= 1e-12

    @pytest.mark.parametrize("spec", [
        ring_spec(33, nc.sinusoid_init(33, cycles=3), k=6, alpha=0.3),
        ring_spec(8, (1.0, 0.0) * 4, k=4),
        ring_spec(1, (2.0,), k=0),
    ])
    def test_gen_mesh_matches_dense_rows(self, spec):
        w = coupling_matrix(spec)
        pos, neg = rail_ids(spec)
        synapses = []
        for i in range(spec.m_s):
            for j in np.nonzero(w[i])[0]:
                quantum = spec.v_thresh * float(w[i, j])
                synapses.append((pos[i], pos[int(j)], quantum))
                synapses.append((neg[i], neg[int(j)], quantum))
        _, ng = nc.gen_mesh(spec)
        neurons = zip(ng.neuron_ids, [ng.specs[k] for k in ng.spec_index], ng.x0)
        assert ng == network(neurons, synapses)

    def test_decode_matches_membrane_loop(self):
        spec = ring_spec(16, nc.sinusoid_init(16, amplitude=1.0, cycles=2), k=4)
        _, ng = nc.gen_mesh(spec)
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        nc.run_sim(state, 7)
        pos, neg = rail_ids(spec)
        expected = mesh_equilibrium(spec)
        for i in range(spec.m_s):
            expected[i] += state.membrane(pos[i]) - state.membrane(neg[i])
        assert decode_mesh_state(spec, state).tolist() == expected.tolist()

    def test_decode_rejects_a_network_without_those_rails(self):
        spec = ring_spec(16, nc.sinusoid_init(16, cycles=2), k=4)
        _, ng = nc.gen_mesh(ring_spec(8, nc.sinusoid_init(8), k=4))
        for other in (ng, nc.gen_self_exciting_loop()):
            state = nc.init_sim(other, nc.AnalogEncoding(), 0)
            with pytest.raises(ValueError, match="m_s=16, k=4"):
                decode_mesh_state(spec, state)

    def test_oracle_memory_is_linear(self):
        # a dense 8192 x 8192 W alone would take 537 MB
        spec = ring_spec(8192, nc.sinusoid_init(8192, cycles=64), m_t=4, k=4)
        tracemalloc.start()
        try:
            reference_mesh_solve(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _mesh_by_tuples(spec):
    """Reference: the per-synapse mesh build that preceded the columnar
    one (neurons and synapses as tuples, x0 through Python's max)."""
    w = coupling_matrix(spec)
    rows, cols = np.nonzero(w)
    deviation = np.asarray(spec.init, dtype=float) - mesh_equilibrium(spec)
    pos, neg = rail_ids(spec)
    rail = nc.NeuronSpec("lif", v_thresh=spec.v_thresh, v_reset=0.0)
    neurons = [(pos[i], rail, float(max(deviation[i], 0.0))) for i in range(spec.m_s)]
    neurons += [(neg[i], rail, float(max(-deviation[i], 0.0))) for i in range(spec.m_s)]
    neurons += [(f"r{i}_{j}", rail, 0.0) for i in range(spec.m_s) for j in range(spec.n_mesh - 2)]
    synapses = []
    for i, j in zip(rows.tolist(), cols.tolist()):
        quantum = spec.v_thresh * float(w[i, j])
        synapses += [(pos[i], pos[j], quantum), (neg[i], neg[j], quantum)]
    return network(neurons, synapses)


def _ff_by_tuples(spec):
    sources, units = ff_input_ids(spec), ff_output_ids(spec)
    lif = nc.NeuronSpec("lif", v_thresh=nc.FF_INPUT_THRESH, v_reset=0.0)
    relu = nc.NeuronSpec("ann_relu")
    return network(
        [(nid, lif, 0.0) for nid in sources] + [(nid, relu, 0.0) for nid in units],
        [(sources[i], units[j], float(spec.weights[i][j]))
         for i in range(spec.n_i) for j in range(spec.n_j)],
        sources, units)


def _assert_same_network(ng, want):
    assert ng == want
    # == compares values, so the sign of each zero is checked apart
    for col in ("x0", "weight"):
        assert [math.copysign(1.0, x) for x in getattr(ng, col).tolist()] == [
            math.copysign(1.0, x) for x in getattr(want, col).tolist()]


class TestColumnarBuilders:
    @pytest.mark.parametrize("spec", [
        ring_spec(1, (2.0,), k=0),
        ring_spec(3, (1.0, 0.0, 2.0), k=2),
        ring_spec(8, (1.0, 0.0) * 4, k=4),
        ring_spec(33, nc.sinusoid_init(33, cycles=3), k=6, alpha=0.3),
        ring_spec(64, nc.sinusoid_init(64, cycles=4), k=4, v_thresh=0.05),
        ring_spec(6, (-0.0, 0.0, 1.0, -1.0, 0.5, -0.5), k=2),
        nc.MeshSpec(m_s=5, k=2, m_t=4, dynamics=nc.Diffusion(0.4),
                    init=(3.0, 1.0, 0.0, 2.0, 4.0), n_mesh=4),
    ], ids=lambda spec: f"m{spec.m_s}k{spec.k}n{spec.n_mesh}{type(spec.dynamics).__name__}")
    def test_gen_mesh_equals_tuple_build(self, spec):
        template, ng = nc.gen_mesh(spec)
        _assert_same_network(ng, _mesh_by_tuples(spec))
        assert template == MESH_TEMPLATE

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (24, 16)])
    def test_gen_ff_layer_equals_tuple_build(self, shape):
        rng = np.random.default_rng(sum(shape))
        w = rng.uniform(-0.5, 1.0, size=shape)
        w[rng.random(shape) < 0.2] = 0.0
        w[0, 0] = -0.0
        spec = FFLayerSpec(w, rng.uniform(0.0, 1.0, size=shape[0]), 10)
        _assert_same_network(gen_ff_layer(spec), _ff_by_tuples(spec))
        assert math.copysign(1.0, gen_ff_layer(spec).weight[0]) == -1.0

    @pytest.mark.parametrize("v_thresh, weight", [(1.0, None), (0.4, 0.1)])
    def test_loop_equals_tuple_build(self, v_thresh, weight):
        spec = nc.NeuronSpec("lif", v_thresh=v_thresh, v_reset=0.0)
        w = 1.5 * v_thresh if weight is None else weight
        want = network((("loop0", spec, 1.5 * v_thresh),), (("loop0", "loop0", w),), (),
                       ("loop0",))
        _assert_same_network(nc.gen_self_exciting_loop(v_thresh, weight), want)

    def test_count_resources_reads_column_lengths(self):
        ng = gen_ff_layer(FFLayerSpec(np.ones((16, 8)), [0.5] * 16, 4))
        r = nc.count_resources(ng)
        assert (r.n_total, r.s_total) == (24, 128)

    def test_mesh_build_and_compile_memory_is_linear(self):
        # gen_mesh + init_sim hold columns and the compiled CSR, about 113
        # bytes per synapse at the peak; one Python object per synapse
        # would take more than that on its own.
        spec = ring_spec(65536, nc.sinusoid_init(65536, cycles=4096), m_t=4, k=4, v_thresh=0.05)
        tracemalloc.start()
        try:
            _, ng = nc.gen_mesh(spec)
            nc.init_sim(ng, nc.AnalogEncoding(), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        synapses = len(ng.source)
        assert synapses == 2 * 65536 * 5
        assert peak / synapses < 150
