"""End-to-end acceptance suite.

Each test exercises one published capability at its stated tolerance and
prints a single pass/fail line so a full run reads as a checklist.
"""

from __future__ import annotations

import math
import time
from importlib import resources
from pathlib import Path

import numpy as np

import neurocost as nc
import neurocost.cli as cli
from conftest import network
from oracles import measure_firing_rate

FOOTNOTE = str(resources.files("neurocost") / "data" / "footnote.graph")


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def mesh_trace(m_s, k=4, cycles=None, steps=60, v_thresh=0.25, seed=0):
    if cycles is None:
        cycles = max(1, m_s // 16)
    spec = nc.MeshSpec(
        m_s=m_s, k=k, m_t=steps,
        dynamics=nc.Diffusion(0.5),
        init=nc.sinusoid_init(m_s, amplitude=1.0, mean=1.0, cycles=cycles),
        v_thresh=v_thresh,
    )
    _, ng = nc.gen_mesh(spec)
    state = nc.init_sim(ng, nc.AnalogEncoding(), seed)
    return ng, nc.run_sim(state, steps)


def test_criterion_01_footnote_analysis(capsys):
    start = time.perf_counter()
    outputs = []
    for p in (2, 4, 16):
        code = cli.main(["analyze", FOOTNOTE, "--p", str(p)])
        out = capsys.readouterr().out
        outputs.append((p, code, out))
    elapsed = time.perf_counter() - start

    ok = elapsed < 1.0
    for p, code, out in outputs:
        ok = ok and code == 0
        ok = ok and "t1=4" in out
        ok = ok and "t_inf=3" in out
        ok = ok and f"t_p=3 (list schedule, p={p})" in out
    with capsys.disabled():
        assert report(1, ok, f"t1=4 t_inf=3 t_p=3 for p in (2,4,16), {elapsed:.3f}s")


def test_criterion_02_schedule_bounds(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    violations = 0
    checked = 0
    for i in range(100):
        n = int(rng.integers(2, 201))
        density = float(rng.uniform(0.02, 0.3))
        g = nc.gen_random_dag(n, density, ("relay", "mix"), seed=1000 + i)
        vg = nc.validate_graph(g)
        m = nc.compute_metrics(vg)
        for p in (1, 2, 4, 8, 16, 10**9):
            t_p = nc.list_schedule(vg, p).t_p
            lo = max(m.t_inf, math.ceil(m.t1 / p))
            hi = math.ceil(m.t1 / p) + m.t_inf
            checked += 1
            if not (lo <= t_p <= hi):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    with capsys.disabled():
        assert report(2, ok, f"{checked} schedules on 100 dags, "
                             f"{violations} bound violations, {elapsed:.2f}s")


def test_criterion_03_pipeline_step_counts(capsys):
    def steps_to_outputs(vg, depth):
        kinds = set(vg.graph.op_kinds)
        ng, _ = nc.lower_graph(vg, nc.relay_rules(kinds, neuron_count=depth))
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        kick = {0: tuple((nid, 1.5) for nid in ng.input_neurons)}
        tr = nc.run_sim(state, 600, stop=nc.ZeroActivity(depth + 2), inputs=kick)
        outs = set(ng.output_neurons)
        first = {}
        for rec in tr.records:
            for sid in rec.spike_ids:
                if sid in outs and sid not in first:
                    first[sid] = rec.t
        return max(first.values()) + 1 if set(first) == outs else None

    pipeline = [nc.validate_graph(e.graph) for e in nc.mini_corpus()
                if e.category != "random"]
    footnote = nc.validate_graph(nc.parse_graph_file(
        Path(FOOTNOTE).read_text(encoding="utf-8")))

    checked, bad = 0, 0
    for vg in pipeline + [footnote]:
        t_inf = nc.compute_metrics(vg).t_inf
        checked += 1
        if steps_to_outputs(vg, 1) != t_inf:
            bad += 1
    for depth in (2, 3):
        for vg in (footnote, pipeline[8]):  # plus one long chain
            t_inf = nc.compute_metrics(vg).t_inf
            checked += 1
            if steps_to_outputs(vg, depth) != depth * t_inf:
                bad += 1
    ok = bad == 0
    with capsys.disabled():
        assert report(3, ok, f"{checked} lowered pipelines, steps == depth*t_inf "
                             f"exactly, {bad} mismatches")


def test_criterion_04_mesh_energy_scales_with_size(capsys):
    start = time.perf_counter()
    spec = nc.SweepSpec(workload="mesh", param="m_s",
                        values=(64.0, 128.0, 256.0, 512.0, 1024.0),
                        fixed=(("k", 4.0),))
    _rows, reg = nc.run_sweep(spec)
    elapsed = time.perf_counter() - start
    ok = (reg is not None and abs(reg.slope - 1.0) <= 0.1
          and reg.r_squared >= 0.98 and elapsed < 120.0)
    with capsys.disabled():
        assert report(4, ok, f"mesh sweep slope={reg.slope:.4f} "
                             f"r2={reg.r_squared:.6f}, {elapsed:.2f}s")


def test_criterion_05_layer_energy_scales_quadratically(capsys):
    start = time.perf_counter()
    spec = nc.SweepSpec(workload="ff", param="n",
                        values=(8.0, 16.0, 32.0, 64.0, 128.0),
                        constants=nc.preset("digital-skew"))
    _rows, reg = nc.run_sweep(spec)
    elapsed = time.perf_counter() - start
    ok = (reg is not None and abs(reg.slope - 2.0) <= 0.1
          and reg.r_squared >= 0.98 and elapsed < 120.0)
    with capsys.disabled():
        assert report(5, ok, f"layer sweep slope={reg.slope:.4f} "
                             f"r2={reg.r_squared:.6f}, {elapsed:.2f}s")


def test_criterion_06_convergent_load_goes_quiet(capsys):
    start = time.perf_counter()
    _ng, tr = mesh_trace(256, cycles=1, steps=200)
    window = 10
    f_w = measure_firing_rate(tr, window)
    non_increasing = all(f_w[i + 1] <= f_w[i] + 1e-15
                         for i in range(len(f_w) - 1))
    e_w = [sum(r.e_t for r in tr.records[i * window:(i + 1) * window])
           for i in range(len(tr.records) // window)]
    tail_quiet = e_w[-1] <= 0.05 * e_w[0]

    e_100 = sum(r.e_t for r in tr.records[:100])
    e_200 = sum(r.e_t for r in tr.records[:200])
    sublinear = e_200 <= 1.05 * e_100

    ctrl = nc.gen_self_exciting_loop()
    c_100 = nc.run_sim(nc.init_sim(ctrl, nc.AnalogEncoding(), 0), 100).e_n
    c_200 = nc.run_sim(nc.init_sim(ctrl, nc.AnalogEncoding(), 0), 200).e_n
    control_linear = abs(c_200 - 2 * c_100) / c_200 <= 0.02

    elapsed = time.perf_counter() - start
    ok = (non_increasing and tail_quiet and sublinear and control_linear
          and elapsed < 60.0)
    with capsys.disabled():
        assert report(6, ok, f"rates non-increasing, tail energy "
                             f"{e_w[-1]:.0f}/{e_w[0]:.0f}, mesh E200/E100="
                             f"{e_200 / e_100:.3f} vs control linear, {elapsed:.2f}s")


def test_criterion_07_energy_reconciliation(capsys):
    suite = {}

    foot = nc.validate_graph(nc.parse_graph_file(Path(FOOTNOTE).read_text(encoding="utf-8")))
    ng, _ = nc.lower_graph(foot, nc.relay_rules({"sub", "mul", "pow"}))
    state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
    tr = nc.run_sim(state, 20, stop=nc.ZeroActivity(3),
                    inputs={0: tuple((n, 1.5) for n in ng.input_neurons)})
    suite["kick"] = (ng, tr)

    suite["mesh128"] = mesh_trace(128)
    suite["mesh256"] = mesh_trace(256, cycles=1, steps=200)

    rng = np.random.default_rng(11)
    fspec = nc.FFLayerSpec(rng.uniform(0.5, 1.0, size=(16, 16)),
                                       [0.5] * 16, 10)
    ngf = nc.gen_ff_layer(fspec)
    trf = nc.run_sim(nc.init_sim(ngf, nc.AnalogEncoding(), 0), 30,
                     inputs=nc.ff_input_schedule(fspec))
    suite["layer16"] = (ngf, trf)

    loop = nc.gen_self_exciting_loop()
    suite["loop"] = (loop, nc.run_sim(nc.init_sim(loop, nc.AnalogEncoding(), 0), 50))

    worst = 1.0
    for name, (net, trace) in suite.items():
        # reconcile_energy recomputes every recorded e_t from the raw event
        # counts and raises on any bitwise disagreement
        rep = nc.reconcile_energy(trace, nc.count_resources(net), nc.preset("unit"))
        for term_name, term in rep.terms.items():
            assert 1 / 1.1 <= term.ratio <= 1.1, (name, term_name, term.ratio)
            worst = max(worst, max(term.ratio, 1 / term.ratio))
    ok = worst <= 1.1
    with capsys.disabled():
        assert report(7, ok, f"{len(suite)} traces bit-exact, worst term "
                             f"ratio {worst:.4f} within 10%")


def test_criterion_08_word_transition_bits(capsys):
    unit_ok = nc.hamming_bits(np.array([63]), np.array([64]), 8).tolist() == [7]

    spec = nc.NeuronSpec(model_kind="lif", v_thresh=1000.0)
    ng = network(neurons=(("m", spec, 63.0),), synapses=(),
                 input_neurons=("m",), output_neurons=("m",))
    state = nc.init_sim(ng, nc.DigitalEncoding(8, scale=128.0), 0)
    tr = nc.run_sim(state, 1, inputs={0: (("m", 1.0),)})
    sim_ok = tr.records[0].delta_n == 7.0

    ok = unit_ok and sim_ok
    with capsys.disabled():
        assert report(8, ok, "63->64 at 8 bits records exactly 7 changed bits")


def test_criterion_09_partition_quality(capsys):
    entries = nc.mini_corpus()
    ok = len(entries) == 20 and all(len(e.graph.ids) <= 12 for e in entries)

    worst_ratio = 1.0
    families_checked = 0
    for entry in entries:
        vg = nc.validate_graph(entry.graph)
        greedy = nc.partition_isomorphic(vg, entry.granularity)
        exact = nc.brute_force_partition(vg, entry.granularity)
        if entry.category in ("homogeneous", "chain"):
            ok = ok and greedy.p_threads == exact.p_threads
        ratio = greedy.p_threads / exact.p_threads
        worst_ratio = min(worst_ratio, ratio)
        ok = ok and ratio >= 0.5

        for _label, frags in greedy.families:
            families_checked += 1
            for frag in frags[1:]:
                ok = ok and nc.isomorphic(frags[0], frag)

    dense = {e.name: e for e in entries}["dense_rows_4x3"]
    pr = nc.partition_isomorphic(nc.validate_graph(dense.graph), dense.granularity)
    ok = ok and nc.thread_efficiency(pr, 4) == 1.0

    with capsys.disabled():
        assert report(9, ok, f"20 graphs, {families_checked} families verified "
                             f"isomorphic, worst greedy/exact {worst_ratio:.2f}, "
                             f"dense rows efficiency 1.0 at p=4")


def test_criterion_10_energy_crossover(capsys):
    start = time.perf_counter()
    horizon = 400
    ok = True
    crossovers = {}
    for m_s in (16, 64, 256):
        _ng, tr = mesh_trace(m_s)
        f = list(tr.f_series) + [0.0] * (horizon - len(tr.f_series))
        table = nc.mesh_cost_report(m_s=m_s, m_t=horizon, k=4, t1s=3, t_infs=3,
                                    n_mesh=2, c=nc.preset("unit"), f_series=f)
        conv = next(r for r in table.rows if r.architecture == "conventional")
        nmc = next(r for r in table.rows if r.architecture == "nmc")

        ok = ok and conv.energy.total == 1.0 * m_s * horizon * 3
        ok = ok and table.crossover_step is not None
        ok = ok and nmc.energy.total < conv.energy.total

        nmc_cum = np.cumsum(table.nmc_energy_series)
        conv_cum = table.conv_energy_per_step * np.arange(1, horizon + 1)
        m_star = table.crossover_step
        ok = ok and bool(np.all(nmc_cum[m_star:] < conv_cum[m_star:]))
        crossovers[m_s] = m_star
        print(f"mesh m_s={m_s}: crossover M_T*={m_star}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        assert report(10, ok, "conventional exact, crossover at "
                              + ", ".join(f"M_T*={v} (m_s={k})"
                                          for k, v in crossovers.items())
                              + f", persists to horizon, {elapsed:.2f}s")
