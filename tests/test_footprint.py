"""Footprint guard: the commands and the library load no module they do
not call.

A bare `np.unique` imports `numpy.ma` on first use (about 1.7 MB of peak
RSS) and `import hashlib` loads OpenSSL's `_hashlib` (about 3.5 MB), yet
neither is needed for any result. The script runs in a fresh interpreter
and judges only the modules that the bare interpreter had not loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import neurocost as nc

SCRIPT = textwrap.dedent("""
    import sys
    baseline = set(sys.modules)
    import contextlib, io, json
    from importlib import resources
    import neurocost as nc
    from neurocost import cli, threads

    graph = str(resources.files("neurocost") / "data" / "footnote.graph")
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["analyze", graph], ["lower", graph],
                     ["simulate", graph, "--steps", "10"], ["partition", graph]):
            codes.append(cli.main(argv))

    template = nc.ComputeGraph(
        nodes=(nc.OpNode("gather", "dot"), nc.OpNode("residual", "sub", ("gather",)),
               nc.OpNode("update", "add", ("residual",))),
        declared_inputs=("gather",), declared_outputs=("update",))
    stencil = nc.validate_graph(nc.expand_template(template, 8, 4, nc.ring_coupling(8)))
    threads_found = [nc.partition_isomorphic(stencil, g).p_threads for g in (3, 4, 7)]

    # "a" is a leaky lif that fires at t = 0, "m" an armed memoryless relu,
    # and the kept synapses carry delays 1 and 2.
    leaky = nc.NeuronSpec("lif", v_thresh=1.0, tau=4.0)
    relay = nc.NeuronSpec("lif", v_thresh=1.0)
    relu = nc.NeuronSpec("ann_relu")
    ng = nc.NeuralGraph(["a", "b", "c", "m"], [leaky, relay, relu], [0, 1, 1, 2],
                        [1.5, 0.0, 0.0, 0.5], [0, 0, 1, 2, 3], [1, 2, 2, 0, 1],
                        [1.5, 1.5, 0.4, 1.2, 0.6], [1, 2, 1, 1, 2], ("a",), ("c",))
    state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
    trace = nc.run_sim(state, 8)

    loaded = set(sys.modules) - baseline
    import hashlib
    print(json.dumps({
        "codes": codes,
        "threads": threads_found,
        "delays": state.net.delay,
        "spikes": sum(r.spikes for r in trace.records),
        "events": sum(r.synaptic_events for r in trace.records),
        "loaded": sorted(name for name in ("_hashlib", "numpy.ma") if name in loaded),
        "hashlib_blake2b": getattr(threads, "blake2b", None) is hashlib.blake2b,
    }))
""")


def test_commands_and_library_load_neither_openssl_nor_numpy_ma():
    env = dict(os.environ, PYTHONPATH=str(Path(nc.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert min(report["threads"]) > 1
    # Two kept delays: the run takes the multi-delay emit.
    assert report["delays"] is None
    assert report["spikes"] > 0 and report["events"] > 0
    assert report["loaded"] == []
    assert report["hashlib_blake2b"] is True
