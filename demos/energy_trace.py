"""Per-step energy accounting on a small spiking pipeline.

Lowers the bundled task graph to one relay neuron per operation, kicks
the entry neurons once, and walks the instrumented trace: each step
records spikes, synaptic events, touched state words, and an energy
figure recomputed independently by the reconciliation audit.
"""

from importlib import resources

import neurocost as nc
from neurocost import fileio

text = (resources.files("neurocost") / "data" / "footnote.graph").read_text()
vg = nc.validate_graph(nc.parse_graph_file(text))

ng, assembly = nc.lower_graph(vg)  # one relay neuron per op, whatever its kind
counts = nc.count_resources(ng, assembly)
print(f"lowered: n_total={counts.n_total} s_total={counts.s_total} "
      f"n_bar={counts.n_bar} s_bar={counts.s_bar}")

# one kick above threshold at t=0, then let the wave run out
kick = {0: tuple((nid, 1.5) for nid in ng.input_neurons)}
state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
trace = nc.run_sim(state, 20, stop=nc.ZeroActivity(3), inputs=kick)

print()
print(fileio.emit_trace_csv(trace, window=2))

# energy follows events: recompute each step from its counts and compare
report = nc.reconcile_energy(trace, counts, nc.preset("unit"))
print(f"steps={report.steps} mean firing rate={report.f_mean:.4f}")
for name, term in report.terms.items():
    print(f"  {name:9s} analytic={term.analytic:.4f} "
          f"measured={term.measured:.4f} ratio={term.ratio:.4f}")

# the same network under 8-bit state words: flipping 63 -> 64 is the
# worst single-increment transition a word can make
import numpy as np

bits = nc.hamming_bits(np.array([63]), np.array([64]), 8)
print()
print(f"8-bit word 63 -> 64 flips {int(bits[0])} bits")
