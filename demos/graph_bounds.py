"""Work, depth, and scheduling bounds on task graphs.

Loads the bundled four-node example and a batch of random DAGs, prints
their serial work t1 and critical-path depth t_inf, and shows that every
greedy list schedule lands inside the classic makespan sandwich

    max(t_inf, ceil(t1 / p)) <= t_p <= ceil(t1 / p) + t_inf
"""

import math
from importlib import resources

import neurocost as nc

# the bundled example: two entry nodes feeding a multiply and a power
text = (resources.files("neurocost") / "data" / "footnote.graph").read_text()
vg = nc.validate_graph(nc.parse_graph_file(text))
m = nc.compute_metrics(vg)

print("bundled graph")
print(f"  nodes={len(vg.graph.ids)} t1={m.t1} t_inf={m.t_inf}")
for p in (1, 2, 4):
    sched = nc.list_schedule(vg, p)
    print(f"  p={p}: t_p={sched.t_p}")

# wider graphs: random layered DAGs of growing size
print()
print("random dags, schedule sandwich")
print(f"{'n':>5} {'t1':>5} {'t_inf':>6} {'p':>10} {'lo':>5} {'t_p':>5} {'hi':>5}")
for seed, n in ((1, 30), (2, 80), (3, 150)):
    g = nc.gen_random_dag(n, 0.1, ("relay", "mix"), seed=seed)
    rvg = nc.validate_graph(g)
    rm = nc.compute_metrics(rvg)
    n_nodes = len(rvg.graph.ids)
    for p in (1, 4, 16, 10**9):
        t_p = nc.list_schedule(rvg, p).t_p
        lo = max(rm.t_inf, math.ceil(rm.t1 / p))
        hi = math.ceil(rm.t1 / p) + rm.t_inf
        label = "inf" if p > 10**6 else str(p)
        print(f"{n_nodes:>5} {rm.t1:>5} {rm.t_inf:>6} {label:>10} "
              f"{lo:>5} {t_p:>5} {hi:>5}")
        assert lo <= t_p <= hi

print()
print("every schedule stayed inside its bounds")
