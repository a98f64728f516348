"""Correctness checks on the outputs of one pass.

Each check recomputes the expected answer from the generated inputs with
code of its own, not through the package. The exceptions are the
package's own audits, which the checks call on purpose:
`reconcile_energy` (every recorded step energy must match its event
counts) and `isomorphic` (every partition family must be isomorphic).

A check returns True or False; the runner counts an exception as a
failure too.
"""

from __future__ import annotations

import math

import numpy as np

import neurocost as nc


def levels(graph: nc.ComputeGraph) -> dict[str, int]:
    """Longest-path distance from a source, for nodes listed in
    topological order (as every generated graph lists them)."""
    level: dict[str, int] = {}
    for node in graph.nodes:
        level[node.id] = 1 + max(level[u] for u in node.inputs) if node.inputs else 0
    return level


def edge_count(graph: nc.ComputeGraph) -> int:
    return sum(len(node.inputs) for node in graph.nodes)


def firing_reference(graph: nc.ComputeGraph) -> tuple[list[int], list[int]]:
    """Spikes and synaptic events per step of the relay-lowered graph
    after a kick into every declared input at t=0.

    Firing times propagate as F(input) = {0} and
    F(v) = {t + 1 : t in F(u), u in preds(v)}; a spike of u at t delivers
    one event per out-edge at t + 1. Sets are bit masks (bit t = fires at
    t). The run stops after three quiet steps, so the trace has
    (last firing step + 1) + 3 steps.
    """
    kicked = set(graph.declared_inputs)
    fire: dict[str, int] = {}
    out_degree: dict[str, int] = {node.id: 0 for node in graph.nodes}
    for node in graph.nodes:
        mask = 1 if node.id in kicked else 0
        for u in node.inputs:
            mask |= fire[u] << 1
            out_degree[u] += 1
        fire[node.id] = mask
    horizon = max(mask.bit_length() for mask in fire.values()) + 3
    spikes = [0] * horizon
    events = [0] * horizon
    for nid, mask in fire.items():
        while mask:
            low = mask & -mask
            t = low.bit_length() - 1
            spikes[t] += 1
            events[t + 1] += out_degree[nid]
            mask ^= low
    return spikes, events


def matches_propagation(graph: nc.ComputeGraph, trace: nc.SimTrace) -> bool:
    spikes, events = firing_reference(graph)
    return ([rec.spikes for rec in trace.records] == spikes
            and [rec.synaptic_events for rec in trace.records] == events)


def reconciles(trace: nc.SimTrace, resources: nc.ResourceCount,
               constants: nc.CostConstants) -> bool:
    """The package's own audit; raises MismatchDetected on any bitwise
    disagreement between a step's energy and its event counts."""
    nc.reconcile_energy(trace, resources, constants)
    return True


def analyze_consistent(graph: nc.ComputeGraph, p: int, metrics: nc.GraphMetrics,
                       schedule: nc.ScheduleResult, resources: nc.ResourceCount) -> bool:
    """Work, span and relay-lowered sizes equal the generated graph's;
    the schedule lies in the work/span sandwich."""
    t1 = len(graph.nodes)
    t_inf = max(levels(graph).values()) + 1
    chunks = math.ceil(t1 / p)
    return (metrics.t1 == t1 and metrics.t_inf == t_inf
            and max(t_inf, chunks) <= schedule.t_p <= chunks + t_inf
            and resources.n_total == t1 and resources.s_total == edge_count(graph))


def csv_matches(csv_text: str, trace: nc.SimTrace) -> bool:
    """One row per step under a header; the last e_cum is the run's e_n."""
    lines = csv_text.splitlines()
    return (len(lines) == len(trace.records) + 1
            and float(lines[-1].rsplit(",", 1)[1]) == trace.e_n)


def ff_source_spikes(rates: np.ndarray, steps_per: int, steps: int) -> np.ndarray:
    """(steps, n_i) 0/1 matrix: a source with rate r fires on phase s of
    a presentation iff floor((s + 1) r) > floor(s r)."""
    phase = np.arange(steps) % steps_per
    return (np.floor((phase[:, None] + 1) * rates[None, :])
            > np.floor(phase[:, None] * rates[None, :])).astype(float)


def ff_expected_sums(weights: np.ndarray, rates: np.ndarray, steps_per: int,
                     steps: int) -> np.ndarray:
    """Unit input sums W^T s(t - 1) per step; zero at t = 0."""
    s = ff_source_spikes(rates, steps_per, steps)
    sums = np.zeros((steps, weights.shape[1]))
    sums[1:] = s[:-1] @ weights
    return sums


def ff_outputs_match(trace: nc.SimTrace, sums: np.ndarray) -> bool:
    expected = np.maximum(sums, 0.0)
    return trace.outputs.shape == expected.shape and bool(
        np.max(np.abs(trace.outputs - expected)) <= 1e-9)


def ff_counts_match(trace: nc.SimTrace, weights: np.ndarray, rates: np.ndarray,
                    steps_per: int, sums: np.ndarray) -> bool:
    """Events: each firing source delivers one event per non-zero weight
    a step later. Spikes: firing sources plus units with a positive sum;
    a sum within 1e-9 of zero may go either way."""
    steps = len(sums)
    s = ff_source_spikes(rates, steps_per, steps)
    events = np.zeros(steps, dtype=np.int64)
    events[1:] = s[:-1] @ np.count_nonzero(weights, axis=1)
    sure = s.sum(axis=1) + (sums > 1e-9).sum(axis=1)
    maybe = s.sum(axis=1) + (sums > -1e-9).sum(axis=1)
    got_spikes = np.array([rec.spikes for rec in trace.records])
    got_events = np.array([rec.synaptic_events for rec in trace.records])
    return (len(trace.records) == steps and bool(np.all(got_events == events))
            and bool(np.all((sure <= got_spikes) & (got_spikes <= maybe))))


def within(values: np.ndarray, target: float, tol: float) -> bool:
    return bool(np.max(np.abs(np.asarray(values) - target)) <= tol)


def slope_ok(fit: nc.RegressionResult, xs, ys) -> bool:
    """Energy grows linearly with mesh size, and the package's fit agrees
    with numpy's least-squares line."""
    slope, _intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return abs(fit.slope - 1.0) <= 0.1 and abs(fit.slope - slope) <= 1e-9


def constant_after_start(trace: nc.SimTrace) -> bool:
    energies = {rec.e_t for rec in trace.records[1:]}
    return len(energies) == 1


def families_isomorphic(pr: nc.PartitionResult) -> bool:
    return all(nc.isomorphic(members[0], other)
               for _label, members in pr.families for other in members[1:])


def partition_sound(pr: nc.PartitionResult, graph: nc.ComputeGraph, g: int) -> bool:
    """Fragments have g nodes, are weakly connected in the graph, are
    disjoint, and with the residual cover every node once; p_threads is
    the largest family."""
    neighbours: dict[str, set[str]] = {node.id: set() for node in graph.nodes}
    for node in graph.nodes:
        for u in node.inputs:
            neighbours[u].add(node.id)
            neighbours[node.id].add(u)
    seen: list[str] = list(pr.residual)
    for _label, members in pr.families:
        for frag in members:
            ids = set(frag.node_ids)
            reached = {frag.node_ids[0]}
            frontier = [frag.node_ids[0]]
            while frontier:
                nxt = neighbours[frontier.pop()] & ids - reached
                reached |= nxt
                frontier.extend(nxt)
            if len(ids) != g or len(frag.node_ids) != g or reached != ids:
                return False
            seen.extend(frag.node_ids)
    largest = max((len(members) for _label, members in pr.families), default=1)
    return (len(seen) == len(set(seen)) and set(seen) == set(neighbours)
            and pr.p_threads == largest)
