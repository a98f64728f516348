"""Reference functions that only the tests call: the one-row fragment
extractor, the text label of one fragment, the windowed firing rate, the
architecture lookup of a comparison table and a schedule's node ->
(processor, step) dict."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from neurocost.costs import ComparisonRow, ComparisonTable
from neurocost.errors import check_count
from neurocost.graph import ScheduleResult, ValidatedGraph
from neurocost.sim import SimTrace
from neurocost.threads import Fragment, _exact_label, _exact_signature, _fragments


def extract_fragment(vg: ValidatedGraph, node_ids: Sequence[str]) -> Fragment:
    """Induce a fragment on the given host-graph node ids. Raises
    ValueError naming an id that the graph lacks or that repeats."""
    members: dict[str, int] = {}
    for nid in node_ids:
        if nid not in vg.index:
            raise ValueError(f"node {nid!r} is not in the graph")
        if nid in members:
            raise ValueError(f"node {nid!r} is listed twice")
        members[nid] = vg.index[nid]
    if not members:
        return Fragment((), frozenset(), ())
    return _fragments(vg, np.array(list(members.values()), np.intp).reshape(1, -1))[0][0]


def canonical_label(frag: Fragment) -> str:
    """Stable text label: "x" and a digest of the exact signature, so equal
    labels mean isomorphic fragments. Raises FragmentTooLarge above 8 nodes."""
    return _exact_label(_exact_signature(frag))


def measure_firing_rate(tr: SimTrace, window: int) -> np.ndarray:
    """Mean firing rate per non-overlapping window of `window` steps."""
    check_count("window", window)
    if window > len(tr.records):
        raise ValueError(f"window {window} exceeds trace length {len(tr.records)}")
    n_windows = len(tr.records) // window
    rates = np.empty(n_windows, dtype=float)
    for w in range(n_windows):
        chunk = tr.records[w * window:(w + 1) * window]
        rates[w] = sum(rec.spikes for rec in chunk) / (window * tr.n_total)
    return rates


def row(table: ComparisonTable, architecture: str) -> ComparisonRow:
    """The table's row for `architecture`; KeyError if it has none."""
    for r in table.rows:
        if r.architecture == architecture:
            return r
    raise KeyError(architecture)


def assignment(sched: ScheduleResult) -> dict[str, tuple[int, int]]:
    """Node id -> (processor, step), in the schedule's node order."""
    return dict(zip(sched.ids, zip(sched.proc.tolist(), sched.step.tolist())))
