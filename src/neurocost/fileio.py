"""File formats: graph JSON, constants config, and CSV emission.

Graphs are UTF-8 JSON with a fixed top-level shape (see
data/graph.schema.json). Constants are flat key=value lines layered
over a named preset. All emitters are deterministic: the same object
always serializes to the same bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import io
import json
import os
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .costs import ComparisonTable, CostConstants, PRESETS, preset
from .errors import (
    FileSyntaxError,
    PresetCycle,
    SchemaError,
    UnknownKey,
    UnknownPreset,
    check_count,
)
from .graph import ComputeGraph
from .neural import NeuralGraph
from .sim import SimTrace

PRESET_DIR_ENV = "NEUROCOST_PRESET_DIR"

_TOP_KEYS = {"nodes", "inputs", "outputs"}
_NODE_KEYS = {"id", "op", "inputs"}


def _require(condition: bool, message: str, field: str) -> None:
    if not condition:
        raise SchemaError(message, field=field)


def _check_string_list(value: object, field: str) -> None:
    _require(isinstance(value, list), "expected a list of strings", field)
    for i, item in enumerate(value):
        _require(isinstance(item, str), "expected a string", f"{field}[{i}]")


def _plain_graph(doc: dict) -> ComputeGraph | None:
    """The graph if every node and declared list is well formed, else None.
    Exact type tests suffice (json.loads yields exact dict, list and str), a
    repeated id shortens `index`, and a reference `input_pos` resolves is a str."""
    raw_nodes, declared = doc["nodes"], [doc.get("inputs", []), doc.get("outputs", [])]
    if not (set(map(type, raw_nodes)) <= {dict}
            and set(chain.from_iterable(raw_nodes)) <= _NODE_KEYS):
        return None
    ids = [raw.get("id") for raw in raw_nodes]
    ops = [raw.get("op") for raw in raw_nodes]
    inputs = [raw.get("inputs", []) for raw in raw_nodes]
    if not (set(map(type, inputs)) | set(map(type, declared)) <= {list}
            and set(map(type, chain(ids, ops, *declared))) <= {str}):
        return None
    graph = ComputeGraph.from_columns(ids, ops, inputs, *declared)
    plain = len(graph.index) == len(ids) and (
        graph.input_pos is not None or set(map(type, chain.from_iterable(inputs))) <= {str})
    return graph if plain else None


def _diagnose(doc: dict) -> None:
    """Raise SchemaError naming the first bad field of the nodes, then of the
    declared lists; only _plain_graph's rejects reach it, and each has one."""
    seen: set[str] = set()
    for i, raw in enumerate(doc["nodes"]):
        where = f"nodes[{i}]"
        _require(isinstance(raw, dict), "expected an object", where)
        for key in sorted(set(raw) - _NODE_KEYS):
            raise SchemaError(f"unknown key {key!r}", field=where)
        _require("id" in raw, "missing required key 'id'", where)
        _require(isinstance(raw["id"], str), "expected a string", f"{where}.id")
        _require("op" in raw, "missing required key 'op'", where)
        _require(isinstance(raw["op"], str), "expected a string", f"{where}.op")
        nid = raw["id"]
        _require(nid not in seen, f"duplicate id {nid!r}", f"{where}.id")
        seen.add(nid)
        _check_string_list(raw.get("inputs", []), f"{where}.inputs")
    for key in ("inputs", "outputs"):
        _check_string_list(doc.get(key, []), key)


def parse_graph_file(text: str) -> ComputeGraph:
    """Parse graph JSON into an (unvalidated) compute graph.

    Malformed JSON raises FileSyntaxError, with line and column unless it
    nests too deeply or holds an over-long integer; a well-formed document
    with the wrong shape raises SchemaError naming the offending field.
    Duplicate ids and reference types are checked on the graph's cached
    `index` and `input_pos`, which validate_graph's reference checks reuse.

    The cyclic garbage collector is paused for the parse and restored as
    the caller had it, errors included. The parse builds a tree of lists
    and dicts, two per node, that forms no cycle and is garbage when the
    parse returns, so each collection it would trigger finds nothing.
    Only package code runs while the collector is paused. The pause is
    process-wide, not per thread: a parse that overlaps another thread's
    work pauses that thread's collections too, and a change the other
    thread makes to the collector setting is undone when the parse ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_graph(text)
    finally:
        if enabled:
            gc.enable()


def _parse_graph(text: str) -> ComputeGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except (RecursionError, ValueError) as exc:  # or an integer over Python's digit limit
        raise FileSyntaxError("nesting too deep" if isinstance(exc, RecursionError)
                              else "integer too long") from exc

    _require(isinstance(doc, dict), "top level must be an object", "$")
    for key in sorted(set(doc) - _TOP_KEYS):
        raise SchemaError(f"unknown key {key!r}", field="$")
    _require("nodes" in doc, "missing required key 'nodes'", "$")
    _require(isinstance(doc["nodes"], list), "expected a list", "nodes")

    graph = _plain_graph(doc)
    if graph is None:
        _diagnose(doc)
    return graph


def emit_graph(graph: ComputeGraph) -> str:
    """Serialize a compute graph; parse_graph_file inverts this exactly."""
    doc = {
        "nodes": [
            {"id": nid, "op": op, "inputs": list(refs)}
            for nid, op, refs in zip(graph.ids, graph.op_kinds, graph.inputs)
        ],
        "inputs": list(graph.declared_inputs),
        "outputs": list(graph.declared_outputs),
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_neural_json(ng: NeuralGraph) -> str:
    """Serialize a neural graph (infinite tau encoded as null)."""
    models = [{"model": spec.model_kind, "v_thresh": spec.v_thresh, "v_reset": spec.v_reset,
               "tau": None if spec.tau == float("inf") else spec.tau, "dt": spec.dt}
              for spec in ng.specs]
    ids = ng.neuron_ids
    doc = {
        "neurons": [{"id": nid, **models[row], "x0": x0} for nid, row, x0 in zip(
            ids, ng.spec_index.tolist(), ng.x0.tolist())],
        "synapses": [{"source": ids[s], "target": ids[t], "weight": w, "delay": d}
                     for s, t, w, d in zip(ng.source.tolist(), ng.target.tolist(),
                                           ng.weight.tolist(), ng.delay.tolist())],
        "inputs": list(ng.input_neurons),
        "outputs": list(ng.output_neurons),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_config(text: str, base: CostConstants | None = None, source: str | None = None,
                 _presets: tuple[str, ...] = ()) -> CostConstants:
    """Layer key=value lines over a preset base.

    Lines are `key = value` with `#` comments; a `preset = name` line
    picks the base (default "unit"). Keys must be cost-constant fields;
    CostConstants rejects NaN, infinite and negative values. `source`
    names the file the text was read from in every error its lines raise.
    `_presets` names the custom presets being loaded, outermost first.
    """
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileSyntaxError(f"expected key=value, got {line!r}", line=lineno, source=source)
        key, _, value = line.partition("=")
        pairs[key.strip()] = (value.strip(), lineno)

    if "preset" in pairs:
        base = load_preset(pairs.pop("preset")[0], _presets)
    constants = base if base is not None else preset("unit")

    field_names = {f.name for f in dataclasses.fields(CostConstants)}
    updates: dict[str, float] = {}
    for key, (value, lineno) in pairs.items():
        if key not in field_names:
            raise UnknownKey(key, source)
        try:
            updates[key] = float(value)
        except ValueError as exc:
            raise FileSyntaxError(f"bad numeric value for {key}: {value!r}",
                                  line=lineno, source=source) from exc
    try:
        return dataclasses.replace(constants, **updates)
    except ValueError as exc:
        if source is None:
            raise
        raise ValueError(f"{exc} in {source}") from exc


def load_preset(name: str, _presets: tuple[str, ...] = ()) -> CostConstants:
    """Built-in preset, or <name>.cfg from $NEUROCOST_PRESET_DIR, whose
    base must not lead back to it (PresetCycle)."""
    if name in PRESETS:
        return PRESETS[name]
    if name in _presets:
        raise PresetCycle((*_presets, name))
    preset_dir = os.environ.get(PRESET_DIR_ENV)
    if preset_dir:
        path = Path(preset_dir) / f"{name}.cfg"
        if path.is_file():
            return parse_config(path.read_text(encoding="utf-8"), source=str(path),
                                _presets=(*_presets, name))
    raise UnknownPreset(name)


def load_constants(preset_name: str | None = None,
                   config_path: str | Path | None = None) -> CostConstants:
    """Resolve constants from an optional preset plus an optional config
    file; the file's keys win."""
    base = load_preset(preset_name) if preset_name else preset("unit")
    if config_path is None:
        return base
    text = Path(config_path).read_text(encoding="utf-8")
    return parse_config(text, base=base, source=str(config_path))


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_rows_csv(columns: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Deterministic CSV: fixed column order, repr-precision floats,
    newline line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


TRACE_COLUMNS = (
    "t", "spikes", "synaptic_events", "neurons_touched", "delta_n",
    "f_window", "e_voltage_term", "e_spikegen_term", "e_synapse_term",
    "e_spike_term", "e_t", "e_cum",
)


def emit_trace_csv(trace: SimTrace, window: int = 1) -> str:
    """One row per simulated step; f_window is the trailing mean firing
    rate over the given number of steps and e_cum the running energy."""
    check_count("window", window)
    rows = []
    e_cum = 0.0
    for i, rec in enumerate(trace.records):
        lo = max(0, i - window + 1)
        f_window = float(sum(trace.f_series[lo:i + 1]) / (i + 1 - lo))
        e_cum += rec.e_t
        rows.append((
            rec.t, rec.spikes, rec.synaptic_events, rec.neurons_touched,
            float(rec.delta_n), f_window, rec.e_voltage_term,
            rec.e_spikegen_term, rec.e_synapse_term, rec.e_spike_term,
            rec.e_t, e_cum,
        ))
    return emit_rows_csv(TRACE_COLUMNS, rows)


TABLE_COLUMNS = (
    "workload", "architecture", "time_lower", "time_upper", "time_model",
    "space_lower", "space_upper", "energy_total",
)


def emit_table_csv(table: ComparisonTable) -> str:
    """Architecture comparison rows in declaration order."""
    rows = []
    for row in table.rows:
        rows.append((
            table.workload, row.architecture,
            float(row.time.lower), float(row.time.upper), row.time.model,
            float(row.space.lower), float(row.space.upper),
            float(row.energy.total),
        ))
    return emit_rows_csv(TABLE_COLUMNS, rows)
