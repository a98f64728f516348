"""File format tests: graph files, configs, presets, CSV emitters."""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

import neurocost as nc
from conftest import bench_cases
from neurocost import fileio


class TestGraphFiles:
    def test_round_trip(self, footnote_raw):
        text = fileio.emit_graph(footnote_raw)
        assert nc.parse_graph_file(text) == footnote_raw

    def test_bundled_graph_parses(self):
        from importlib import resources
        text = (resources.files("neurocost") / "data" / "footnote.graph").read_text()
        g = nc.validate_graph(nc.parse_graph_file(text))
        m = nc.compute_metrics(g)
        assert (m.t1, m.t_inf) == (4, 3)

    def test_syntax_error_position(self):
        with pytest.raises(nc.FileSyntaxError) as exc:
            nc.parse_graph_file('{"nodes": [}')
        assert exc.value.line == 1
        assert exc.value.column == 12

    def test_empty_text(self):
        with pytest.raises(nc.FileSyntaxError) as exc:
            nc.parse_graph_file("")
        assert (exc.value.line, exc.value.column) == (1, 1)

    @pytest.mark.parametrize("text, field", [
        ("[1, 2]", "$"),
        ('{"nodes": [], "bogus": 1}', "$"),
        ('{"nodes": [5]}', "nodes[0]"),
        ('{"nodes": [{"op": "relay"}]}', "nodes[0]"),
        ('{"nodes": [{"id": 3, "op": "relay"}]}', "nodes[0].id"),
        ('{"nodes": [{"id": "a"}]}', "nodes[0]"),
        ('{"nodes": [{"id": "a", "op": "relay"}, {"id": "a", "op": "relay"}]}',
         "nodes[1].id"),
        ('{"nodes": [{"id": "a", "op": "relay", "inputs": "b"}]}',
         "nodes[0].inputs"),
        ('{"nodes": [{"id": "a", "op": "relay", "inputs": [3]}]}',
         "nodes[0].inputs[0]"),
    ])
    def test_schema_errors_name_the_field(self, text, field):
        with pytest.raises(nc.SchemaError) as exc:
            nc.parse_graph_file(text)
        assert exc.value.field == field

    def test_declared_lists_are_optional(self):
        g = nc.parse_graph_file('{"nodes": [{"id": "a", "op": "relay"}]}')
        assert g.declared_inputs == ()
        assert g.declared_outputs == ()

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    @pytest.mark.parametrize("text, error", [
        ('{"nodes": [{"id": "a", "op": "relay"}]}', None),
        ('{"nodes": [}', nc.FileSyntaxError),
        ('{"nodes": [5]}', nc.SchemaError),
        ('{"nodes": [], "inputs": [1]}', nc.SchemaError),
    ], ids=["parsed", "syntax", "node_schema", "declared_schema"])
    def test_parse_leaves_the_collector_as_it_found_it(self, enabled, text, error):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                nc.parse_graph_file(text)
            else:
                with pytest.raises(error):
                    nc.parse_graph_file(text)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_parse_runs_no_collection(self):
        # The 6,144-node stencil of the benchmark's stencil_threads workload:
        # with the collector running, json.loads's lists and dicts would
        # trigger 33 collections that find nothing.
        text = bench_cases().stencil_generate(0, False).stencil_text
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.callbacks.append(count)
        try:
            cg = nc.parse_graph_file(text)
        finally:
            gc.callbacks.remove(count)
        assert len(cg.ids) == 6144 and starts == []


def _node(nid, refs=()):
    return {"id": nid, "op": "relay", "inputs": list(refs)}


def _doc(*nodes, **declared):
    return json.dumps({"nodes": list(nodes), **declared})


# Each file's first fault: the stage that raises it, its type and its exact
# message. A duplicate id or a non-string reference fails the parse, a
# dangling string reference only validation, whichever node comes first.
REFERENCE_FAULTS = {
    "duplicate_id": (_doc(_node("a"), _node("b", ["a"]), _node("a")), "parse",
                     nc.SchemaError, "duplicate id 'a' (field: nodes[2].id)"),
    **{f"reference_{name}": (_doc(_node("a"), _node("b", ["a", value])), "parse",
                             nc.SchemaError, "expected a string (field: nodes[1].inputs[1])")
       for name, value in [("int", 7), ("float", 1.5), ("bool", True), ("null", None),
                           ("list", ["a"]), ("object", {"a": 1})]},
    "dangling": (_doc(_node("a"), _node("b", ["a", "ghost"])), "validate",
                 nc.DanglingReference, "reference to unknown node id: 'ghost'"),
    "dangling_then_non_string": (_doc(_node("a", ["ghost"]), _node("b", [3])), "parse",
                                 nc.SchemaError, "expected a string (field: nodes[1].inputs[0])"),
    "non_string_then_duplicate": (_doc(_node("a", [3]), _node("a")), "parse",
                                  nc.SchemaError, "expected a string (field: nodes[0].inputs[0])"),
    "duplicate_then_non_string": (_doc(_node("a"), _node("a"), _node("b", [3])), "parse",
                                  nc.SchemaError, "duplicate id 'a' (field: nodes[1].id)"),
    "dangling_then_duplicate": (_doc(_node("a", ["ghost"]), _node("a")), "parse",
                                nc.SchemaError, "duplicate id 'a' (field: nodes[1].id)"),
    "duplicate_then_bad_declared": (_doc(_node("a"), _node("a"), inputs=[1]), "parse",
                                    nc.SchemaError, "duplicate id 'a' (field: nodes[1].id)"),
    "dangling_then_bad_declared": (_doc(_node("a", ["ghost"]), outputs=[None]), "parse",
                                   nc.SchemaError, "expected a string (field: outputs[0])"),
}


class TestReferenceChecks:
    @pytest.mark.parametrize("name", REFERENCE_FAULTS)
    def test_first_fault_keeps_its_stage_type_and_message(self, name):
        text, stage, error, message = REFERENCE_FAULTS[name]
        graph = nc.parse_graph_file(text) if stage == "validate" else None
        with pytest.raises(error) as exc:
            nc.parse_graph_file(text) if graph is None else nc.validate_graph(graph)
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ("[" * 5000, "nesting too deep"),
        ('{"nodes": [], "n": ' + "9" * 5000 + "}", "integer too long"),
    ], ids=["deep_nesting", "long_integer"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    def test_undecodable_json_is_a_syntax_error(self, text, message, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(nc.FileSyntaxError) as exc:
                nc.parse_graph_file(text)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert str(exc.value) == message and exc.value.line is None

    def test_validation_reuses_the_parsed_map_and_positions(self, monkeypatch):
        builds = []
        build = nc.ComputeGraph.index.func
        monkeypatch.setattr(nc.ComputeGraph.index, "func",
                            lambda graph: builds.append(graph) or build(graph))
        text = bench_cases().stencil_generate(0, False).stencil_text
        cg = nc.parse_graph_file(text)
        index, input_pos = cg.__dict__["index"], cg.__dict__["input_pos"]
        vg = nc.validate_graph(cg)
        assert builds == [cg]
        assert vg.index is index and vg.pred_pos is input_pos
        assert not input_pos.flags.writeable
        assert input_pos.tolist() == [index[ref] for refs in cg.inputs for ref in refs]


class TestNeuralJson:
    def test_emit_shape(self):
        ng = nc.gen_self_exciting_loop()
        doc = json.loads(fileio.emit_neural_json(ng))
        assert sorted(doc) == ["inputs", "neurons", "outputs", "synapses"]
        neuron = doc["neurons"][0]
        assert neuron["id"] == "loop0"
        assert neuron["tau"] is None  # infinite time constant
        assert neuron["x0"] == 1.5
        syn = doc["synapses"][0]
        assert (syn["source"], syn["target"], syn["weight"], syn["delay"]) == \
            ("loop0", "loop0", 1.5, 1)


class TestConfig:
    def test_comments_and_layering(self):
        c = nc.parse_config("# scaled electrical costs\npreset = digital-skew\ne_spike = 7\n")
        assert c.e_spike == 7.0
        assert c.e_spikegen == 10.0  # inherited from the preset
        assert c.e_voltage == 1.0

    def test_unknown_key(self):
        with pytest.raises(nc.UnknownKey) as exc:
            nc.parse_config("nonsense_key = 1")
        assert exc.value.key == "nonsense_key"

    def test_negative_value(self):
        with pytest.raises(ValueError, match="^e_spike must be nonnegative, got -2.0$"):
            nc.parse_config("e_spike = -2")
        with pytest.raises(ValueError, match="^e_spike must be nonnegative, got -2.0 in a.cfg$"):
            nc.parse_config("e_spike = -2", source="a.cfg")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, value):
        with pytest.raises(ValueError, match=f"^e_voltage must be finite, got {value}$"):
            nc.parse_config(f"e_voltage = {value}")

    @pytest.mark.parametrize("text", ["e_spike 2", "e_spike = abc"])
    def test_malformed_lines(self, text):
        with pytest.raises(nc.FileSyntaxError) as exc:
            nc.parse_config(text)
        assert exc.value.line == 1

    def test_n_core_is_not_a_config_key(self):
        # the core count is analyze's --ncore; a constant of that name was never read
        with pytest.raises(nc.UnknownKey, match="unknown configuration key 'n_core'"):
            nc.parse_config("n_core = 4")


class TestPresets:
    def test_builtin_names(self):
        assert sorted(fileio.PRESETS) == ["digital-skew", "unit"]
        assert fileio.load_preset("unit") == nc.preset("unit")

    def test_unknown_preset(self):
        with pytest.raises(nc.UnknownPreset) as exc:
            fileio.load_preset("bogus")
        assert exc.value.name == "bogus"

    def test_preset_dir_env(self, tmp_path, monkeypatch):
        (tmp_path / "custom.cfg").write_text("e_spike = 3\n")
        monkeypatch.setenv(fileio.PRESET_DIR_ENV, str(tmp_path))
        c = fileio.load_preset("custom")
        assert c.e_spike == 3.0
        assert c.e_op == 1.0

    def test_custom_presets_layer_on_each_other(self, tmp_path, monkeypatch):
        (tmp_path / "skewed.cfg").write_text("preset = digital-skew\ne_spike = 3\n")
        (tmp_path / "top.cfg").write_text("preset = skewed\ne_op = 2\n")
        monkeypatch.setenv(fileio.PRESET_DIR_ENV, str(tmp_path))
        c = fileio.load_preset("top")
        assert (c.e_op, c.e_spike, c.e_spikegen) == (2.0, 3.0, 10.0)

    @pytest.mark.parametrize("files, chain", [
        ({"loop": "loop"}, ("loop", "loop")),
        ({"a": "b", "b": "a"}, ("a", "b", "a")),
    ])
    def test_preset_cycle(self, tmp_path, monkeypatch, files, chain):
        for name, base in files.items():
            (tmp_path / f"{name}.cfg").write_text(f"preset = {base}\ne_spike = 2\n")
        monkeypatch.setenv(fileio.PRESET_DIR_ENV, str(tmp_path))
        with pytest.raises(nc.PresetCycle) as exc:
            fileio.load_preset(chain[0])
        assert exc.value.chain == chain
        with pytest.raises(nc.PresetCycle):
            nc.parse_config(f"preset = {chain[0]}\n")

    def test_load_constants_layering(self, tmp_path):
        cfg = tmp_path / "my.cfg"
        cfg.write_text("e_voltage = 2\n")
        c = fileio.load_constants(preset_name="digital-skew", config_path=cfg)
        assert c.e_voltage == 2.0
        assert c.e_spike == 100.0

    def test_load_constants_default(self):
        assert fileio.load_constants() == nc.preset("unit")


class TestTraceCsv:
    @pytest.fixture()
    def kick_trace(self, footnote):
        ng, _ = nc.lower_graph(footnote, nc.relay_rules({"sub", "mul", "pow"}))
        state = nc.init_sim(ng, nc.AnalogEncoding(), 0)
        return nc.run_sim(state, 20, stop=nc.ZeroActivity(3),
                          inputs={0: tuple((n, 1.5) for n in ng.input_neurons)})

    def test_exact_rows(self, kick_trace):
        text = fileio.emit_trace_csv(kick_trace, window=2)
        lines = text.splitlines()
        assert lines[0] == ",".join(fileio.TRACE_COLUMNS)
        assert lines[1] == "0,2,0,0,0.0,0.5,0.0,2.0,0.0,0.0,2.0,2.0"
        assert lines[2] == "1,1,2,0,0.0,0.375,0.0,1.0,2.0,2.0,5.0,7.0"
        assert lines[3] == "2,1,1,0,0.0,0.25,0.0,1.0,1.0,1.0,3.0,10.0"
        assert lines[4] == "3,0,0,0,0.0,0.125,0.0,0.0,0.0,0.0,0.0,10.0"
        assert lines[-1] == "5,0,0,0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,10.0"
        assert "\r" not in text

    def test_empty_trace_is_header_only(self):
        empty = nc.SimTrace(records=(), f_series=np.zeros(0), e_n=0.0,
                            outputs=np.zeros((0, 1)), output_ids=("x",), n_total=1)
        assert fileio.emit_trace_csv(empty) == ",".join(fileio.TRACE_COLUMNS) + "\n"

    def test_window_validation(self, kick_trace):
        for bad in (0, 1.5, True):
            with pytest.raises(ValueError, match="window must be an integer >= 1"):
                fileio.emit_trace_csv(kick_trace, window=bad)

    def test_deterministic_bytes(self, kick_trace):
        a = fileio.emit_trace_csv(kick_trace, window=3)
        b = fileio.emit_trace_csv(kick_trace, window=3)
        assert a == b


class TestTableCsv:
    def test_infinite_bounds_render(self):
        table = nc.mesh_cost_report(m_s=4, m_t=10, k=2, t1s=3, t_infs=3,
                                    n_mesh=2, c=nc.preset("unit"),
                                    f_series=[0.0] * 10)
        lines = fileio.emit_table_csv(table).splitlines()
        assert lines[0] == ",".join(fileio.TABLE_COLUMNS)
        assert lines[1] == "mesh,conventional,120.0,150.0,cpu_ideal,8.0,inf,120.0"
        assert lines[2] == "mesh,nmc,30.0,30.0,nmc_ideal,8.0,8.0,80.0"

    def test_rows_csv_reprs(self):
        text = fileio.emit_rows_csv(("a", "b"), [(0.1, float("inf")), (2, -3.5)])
        assert text == "a,b\n0.1,inf\n2,-3.5\n"

    def test_rows_csv_writes_bools_as_digits(self):
        text = fileio.emit_rows_csv(("ok", "n"), [(True, 1), (False, 0)])
        assert text == "ok,n\n1,1\n0,0\n"
