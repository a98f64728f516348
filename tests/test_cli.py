"""Command-line interface tests, run in-process against main(), plus the
module entry points in a subprocess."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import neurocost as nc
import neurocost.cli as cli
from neurocost import fileio, sweep
import oracles

FOOTNOTE = str(resources.files("neurocost") / "data" / "footnote.graph")


def invoke(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        code, _out, err = invoke(capsys, [])
        assert code == 1
        assert "usage:" in err

    def test_help_exits_zero(self, capsys):
        code, out, _err = invoke(capsys, ["--help"])
        assert code == 0
        assert "analyze" in out and "sweep" in out

    @pytest.mark.parametrize("module", ["neurocost", "neurocost.cli"])
    def test_module_entry_point_warns_nothing(self, module):
        env = dict(os.environ, PYTHONPATH=str(Path(nc.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "usage: neurocost" in proc.stdout


class TestAnalyze:
    def test_footnote_report(self, capsys):
        code, out, _err = invoke(capsys, ["analyze", FOOTNOTE, "--p", "2"])
        assert code == 0
        assert "t1=4" in out
        assert "t_inf=3" in out
        assert "t_p=3 (list schedule, p=2)" in out
        assert "cpu bounds [3,5]" in out
        assert "n_total=4 s_total=3" in out

    def test_missing_file(self, capsys):
        code, _out, err = invoke(capsys, ["analyze", "/no/such/file.graph"])
        assert code == 2
        assert "not found" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("{nodes}")
        code, _out, _err = invoke(capsys, ["analyze", str(bad)])
        assert code == 2

    def test_cyclic_graph(self, capsys, tmp_path):
        cyc = tmp_path / "cyc.graph"
        cyc.write_text(json.dumps({"nodes": [
            {"id": "a", "op": "relay", "inputs": ["b"]},
            {"id": "b", "op": "relay", "inputs": ["a"]},
        ]}))
        code, _out, _err = invoke(capsys, ["analyze", str(cyc)])
        assert code == 2

    def test_unknown_preset(self, capsys):
        code, _out, _err = invoke(capsys, ["analyze", FOOTNOTE, "--preset", "nope"])
        assert code == 2

    @pytest.mark.parametrize("files", [{"loop": "loop"}, {"a": "b", "b": "a"}])
    @pytest.mark.parametrize("how", ["--preset", "--config"])
    def test_preset_cycle_is_bad_input(self, capsys, tmp_path, monkeypatch, files, how):
        for name, base in files.items():
            (tmp_path / f"{name}.cfg").write_text(f"preset = {base}\n")
        monkeypatch.setenv(fileio.PRESET_DIR_ENV, str(tmp_path))
        first = next(iter(files))
        if how == "--preset":
            extra = ["--preset", first]
        else:
            cfg = tmp_path / "run.conf"
            cfg.write_text(f"preset = {first}\n")
            extra = ["--config", str(cfg)]
        code, out, err = invoke(capsys, ["analyze", FOOTNOTE] + extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: preset cycle: ") and f"{first!r}" in err

    @pytest.mark.parametrize("how", ["--preset", "--config naming the preset", "--config"])
    def test_bad_line_names_its_file(self, capsys, tmp_path, monkeypatch, how):
        bad = "e_spike = 2\ne_op = abc\n"
        (tmp_path / "mine.cfg").write_text(bad)
        monkeypatch.setenv(fileio.PRESET_DIR_ENV, str(tmp_path))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = mine\n" if how == "--config naming the preset" else bad)
        extra = ["--preset", "mine"] if how == "--preset" else ["--config", str(cfg)]
        code, out, err = invoke(capsys, ["analyze", FOOTNOTE] + extra)
        assert (code, out) == (2, "")
        bad_file = cfg if how == "--config" else tmp_path / "mine.cfg"
        assert err == f"error: bad numeric value for e_op: 'abc' in {bad_file} at line 2\n"

    @pytest.mark.parametrize("text, message", [
        ("e_spike = 2\nn_core = 4\n", "unknown configuration key 'n_core' in {}"),
        ("e_spike = 2\ne_op 3\n", "expected key=value, got 'e_op 3' in {} at line 2"),
    ], ids=["unknown key", "no equals sign"])
    def test_preset_file_error_names_it(self, capsys, tmp_path, monkeypatch, text, message):
        preset_file = tmp_path / "mine.cfg"
        preset_file.write_text(text)
        monkeypatch.setenv(fileio.PRESET_DIR_ENV, str(tmp_path))
        code, out, err = invoke(capsys, ["analyze", FOOTNOTE, "--preset", "mine"])
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(preset_file)}\n"

    @pytest.mark.parametrize("how", ["--config naming the preset", "--preset"])
    def test_bad_constant_in_preset_file_names_it(self, capsys, tmp_path, monkeypatch, how):
        # The message used to name no file at all.
        preset_file = tmp_path / "neg.cfg"
        preset_file.write_text("e_spike = -2\n")
        monkeypatch.setenv(fileio.PRESET_DIR_ENV, str(tmp_path))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = neg\n")
        extra = ["--preset", "neg"] if how == "--preset" else ["--config", str(cfg)]
        code, out, err = invoke(capsys, ["analyze", FOOTNOTE] + extra)
        assert (code, out) == (2, "")
        assert err == f"error: e_spike must be nonnegative, got -2.0 in {preset_file}\n"

    def test_bad_constant_in_config_file_names_it(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = digital-skew\ne_op = nan\n")
        code, out, err = invoke(capsys, ["analyze", FOOTNOTE, "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == f"error: e_op must be finite, got nan in {cfg}\n"

    def test_overflowing_spike_cost_in_config_file_is_bad_input(self, capsys, tmp_path):
        # simulate used to record nan energy on its quiet steps and exit 3
        cfg = tmp_path / "big.cfg"
        cfg.write_text("e_spike = 1e308\nell = 1e308\n")
        code, out, err = invoke(capsys, ["simulate", FOOTNOTE, "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == f"error: e_spike * ell must be finite, got 1e+308 * 1e+308 in {cfg}\n"

    def test_core_count_is_not_a_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cores.cfg"
        cfg.write_text("n_core = 4\n")
        code, out, err = invoke(capsys, ["analyze", FOOTNOTE, "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert f"unknown configuration key 'n_core' in {cfg}" in err

    @pytest.mark.parametrize("preset, terms", [
        ("unit", {"voltage": 12.0, "spikegen": 12.0, "synapse": 9.0, "spike": 9.0}),
        ("digital-skew", {"voltage": 12.0, "spikegen": 120.0, "synapse": 45.0, "spike": 900.0}),
    ])
    def test_energy_breakdowns_sum_to_totals(self, capsys, tmp_path, monkeypatch, preset, terms):
        # The nmc rows are the four per-step terms at f = 1 over t_inf = 3 steps;
        # their breakdown used to be {"per_step_worst_case": 14, "steps": 3}.
        tables = []
        monkeypatch.setattr(cli, "emit_table_csv", lambda table: tables.append(table) or "")
        code, _out, _err = invoke(capsys, ["analyze", FOOTNOTE, "--preset", preset,
                                           "--ncore", "2", "--out", str(tmp_path / "t.csv")])
        assert code == 0
        for row in tables[0].rows:
            assert row.energy.total == sum(row.energy.breakdown.values())
        for arch in ("nmc_ideal", "nmc_realized"):
            assert oracles.row(tables[0], arch).energy.breakdown == terms


class TestLower:
    def test_emits_network_json(self, capsys):
        code, out, _err = invoke(capsys, ["lower", FOOTNOTE])
        assert code == 0
        first, rest = out.split("\n", 1)
        assert first == "n_total=4 s_total=3 n_bar=1.0 s_bar=0.75"
        doc = json.loads(rest)
        assert len(doc["neurons"]) == 4
        assert len(doc["synapses"]) == 3
        assert doc["outputs"] == ["d#0"]


class TestSimulate:
    def test_kick_trace_to_stdout(self, capsys):
        code, out, _err = invoke(capsys, ["simulate", FOOTNOTE, "--steps", "10"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(fileio.TRACE_COLUMNS)
        assert lines[1].startswith("0,2,0,0,")

    def test_out_file_and_summary(self, capsys, tmp_path):
        dest = tmp_path / "trace.csv"
        code, out, _err = invoke(capsys, ["simulate", FOOTNOTE, "--steps", "10",
                                          "--out", str(dest)])
        assert code == 0
        assert "steps=6 e_n=10.0 f_mean=0.16666666666666666" in out
        assert f"wrote {dest}" in out
        assert dest.read_text().splitlines()[1].startswith("0,2,0,0,")

    def test_reconciliation_failure_exit_code(self, capsys, monkeypatch):
        def tampered(*_a, **_k):
            raise nc.MismatchDetected("forced")

        monkeypatch.setattr(cli, "reconcile_energy", tampered)
        code, _out, err = invoke(capsys, ["simulate", FOOTNOTE, "--steps", "5"])
        assert code == 3
        assert "reconciliation failed" in err

    @pytest.mark.parametrize("command", [["simulate", FOOTNOTE],
                                         ["analyze", FOOTNOTE]])
    @pytest.mark.parametrize("line", ["e_voltage = nan", "e_spike = inf"])
    def test_non_finite_constant_is_bad_input(self, capsys, tmp_path, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, _out, err = invoke(capsys, command + ["--config", str(cfg)])
        assert code == 2
        key = line.split(" =")[0]
        assert f"{key} must be finite" in err


class TestPartition:
    def test_dense_rows(self, capsys, tmp_path):
        entry = {e.name: e for e in nc.mini_corpus()}["dense_rows_4x3"]
        path = tmp_path / "dense.graph"
        path.write_text(fileio.emit_graph(entry.graph))
        code, out, _err = invoke(capsys, ["partition", str(path),
                                          "--granularity", "3", "--p", "4"])
        assert code == 0
        assert "p_threads=4" in out
        assert "p_efficiency=1.0 (p=4)" in out
        assert "size=4" in out


class TestSweep:
    def test_mesh_sweep_slope(self, capsys):
        code, out, _err = invoke(capsys, ["sweep", "--workload", "mesh",
                                          "--param", "m_s",
                                          "--values", "64,128,256"])
        assert code == 0
        assert "slope=1.0 " in out
        assert "r_squared=1.0" in out
        assert out.splitlines()[0] == "value,mean_e_t,total_e_n,steps"

    def test_zero_energy_skips_the_regression(self, capsys):
        # Amplitudes this far below v_thresh never fire a rail.
        code, out, _err = invoke(capsys, ["sweep", "--workload", "mesh",
                                          "--param", "amplitude",
                                          "--values", "0.01,0.02", "--set", "m_s=64"])
        assert code == 0
        assert out.splitlines()[-1] == "regression skipped (zero energy measured)"
        assert "slope=" not in out

    def test_single_value_rejected(self, capsys):
        code, _out, _err = invoke(capsys, ["sweep", "--workload", "mesh",
                                           "--param", "m_s", "--values", "64"])
        assert code == 2

    @pytest.mark.parametrize("extra, message", [
        (["--param", "m_s", "--values", "16,16"], "swept values must not all be equal"),
        (["--param", "mean", "--values=-1,1"],
         "swept values must be finite and positive, got (-1.0, 1.0)"),
    ])
    def test_values_the_fit_cannot_use_fail_before_any_point(self, capsys, monkeypatch,
                                                             extra, message):
        # These used to run every point and then exit 2 from fit_loglog.
        ran = []
        check, _run, params = sweep.SWEEP_TABLE["mesh"]
        monkeypatch.setitem(sweep.SWEEP_TABLE, "mesh", (check, lambda *a: ran.append(a), params))
        code, out, err = invoke(capsys, ["sweep", "--workload", "mesh"] + extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert ran == []

    @pytest.mark.parametrize("workload, param, fixed, message", [
        ("ff", "rate", ["--set", "n=512", "--set", "presentations=40"],
         "rates must lie in [0, 1]"),
        ("mesh", "alpha", [], "alpha must lie in (0, 1), got 1.5"),
        ("random", "density", [], "edge_density must lie in [0, 1], got 1.5"),
    ])
    def test_a_value_the_workload_rejects_fails_before_any_point(
            self, capsys, monkeypatch, workload, param, fixed, message):
        # These used to run the good value in full before the bad one failed.
        ran = []
        for name, (check, _run, params) in sweep.SWEEP_TABLE.items():
            monkeypatch.setitem(sweep.SWEEP_TABLE, name,
                                (check, lambda *a: ran.append(a), params))
        code, out, err = invoke(capsys, ["sweep", "--workload", workload, "--param", param,
                                         "--values", "0.5,1.5"] + fixed)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert ran == []

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        code, out, _err = invoke(capsys, ["sweep", "--workload", "mesh",
                                          "--param", "m_s",
                                          "--values", "64,128",
                                          "--set", "k=4",
                                          "--out", str(dest)])
        assert code == 0
        assert f"wrote {dest}" in out
        assert dest.read_text().splitlines()[0] == "value,mean_e_t,total_e_n,steps"

    def test_random_workload(self, capsys):
        code, out, _err = invoke(capsys, ["sweep", "--workload", "random",
                                          "--param", "n",
                                          "--values", "20,40,80",
                                          "--reps", "2"])
        assert code == 0
        assert "slope=" in out and "r_squared=" in out


class TestOptions:
    """Each subcommand accepts only the options it reads."""

    def test_partition_rejects_out(self, capsys, tmp_path):
        dest = tmp_path / "x.txt"
        code, _out, err = invoke(capsys, ["partition", FOOTNOTE, "--out", str(dest)])
        assert code == 1
        assert "unrecognized arguments" in err
        assert not dest.exists()

    @pytest.mark.parametrize("argv", [
        ["lower", FOOTNOTE, "--preset", "nope"],
        ["analyze", FOOTNOTE, "--steps", "5"],
        ["simulate", FOOTNOTE, "--seed", "1"],
        ["simulate", FOOTNOTE, "--kick"],
        ["analyze", "--graph", FOOTNOTE],
        ["sweep", "--workload", "mesh", "--param", "m_s", "--values", "16,32", "--window", "5"],
    ])
    def test_unread_option_is_usage_error(self, capsys, argv):
        code, _out, err = invoke(capsys, argv)
        assert code == 1
        assert "usage:" in err

    @pytest.mark.parametrize("argv", [
        ["analyze", FOOTNOTE, "--p", "0"],
        ["analyze", FOOTNOTE, "--ncore", "0"],
        ["partition", FOOTNOTE, "--p", "0"],
    ])
    def test_zero_count_is_bad_input(self, capsys, argv):
        code, out, err = invoke(capsys, argv)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("extra, key", [
        (["--param", "mss"], "mss"),
        (["--param", "m_s", "--set", "kk=6"], "kk"),
        (["--param", "m_s", "--set", "bogus"], "bogus"),
    ])
    def test_unknown_sweep_key_is_bad_input(self, capsys, extra, key):
        code, out, err = invoke(capsys, ["sweep", "--workload", "mesh",
                                         "--values", "64,128"] + extra)
        assert code == 2
        assert repr(key) in err
        assert out == ""


class TestSweepOptions:
    """Sweep options that the chosen workload would silently ignore."""

    def test_swept_key_also_fixed_is_bad_input(self, capsys):
        code, out, err = invoke(capsys, ["sweep", "--workload", "mesh", "--param", "m_s",
                                         "--values", "64,128", "--set", "m_s=32"])
        assert code == 2
        assert "'m_s'" in err
        assert out == ""

    def test_window_with_ff_is_bad_input(self, capsys):
        code, out, err = invoke(capsys, ["sweep", "--workload", "ff", "--param", "n",
                                         "--values", "4,8", "--set", "window=9"])
        assert code == 2
        assert "window" in err and "'ff'" in err
        assert out == ""

    @pytest.mark.parametrize("workload, extra, key", [
        ("mesh", ["--param", "m_s", "--values", "64.9,128"], "m_s"),
        ("mesh", ["--param", "m_s", "--values", "64,inf"], "m_s"),
        ("mesh", ["--param", "m_s", "--values", "nan,64"], "m_s"),
        ("mesh", ["--param", "m_s", "--values", "16,32", "--set", "window=0"], "window"),
        ("mesh", ["--param", "m_s", "--values", "16,32", "--set", "window=-2"], "window"),
        ("random", ["--param", "n", "--values", "12,24", "--set", "window=0"], "window"),
        ("ff", ["--param", "n_i", "--values", "4,8", "--set", "n=2.5"], "n"),
    ])
    def test_count_must_be_whole_and_in_range(self, capsys, workload, extra, key):
        code, out, err = invoke(capsys, ["sweep", "--workload", workload] + extra)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {key} must be an integer >= 1, got ")
        assert err.count("\n") == 1

    def test_help_lists_each_workload_parameter(self, capsys):
        code, out, _err = invoke(capsys, ["sweep", "--help"])
        assert code == 0
        text = " ".join(out.split())
        assert "mesh: m_s=64* k=4*" in text and "cycles=max(1,m_s//16)*" in text
        assert "ff: n=8* n_i=n*" in text and "rate=0.5 " in text
        for workload, (_check, _run, params) in sweep.SWEEP_TABLE.items():
            assert f"{workload}: " in text
            for key in params:
                assert f" {key}=" in text

    @pytest.mark.parametrize("workload, param, values", [
        ("mesh", "m_s", "16,32"),
        ("random", "n", "12,24"),
    ])
    def test_window_default_is_five(self, capsys, workload, param, values):
        argv = ["sweep", "--workload", workload, "--param", param, "--values", values]
        code, out, _err = invoke(capsys, argv)
        assert code == 0
        assert invoke(capsys, argv + ["--set", "window=5"]) == (0, out, "")
        assert invoke(capsys, argv + ["--set", "window=1"])[1] != out

    def test_set_key_given_twice_is_bad_input(self, capsys):
        code, out, err = invoke(capsys, ["sweep", "--workload", "mesh", "--param", "m_s",
                                         "--values", "64,128", "--set", "k=4", "--set", "k=6"])
        assert code == 2
        assert "'k'" in err
        assert out == ""


_SIMULATE = ["simulate", FOOTNOTE, "--steps", "10"]
_SWEEP = ["sweep", "--workload", "mesh", "--param", "m_s", "--values", "16,32"]


@pytest.mark.parametrize("argv, key, overflows", [
    (["analyze", FOOTNOTE], "e_voltage", "energy total"),
    (["analyze", FOOTNOTE], "ell", "energy total"),
    (["analyze", FOOTNOTE], "e_op", "energy total"),
    (["analyze", FOOTNOTE], "b_p", "energy total"),
    # The nmc_ideal space bound used to print as [inf,inf] with exit 0.
    (["analyze", FOOTNOTE], "c_n", "space lower bound"),
    (_SIMULATE, "ell", "total energy e_n"),
    # A relay graph's trace stays finite: only the audit's prediction overflows.
    (_SIMULATE, "e_voltage", "energy total"),
    # This one used to exit 2 only at the log-log fit, which rejected inf.
    (_SWEEP, "e_voltage", "total energy e_n"),
], ids=["analyze-e_voltage", "analyze-ell", "analyze-e_op", "analyze-b_p", "analyze-c_n",
        "simulate-ell", "simulate-e_voltage", "sweep-e_voltage"])
def test_overflowing_energy_is_bad_input(capsys, tmp_path, argv, key, overflows):
    # One finite constant whose energy overflows used to print or write inf and exit 0.
    cfg, dest = tmp_path / "big.cfg", tmp_path / "out.csv"
    cfg.write_text(f"{key} = 1e308\n")
    code, out, err = invoke(capsys, argv + ["--config", str(cfg), "--out", str(dest)])
    assert (code, out) == (2, "")
    assert err == f"error: {overflows} overflows to inf: a cost constant is too large\n"
    assert not dest.exists()


_FUZZ_KEYS = [f.name for f in dataclasses.fields(nc.CostConstants)] + ["preset", "wattage"]
_FUZZ_VALUES = ["0", "1", "-1", "0.5", "2", "1e308", "1e-320", "1e400", "nan", "inf", "-inf",
                "abc", "True", "", "unit", "digital-skew", "nope"]
# Each command, and the CSV column of the energies its --out file holds.
_FUZZ_COMMANDS = [
    (["analyze", FOOTNOTE], "energy_total"),
    (_SIMULATE, "e_cum"),
    (["sweep", "--workload", "mesh", "--param", "m_s", "--values", "8,16", "--set", "m_t=10"],
     "total_e_n"),
]


def test_config_fuzz_exits_0_or_2(capsys, tmp_path, monkeypatch):
    """Bad input exits 2, never 3: 200 seeded config files of 1 to 4 lines,
    each through three commands. An exit 2 says why on stderr, and a run
    that exits 0 writes only finite energies; `analyze` also writes a finite
    space lower bound on every row and a finite upper bound on the nmc rows."""
    monkeypatch.delenv(fileio.PRESET_DIR_ENV, raising=False)
    rng = np.random.default_rng(2203)
    cfg, dest = tmp_path / "fuzz.cfg", tmp_path / "out.csv"
    for _ in range(200):
        n = int(rng.integers(1, 5))
        lines = [f"{_FUZZ_KEYS[k]} = {_FUZZ_VALUES[v]}"
                 for k, v in zip(rng.integers(len(_FUZZ_KEYS), size=n).tolist(),
                                 rng.integers(len(_FUZZ_VALUES), size=n).tolist())]
        cfg.write_text("\n".join(lines) + "\n")
        for argv, column in _FUZZ_COMMANDS:
            dest.unlink(missing_ok=True)
            code = cli.run_command(argv + ["--config", str(cfg), "--out", str(dest)])
            err = capsys.readouterr().err
            assert code in (0, 2), (argv[0], lines, code, err)
            if code == 2:
                assert err.startswith("error: "), (argv[0], lines, err)
            else:
                with dest.open(encoding="utf-8") as f:
                    rows = list(csv.DictReader(f))
                energies = [float(row[column]) for row in rows]
                assert energies and all(map(math.isfinite, energies)), (argv[0], lines)
                if argv[0] == "analyze":
                    spaces = [float(row["space_lower"]) for row in rows] + [
                        float(row["space_upper"]) for row in rows
                        if row["architecture"].startswith("nmc")]
                    assert all(map(math.isfinite, spaces)), (lines, spaces)


def test_readme_options_table_matches_the_parser():
    """Each row of README's command-line table lists exactly the long
    options that its subcommand's parser accepts."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    rows = dict(re.findall(r"^\| `(\w+)[^`]*` \| (.*) \|$", section, flags=re.MULTILINE))
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(rows) == set(subparsers.choices)
    for name, parser in subparsers.choices.items():
        accepted = {opt for action in parser._actions for opt in action.option_strings
                    if opt.startswith("--")} - {"--help"}
        assert set(re.findall(r"--[a-z]+", rows[name])) == accepted, name
