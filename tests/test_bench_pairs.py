"""`tools/bench_pairs.py` compares two checkouts in alternating benchmark pairs.

Each test copies the package and the benchmark into a temporary checkout,
so the runs write their results there and nothing under `bench/`.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns("__pycache__", "results")


def _checkout(dest: Path, with_src: bool = True) -> Path:
    shutil.copytree(ROOT / "bench", dest / "bench", ignore=SKIP)
    if with_src:
        shutil.copytree(ROOT / "src" / "neurocost", dest / "src" / "neurocost", ignore=SKIP)
    return dest


def _pairs(a: Path, b: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(a), str(b),
           "--workload", "dag_kick", "--pairs", "1", "--seed", "5", "--seconds", "0.2",
           "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=False,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})


def test_one_tiny_pair_of_the_same_checkout(tmp_path):
    checkout = _checkout(tmp_path / "checkout")
    done = _pairs(checkout, checkout)
    assert done.returncode == 0, done.stderr
    pair, header, *rows = done.stdout.splitlines()
    assert pair.startswith("pair 1 (AB): wall_s ")
    assert header.split()[0] == "metric" and header.endswith("B lower  B higher")
    cells = {row.split()[0]: row.split() for row in rows}
    assert set(cells) == {"wall_s", "setup_s", "peak_rss_mb"}
    for name, row in cells.items():
        lower, higher = row[-2:]
        assert lower in ("0/1", "1/1") and higher in ("0/1", "1/1"), name
        assert (lower, higher) != ("1/1", "1/1"), name
        assert float(row[1]) > 0 and float(row[-3]) > 0, name
    assert list((checkout / "bench" / "results").glob("dag_kick-seed5-trace0-tiny.json"))


def test_a_failed_run_stops_the_comparison(tmp_path):
    # The second checkout has no package source, so its benchmark exits 1.
    done = _pairs(_checkout(tmp_path / "a"), _checkout(tmp_path / "b", with_src=False))
    assert done.returncode == 1
    assert "error: bench/run.py in" in done.stderr and "exited 1" in done.stderr
    assert "B lower" not in done.stdout


def test_summary_counts_pairs_lower_and_higher():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    # B reads lower in pair 1, equal in pair 2 (a tie counts for neither), higher in pair 3.
    _header, row = bench_pairs.summary([{"wall_s": 1.0}, {"wall_s": 2.0}, {"wall_s": 3.0}],
                                       [{"wall_s": 0.5}, {"wall_s": 2.0}, {"wall_s": 4.0}])
    assert row.split()[-2:] == ["1/3", "1/3"]
