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
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
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
    assert header.split()[0] == "metric"
    assert header.endswith("B lower  B higher  claim    bound")
    cells = {row.split()[0]: row.split() for row in rows}
    assert set(cells) == {"wall_s", "setup_s", "peak_rss_mb"}
    for name, row in cells.items():
        lower, higher, claim, bound = row[-4:]
        assert lower in ("0/1", "1/1") and higher in ("0/1", "1/1"), name
        assert (lower, higher) != ("1/1", "1/1"), name
        assert float(row[1]) > 0 and float(row[-5]) > 0, name
        # The rule needs at least 10 pairs; each end-to-end metric has a bound.
        assert claim == "no" and bound in ("within", "OUTSIDE"), name
    assert list((checkout / "bench" / "results").glob("dag_kick-seed5-trace0-tiny.json"))


def test_a_failed_run_stops_the_comparison(tmp_path):
    # The second checkout has no package source, so its benchmark exits 1.
    done = _pairs(_checkout(tmp_path / "a"), _checkout(tmp_path / "b", with_src=False))
    assert done.returncode == 1
    assert "error: bench/run.py in" in done.stderr and "exited 1" in done.stderr
    assert "B lower" not in done.stdout


def _summary(runs_a, runs_b):
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs.summary(runs_a, runs_b, SPEC)


SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "coverage", "better": "higher"}]}


def test_summary_counts_pairs_lower_and_higher():
    # B reads lower in pair 1, equal in pair 2 (a tie counts for neither), higher in pair 3.
    _header, row = _summary([{"wall_s": 1.0}, {"wall_s": 2.0}, {"wall_s": 3.0}],
                            [{"wall_s": 0.5}, {"wall_s": 2.0}, {"wall_s": 4.0}])
    assert row.split()[-4:-2] == ["1/3", "1/3"]


def _verdicts(wall_a, wall_b, rss_b=50.0):
    """Each metric's claim and bound verdicts on synthetic runs."""
    def runs(wall, rss):
        return [{"wall_s": w, "peak_rss_mb": rss, "coverage": 2.0 - w} for w in wall]
    _header, *rows = _summary(runs(wall_a, 50.0), runs(wall_b, rss_b))
    return {row.split()[0]: tuple(row.split()[-2:]) for row in rows}


def test_claim_rule_and_bounds_on_synthetic_runs():
    a = [1.0 + 0.01 * k for k in range(10)]  # median 1.045, interquartile range 0.045
    b = [0.9 + 0.01 * k for k in range(10)]
    b[3] = 2.0  # B is worse in one pair of ten: 9/10 still wins, medians 0.09 apart
    assert _verdicts(a, b) == {"wall_s": ("holds", "within"), "peak_rss_mb": ("no", "within"),
                               "coverage": ("holds", "-")}  # higher is better: B's is
    # B worse in every pair and its median 39% above A's: outside the 25% bound.
    assert _verdicts(a, [w + 0.5 for w in b])["wall_s"] == ("no", "OUTSIDE")
    assert _verdicts(a, b[:4] + [2.0] + b[5:])["wall_s"] == ("no", "within")  # 8/10 wins
    # 10/10 wins, but the medians differ by less than A's interquartile range.
    assert _verdicts(a, [w - 0.01 for w in a])["wall_s"] == ("no", "within")
    # Fewer than 10 pairs never hold a claim, however clear.
    assert _verdicts(a[:5], [0.5] * 5)["wall_s"] == ("no", "within")
    # Peak RSS 10% above A's is at its bound; 12% is outside it.
    assert _verdicts(a, b, rss_b=55.0)["peak_rss_mb"] == ("no", "within")
    assert _verdicts(a, b, rss_b=56.0)["peak_rss_mb"] == ("no", "OUTSIDE")
