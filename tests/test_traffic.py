"""`tools/traffic.py` runs every command, the demos and a tiny pass of each
benchmark workload under a line tracer, then lists, module by module,
the statements of the package that never ran."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traffic_prints_one_header_per_module():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "traffic.py")],
                          capture_output=True, text=True, timeout=300, check=False, cwd=ROOT,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    modules = sorted(path.name for path in (ROOT / "src" / "neurocost").glob("*.py"))
    blocks = []  # [header words, statement lines listed under it]
    for line in done.stdout.splitlines():
        if line.startswith("== "):
            blocks.append([line.split(), 0])
        else:
            blocks[-1][1] += 1
    assert [words[1] for words, _listed in blocks] == [f"{name}:" for name in modules]
    assert all(int(words[2]) == listed for words, listed in blocks)
