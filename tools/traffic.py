"""Line traffic of the package: which statements no command, demo or
benchmark pass runs.

    python3 tools/traffic.py

Runs, in this process and under a line tracer started before the
package is imported:

* every `neurocost` subcommand on the bundled `footnote.graph`, each
  `--out` into a temporary directory, and `python -m neurocost`;
* a small `sweep` of each sweep workload (mesh, ff, random);
* the six scripts in `demos/`, their stdout suppressed;
* one tiny pass of each `bench/cases.py` workload, every check of which
  must hold, as `bench/selftest.py` requires.

Then prints, for each module of `src/neurocost`, one header line with
the count of its statements that never ran, followed by each such
statement's line number and first source line. `raise` statements are
left out, and so are docstrings, `global` and `nonlocal`, which run no
code. A statement counts as run when a line of its own (its header, for
a compound statement) fired a line event.

Exits 0 when every run succeeds, 1 when a command exits non-zero, a
demo raises or a benchmark check fails. Stdlib only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "neurocost"
PKG_PREFIX = str(PKG) + "/"


class LineTracer:
    """A `sys.settrace` function that records (file name, line number) of
    every line event in the package and traces no other frame."""

    def __init__(self) -> None:
        self.fired: set[tuple[str, int]] = set()

    def __call__(self, frame, _event, _arg):
        if frame.f_code.co_filename.startswith(PKG_PREFIX):
            self.fired.add((frame.f_code.co_filename, frame.f_lineno))
            return self._line
        return None

    def _line(self, frame, event, _arg):
        if event == "line":
            self.fired.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line


# ------------------------------------------------------------------ runs


def run_commands(failures: list[str]) -> None:
    from neurocost import cli

    graph = str(PKG / "data" / "footnote.graph")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        argvs = [
            ["analyze", graph, "--p", "2", "--ncore", "2", "--out", str(out / "table.csv")],
            ["lower", graph, "--out", str(out / "net.json")],
            ["simulate", graph, "--steps", "10", "--out", str(out / "trace.csv")],
            ["partition", graph, "--granularity", "2"],
            ["sweep", "--workload", "mesh", "--param", "m_s", "--values", "16,32",
             "--set", "m_t=20", "--out", str(out / "mesh.csv")],
            ["sweep", "--workload", "ff", "--param", "n", "--values", "2,4",
             "--set", "presentations=1"],
            ["sweep", "--workload", "random", "--param", "n", "--values", "8,16",
             "--set", "steps=10"],
        ]
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                failures.append(f"neurocost {' '.join(argv)} exited {code}")
    saved = sys.argv
    sys.argv = ["neurocost", "analyze", graph]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("neurocost", run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (0, None):
            failures.append(f"python -m neurocost analyze exited {exc.code}")
    finally:
        sys.argv = saved


def run_demos(failures: list[str]) -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
        except Exception:
            failures.append(f"demos/{demo.name} raised:\n{traceback.format_exc()}")


def run_bench(failures: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import env

    env.import_neurocost()
    import cases
    import tracing

    for name, workload in cases.WORKLOADS.items():
        inputs = workload.generate(7, True)
        out = workload.run_pass(inputs, tracing.Timer())
        for check_name, check in workload.checks(inputs, out):
            try:
                if not check():
                    failures.append(f"bench {name}: check {check_name} failed")
            except Exception:
                failures.append(f"bench {name}: check {check_name} raised:\n"
                                f"{traceback.format_exc()}")


# ---------------------------------------------------------------- report


def _header_lines(node: ast.stmt) -> range:
    """The lines whose events mean `node` ran: all of a simple statement,
    the decorators and header of a compound one."""
    body = getattr(node, "body", None)
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    if isinstance(body, list) and body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def _docstrings(tree: ast.Module) -> set[int]:
    """Ids of the docstring statements of the module, classes and functions."""
    found = set()
    for owner in ast.walk(tree):
        body = getattr(owner, "body", None)
        if (isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            found.add(id(body[0]))
    return found


#: Statements left out: raise, and declarations that compile to no code.
_SILENT = (ast.Raise, ast.Global, ast.Nonlocal)


def never_run(path: Path, fired: set[tuple[str, int]]) -> list[ast.stmt]:
    """Statements of one module with no line event, except those above and docstrings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = _docstrings(tree)
    name = str(path)
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, _SILENT)
            and id(node) not in skip
            and not any((name, line) in fired for line in _header_lines(node))]


def report(fired: set[tuple[str, int]]) -> None:
    for path in sorted(PKG.glob("*.py")):
        missed = sorted(never_run(path, fired), key=lambda node: node.lineno)
        lines = path.read_text(encoding="utf-8").splitlines()
        plural = "" if len(missed) == 1 else "s"
        print(f"== {path.name}: {len(missed)} statement{plural} never run")
        for node in missed:
            print(f"  {node.lineno:5d}  {lines[node.lineno - 1].strip()}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failures: list[str] = []
    tracer = LineTracer()
    sys.settrace(tracer)
    try:
        run_commands(failures)
        run_demos(failures)
        run_bench(failures)
    finally:
        sys.settrace(None)
    report(tracer.fired)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
