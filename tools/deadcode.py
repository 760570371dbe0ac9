"""List the ``src/repro`` functions that none of the repo's own
entry points ever runs.

Run it from the repository root, with no flags::

    python tools/deadcode.py > deadcode.txt

It counts Python calls under ``sys.setprofile`` while it drives, in this
one process:

* every experiment at seed 1 with the tier-1 ``FAST_PARAMS``, first with
  observability off and then with it on;
* the four ``bench`` workloads at smoke scale;
* the ``examples/`` scripts;
* each command-line interface: ``python -m repro`` (table and
  ``--json``), ``obs trace|metrics|slo|alerts`` and ``run E18|E23`` with
  ``--shards 1``, so the shard bodies run in-process where the profiler
  sees them.

It then prints every function or method defined under ``src/repro``
that never ran, with its line count, grouped by file, and the totals.
What it lists is unreached by those runs, not proven dead: a
function only the tests reach, an error branch, or one a user's
configuration can name all show up here.  Stdlib only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import pathlib
import runpy
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
for path in (str(ROOT), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)


def fast_params() -> dict:
    """``FAST_PARAMS`` as the tier-1 golden test defines it, read
    without importing the test module (which needs pytest)."""
    tree = ast.parse((ROOT / "tests" / "test_experiments.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", "") == "FAST_PARAMS"
                        for t in node.targets)):
            return eval(compile(ast.Expression(node.value), "FAST_PARAMS",
                                "eval"), {"dict": dict})
    raise SystemExit("tests/test_experiments.py defines no FAST_PARAMS")


def definitions() -> dict[tuple[str, int], tuple[str, int, tuple | None]]:
    """``(file, first line) -> (qualified name, line count, enclosing
    function's key)`` for every function under ``src/repro``.  The first
    line is the one a code object reports: the first decorator's, if it
    has any."""
    found: dict[tuple[str, int], tuple[str, int, tuple | None]] = {}

    def walk(node: ast.AST, filename: str, prefix: str,
             enclosing: tuple | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno,
                             *(d.lineno for d in child.decorator_list)])
                key = (filename, first)
                found[key] = (prefix + child.name,
                              child.end_lineno - first + 1, enclosing)
                walk(child, filename, f"{prefix}{child.name}.", key)
            elif isinstance(child, ast.ClassDef):
                walk(child, filename, f"{prefix}{child.name}.", enclosing)
            else:
                walk(child, filename, prefix, enclosing)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text()), str(path), "", None)
    return found


def drive() -> None:
    """Everything the report counts as a caller."""
    import bench.harness
    from bench.workloads import WORKLOADS
    from repro.__main__ import main as repro_main
    from repro.experiments import ALL_EXPERIMENTS
    from repro.obs import runtime as obs_runtime

    params = fast_params()
    for observed in (False, True):
        if observed:
            obs_runtime.enable()
        try:
            for experiment_id, run in ALL_EXPERIMENTS.items():
                run(seed=1, **params.get(experiment_id, {})).render()
        finally:
            obs_runtime.disable()

    for workload in WORKLOADS.values():
        world = workload.build(0, bench.harness.SMOKE_SCALE)
        workload.run(world, bench.harness.Probe())

    for script in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")

    with tempfile.TemporaryDirectory() as out:
        for argv in (["F1A"], ["F1A", "--json"],
                     ["obs", "trace", "E10", "--out", f"{out}/E10"],
                     ["obs", "metrics", "E10", "--out", f"{out}/E10"],
                     ["obs", "slo", "E22", "--out", f"{out}/E22"],
                     ["obs", "alerts", "E22", "--out", f"{out}/E22"],
                     ["run", "E18", "--shards", "1", "--json"],
                     ["run", "E23", "--shards", "1", "--json"]):
            obs_runtime.disable()
            repro_main(argv)
    obs_runtime.disable()


def main() -> int:
    ran: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                ran.add((code.co_filename, code.co_firstlineno))

    # The runs print tables; only the report goes to stdout.
    with contextlib.redirect_stdout(io.StringIO()):
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            drive()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    defined = definitions()
    # A function nested in an unreached one is part of its count.
    unreached = sorted(
        key for key, (_, _, enclosing) in defined.items()
        if key not in ran and (enclosing is None or enclosing in ran))
    by_file: dict[str, list[tuple[int, str, int]]] = {}
    for filename, line in unreached:
        name, lines, _ = defined[(filename, line)]
        by_file.setdefault(filename, []).append((line, name, lines))

    total_lines = 0
    for filename, rows in by_file.items():
        file_lines = sum(lines for _, _, lines in rows)
        total_lines += file_lines
        relative = pathlib.Path(filename).relative_to(SRC)
        print(f"{relative}: {len(rows)} functions, {file_lines} lines")
        for line, name, lines in rows:
            print(f"  {line:5d}  {name}  ({lines} lines)")
    print(f"\nunreached: {len(unreached)} of {len(defined)} functions, "
          f"{total_lines} lines, in {len(by_file)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
