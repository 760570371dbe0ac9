"""The unreached-function gate's KEEP table names real functions.

``tools/deadcode.py`` exempts the findings listed in its ``KEEP`` table
(``file:Qualname`` -> reason).  An entry whose function was deleted or
renamed would exempt nothing and hide nothing, so it must go; a blank
reason justifies nothing.  Both are checked here from the source text
alone (the table is read with ``ast``, the definitions found by walking
each module's syntax tree), without running the profiled scan.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def keep_table() -> dict:
    tree = ast.parse((ROOT / "tools" / "deadcode.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.AnnAssign)
                and getattr(node.target, "id", "") == "KEEP"):
            return ast.literal_eval(node.value)
    raise AssertionError("tools/deadcode.py defines no KEEP table")


def qualified_names(path: pathlib.Path) -> set[str]:
    """Every function's qualified name in one module, as the scan
    spells it (``Class.method``, ``function.nested``)."""
    names = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return names


def test_every_key_is_a_function_under_src_repro():
    table = keep_table()
    assert table
    stale = []
    for key in table:
        filename, _, qualname = key.partition(":")
        path = PACKAGE / filename
        if not (qualname and path.is_file()
                and qualname in qualified_names(path)):
            stale.append(key)
    assert stale == []


def test_every_reason_is_a_non_empty_string():
    blank = [key for key, reason in keep_table().items()
             if not isinstance(reason, str) or not reason.strip()]
    assert blank == []
