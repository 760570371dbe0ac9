"""The dead-code gate's KEEP table names real code.

``tools/deadcode.py`` exempts the findings listed in its ``KEEP`` table
(key -> reason).  A key is one of:

* ``file:Qualname``, a function;
* ``file:Qualname(param)``, a defaulted parameter of that function;
* ``file:Class.attr``, a field the class still assigns (a dataclass
  field or a ``self.attr`` store);
* ``package/__init__.py:__all__.Name``, a live ``__all__`` entry.

An entry whose target was deleted or renamed would exempt nothing and
hide nothing, so it must go; a blank reason justifies nothing.  Both are
checked here from the source text alone (the table is read with
``ast``, the definitions found by walking each module's syntax tree),
without running the profiled scan.
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


def definitions(path: pathlib.Path) -> dict[str, ast.AST]:
    """Every function and class of one module by qualified name, as the
    scan spells it (``Class.method``, ``function.nested``)."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                found[prefix + child.name] = child
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return found


def defaulted(function: ast.AST) -> set[str]:
    args = function.args
    positional = args.posonlyargs + args.args
    named = [a.arg for a in positional[len(positional)
                                       - len(args.defaults):]]
    named += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return set(named)


def assigns(cls: ast.ClassDef, attr: str) -> bool:
    for stmt in cls.body:
        if (isinstance(stmt, ast.AnnAssign)
                and getattr(stmt.target, "id", "") == attr):
            return True
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", "") == "self"):
            return True
    return False


def exported(path: pathlib.Path) -> set[str]:
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", "") == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def names_live_code(key: str) -> bool:
    filename, _, name = key.partition(":")
    path = PACKAGE / filename
    if not (name and path.is_file()):
        return False
    if name.startswith("__all__."):
        return name.removeprefix("__all__.") in exported(path)
    found = definitions(path)
    if name.endswith(")"):
        qualname, _, param = name[:-1].partition("(")
        node = found.get(qualname)
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and param in defaulted(node))
    node = found.get(name)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return True
    owner, _, attr = name.rpartition(".")
    cls = found.get(owner)
    return isinstance(cls, ast.ClassDef) and assigns(cls, attr)


def test_every_key_is_a_function_under_src_repro():
    table = keep_table()
    assert table
    assert [key for key in table if not names_live_code(key)] == []


def test_the_key_check_refuses_stale_keys():
    assert names_live_code("netsim/link.py:Link.transmit")
    assert names_live_code("netsim/link.py:Link.__init__(loss_rate)")
    assert names_live_code("netsim/link.py:LinkStats.delivered")
    assert names_live_code("netsim/link.py:Link.loss_rate")
    assert names_live_code("netsim/__init__.py:__all__.Packet")
    assert not names_live_code("netsim/link.py:Link.no_such_method")
    assert not names_live_code("netsim/link.py:Link.__init__(latency_ms)")
    assert not names_live_code("netsim/link.py:Link.transmit(packet)")
    assert not names_live_code("netsim/link.py:LinkStats.no_such_field")
    assert not names_live_code("netsim/__init__.py:__all__.NoSuchName")


def test_every_reason_is_a_non_empty_string():
    blank = [key for key, reason in keep_table().items()
             if not isinstance(reason, str) or not reason.strip()]
    assert blank == []
