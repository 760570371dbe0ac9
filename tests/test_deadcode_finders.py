"""The three finders of ``tools/deadcode.py`` beyond unreached functions,
run over a small fixture package.

Each must flag what it exists to flag (a defaulted parameter no call
sets, a field nothing reads, a re-export nothing imports) and leave
alone the near misses: a parameter one call sets, a field some load
reads, a list that is appended to *and* read, a re-export a user
imports.
"""

import importlib.util
import pathlib
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def deadcode():
    spec = importlib.util.spec_from_file_location(
        "deadcode_under_test", ROOT / "tools" / "deadcode.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = {
    "fixturepkg/__init__.py": """
        from fixturepkg.mod import unused_export, used_export

        __all__ = ["unused_export", "used_export"]
    """,
    "fixturepkg/mod.py": """
        import dataclasses


        def used_export():
            return 1


        def unused_export():
            return 2


        def knob(x, scale=1.0, offset=0.0):
            return x * scale + offset


        @dataclasses.dataclass
        class Record:
            kept: int
            dropped: int = 0


        class Box:
            def __init__(self):
                self.read_field = 1
                self.written_only = 2
                self.log = []
                self.only_appended = []

            def push(self, value):
                self.log.append(value)
                self.only_appended.append(value)
                self.written_only += 1


        def main():
            box = Box()
            box.push(knob(2, offset=1.0))
            knob(3)
            return box.read_field + len(box.log) + Record(1).kept
    """,
    "users/app.py": """
        from fixturepkg import used_export
        from fixturepkg.mod import main

        print(used_export(), main())
    """,
}


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("deadcode_fixture")
    for name, text in FIXTURE.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text).lstrip())
    return root


def test_unset_parameter_is_flagged_and_a_set_one_is_not(deadcode, tree):
    package = tree / "fixturepkg"
    sys.path.insert(0, str(tree))
    try:
        mod = importlib.import_module("fixturepkg.mod")
        watch = deadcode.DefaultWatch(str(package))
        prefix = str(package)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(prefix):
                watch.see(frame)

        sys.setprofile(profile)
        try:
            mod.main()
        finally:
            sys.setprofile(None)
    finally:
        sys.path.remove(str(tree))
        for name in ("fixturepkg.mod", "fixturepkg"):
            sys.modules.pop(name, None)
    names = {key: f"{pathlib.Path(key[0]).relative_to(package)}:{name}"
             for key, (name, _, _) in deadcode.definitions(package).items()}
    assert watch.findings(names) == ["mod.py:knob(scale)"]


def test_write_only_fields_are_flagged_and_read_ones_are_not(deadcode, tree):
    package = tree / "fixturepkg"
    found = deadcode.write_only_fields(package, [package, tree / "users"])
    assert found == ["mod.py:Box.only_appended", "mod.py:Box.written_only",
                     "mod.py:Record.dropped"]


def test_test_only_reexport_is_flagged_and_a_used_one_is_not(deadcode, tree):
    package = tree / "fixturepkg"
    found = deadcode.test_only_exports(package, [package, tree / "users"])
    assert found == ["__init__.py:__all__.unused_export"]
