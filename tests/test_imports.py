"""Every module of the package uses each name it imports, at module level,
and every run setting is read somewhere.

No linter ships with the project, so this walks each module's syntax tree
with the standard library: a name bound by an import statement must be
read somewhere in the same module.  ``__init__.py`` is exempt, since its
imports are the package's re-exports.  Imports sit at the top of a module;
only ``cli.py`` imports inside functions, so that each subcommand loads
just what it runs.  Each ``TrainConfig`` field must be read as an
attribute by some module other than ``config.py``: a field nothing reads
is a setting that changes nothing.  Likewise each defaulted parameter of a
function or class in the package must be passed by some call of that name
in the package, ``scripts/`` or ``perfbench/``: a default no caller
overrides is a constant with extra steps.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import cpnet
from cpnet.config import TrainConfig

PACKAGE = Path(cpnet.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = sorted([*PACKAGE.glob("*.py"), *(PACKAGE.parents[1] / "scripts").glob("*.py"),
                  *(PACKAGE.parents[1] / "perfbench").glob("*.py")])
# the tests drive the CLI through this parameter
UNSET_BY_DESIGN = {"cli.py:entry.argv"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def function_level_imports(source: str) -> list[str]:
    """Names of the functions that contain an import statement."""
    tree = ast.parse(source)
    return sorted(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(fn))
    )


def test_guard_flags_an_unused_import():
    src = "import os\nimport numpy as np\nfrom typing import NamedTuple\nx = os.sep\n"
    assert unused_imports(src) == ["NamedTuple", "np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_a_function_level_import():
    src = "import os\n\ndef f():\n    from math import pi\n    return pi\n\ndef g():\n    return os\n"
    assert function_level_imports(src) == ["f"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name)
def test_module_imports_only_at_module_level(path):
    assert function_level_imports(path.read_text()) == []


def unread_fields(names, sources) -> list[str]:
    """The names in ``names`` that no source reads as an attribute."""
    read = {
        n.attr
        for src in sources
        for n in ast.walk(ast.parse(src))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return sorted(set(names) - read)


def test_guard_flags_an_unread_config_field():
    src = "def f(cfg):\n    cfg.written = 1\n    return cfg.crop\n"
    assert unread_fields(["crop", "written", "unused"], [src]) == ["unused", "written"]


def test_every_config_field_is_read_outside_config():
    sources = [p.read_text() for p in MODULES if p.name != "config.py"]
    assert unread_fields([f.name for f in fields(TrainConfig)], sources) == []


def _defaulted(body, prefix="", cls=None):
    """(qualified name, name its callers use, positional parameters, defaulted
    parameters) for each function, method and dataclass under ``body``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            pos = [a.arg for a in args.posonlyargs + args.args]
            defaulted = pos[len(pos) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            if cls is not None and not static:
                pos = pos[1:]  # self or cls
            called = cls if cls is not None and node.name == "__init__" else node.name
            yield prefix + node.name, called, pos, defaulted
            yield from _defaulted(node.body, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields_ = [s for s in node.body if isinstance(s, ast.AnnAssign)
                           and "ClassVar" not in ast.unparse(s.annotation)]
                pos = [f.target.id for f in fields_]
                defaulted = [f.target.id for f in fields_ if f.value is not None]
                yield prefix + node.name, node.name, pos, defaulted
            yield from _defaulted(node.body, prefix + node.name + ".", node.name)


def unset_parameters(defined: dict[str, str], callers: list[str]) -> list[str]:
    """``file:qualname.param`` for each defaulted parameter in ``defined``
    (file name -> source) that no call of its name in ``callers`` passes,
    whether by keyword, by position, or through ``*`` or ``**``."""
    calls: dict[str, list[ast.Call]] = {}
    for src in callers:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)

    def passed(call: ast.Call, pos: list[str], param: str) -> bool:
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if param not in pos:
            return False
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return pos.index(param) < len(call.args)

    unset = []
    for file, src in defined.items():
        for qual, called, pos, defaulted in _defaulted(ast.parse(src).body):
            for param in defaulted:
                if not any(passed(c, pos, param) for c in calls.get(called, [])):
                    unset.append(f"{file}:{qual}.{param}")
    return sorted(unset)


def test_guard_flags_an_unturned_knob():
    defined = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
        "def g(x=0):\n    pass\n\n"
        "class K:\n"
        "    def __init__(self, y=0, z=1):\n        pass\n\n"
        "    def m(self, w=2):\n        pass\n\n"
        "@dataclass\n"
        "class D:\n    u: int\n    v: int = 0\n    t: ClassVar[int] = 1\n"
    )
    calls = "f(0, 1, e=5)\ng(**opts)\nK(z=3)\nk.m(9)\nD(1)\n"
    assert unset_parameters({"mod.py": defined}, [calls]) == [
        "mod.py:D.v", "mod.py:K.__init__.y", "mod.py:f.c", "mod.py:f.d",
    ]
    more = "D(*parts)\nK(0)\n"
    assert unset_parameters({"mod.py": defined}, [calls, more]) == ["mod.py:f.c", "mod.py:f.d"]


def test_every_defaulted_parameter_is_set_by_a_caller():
    defined = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    callers = [p.read_text() for p in CALLERS]
    assert sorted(set(unset_parameters(defined, callers)) - UNSET_BY_DESIGN) == []
