"""Every module of the package uses each name it imports, at module level,
and every run setting is read somewhere.

No linter ships with the project, so this walks each module's syntax tree
with the standard library: a name bound by an import statement must be
read somewhere in the same module.  ``__init__.py`` is exempt, since its
imports are the package's re-exports.  No module reads an
underscore-prefixed attribute of a module it imports: what another module
keeps private can change without notice.  Imports sit at the top of a module;
only ``cli.py`` imports inside functions, so that each subcommand loads
just what it runs.  Each ``TrainConfig`` field must be read as an
attribute by some module other than ``config.py``: a field nothing reads
is a setting that changes nothing.  Likewise each defaulted parameter of a
function or class in the package must be passed by some call of that name
in the package, ``scripts/`` or ``perfbench/``: a default no caller
overrides is a constant with extra steps.  Each module-level function or
class of the package, and each non-dunder method, must be named somewhere
in the package, ``scripts/`` or ``perfbench/``: as a name, an attribute,
an imported name or a string constant (``perfbench/spans.py`` patches
functions by name).  Only the scene builders
(``data.py`` and ``fileio.py``) build a ``LabelMap``: past the scene record,
labels are plain arrays.
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
SCENE_BUILDERS = {"data.py", "fileio.py"}
# definitions that only a test or a library calls, each with its reader
UNCALLED_BY_DESIGN = {
    "affinity.py:IdealAffinityMap.pair_mask": "criterion 7 (test_acceptance.py) reads it",
    "context_prior.py:macs_spatial_separable": "criterion 4 (test_acceptance.py) reads it",
    "rng.py:Rng.set_state": "test_rng.py's scalar oracle for bulk_u64 sets lane states",
    "cli.py:_Parser.error": "argparse calls it on a usage error",
}


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


def private_module_reads(source: str) -> list[str]:
    """``alias.attr`` for each underscore-prefixed, non-dunder attribute read
    off a name that ``import m`` or ``from package import m`` binds."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            modules.update(a.asname or a.name for a in node.names)  # from . import m
    return sorted(
        f"{n.value.id}.{n.attr}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id in modules and n.attr.startswith("_") and not n.attr.startswith("__")
    )


def test_guard_flags_a_private_module_read():
    src = ("import numpy as np\nfrom . import tensor as T\nfrom .rng import Rng\n"
           "a = T._DTYPES\nb = np.__version__\nc = Rng._state\nd = np._core\n")
    assert private_module_reads(src) == ["T._DTYPES", "np._core"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_private_attribute_of_another_module(path):
    assert private_module_reads(path.read_text()) == []


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


def definitions(source: str) -> list[str]:
    """Qualified names of a module's top-level functions and classes and of
    its classes' non-dunder methods."""
    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append(node.name)
        if isinstance(node, ast.ClassDef):
            defs += [f"{node.name}.{m.name}" for m in node.body
                     if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not (m.name.startswith("__") and m.name.endswith("__"))]
    return defs


def uncalled_definitions(defined: dict[str, str], callers: list[str]) -> list[str]:
    """``file:qualname`` for each definition in ``defined`` (file name ->
    source) whose name no source in ``callers`` mentions."""
    named = set()
    for src in callers:
        for n in ast.walk(ast.parse(src)):
            if isinstance(n, ast.Name):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
            elif isinstance(n, ast.alias):
                named.update(n.name.split("."))
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                named.add(n.value)
    return sorted(f"{file}:{qual}" for file, src in defined.items()
                  for qual in definitions(src) if qual.split(".")[-1] not in named)


def test_guard_flags_a_definition_nothing_names():
    defined = (
        "import os\n\n"
        "def used():\n    pass\n\n"
        "def patched():\n    pass\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "def dead():\n    \"\"\"dead is named in this docstring only.\"\"\"\n\n"
        "class K:\n"
        "    def __init__(self):\n        self.m = 1\n\n"
        "    def m(self):\n        pass\n\n"
        "    def unread(self):\n        def inner():\n            pass\n\n"
        "class Unused:\n    pass\n"
    )
    calls = "from mod import used, K\nPATCH = ('patched', 'x')\nK().m\n"
    assert uncalled_definitions({"mod.py": defined}, [defined, calls]) == [
        "mod.py:K.unread", "mod.py:Unused", "mod.py:dead",
    ]
    assert uncalled_definitions({"mod.py": defined}, [defined]) == [
        "mod.py:K", "mod.py:K.unread", "mod.py:Unused", "mod.py:dead", "mod.py:patched",
        "mod.py:used",
    ]


def test_every_definition_is_named_by_a_caller():
    defined = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    callers = [p.read_text() for p in CALLERS]
    uncalled = uncalled_definitions(defined, callers)
    assert sorted(set(uncalled) - set(UNCALLED_BY_DESIGN)) == []
    assert sorted(set(UNCALLED_BY_DESIGN) - set(uncalled)) == []  # no stale exemption


def label_map_calls(source: str) -> list[int]:
    """Line numbers of the calls of ``LabelMap``, by bare name or as an attribute."""
    return sorted(
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and "LabelMap" in (
            getattr(n.func, "id", None), getattr(n.func, "attr", None))
    )


def test_guard_flags_a_label_map_built_outside_the_scene_builders():
    src = ("from . import labelmap\nfrom .labelmap import LabelMap\n"
           "a = LabelMap(x)\nb = labelmap.LabelMap(y)\nc = LabelMap\nd = f(LabelMap)\n")
    assert label_map_calls(src) == [3, 4]


def test_only_the_scene_builders_build_a_label_map():
    calls = {p.name: label_map_calls(p.read_text()) for p in PACKAGE.glob("*.py")
             if p.name not in SCENE_BUILDERS}
    assert {name: lines for name, lines in calls.items() if lines} == {}
