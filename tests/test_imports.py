"""Every module of the package uses each name it imports, at module level,
and every run setting is read somewhere.

No linter ships with the project, so this walks each module's syntax tree
with the standard library: a name bound by an import statement must be
read somewhere in the same module.  ``__init__.py`` is exempt, since its
imports are the package's re-exports.  Imports sit at the top of a module;
only ``cli.py`` imports inside functions, so that each subcommand loads
just what it runs.  Each ``TrainConfig`` field must be read as an
attribute by some module other than ``config.py``: a field nothing reads
is a setting that changes nothing.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import cpnet
from cpnet.config import TrainConfig

MODULES = sorted(p for p in Path(cpnet.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
