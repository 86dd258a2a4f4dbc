"""Every module of the package uses each name it imports.

No linter ships with the project, so this walks each module's syntax tree
with the standard library: a name bound by an import statement must be
read somewhere in the same module.  ``__init__.py`` is exempt, since its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import cpnet

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


def test_guard_flags_an_unused_import():
    src = "import os\nimport numpy as np\nfrom typing import NamedTuple\nx = os.sep\n"
    assert unused_imports(src) == ["NamedTuple", "np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
