"""Every name a library module imports is used in that module, and a leaf
module imports no other dpsparse module.

A deletion that leaves an import behind fails here. ``__init__.py`` is
skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dpsparse"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``.
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from .core import a, b\n"
        "np.zeros(a)\n"
    )
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dpsparse_imports(source: str) -> list[str]:
    """The dpsparse modules the module imports, relative or by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "dpsparse"):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "dpsparse"]
    return found


def test_the_check_finds_a_dpsparse_import():
    source = "import numpy\nimport dpsparse.core\nfrom . import core\nfrom .errors import E\n"
    assert dpsparse_imports(source) == ["dpsparse.core", ".", ".errors"]


# _kernels owns the library's threads and kernels: every other module may
# import it, and it imports none of them.
@pytest.mark.parametrize("name", ["_kernels"])
def test_a_leaf_module_imports_no_dpsparse_module(name):
    assert dpsparse_imports((SRC / f"{name}.py").read_text(encoding="utf-8")) == []
