"""Package layout: no module imports a private name of a sibling module, and
each module reads every name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tetralap"


def _private_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of each private name a relative import brings in; a
    dunder name such as __version__ is not private."""
    return [
        (node.module or "", alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def test_private_imports_are_found():
    source = ("from .decimation import (\n    _BLOCK,\n    blocks,\n)\n"
              "from . import _oracle, oracle as _o\n"
              "from .energy import __all__\n"
              "from numpy import _private\n"
              "def f():\n    from ..other import _hidden\n")
    assert _private_imports(source) == [("decimation", "_BLOCK"), ("", "_oracle"),
                                        ("other", "_hidden")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_a_sibling(path):
    assert _private_imports(path.read_text()) == []


def _unread_imports(source: str) -> list[str]:
    """Each name an import binds that the module never reads; ``from
    __future__ import annotations`` binds none."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    return [name for name in bound if name not in read]


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nimport sys\n"
              "from .energy import VertexFunction, energy\n"
              "def f(u: VertexFunction):\n    return np.sum(os.sep)\n")
    assert _unread_imports(source) == ["sys", "energy"]


# __init__.py imports names to re-export them
@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
                         ids=lambda path: path.name)
def test_each_module_reads_every_name_it_imports(path):
    assert _unread_imports(path.read_text()) == []
