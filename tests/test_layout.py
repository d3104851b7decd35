"""Package layout: no module imports a private name of a sibling module."""

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
