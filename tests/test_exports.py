import ast
from pathlib import Path

import specmix


def imported_public_names():
    """The names ``specmix/__init__.py`` imports from its submodules,
    leaving out private ones."""
    tree = ast.parse(Path(specmix.__file__).read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not alias.name.startswith("_")}


def test_every_exported_name_resolves():
    missing = [name for name in specmix.__all__ if not hasattr(specmix, name)]
    assert not missing
    assert len(set(specmix.__all__)) == len(specmix.__all__)


def test_every_imported_public_name_is_exported():
    names = imported_public_names()
    assert "StackedEncoder" in names  # the parse found the imports
    assert names <= set(specmix.__all__)
