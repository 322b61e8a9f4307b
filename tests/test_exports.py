"""The package's export lists: each module's __all__ names only what the
module defines, and every name the package re-exports from a module with an
__all__ is listed there."""

import ast
import importlib
import pkgutil
from pathlib import Path

import wedderburn

MODULES = [importlib.import_module(f"wedderburn.{m.name}") for m in pkgutil.iter_modules(wedderburn.__path__)]


def test_every_name_in_all_exists():
    for module in MODULES:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_exports_are_listed_in_their_module_all():
    tree = ast.parse(Path(wedderburn.__file__).read_text())
    checked = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"wedderburn.{node.module}")
            if not hasattr(module, "__all__"):
                continue
            unlisted = [alias.name for alias in node.names if alias.name not in module.__all__]
            assert not unlisted, (module.__name__, unlisted)
            checked += 1
    assert checked >= 7  # charkit, cyclo, ffield, oracle, perm, units, wedder
