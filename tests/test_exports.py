"""The package's export lists: each module's __all__ names only what the
module defines, and every name the package re-exports from a module with an
__all__ is listed there; and every package member that the benchmark's
tracer (bench/tracing.py) patches by name exists."""

import ast
import importlib
import importlib.util
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


def load_bench_tracing():
    """bench/tracing.py, loaded by path: the per-layer tracer of
    ``bench/run.py --trace 1``, which patches package members by name."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_traced_members_exist():
    # the tracer's install raises if a METHODS entry is gone, and every traced
    # name in PER_LAYER must hold one of the wrappers it installed; a member
    # removed from the package fails here, not in a traced run
    tracing = load_bench_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = set(tracing.installed_wrappers())
    finally:
        tracer.uninstall()
    assert not tracing.installed_wrappers()
    for layer, cls_name, attr in tracing.METHODS:
        assert f"{layer}.{cls_name}.{attr}" in wrapped
    for metric, (_, name) in tracing.PER_LAYER.items():
        assert name in wrapped, metric
