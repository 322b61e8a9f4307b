"""Per-layer tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces every public function of each wedderburn module,
plus the few methods named in ``METHODS``, with a wrapper that records a
span (name, op, start, end, parent) and accumulates self time: the span's
duration minus the part covered by nested wrapped calls.  Every reference
to an original that sits in a module namespace or in a module-level dict is
replaced, so calls made through names imported into another module
(``oracle.factor``, ``cli._COMMANDS``, ``perm.BUILTIN_GROUPS``) are seen too.
``uninstall`` puts the originals back.  Untraced runs never import this file.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

PACKAGE = "wedderburn"
LAYERS = ("perm", "cyclo", "charkit", "wedder", "units", "ffield", "oracle", "cli")

# (module, class, attribute) of the methods traced besides public functions
METHODS = (
    ("perm", "FiniteGroup", "mul_table"),
    ("perm", "FiniteGroup", "class_product_coefficients"),
    ("ffield", "MatrixFq", "rank"),
    ("oracle", "AlgebraElement", "__mul__"),
)

# metric name -> (kind, traced name); kinds: "ms" self time, "calls", or a
# counter filled by the hooks in _COUNTERS.  Values are per op.
PER_LAYER = {
    "cli.build_parser_ms": ("ms", "cli.build_parser"),
    "perm.power_class_ms": ("ms", "perm.power_class"),
    "perm.power_class_calls": ("calls", "perm.power_class"),
    "cyclo.partition_ms": ("ms", "cyclo.cyclotomic_partition"),
    "cyclo.partition_calls": ("calls", "cyclo.cyclotomic_partition"),
    "charkit.deleted_module_ms": ("ms", "charkit.deleted_module_check"),
    "charkit.deleted_module_calls": ("calls", "charkit.deleted_module_check"),
    "units.unit_group_ms": ("ms", "units.unit_group"),
    "wedder.solve_ms": ("ms", "wedder.solve"),
    "wedder.solve_candidates": ("counter", "wedder.solve"),
    "perm.generate_ms": ("ms", "perm.generate"),
    "perm.mul_table_ms": ("ms", "perm.FiniteGroup.mul_table"),
    "perm.class_coeffs_ms": ("ms", "perm.FiniteGroup.class_product_coefficients"),
    "ffield.rank_ms": ("ms", "ffield.MatrixFq.rank"),
    "ffield.rank_calls": ("calls", "ffield.MatrixFq.rank"),
    "ffield.rank_fp_cells": ("counter", "ffield.MatrixFq.rank"),
    "ffield.factor_ms": ("ms", "ffield.factor"),
    "ffield.factor_calls": ("calls", "ffield.factor"),
    "ffield.minpoly_ms": ("ms", "ffield.minpoly"),
    "ffield.minpoly_calls": ("calls", "ffield.minpoly"),
    "ffield.make_field_ms": ("ms", "ffield.make_field"),
    "oracle.split_center_ms": ("ms", "oracle.split_center"),
    "oracle.verify_split_ms": ("ms", "oracle.verify_split"),
    "oracle.algebra_mul_ms": ("ms", "oracle.AlgebraElement.__mul__"),
    "oracle.algebra_mul_calls": ("calls", "oracle.AlgebraElement.__mul__"),
}


def _rank_cells(args, result) -> int:
    """Cells of the F_p matrix a rank call eliminates: kr x kc for r x c over F_{p^k}."""
    m = args[0]
    return m.spec.k * m.nrows * m.spec.k * m.ncols


def _solve_candidates(args, result) -> int:
    return len(result.solutions)


_COUNTERS = {
    "ffield.MatrixFq.rank": _rank_cells,
    "wedder.solve": _solve_candidates,
}

MARK = "__bench_traced__"


class Tracer:
    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self.op = -1
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []  # (container, key, original, is_dict)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                if self.keep_spans:
                    self.spans.append((sid, parent, self.op, name, start, end))
            if counter is not None:
                self.counters[name] += counter(args, result)
            return result

        setattr(traced, MARK, True)
        return traced

    def install(self):
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        replace = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                replace[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for layer, cls_name, attr in METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(orig, property):
                new = property(self._wrap(name, orig.fget), orig.fset, orig.fdel, orig.__doc__)
            else:
                new = self._wrap(name, orig)
            self._patches.append((cls, attr, orig, False))
            setattr(cls, attr, new)
        namespaces = [importlib.import_module(PACKAGE), *mods.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replace:
                    self._patches.append((ns, attr, obj, False))
                    setattr(ns, attr, replace[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replace:
                            self._patches.append((obj, key, val, True))
                            obj[key] = replace[id(val)]

    def uninstall(self):
        for container, key, orig, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def table(self, scale: float = 1.0) -> dict:
        """Self seconds (multiplied by ``scale``), calls and counter of every
        traced name."""
        return {name: {"self_s": self.self_s[name] * scale, "calls": self.calls[name],
                       "counter": self.counters[name]}
                for name in sorted(self.calls)}


def merge_tables(tables) -> dict:
    """The sum, name by name, of several ``Tracer.table`` results."""
    out: dict = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, {"self_s": 0.0, "calls": 0, "counter": 0})
            for key in acc:
                acc[key] += row[key]
    return out


def per_layer(table: dict, ops: int) -> dict:
    """Every PER_LAYER metric per op, from a (merged) table; times in ms."""
    out = {}
    for metric, (kind, name) in PER_LAYER.items():
        row = table.get(name, {"self_s": 0.0, "calls": 0, "counter": 0})
        if kind == "ms":
            out[metric] = {"value": row["self_s"] * 1000.0 / ops, "unit": "ms"}
        else:
            out[metric] = {"value": row["calls" if kind == "calls" else "counter"] / ops,
                           "unit": "count"}
    return out


def installed_wrappers() -> list[str]:
    """Names in the package's modules that currently hold a tracing wrapper."""
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                found.append(f"{layer}.{attr}")
            elif isinstance(obj, type):
                for cattr, cobj in vars(obj).items():
                    fn = cobj.fget if isinstance(cobj, property) else cobj
                    if getattr(fn, MARK, False):
                        found.append(f"{layer}.{attr}.{cattr}")
    return found
