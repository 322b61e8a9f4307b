"""Tests of the benchmark itself: its output checks, each workload at a tiny
size, the traced per-layer run, and its refusal to run outside a checkout.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Sl32Grid, Zoo  # noqa: E402

# tiny op lists, one per workload, that still reach every layer named for it
TINY_OPS = {
    "sl32_grid": [(13, 1), (11, 2), (199, 12)],
    "sl32_oracle": [(13, 2)],
    "zoo": [("s4", 24, ("symmetric", 4), 29), ("c15", 15, ("cyclic", 15), 11)],
}

# per-layer metric -> the workload that must exercise it
EXERCISED_ON = {
    "cli.build_parser_ms": "sl32_grid",
    "perm.power_class_ms": "sl32_grid",
    "perm.power_class_calls": "sl32_grid",
    "cyclo.partition_ms": "sl32_grid",
    "cyclo.partition_calls": "sl32_grid",
    "charkit.deleted_module_ms": "sl32_grid",
    "charkit.deleted_module_calls": "sl32_grid",
    "units.unit_group_ms": "sl32_grid",
    "wedder.solve_ms": "zoo",
    "wedder.solve_candidates": "zoo",
    "perm.generate_ms": "zoo",
    "perm.mul_table_ms": "zoo",
    "perm.class_coeffs_ms": "zoo",
    "ffield.rank_ms": "sl32_oracle",
    "ffield.rank_calls": "sl32_oracle",
    "ffield.rank_fp_cells": "sl32_oracle",
    "ffield.factor_ms": "sl32_oracle",
    "ffield.factor_calls": "sl32_oracle",
    "ffield.minpoly_ms": "sl32_oracle",
    "ffield.minpoly_calls": "sl32_oracle",
    "ffield.make_field_ms": "sl32_oracle",
    "oracle.split_center_ms": "sl32_oracle",
    "oracle.verify_split_ms": "sl32_oracle",
    "oracle.algebra_mul_ms": "sl32_oracle",
    "oracle.algebra_mul_calls": "sl32_oracle",
}


def tiny(name: str):
    workload = WORKLOADS[name](0)
    workload.ops = list(TINY_OPS[name])
    workload.setup()
    return workload


def traced_run(name: str) -> tuple[dict, tracing.Tracer]:
    workload = tiny(name)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run.run_ops(workload, workload.ops, tracer)
    finally:
        tracer.uninstall()
    return result, tracer


# -- negative controls: every check flags a wrong answer ---------------------


@pytest.fixture(scope="module")
def grid():
    workload = Sl32Grid(0)
    workload.setup()
    return workload


def test_units_check_passes_real_output_and_flags_a_wrong_block_list(grid):
    rc, out, _ = grid.run_op((13, 2))  # q = 169 = 1 mod 7: type 1
    payload = json.loads(out)
    assert rc == 0 and checks.check_units(payload, 13, 2) == []
    wrong = dict(payload, components=[{"n": n, "d": d} for n, d in checks.SL32_TYPE2])
    assert any("blocks" in p for p in checks.check_units(wrong, 13, 2))
    assert any("type" in p for p in checks.check_units(dict(payload, type=2), 13, 2))


def test_units_check_flags_a_wrong_unit_group_order(grid):
    payload = json.loads(grid.run_op((17, 3))[1])
    wrong = dict(payload, order=str(int(payload["order"]) + 1))
    assert any("order" in p for p in checks.check_units(wrong, 17, 3))


def test_split_check_flags_a_wrong_block_list_and_a_failed_verification():
    type1 = checks.SL32_TYPE1
    dims = [d * n * n for n, d in type1]
    assert checks.check_sl32_split(type1, dims, True, q=11) == []
    assert checks.check_sl32_split(checks.SL32_TYPE2, dims, True, q=11)
    assert checks.check_sl32_split(type1, dims, False, q=11)
    assert checks.check_sl32_split(type1, dims[:-1], True, q=11)


def test_zoo_check_flags_a_wrong_symmetric_group_degree():
    """S5 over F_127: `decompose` exits 4 with several candidates of the
    right mass; only the hook-length degrees tell the wrong ones apart."""
    workload = Zoo(0)
    workload.setup()
    args = ["--group", f"file:{BENCH / 'groups' / 's5.txt'}", "--p", "127", "--format", "json"]
    rc, out, _ = run_cli(workload, ["decompose", *args])
    decompose = json.loads(out)
    assert rc == 4
    kind = ("symmetric", 5)
    right = checks.expected_blocks(kind, 127)
    comps = lambda blocks: {"components": [{"n": n, "d": d} for n, d in blocks]}  # noqa: E731
    assert checks.check_zoo(rc, decompose, comps(right), 120, kind, 127) == []
    wrong = [c for c in decompose["candidates"] if checks._pairs(c) != right]
    assert wrong
    for cand in wrong:
        assert checks.check_zoo(rc, decompose, {"components": cand}, 120, kind, 127)


def test_zoo_check_flags_wrong_cyclotomic_degrees_and_a_wrong_mass():
    kind = ("cyclic", 15)
    right = checks.expected_blocks(kind, 11)  # cosets of 11 mod 15: sizes 1, 1, 1, 1, 1, 2 x 5
    dec = {"components": [{"n": n, "d": d} for n, d in right]}
    assert checks.check_zoo(0, dec, dec, 15, kind, 11) == []
    merged = dict(dec, components=dec["components"][:-2] + [{"n": 1, "d": 4}])
    assert checks.check_zoo(0, merged, merged, 15, kind, 11)
    short = dict(dec, components=dec["components"][:-1])
    assert checks.check_zoo(0, short, short, 15, kind, 11)


def test_hook_degrees_match_known_character_degrees():
    assert checks.hook_degrees(4) == [1, 1, 2, 3, 3]
    assert checks.hook_degrees(6) == [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]
    assert sum(d * d for d in checks.hook_degrees(6)) == 720


def run_cli(workload, argv):
    from workloads import _cli

    return _cli(workload.cli.main, argv)


# -- smoke runs --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TINY_OPS))
def test_tiny_run_is_correct(name):
    workload = tiny(name)
    result = run.run_ops(workload, workload.ops)
    assert result["problems"] == []
    expected_failures = [op for op in TINY_OPS[name] if op == (199, 12)]
    assert len(result["failures"]) == len(expected_failures)
    metrics = run.e2e_metrics(result["raw"], len(TINY_OPS[name]))
    assert all(m["value"] > 0 for m in metrics.values())
    assert tracing.installed_wrappers() == []  # an untraced run installs no wrapper


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sl32_grid", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (516, 14)  # the 4300-digit cells
    for metric in spec["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_command_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sl32_grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- the traced run ----------------------------------------------------------


@pytest.fixture(scope="module")
def traced():
    return {name: traced_run(name) for name in TINY_OPS}


def test_every_per_layer_metric_is_named_and_mapped():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert set(EXERCISED_ON) == set(tracing.PER_LAYER)


@pytest.mark.parametrize("metric", sorted(EXERCISED_ON))
def test_per_layer_metric_is_nonzero_where_exercised(traced, metric):
    result, tracer = traced[EXERCISED_ON[metric]]
    assert tracing.per_layer(tracer.table(), len(result["raw"]))[metric]["value"] > 0


def test_traced_counts_repeat_exactly(traced):
    for name in ("sl32_grid", "zoo"):
        _, first = traced[name]
        _, again = traced_run(name)
        assert again.calls == first.calls
        assert again.counters == first.counters


def test_uninstall_removes_every_wrapper(traced):
    assert tracing.installed_wrappers() == []
