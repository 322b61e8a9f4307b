import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from wedderburn import cli
from wedderburn.perm import load_group
from wedderburn.wedder import SolverReport, analytic_decomposition

ROOT = Path(__file__).resolve().parents[1]

SL32_GENS = "degree 8\n(3,7,5)(4,8,6)\n(1,2,6)(3,4,8)\n"


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classes_text(capsys):
    code, out, _ = run(capsys, ["classes", "--group", "builtin:sl32-s8"])
    assert code == 0
    assert "order 168" in out and "exponent 84" in out
    assert out.count("C") >= 6


def test_classes_json(capsys):
    code, out, _ = run(capsys, ["classes", "--group", "builtin:sl32-s8", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 168 and data["exponent"] == 84
    assert sorted(c["size"] for c in data["classes"]) == [1, 21, 24, 24, 42, 56]
    assert sorted(c["order"] for c in data["classes"]) == [1, 2, 3, 4, 7, 7]


def test_classes_s5(capsys):
    code, out, _ = run(capsys, ["classes", "--group", "builtin:s5", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["classes"]) == 7


def test_classes_from_file(capsys, tmp_path):
    path = tmp_path / "trivial.grp"
    path.write_text("# one point, no generators\ndegree 1\n")
    code, out, _ = run(capsys, ["classes", "--group", f"file:{path}", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["classes"]) == 1


def test_decompose_type1(capsys):
    code, out, _ = run(capsys, ["decompose", "--p", "11", "--k", "1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["type"] == 1
    assert data["splitting_field"] is True
    assert [(c["n"], c["d"]) for c in data["components"]] == [
        (1, 1), (3, 1), (3, 1), (6, 1), (7, 1), (8, 1)
    ]


def test_decompose_type2(capsys):
    code, out, _ = run(capsys, ["decompose", "--p", "13", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["type"] == 2
    assert data["splitting_field"] is False
    assert {(c["n"], c["d"]) for c in data["components"]} == {(1, 1), (6, 1), (7, 1), (8, 1), (3, 2)}


def test_decompose_modular_case_exits_3(capsys):
    code, _, err = run(capsys, ["decompose", "--p", "7", "--k", "1"])
    assert code == 3
    assert "modular case" in err


@pytest.mark.parametrize("command", ["decompose", "oracle", "units"])
def test_modular_prime_below_5_exits_3(capsys, command):
    # |C7:C3| = 21: p = 3 is modular, which comes before the p >= 5 field bound
    code, _, err = run(capsys, [command, "--group", f"file:{ROOT / 'bench/groups/c7c3.txt'}", "--p", "3"])
    assert code == 3
    assert "modular case" in err


@pytest.mark.parametrize("group, p", [("q8", 3), ("c7c3", 2)])
@pytest.mark.parametrize("command", ["decompose", "oracle", "units"])
def test_coprime_prime_below_5_exits_2(capsys, command, group, p):
    code, _, err = run(capsys, [command, "--group", f"file:{ROOT / 'bench/groups' / (group + '.txt')}",
                                "--p", str(p)])
    assert code == 2
    assert "below the supported minimum of 5" in err


def test_python_m_wedderburn_runs_the_cli(capsys):
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-m", "wedderburn", "oracle", "--p", "11"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, ["oracle", "--p", "11"])
    assert code == 0
    assert proc.stdout == out


@pytest.mark.parametrize("command", ["decompose", "units"])
def test_sl32_type_and_actions_only_for_builtin_sources(capsys, command):
    # a file copy of SL(3,2) solves with its own action and reports no type:
    # at p = 13 that still pins the type-2 blocks, at p = 179 it leaves two
    # candidates, which both builtin sources, with the two actions, tell apart
    psl27 = f"file:{ROOT / 'bench' / 'groups' / 'psl27.txt'}"
    code, out, _ = run(capsys, [command, "--group", psl27, "--p", "13", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert [(c["n"], c["d"]) for c in data["components"]] == [(1, 1), (6, 1), (7, 1), (8, 1), (3, 2)]
    assert data["type"] is None
    code, out, _ = run(capsys, [command, "--group", psl27, "--p", "13"])
    assert code == 0 and "type" not in out
    code, out, _ = run(capsys, [command, "--group", psl27, "--p", "179", "--format", "json"])
    assert code == 4
    assert len(json.loads(out)["candidates"]) == 2
    for source in ("builtin:sl32-s8", "builtin:sl32-p2f2"):
        code, out, _ = run(capsys, [command, "--group", source, "--p", "179", "--format", "json"])
        assert code == 0
        assert json.loads(out)["type"] == 1


def test_closed_stdout_ends_quietly(tmp_path):
    # D_701 on 701 points: its class table is far larger than a pipe buffer,
    # so the reader closes the pipe while the command is still writing
    n = 701
    group = tmp_path / "d701.txt"
    group.write_text(f"degree {n}\n({','.join(map(str, range(1, n + 1)))})\n"
                     + "".join(f"({i},{n + 2 - i})" for i in range(2, n // 2 + 2)) + "\n")
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for fmt in ("text", "json"):
        with subprocess.Popen([sys.executable, "-m", "wedderburn", "classes", "--group", f"file:{group}",
                               "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 0, err
        assert err == b""


def test_decompose_nonunique_exits_4(capsys):
    code, out, _ = run(capsys, ["decompose", "--group", "builtin:s5", "--p", "11"])
    assert code == 4
    assert "candidate decompositions" in out


@pytest.mark.parametrize("name, p, top_degree", [("s6", 11, 1), ("a6", 11, 1), ("a6", 367, 2),
                                                 ("s5", 13, 1), ("d10", 7, 2), ("psl27", 179, 1)])
def test_nonunique_json_matches_json_dumps(capsys, name, p, top_degree):
    group = ROOT / "bench" / "groups" / f"{name}.txt"
    code, out, _ = run(capsys, ["decompose", "--group", f"file:{group}", "--p", str(p),
                                "--format", "json"])
    assert code == 4
    G = load_group(group)
    report = analytic_decomposition(G, p, 1, [G])
    # blocks over F_{q^2} exercise the writer's d = 2 pieces
    assert max(d for dec in report.solutions for _, d in dec) == top_degree
    candidates = [[{"n": n, "d": d} for n, d in dec] for dec in report.solutions]
    payload = {"unique": False, "candidates": candidates}
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_nonunique_json_without_candidates(capsys):
    report = SolverReport(solutions=())
    cli._print_nonunique(report, "json")
    out = capsys.readouterr().out
    assert out == json.dumps({"candidates": [], "unique": False}, indent=2, sort_keys=True) + "\n"
    assert '"candidates": []' in out


def test_decompose_s6_json_bytes_pinned(capsys):
    # sha256 of the 3037-candidate listing as json.dumps(indent=2, sort_keys=True) printed it
    group = ROOT / "bench" / "groups" / "s6.txt"
    code, out, _ = run(capsys, ["decompose", "--group", f"file:{group}", "--p", "11",
                                "--format", "json"])
    assert code == 4
    assert len(json.loads(out)["candidates"]) == 3037
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "3146a92ec6f857668b46cfb74ecbed5c02922e7b3b144dee6a47d6258e2455f1"



def _json_calls(tmp_path):
    """JSON calls of every command: the builtins, a file group ("type": null),
    the trivial group, splitting_field true and false, an order beyond the
    int-str digit limit and an exit-4 listing."""
    trivial = tmp_path / "trivial.grp"
    trivial.write_text("degree 1\n")
    c15 = f"file:{ROOT / 'bench' / 'groups' / 'c15.txt'}"
    calls = [["classes", "--group", g] for g in ("builtin:sl32-s8", "builtin:sl32-p2f2", "builtin:s5",
                                                  c15, f"file:{trivial}")]
    for cmd in ("decompose", "oracle", "units"):
        calls += [[cmd, "--p", "11"], [cmd, "--p", "13"],
                  [cmd, "--group", "builtin:sl32-p2f2", "--p", "13", "--k", "2"],
                  [cmd, "--group", c15, "--p", "17"], [cmd, "--group", f"file:{trivial}", "--p", "11"]]
    calls += [["units", "--p", "199", "--k", "12"], ["decompose", "--group", "builtin:s5", "--p", "11"]]
    return [argv + ["--format", "json"] for argv in calls]


def test_json_output_is_json_dumps_layout(capsys, tmp_path):
    splitting = set()
    for argv in _json_calls(tmp_path):
        code, out, _ = run(capsys, argv)
        assert code in (0, 4), argv
        data = json.loads(out)
        assert out == json.dumps(data, indent=2, sort_keys=True) + "\n", argv
        splitting.add(data.get("splitting_field"))
    assert splitting == {None, True, False}


def test_json_output_needs_no_json_module(capsys, tmp_path, monkeypatch):
    calls = _json_calls(tmp_path)
    expected = [run(capsys, argv) for argv in calls]

    def refuse(*args, **kwargs):
        raise RuntimeError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert [run(capsys, argv) for argv in calls] == expected
    assert {code for code, _, _ in expected} == {0, 4}


def test_one_partition_per_cell(capsys, monkeypatch):
    from wedderburn import wedder

    calls = []
    partition = wedder.cyclotomic_partition

    def counted(*args):
        calls.append(args[1:])
        return partition(*args)

    monkeypatch.setattr(wedder, "cyclotomic_partition", counted)
    for argv in (["units", "--p", "13"], ["units", "--p", "11", "--k", "2", "--format", "json"],
                 ["decompose", "--p", "13", "--k", "3"], ["decompose", "--p", "11", "--format", "json"]):
        calls.clear()
        assert cli.main(argv) == 0
        assert len(calls) == 1, argv
    calls.clear()
    assert cli.main(["check", "--p", "11,13", "--k", "1..3"]) == 0
    assert sorted(calls) == [(p, k) for p in (11, 13) for k in (1, 2, 3)]
    capsys.readouterr()

def test_units_nonunique_prints_decompose_candidates(capsys):
    argv = ["--group", "builtin:s5", "--p", "11", "--format", "json"]
    code, out_units, _ = run(capsys, ["units", *argv])
    assert code == 4
    code, out_dec, _ = run(capsys, ["decompose", *argv])
    assert code == 4
    assert out_units == out_dec
    data = json.loads(out_units)
    assert data["unique"] is False and len(data["candidates"]) == 6


def test_decompose_nonprime_exits_2(capsys):
    code, _, err = run(capsys, ["decompose", "--p", "9"])
    assert code == 2
    assert "not prime" in err


def test_oracle_matches_decompose(capsys):
    code, out_a, _ = run(capsys, ["oracle", "--p", "11", "--format", "json"])
    assert code == 0
    code, out_d, _ = run(capsys, ["decompose", "--p", "11", "--format", "json"])
    assert code == 0
    assert json.loads(out_a)["components"] == json.loads(out_d)["components"]


def test_oracle_respects_qmax(capsys):
    code, _, err = run(capsys, ["oracle", "--p", "11", "--k", "12"])
    assert code == 2
    assert "qmax" in err


def test_huge_k_ends_quickly():
    # no command builds p**k: decompose and check need only p**k mod the
    # group exponent, and oracle and check's cross-check compare k with the
    # bit length of --qmax first
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for command, code, err in (("decompose", 0, ""), ("oracle", 2, "exceeds --qmax"), ("check --with-oracle", 0, "")):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "wedderburn", *command.split(), "--p", "11", "--k", "100000000"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert err in proc.stderr
        assert time.perf_counter() - t0 < 2, command


def test_oracle_text_stdout_is_deterministic(capsys):
    # the wall-clock line goes to stderr
    code, out1, err = run(capsys, ["oracle", "--p", "11"])
    assert code == 0
    assert "elapsed:" in err and "elapsed" not in out1
    code, out2, _ = run(capsys, ["oracle", "--p", "11"])
    assert code == 0
    assert out1 == out2


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("p, k", [(11, 1), (13, 3)])
def test_oracle_verify_prints_what_oracle_prints(capsys, p, k, fmt):
    argv = ["oracle", "--p", str(p), "--k", str(k), "--format", fmt]
    code, plain, _ = run(capsys, argv)
    assert code == 0
    code, verified, err = run(capsys, argv + ["--verify"])
    assert code == 0
    assert verified == plain
    assert ("elapsed:" in err) == (fmt == "text")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oracle_verify_failure_exits_1_and_prints_nothing(capsys, monkeypatch, fmt):
    monkeypatch.setattr("wedderburn.oracle.verify_split", lambda split: False)
    code, out, err = run(capsys, ["oracle", "--p", "11", "--format", fmt, "--verify"])
    assert code == cli.EXIT_MISMATCH == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_units_json_schema_and_stability(capsys):
    argv = ["units", "--p", "13", "--k", "1", "--format", "json"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    assert out1 == out2  # byte-identical reruns
    data = json.loads(out1)
    assert set(data) == {"q", "type", "components", "unit_group", "order"}
    assert data["q"] == {"p": 13, "k": 1}
    assert {(u["n"], u["field"]) for u in data["unit_group"]} == {
        (1, "13^1"), (6, "13^1"), (7, "13^1"), (8, "13^1"), (3, "13^2")
    }
    assert data["order"].isdigit()


def test_units_text_contains_gl_factors(capsys):
    code, out, _ = run(capsys, ["units", "--p", "13", "--k", "1"])
    assert code == 0
    assert "GL(3, 13^2)" in out
    assert "order:" in out


def test_units_trivial_group(capsys, tmp_path):
    path = tmp_path / "trivial.grp"
    path.write_text("degree 1\n")
    code, out, _ = run(capsys, ["units", "--group", f"file:{path}", "--p", "11"])
    assert code == 0
    assert "F_11^×" in out
    assert "order: 10" in out


def test_units_text_and_json_agree(capsys):
    code_t, text_out, _ = run(capsys, ["units", "--p", "11"])
    code_j, json_out, _ = run(capsys, ["units", "--p", "11", "--format", "json"])
    assert code_t == code_j == 0
    data = json.loads(json_out)
    for comp in data["components"]:
        if comp["n"] > 1:
            assert f"GL({comp['n']}, 11)" in text_out


def _gl_order(n, q):
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def _parse_decimal(digits):
    # in pieces, so the test does not depend on the int-from-str digit limit
    value = 0
    for i in range(0, len(digits), 500):
        piece = digits[i : i + 500]
        value = value * 10 ** len(piece) + int(piece)
    return value


def test_units_order_beyond_int_str_digit_limit(capsys):
    import sys

    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, ["units", "--p", "199", "--k", "12", "--format", "json"])
    assert code == 0
    q = 199**12
    # q = 1 mod 7: type 1, F_q + M(3, F_q)^2 + M(6, F_q) + M(7, F_q) + M(8, F_q)
    expected = 1
    for n in (1, 3, 3, 6, 7, 8):
        expected *= _gl_order(n, q)
    order = json.loads(out)["order"]
    assert len(order) > limit
    assert _parse_decimal(order) == expected
    code, text, _ = run(capsys, ["units", "--p", "199", "--k", "12"])
    assert code == 0
    assert f"order: {order}" in text
    assert sys.get_int_max_str_digits() == limit


def test_units_order_at_a_large_k(capsys):
    # q = 199^300 = 1 (mod 7), type 1: an order of about 116,000 digits
    code, out, _ = run(capsys, ["units", "--p", "199", "--k", "300", "--format", "json"])
    assert code == 0
    q = 199**300
    expected = 1
    for n in (1, 3, 3, 6, 7, 8):
        expected *= _gl_order(n, q)
    assert _parse_decimal(json.loads(out)["order"]) == expected


def test_check_small_grid(capsys):
    code, out, _ = run(capsys, ["check", "--p", "11,13", "--k", "1..3"])
    assert code == 0
    assert "6 ok, 0 mismatches" in out


def test_check_with_oracle(capsys):
    # F_121 and F_2197 split with idempotents in F_p[G], F_169 and F_289 with
    # two idempotents outside it
    code, out, _ = run(capsys, ["check", "--with-oracle", "--p", "11..29", "--k", "1..3"])
    assert code == 0
    assert "checked 18 cells (18 with brute-force cross-check): 18 ok, 0 mismatches" in out


def test_check_with_oracle_runs_verify_split_on_every_split(capsys, monkeypatch):
    verified = []
    verify = cli.oracle_mod.verify_split
    monkeypatch.setattr(cli.oracle_mod, "verify_split", lambda split: verified.append(split) or verify(split))
    code, out, _ = run(capsys, ["check", "--with-oracle", "--p", "11,13", "--k", "1..2"])
    assert code == 0 and len(verified) == 4
    assert out == "checked 4 cells (4 with brute-force cross-check): 4 ok, 0 mismatches, 0 skipped\n"
    # a split that fails verify_split is a mismatch, even when its blocks agree
    monkeypatch.setattr(cli.oracle_mod, "verify_split", lambda split: False)
    code, out, _ = run(capsys, ["check", "--with-oracle", "--p", "11,13", "--k", "1", "--qmax", "12"])
    assert code == 1
    assert out == ("MISMATCH p=11 k=1: brute-force split fails verify_split\n"
                   "checked 2 cells (1 with brute-force cross-check): 1 ok, 1 mismatches, 0 skipped\n")


def test_check_p5(capsys):
    code, out, _ = run(capsys, ["check", "--p", "5", "--k", "1..6"])
    assert code == 0
    assert "6 ok" in out


def test_check_prime_ranges_skip_composites(capsys):
    code, out, _ = run(capsys, ["check", "--p", "11..19", "--k", "1"])
    assert code == 0
    assert "checked 4 cells" in out  # 11, 13, 17, 19


@pytest.mark.parametrize("p, k", [("11", "1..2,6..3"), ("11..13,29..17", "1"), ("11", "3..2")])
def test_check_rejects_reversed_ranges(capsys, p, k):
    # a range that ends below its start is an input error, never an empty range
    code, out, err = run(capsys, ["check", "--p", p, "--k", k])
    assert code == cli.EXIT_INPUT == 2
    assert out == ""
    assert "ends below its start" in err


@pytest.mark.parametrize("p, k, token", [("11..", "1", "11.."), ("11", "1..2..3", "1..2..3"),
                                         ("a..b", "1", "a..b"), ("11,13", "2,x", "x")])
def test_check_names_a_malformed_range(capsys, p, k, token):
    # the error names the bad token, not int()'s parse of one piece of it
    code, out, err = run(capsys, ["check", "--p", p, "--k", k])
    assert (code, out, err) == (cli.EXIT_INPUT, "", f"error: malformed range {token!r}\n")


def test_check_prime_spec_rules(capsys):
    # a one-value range is that value; an explicit non-prime is an input error
    code, out, _ = run(capsys, ["check", "--p", "13..13", "--k", "2..2"])
    assert (code, out) == (0, "checked 1 cells: 1 ok, 0 mismatches, 0 skipped\n")
    code, _, err = run(capsys, ["check", "--p", "11,15", "--k", "1"])
    assert code == 2 and "not prime" in err


def test_decompose_c400_fills_400_slots(capsys, tmp_path):
    # C_400 over F_401: 401 = 1 mod 400, so each of the 400 classes is its
    # own q-power orbit and the solver fills 400 degree-1 slots
    group = tmp_path / "c400.txt"
    group.write_text("degree 400\n(" + ",".join(map(str, range(1, 401))) + ")\n")
    code, out, err = run(capsys, ["decompose", "--group", f"file:{group}", "--p", "401", "--format", "json"])
    assert (code, err) == (0, "")
    assert [(c["n"], c["d"]) for c in json.loads(out)["components"]] == [(1, 1)] * 400


def test_check_reports_modular_cells_as_skipped(capsys):
    code, out, _ = run(capsys, ["check", "--p", "5..13", "--k", "1"])
    assert code == 0
    assert "SKIP p=7 k=1" in out
    assert "SKIP p=5" not in out and "SKIP p=11" not in out and "SKIP p=13" not in out
    assert "checked 3 cells: 3 ok, 0 mismatches, 1 skipped" in out  # 5, 11, 13


def test_decompose_rejects_strong_pseudoprime(capsys):
    # psi_12 and psi_13 (OEIS A014233) pass Miller-Rabin to the bases 2..37
    for n in ("318665857834031151167461", "3317044064679887385961981"):
        code, out, err = run(capsys, ["decompose", "--p", n])
        assert code == cli.EXIT_INPUT, n
        assert out == ""
        assert "not prime" in err and "Traceback" not in err


def test_check_detects_mismatch(capsys, monkeypatch):
    from wedderburn.oracle import CentralSplit
    from wedderburn.units import ReferenceRow, TYPE2_COMPONENTS

    type1 = ((1, 1), (3, 1), (3, 1), (6, 1), (7, 1), (8, 1))
    cases = [  # module, name, replacement, extra flags, the reason the MISMATCH line gives
        (cli, "sl32_expected_row", lambda p, k: ReferenceRow(2, TYPE2_COMPONENTS), [],
         f"got {type1}, reference says ((1, 1), (6, 1), (7, 1), (8, 1), (3, 2))"),
        (cli, "analytic_decomposition", lambda *args: SolverReport(solutions=(type1, type1)), [],
         "analytic solution not unique (2 candidates)"),
        (cli, "sl32_type", lambda G, partition: 2, [], "type mismatch"),
        (cli, "splitting_field_check", lambda dec: False, [], "splitting-field verdict mismatch"),
        (cli.oracle_mod, "split_center",
         lambda G, spec, seed: CentralSplit(G, spec, np.zeros((1, G.order, spec.k), dtype=spec.dtype), ((1, 1),)),
         ["--with-oracle"],
         f"brute-force blocks ((1, 1),) differ from analytic {type1}"),
    ]
    for module, name, replacement, flags, reason in cases:
        with monkeypatch.context() as m:
            m.setattr(module, name, replacement)
            code, out, _ = run(capsys, ["check", "--p", "11", "--k", "1", *flags])
        checked = "checked 1 cells (1 with brute-force cross-check)" if flags else "checked 1 cells"
        assert code == 1, name
        assert out == f"MISMATCH p=11 k=1: {reason}\n{checked}: 0 ok, 1 mismatches, 0 skipped\n", name


@pytest.mark.parametrize(
    "target, command, exc",
    [
        ("split_center", "oracle", AssertionError("(bug) blocks miss |G|")),
        ("split_center", "oracle", RuntimeError("(bug) refinement stalled")),
        ("split_center", "oracle", ArithmeticError("class constants fail the count")),
        ("analytic_decomposition", "decompose", AssertionError("(bug) two order-7 classes")),
    ],
    ids=["assertion", "runtime", "arithmetic", "assertion-analytic"],
)
def test_internal_check_failure_exits_1_without_traceback(capsys, monkeypatch, target, command, exc):
    from wedderburn import oracle

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(oracle if target == "split_center" else cli, target, fail)
    code, out, err = run(capsys, [command, "--p", "11"])
    assert code == cli.EXIT_MISMATCH == 1
    assert out == ""
    assert err == f"error: internal check failed: {exc}\n"


def test_out_of_memory_exits_2_without_traceback(capsys, monkeypatch):
    from wedderburn import oracle

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 33.6 GiB")

    monkeypatch.setattr(oracle, "split_center", exhausted)
    code, out, err = run(capsys, ["oracle", "--p", "11"])
    assert code == cli.EXIT_INPUT == 2
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 33.6 GiB\n"


def test_oracle_a8_needs_no_full_table(tmp_path):
    # |A8| = 20160: a full int32 table is 1.6 GB, more than the 1 GB address
    # space the run gets; the split builds 28 of its columns.  One BLAS
    # thread, as each further one reserves about 40 MB of address space
    group = tmp_path / "a8.txt"
    group.write_text("degree 8\n(1,2,3)\n(2,3,4,5,6,7,8)\n")
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1")
    limit = (10**9, 10**9)
    proc = subprocess.run([sys.executable, "-m", "wedderburn", "oracle", "--group", f"file:{group}", "--p", "20161",
                           "--format", "json"], capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    assert proc.returncode == 0, proc.stderr
    components = json.loads(proc.stdout)["components"]
    assert {c["d"] for c in components} == {1}
    assert sorted(c["n"] for c in components) == [1, 7, 14, 20, 21, 21, 21, 28, 35, 45, 45, 56, 64, 70]


def test_check_rejects_non_sl32_group(capsys):
    code, _, err = run(capsys, ["check", "--group", "builtin:s5", "--p", "11", "--k", "1"])
    assert code == 2
    assert "SL(3,2)" in err


def test_bad_group_source(capsys):
    code, _, err = run(capsys, ["classes", "--group", "builtin:nope"])
    assert code == 2
    code, _, err = run(capsys, ["classes", "--group", "file:/does/not/exist.grp"])
    assert code == 2


def test_bad_group_file_contents(capsys, tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("degree 3\n(1,5)\n")
    code, _, err = run(capsys, ["classes", "--group", f"file:{path}"])
    assert code == 2
    assert "out of range" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose"])  # missing required --p
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["decompose", "--qmax", "5", "--p", "11"],
    ["units", "--qmax", "5", "--p", "11"],
    ["classes", "--qmax", "5"],
    ["check", "--format", "json", "--p", "11", "--k", "1"],
    ["classes", "--seed", "1"],
])
def test_flags_that_nothing_reads_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


# (5,) + the primes 11..199 and k = 1..12: the cells of the SL(3,2) reference grid
GRID_PRIMES = (5,) + tuple(p for p in range(11, 200) if all(p % d for d in range(2, p)))
GRID_KS = tuple(range(1, 13))


def test_units_grid_bytes_pinned(capsys):
    # sha256 over "<exit code>\n<stdout>" of every cell, primes outer and k inner
    digest = hashlib.sha256()
    for p in GRID_PRIMES:
        for k in GRID_KS:
            code, out, _ = run(capsys, ["units", "--p", str(p), "--k", str(k), "--format", "json"])
            digest.update(f"{code}\n{out}".encode())
    assert len(GRID_PRIMES) * len(GRID_KS) == 516
    assert digest.hexdigest() == "0387bda0a7068b33fc5fd872eccc810510815a30cc1591f28e6827e78ee9fd5f"



def test_decompose_grid_bytes_pinned(capsys):
    # sha256 over "<exit code>\n<stdout>" of every cell, as json.dumps(indent=2,
    # sort_keys=True) printed it
    digest = hashlib.sha256()
    for p in GRID_PRIMES:
        for k in GRID_KS:
            code, out, _ = run(capsys, ["decompose", "--p", str(p), "--k", str(k), "--format", "json"])
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "e66ac2395022fe4da03f923dc01ca9689357fe5e1d72fe94a35c77f770df1a97"


def test_classes_group_files_bytes_pinned(capsys):
    # sha256 over "<exit code>\n<stdout>" of the 11 group files in name order
    files = sorted((ROOT / "bench" / "groups").glob("*.txt"))
    assert len(files) == 11
    digest = hashlib.sha256()
    for path in files:
        code, out, _ = run(capsys, ["classes", "--group", f"file:{path}", "--format", "json"])
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "db29cceb549c4960c41e15b23c438bbab870497e652a4441cae6b7ca8c9a33a9"

SUBCOMMAND_CALLS = [
    ["units", "--p", "13", "--k", "2", "--format", "json"],
    ["decompose", "--p", "11", "--k", "3"],
    ["oracle", "--p", "11", "--format", "json"],
    ["classes", "--group", "builtin:s5"],
    ["check", "--p", "11,13", "--k", "1..2"],
]


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    cli.main(["classes"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for argv in SUBCOMMAND_CALLS:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert built == []
    cli.build_parser.__wrapped__()
    assert len(built) == 1 + len(SUBCOMMAND_CALLS)  # the counter does see the parser and subparsers


def _call(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = f"SystemExit {exc.code}"
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reused_parser_leaks_no_state(capsys, monkeypatch):
    # a usage error and --help first, then every subcommand, on the cached
    # parser and then on a parser built afresh for each call
    calls = [["decompose"], ["--help"], ["units", "--help"], *SUBCOMMAND_CALLS]
    cached = [_call(capsys, argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_call(capsys, argv) for argv in calls]
    assert cached == fresh
    assert [code for code, _, _ in cached] == ["SystemExit 2", "SystemExit 0", "SystemExit 0",
                                               0, 0, 0, 0, 0]
    assert "required: --p" in cached[0][2] and "usage: wedderburn" in cached[1][1]


def _parse_outcome(parse, argv):
    """vars() of the namespace parse(argv) returns, or the SystemExit code
    with what was printed to stdout and stderr before it."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def _main_parse(argv):
    """The namespace cli.main parses argv into, with no command run."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, lambda args: seen.append(args) or 0))
        assert cli.main(argv) == 0
    return seen[0]


def _fresh_parse(argv):
    return cli.build_parser.__wrapped__().parse_args(argv)


PARSE_CORPUS = [
    ["units", "--p", "11"], ["units", "--p", "11", "--k", "2", "--format", "json"],
    ["units", "--p=11"], ["units", "--p", "11", "--form", "json"], ["units", "--p", "11", "extra"],
    ["units", "--p", "11", "--bogus"], ["units"], ["units", "--p", "x"],
    ["units", "--p", "11", "--format", "xml"], ["unit", "--p", "11"], [], ["-h"], ["--help"],
    ["units", "-h"], ["units", "--", "--p", "11"], ["units", "--p", "11", "--"],
    ["--", "units", "--p", "11"], ["--p", "11", "units"], ["classes", "--seed", "1"], ["classes"],
    ["decompose", "--p", "13", "--k", "3"], ["oracle", "--p", "11", "--verify"],
    ["check", "--p", "11,13", "--k", "1..2"], ["check", "--with", "--p", "11", "--k", "1"],
    ["oracle", "--p", "11", "--qmax", "5"], ["decompose", "--p", "11", "-x"],
    ["units", "--p", "11", "--k"], ["decompose", "--p", "11", "--seed", "2", "--seed", "3"],
    ["units", "--p", "-11"], ["check", "--help"], ["units", "--h"], ["-x"],
    ["units", "--p", "11", "a", "b", "--zz=1"], ["units", "--p", "11", "-h", "--bogus"],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_main_parses_like_the_top_level_parser(argv):
    # a namespace equal to a fresh parser's, or the same exit with the same bytes
    assert _parse_outcome(_main_parse, argv) == _parse_outcome(_fresh_parse, argv)


COMMAND_NAMES = list(cli._COMMANDS)
ARGV_TOKENS = COMMAND_NAMES + [
    "unit", "help", "-h", "--help", "--h", "--p", "--k", "--seed", "--se", "--format", "--form",
    "--f", "--group", "--gr", "--qmax", "--q", "--verify", "--ver", "--with-oracle", "--with",
    "--w", "--p=11", "--k=2", "--format=json", "--fo=text", "--seed=x", "11", "13", "2", "0", "-1",
    "1..2", "11,13", "json", "text", "xml", "builtin:s5", "x", "--", "-", "--bogus", "-x", "-p",
]


@seed(0)
@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=6),
    st.builds(lambda name, rest: [name, *rest], st.sampled_from(COMMAND_NAMES),
              st.lists(st.sampled_from(ARGV_TOKENS), max_size=7)),
))
def test_main_parses_like_the_top_level_parser_on_drawn_argv(argv):
    assert _parse_outcome(_main_parse, argv) == _parse_outcome(_fresh_parse, argv)


def test_a_command_call_parses_once(capsys, monkeypatch):
    parses, builds = [], []
    parse_known_args, build_parser = argparse.ArgumentParser.parse_known_args, cli.build_parser

    def counted_parse(self, *args, **kwargs):
        parses.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    def counted_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted_parse)
    monkeypatch.setattr(cli, "build_parser", counted_build)
    for argv in SUBCOMMAND_CALLS:
        parses.clear()
        builds.clear()
        assert cli.main(argv) == 0
        assert parses == [f"wedderburn {argv[0]}"]
        assert builds == [1]
    capsys.readouterr()

