"""End-to-end rows: one command-line call each, its exit code, and what its
stdout shows.  A call with --verify must also print what it prints without.
A row with an address-space limit runs `python -m wedderburn` in a
subprocess under RLIMIT_AS, with one BLAS thread (each further one reserves
about 40 MB of address space), and the interpreter flags of this run; the
others run cli.main in process.  Every call ends within 60 s."""

import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from wedderburn import FiniteGroup, cli, parse_cycles

from test_cli import _gl_order

ROOT = Path(__file__).resolve().parents[1]
# groups with no file in bench/groups, written to the test's directory
INLINE = {"s7.txt": "degree 7\n(1,2,3,4,5,6,7)\n(1,2)\n",
          "m11.txt": "degree 11\n(1,2,3,4,5,6,7,8,9,10,11)\n(3,7,11,8)(4,10,5,6)\n",
          "a8.txt": "degree 8\n(1,2,3)\n(2,3,4,5,6,7,8)\n",
          "m12.txt": "degree 12\n(1,2,3,4,5,6,7,8,9,10,11)\n(3,7,11,8)(4,10,5,6)\n(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)\n"}
GB = 10**9

TYPE1 = [(1, 1), (3, 1), (3, 1), (6, 1), (7, 1), (8, 1)]
TYPE2 = [(1, 1), (6, 1), (7, 1), (8, 1), (3, 2)]
C15_SPLIT = [(1, 1)] * 15
S7 = [(n, 1) for n in (1, 1, 6, 6, 14, 14, 14, 14, 15, 15, 20, 21, 21, 35, 35)]
M11 = [(n, 1) for n in (1, 10, 11, 44, 45, 55)] + [(10, 2), (16, 2)]  # two Galois-conjugate pairs fuse over F_7933
A8 = [(n, 1) for n in (1, 7, 14, 20, 21, 21, 21, 28, 35, 45, 45, 56, 64, 70)]
M12 = [(n, 1) for n in (1, 11, 11, 16, 16, 45, 54, 55, 55, 55, 66, 99, 120, 144, 176)]


def blocks(out):
    """The printed blocks as (n, d) pairs, from JSON or from the text line."""
    if out.startswith("{"):
        return [(c["n"], c["d"]) for c in json.loads(out)["components"]]
    line = next(s for s in out.splitlines() if s.startswith("components: "))
    return [(int(n), int(d or 1)) for n, d in re.findall(r"M\((\d+), q(?:\^(\d+))?\)", line)]


VIEWS = {
    "out": lambda out: out,
    "line1": lambda out: out.split("\n", 1)[0],
    "sha256": lambda out: hashlib.sha256(out.encode()).hexdigest(),
    "blocks": blocks,
    "type": lambda out: json.loads(out)["type"],
    "order": lambda out: json.loads(out)["order"],
    "digits": lambda out: (order := json.loads(out)["order"]).isdigit() and len(order),
}


def row(argv, code=0, limit=None, marks=(), **expect):
    return pytest.param(argv, code, limit, expect, id=argv, marks=marks)


ROWS = [
    # the paper's grid through both SL(3,2) actions, then cross-checked by the oracle and verify_split
    row("check --p 5,11..199 --k 1..12", out="checked 516 cells: 516 ok, 0 mismatches, 0 skipped\n"),
    row("check --group builtin:sl32-p2f2 --p 5,11..199 --k 1..12",
        out="checked 516 cells: 516 ok, 0 mismatches, 0 skipped\n"),
    row("check --p 11,13,17,19,23 --k 1..8 --with-oracle --qmax 1000000000000",
        out="checked 40 cells (40 with brute-force cross-check): 40 ok, 0 mismatches, 0 skipped\n"),
    # over F_169 and F_{5^8} the d = 2 block of F_p[G] splits on the centre over F_q, as an F_p-algebra
    row("oracle --p 13 --k 2 --verify --format json", blocks=TYPE1),
    row("oracle --p 5 --k 8 --verify --format json", blocks=TYPE1),
    # two degree-26 factors read off a two-vector basis of a 52 x 52 Berlekamp matrix's fixed space
    row("oracle --p 5 --k 26 --qmax 10000000000000000000 --verify --format json", blocks=TYPE1),
    # p = 2^31 + 11: the split and its check on Python-int arrays, over F_p and F_{p^2}
    row("oracle --p 2147483659 --qmax 100000000000 --verify --format json", blocks=TYPE2),
    row("oracle --p 2147483659 --k 2 --qmax 10000000000000000000 --verify --format json", blocks=TYPE1),
    row("units --p 13 --k 1 --format json", type=2, blocks=TYPE2,
        order=str(math.prod(_gl_order(n, 13**d) for n, d in TYPE2))),
    # an exact Decimal product, printed in time linear in its digits
    row("units --p 199 --k 3000 --format json", digits=1158622),
    row("units --group file:s6.txt --p 11 --format json", code=4,
        sha256="3146a92ec6f857668b46cfb74ecbed5c02922e7b3b144dee6a47d6258e2455f1"),
    row("decompose --group file:s6.txt --p 727", code=4, line1="analytic solver found 3037 candidate decompositions:"),
    # analytic and oracle agree off SL(3,2): 17 has order 4 mod 15, 11 order 2, and 16411 = 1 (mod 15)
    # is above ROOT_SCAN_P_MAX, so random splits on Berlekamp's basis separate linear factors
    row("decompose --group file:c15.txt --p 17 --format json", blocks=[(1, 1), (1, 2), (1, 4), (1, 4), (1, 4)]),
    row("oracle --group file:c15.txt --p 17 --verify --format json", blocks=[(1, 1), (1, 2), (1, 4), (1, 4), (1, 4)]),
    row("decompose --group file:c15.txt --p 11 --k 2 --format json", blocks=C15_SPLIT),
    row("oracle --group file:c15.txt --p 11 --k 2 --verify --format json", blocks=C15_SPLIT),
    row("decompose --group file:c15.txt --p 16411 --format json", blocks=C15_SPLIT),
    row("oracle --group file:c15.txt --p 16411 --qmax 100000 --verify --format json", blocks=C15_SPLIT),
    # the least supported p: random central elements often agree on two blocks
    row("oracle --group file:q8.txt --p 5 --verify --format json", blocks=[(1, 1)] * 4 + [(2, 1)]),
    # A5's doubly transitive action forces M(4); 7 fuses the order-5 classes, which split again over F_49
    row("decompose --group file:a5.txt --p 7 --format json", blocks=[(1, 1), (4, 1), (5, 1), (3, 2)]),
    row("decompose --group file:a5.txt --p 7 --k 2 --format json", blocks=[(1, 1), (3, 1), (3, 1), (4, 1), (5, 1)]),
    row("oracle --group file:a5.txt --p 7 --k 2 --verify --format json",
        blocks=[(1, 1), (3, 1), (3, 1), (4, 1), (5, 1)]),
    # the split builds only the table columns up to the last class representative, where a full
    # int32 table is 33.6 GiB for M12.  Verify builds no full table either: its products gather
    # through the m columns at the class representatives and its Krylov steps through a few more,
    # and its largest rank is of n * d <= 70 vectors of length |G| (S7, M11, A8; A8's full table
    # alone would be 1.6 GB)
    row("oracle --group file:m12.txt --p 95063 --format json", limit=3 * GB, marks=pytest.mark.slow, blocks=M12),
    row("oracle --group file:s7.txt --p 11 --verify", limit=GB, marks=pytest.mark.slow, blocks=S7),
    row("oracle --group file:s7.txt --p 5051 --verify", limit=GB, marks=pytest.mark.slow, blocks=S7),
    row("oracle --group file:m11.txt --p 7933 --verify", limit=GB, marks=pytest.mark.slow, blocks=M11),
    row("oracle --group file:a8.txt --p 20161 --verify", limit=GB, marks=pytest.mark.slow, blocks=A8),
]


def group_file(name, tmp_path):
    if name not in INLINE:
        return ROOT / "bench" / "groups" / name
    path = tmp_path / name
    path.write_text(INLINE[name])
    return path


def run(argv, limit, capsys):
    if limit is None:
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1")
    flags = [f"-W{w}" for w in sys.warnoptions] + (["-X", "dev"] if sys.flags.dev_mode else [])
    proc = subprocess.run([sys.executable, *flags, "-m", "wedderburn", *argv], capture_output=True, text=True, env=env,
                          timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv, code, limit, expect", ROWS)
def test_cli_row(argv, code, limit, expect, tmp_path, capsys):
    argv = [f"file:{group_file(s[5:], tmp_path)}" if s.startswith("file:") else s for s in argv.split()]
    t0 = time.perf_counter()
    got, out, err = run(argv, limit, capsys)
    assert time.perf_counter() - t0 < 60
    assert got == code, err
    for view, want in expect.items():
        assert VIEWS[view](out) == want, view
    if "--verify" in argv:
        argv.remove("--verify")
        assert run(argv, limit, capsys)[:2] == (0, out)


def test_s8_inverse_indices_are_an_involution():
    G = FiniteGroup([parse_cycles("(1,2,3,4,5,6,7,8)", 8), parse_cycles("(1,2)", 8)])
    assert G.order == 40320 and len(G.classes) == 22 and sum(c.size for c in G.classes) == G.order
    inv = G.inverse_indices
    assert (inv[inv] == np.arange(G.order)).all()
