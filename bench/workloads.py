"""The three benchmark workloads: their inputs, one op each, and its check.

A workload is built from the seed alone and holds a fixed list of ops; a
run repeats that list in whole rounds, each cut into ``chunks`` slices that
run in fresh processes.  ``round_s`` is the nominal time of one round,
worker start-up included.  ``setup`` imports the package, builds what the
ops share and runs one warm-up op; ``run_op`` is the part that is timed;
``check`` compares an op's output with ``checks``.  The package is imported
inside ``setup`` so that import time counts as set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import checks

GROUP_DIR = Path(__file__).resolve().parent / "groups"

GRID_PRIMES = (5,) + tuple(p for p in range(11, 200) if checks.is_prime(p))
GRID_KS = tuple(range(1, 13))

# (p, k): type 1 for 11, 23, 29, 11^2; type 2 for 13, 17, 13^3.  The three
# type-1 prime fields cost about the same and sit in the middle of the cost
# order, so the median op is the median of three like ops.
ORACLE_FIELDS = ((11, 1), (13, 1), (17, 1), (23, 1), (29, 1), (11, 2), (13, 3))

# group file, |G|, kind (what checks.expected_blocks can predict), a prime
# below |G| and a prime above |G|, neither dividing |G|
ZOO = (
    ("c15", 15, ("cyclic", 15), 11, 17),
    ("q8", 8, ("other",), 5, 11),
    ("d10", 20, ("other",), 7, 31),
    ("a4", 12, ("other",), 5, 13),
    ("s4", 24, ("symmetric", 4), 7, 29),
    ("c7c3", 21, ("other",), 11, 43),
    ("a5", 60, ("other",), 7, 61),
    ("s5", 120, ("symmetric", 5), 13, 127),
    ("psl27", 168, ("sl32",), 13, 179),
    ("a6", 360, ("other",), 11, 367),
    ("s6", 720, ("symmetric", 6), 11, 727),
)


def _cli(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class Sl32Grid:
    """Every cell of the SL(3,2) reference grid through `units --format json`."""

    name = "sl32_grid"
    round_s = 2.0
    chunks = 1

    def __init__(self, seed: int):
        self.ops = [(p, k) for p in GRID_PRIMES for k in GRID_KS]
        random.Random(f"sl32_grid:{seed}").shuffle(self.ops)

    def setup(self):
        from wedderburn import cli, perm

        self.cli = cli
        perm.builtin_sl32_s8()
        perm.builtin_sl32_on_p2f2()
        self.run_op((11, 1))

    def run_op(self, op):
        p, k = op
        return _cli(self.cli.main, ["units", "--p", str(p), "--k", str(k), "--format", "json"])

    def failed(self, result) -> bool:
        return result[0] != 0

    def check(self, op, result) -> list[str]:
        return checks.check_units(json.loads(result[1]), *op)


class Sl32Oracle:
    """make_field, split_center and verify_split for one field of SL(3,2)."""

    name = "sl32_oracle"
    round_s = 11.0
    chunks = len(ORACLE_FIELDS)  # one op per worker process

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = list(ORACLE_FIELDS)
        random.Random(f"sl32_oracle:{seed}").shuffle(self.ops)

    def setup(self):
        from wedderburn import ffield, oracle, perm

        self.ffield, self.oracle = ffield, oracle
        self.group = perm.builtin_sl32_s8()
        oracle.split_center(self.group, ffield.make_field(11), seed=self.seed)

    def run_op(self, op):
        p, k = op
        spec = self.ffield.make_field(p, k, seed=self.seed)
        split = self.oracle.split_center(self.group, spec, seed=self.seed)
        return split.pairs(), split.block_dims, self.oracle.verify_split(split)

    def failed(self, result) -> bool:
        return False

    def check(self, op, result) -> list[str]:
        p, k = op
        return checks.check_sl32_split(*result, q=p**k)


class Zoo:
    """`decompose` then `oracle` on one group file and one prime."""

    name = "zoo"
    round_s = 10.0
    chunks = len(ZOO)  # one group, with its two primes, per worker process

    def __init__(self, seed: int):
        self.seed = seed
        groups = list(ZOO)
        random.Random(f"zoo:{seed}").shuffle(groups)
        self.ops = [(name, order, kind, p) for name, order, kind, below, above in groups
                    for p in (below, above)]

    def setup(self):
        from wedderburn import cli

        self.cli = cli
        self.run_op(("q8", 8, ("other",), 5))

    def run_op(self, op):
        name, _, _, p = op
        args = ["--group", f"file:{GROUP_DIR / (name + '.txt')}", "--p", str(p),
                "--seed", str(self.seed), "--format", "json"]
        dec = _cli(self.cli.main, ["decompose", *args])
        if dec[0] not in (0, 4):
            return dec, None
        return dec, _cli(self.cli.main, ["oracle", *args])

    def failed(self, result) -> bool:
        return result[1] is None or result[1][0] != 0

    def check(self, op, result) -> list[str]:
        _, order, kind, p = op
        dec, orc = result
        return checks.check_zoo(dec[0], json.loads(dec[1]), json.loads(orc[1]), order, kind, p)


WORKLOADS = {w.name: w for w in (Sl32Grid, Sl32Oracle, Zoo)}
