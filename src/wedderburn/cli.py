"""Command-line front end.

Subcommands: classes, decompose, oracle, units, check.  Exit codes:
0 success, 1 a check failed: a reference-grid mismatch or an internal
consistency check, 2 input or parse error, or out of memory, 3 unsupported
modular case (p divides the group order), 4 the analytic solver could not pin
a unique decomposition.  `check` reports a modular cell as skipped and goes
on with the rest of the grid.  A reader that closes stdout early (as
`| head` does) ends the command quietly with exit 0.

A call parses its arguments once, with the command's own parser: main hands
everything after the command name to that command's subparser, and turns to
the top-level parser only to print its help or a usage error.

With --format json every command prints the bytes that
json.dumps(payload, indent=2, sort_keys=True) would print, written by hand
for each fixed payload shape: with indent the json module drops to its
pure-Python encoder, which costs many times the bytes it writes.  Every
string in the payloads is ASCII with no quote or backslash (digits, p^e and
cycle notation), so none needs escaping.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import lru_cache

from . import oracle as oracle_mod
from .errors import ModularCaseError
from .ffield import check_p_min, is_prime, make_field
from .perm import BUILTIN_GROUPS, FiniteGroup, builtin_sl32_on_p2f2, builtin_sl32_s8, load_group
from .units import sl32_expected_row, unit_group
from .wedder import (
    SolverReport,
    analytic_decomposition,
    is_sl32_class_data,
    sl32_type,
    splitting_field_check,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_MODULAR = 3
EXIT_NONUNIQUE = 4

DEFAULT_QMAX = 10**6


def _add_common(sub: argparse.ArgumentParser, with_pk: bool = True):
    sub.add_argument("--group", default="builtin:sl32-s8",
                     help="group source: builtin:{sl32-s8,sl32-p2f2,s5} or file:PATH")
    if with_pk:
        sub.add_argument("--seed", type=int, default=0,
                         help="seed for the oracle's field modulus and random draws; decompose and units draw nothing")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if with_pk:
        sub.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
        sub.add_argument("--k", type=int, default=1, help="extension degree, q = p^k")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call.
    It is read-only after it is built: parse_args and the help and usage
    printers only read it.  build_parser.__wrapped__() builds a fresh one.
    Its command_parsers attribute maps each command name to the subparser
    the parser dispatches that command to, which main calls directly."""
    parser = argparse.ArgumentParser(prog="wedderburn",
                                     description="Exact block decompositions of semisimple group "
                                                 "algebras F_q[G] and their unit groups.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classes", help="conjugacy class table of the group")
    _add_common(sub, with_pk=False)

    sub = subs.add_parser("decompose", help="analytic block decomposition of F_q[G]")
    _add_common(sub)

    sub = subs.add_parser("oracle", help="brute-force block decomposition of F_q[G]")
    _add_common(sub)
    sub.add_argument("--qmax", type=int, default=DEFAULT_QMAX,
                     help="largest field size the brute-force path will touch")
    sub.add_argument("--verify", action="store_true",
                     help="recheck the split by ranks in the center and the group algebra before printing it")

    sub = subs.add_parser("units", help="unit group of F_q[G]")
    _add_common(sub)

    sub = subs.add_parser("check", help="reproduce the SL(3,2) reference grid")
    sub.add_argument("--group", default="builtin:sl32-s8",
                     help="group source (the reference grid applies to SL(3,2))")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for --with-oracle's field modulus and random draws")
    sub.add_argument("--qmax", type=int, default=DEFAULT_QMAX,
                     help="largest field size --with-oracle will touch")
    sub.add_argument("--p", default="11..199", help="primes, e.g. '11,13' or '11..199'")
    sub.add_argument("--k", default="1..12", help="extension degrees, e.g. '1' or '1..12'")
    sub.add_argument("--with-oracle", action="store_true",
                     help="also run the brute-force decomposition, and verify_split on it, "
                          "on every cell with q <= qmax")
    parser.command_parsers = subs.choices
    return parser


def resolve_group(source: str) -> FiniteGroup:
    if source.startswith("builtin:"):
        name = source.split(":", 1)[1]
        if name not in BUILTIN_GROUPS:
            raise ValueError(f"unknown builtin group {name!r}; choose from {sorted(BUILTIN_GROUPS)}")
        return BUILTIN_GROUPS[name]()
    if source.startswith("file:"):
        return load_group(source.split(":", 1)[1])
    return load_group(source)


def _sl32_actions() -> list[FiniteGroup]:
    return [builtin_sl32_s8(), builtin_sl32_on_p2f2()]


def _json_list(items: list[str], pad: str) -> str:
    """A JSON array of item texts as json.dumps(indent=2) lays it out on a
    line indented by pad; each item is laid out for pad plus two spaces."""
    if not items:
        return "[]"
    inner = "\n  " + pad
    return f"[{inner}{(',' + inner).join(items)}\n{pad}]"


def _block_json(n: int, d: int, pad: str) -> str:
    return f'{{\n{pad}  "d": {d},\n{pad}  "n": {n}\n{pad}}}'


def _components_json(blocks) -> str:
    return _json_list([_block_json(n, d, "    ") for n, d in blocks], "  ")


def _q_json(p: int, k: int) -> str:
    return f'{{\n    "k": {k},\n    "p": {p}\n  }}'


def _parse_range_spec(text: str, primes: bool = False) -> list[int]:
    """The sorted distinct values of a spec such as '11,13' or '11..199'; a
    token that is not an int or 'a..b' of two ints, and a range whose end is
    below its start, are input errors.  With primes, 'a..b' tokens keep only
    the primes in the interval, while explicitly listed values must
    themselves be prime."""
    out = set()
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        lo, dots, hi = tok.partition("..")
        try:
            lo, hi = int(lo), int(hi if dots else lo)
        except ValueError:
            raise ValueError(f"malformed range {tok!r}") from None
        if dots:
            if hi < lo:
                raise ValueError(f"range {tok!r} ends below its start")
            out.update(v for v in range(lo, hi + 1) if not primes or is_prime(v))
        else:
            if primes:
                _validate_p(lo)
            out.add(lo)
    if not out:
        raise ValueError(f"no primes in range specification {text!r}" if primes
                         else f"empty range specification {text!r}")
    return sorted(out)


def _validate_p(p: int):
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def _check_p(p: int, G: FiniteGroup):
    """The checks on p shared by decompose, units and oracle, in this order:
    p is prime (exit 2), p does not divide |G| (exit 3), p is at least the
    field layer's minimum (exit 2)."""
    _validate_p(p)
    if G.order % p == 0:
        raise ModularCaseError(p, G.order)
    check_p_min(p)


def _exceeds_qmax(p: int, k: int, qmax: int) -> bool:
    """p**k > qmax; a k above qmax's bit length decides it without building
    p**k, since p >= 2."""
    return k > qmax.bit_length() or p**k > qmax


def cmd_classes(args) -> int:
    G = resolve_group(args.group)
    reps = [c.representative.cycle_string() for c in G.classes]
    if args.format == "json":
        rows = [f'{{\n      "order": {c.element_order},\n      "representative": "{r}",\n'
                f'      "size": {c.size}\n    }}' for c, r in zip(G.classes, reps)]
        print(f'{{\n  "classes": {_json_list(rows, "  ")},\n  "degree": {G.degree},\n'
              f'  "exponent": {G.exponent},\n  "order": {G.order}\n}}')
        return EXIT_OK
    print(f"group of order {G.order} on {G.degree} points, exponent {G.exponent}")
    for i, (c, r) in enumerate(zip(G.classes, reps), start=1):
        print(f"  C{i}: rep {r}  order {c.element_order}  size {c.size}")
    return EXIT_OK


def _solve_analytic(args):
    """(G, blocks, type) for decompose and units, the blocks being the unique
    candidate's (n, d) pairs, or None once every candidate is printed.  Only
    a builtin:sl32-* source solves with both SL(3,2) actions and has a type;
    any other, a file copy of SL(3,2) included, solves with its own action,
    and its type is None."""
    G = resolve_group(args.group)
    _check_p(args.p, G)
    sl32 = args.group.startswith("builtin:sl32")
    report = analytic_decomposition(G, args.p, args.k, _sl32_actions() if sl32 else [G])
    if not report.unique:
        _print_nonunique(report, args.format)
        return None
    return G, report.solutions[0], sl32_type(G, report.partition) if sl32 else None


def _print_nonunique(report: SolverReport, fmt: str):
    """Every candidate, as text or as the JSON of {"candidates": [[{"d": d,
    "n": n}, ...], ...], "unique": false}.  The JSON is joined from one piece
    per distinct block, and the listing (1.6 MB for S6 over F_11) is printed
    as it is joined, with no copy into a larger string."""
    if fmt == "json":
        block = _ListedBlocks()
        sep = ",\n      "  # every candidate holds the (1, 1) block
        rows = [f"[\n      {sep.join(map(block.__getitem__, dec))}\n    ]"
                for dec in report.solutions]
        listing = ("[\n    ", ",\n    ".join(rows), "\n  ]") if rows else ("[]",)
        print('{\n  "candidates": ', *listing, ',\n  "unique": false\n}', sep="")
    else:
        print(f"analytic solver found {len(report.solutions)} candidate decompositions:")
        for dec in report.solutions:
            print("  " + _format_components(dec))


class _ListedBlocks(dict):
    """(n, d) -> the block's JSON text in a candidate listing, formatted the
    first time the block is looked up."""

    def __missing__(self, c):
        text = self[c] = _block_json(*c, "      ")
        return text


def _format_components(blocks) -> str:
    return " + ".join(f"M({n}, q{'^' + str(d) if d > 1 else ''})" for n, d in blocks)


def _format_units(p: int, k: int, blocks) -> str:
    """The unit group as a product of F_{p^e}^× for the 1 x 1 blocks and
    GL(n, p^e) for the others, e = k * d, with F_p written p."""
    factors = []
    for n, d in blocks:
        field = str(p) if k * d == 1 else f"{p}^{k * d}"
        factors.append(f"F_{field}^×" if n == 1 else f"GL({n}, {field})")
    return " × ".join(factors)


def cmd_decompose(args) -> int:
    solved = _solve_analytic(args)
    if solved is None:
        return EXIT_NONUNIQUE
    G, dec, t = solved
    split = splitting_field_check(dec)
    if args.format == "json":
        print(f'{{\n  "components": {_components_json(dec)},\n  "q": {_q_json(args.p, args.k)},\n'
              f'  "splitting_field": {"true" if split else "false"},\n'
              f'  "type": {"null" if t is None else t}\n}}')
        return EXIT_OK
    print(f"F_q[G] for q = {args.p}^{args.k}, |G| = {G.order}")
    print("components: " + _format_components(dec))
    if t is not None:
        print(f"type: {t}")
    print(f"splitting field: {'yes' if split else 'no'}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    G = resolve_group(args.group)
    _check_p(args.p, G)
    if _exceeds_qmax(args.p, args.k, args.qmax):
        raise ValueError(f"q = {args.p}^{args.k} exceeds --qmax {args.qmax}")
    spec = make_field(args.p, args.k, seed=args.seed)
    t0 = time.perf_counter()
    split = oracle_mod.split_center(G, spec, seed=args.seed)
    elapsed = time.perf_counter() - t0
    if args.verify and not oracle_mod.verify_split(split):
        print("error: verify_split rejected the brute-force decomposition", file=sys.stderr)
        return EXIT_MISMATCH
    blocks = split.pairs()
    if args.format == "json":
        print(f'{{\n  "components": {_components_json(blocks)},\n  "q": {_q_json(args.p, args.k)}\n}}')
        return EXIT_OK
    print(f"brute-force decomposition over F_{args.p}^{args.k} (|G| = {G.order})")
    print("components: " + _format_components(blocks))
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)  # wall time; stdout stays deterministic
    return EXIT_OK


def cmd_units(args) -> int:
    solved = _solve_analytic(args)
    if solved is None:
        return EXIT_NONUNIQUE
    G, dec, t = solved
    order = str(unit_group(dec, args.p, args.k))  # a Decimal: printed in time linear in its digits
    if args.format == "json":
        units = [f'{{\n      "field": "{args.p}^{args.k * d}",\n      "n": {n}\n    }}' for n, d in dec]
        print(f'{{\n  "components": {_components_json(dec)},\n  "order": "{order}",\n'
              f'  "q": {_q_json(args.p, args.k)},\n  "type": {"null" if t is None else t},\n'
              f'  "unit_group": {_json_list(units, "  ")}\n}}')
        return EXIT_OK
    print(f"unit group of F_q[G], q = {args.p}^{args.k}, |G| = {G.order}")
    print(_format_units(args.p, args.k, dec))
    print(f"order: {order}")
    return EXIT_OK


def cmd_check(args) -> int:
    G = resolve_group(args.group)
    if not is_sl32_class_data(G):
        raise ValueError("check compares against the SL(3,2) reference grid; "
                         "use an SL(3,2) group source")
    ps = _parse_range_spec(args.p, primes=True)
    ks = _parse_range_spec(args.k)
    actions = _sl32_actions()
    cells = 0
    failures = []
    skipped = []
    oracle_cells = 0
    for p in ps:
        for k in ks:
            cells += 1
            label = f"p={p} k={k}"
            try:
                report = analytic_decomposition(G, p, k, actions)
            except ModularCaseError:
                skipped.append(label)
                continue
            if not report.unique:
                failures.append(f"{label}: analytic solution not unique "
                                f"({len(report.solutions)} candidates)")
                continue
            dec = report.solutions[0]
            row = sl32_expected_row(p, k)
            if dec != row.components:
                failures.append(f"{label}: got {dec}, reference says {row.components}")
                continue
            if sl32_type(G, report.partition) != row.family_type:
                failures.append(f"{label}: type mismatch")
                continue
            if splitting_field_check(dec) != (row.family_type == 1):
                failures.append(f"{label}: splitting-field verdict mismatch")
                continue
            if args.with_oracle and not _exceeds_qmax(p, k, args.qmax):
                oracle_cells += 1
                spec = make_field(p, k, seed=args.seed)
                split = oracle_mod.split_center(G, spec, seed=args.seed)
                if split.pairs() != dec:
                    failures.append(f"{label}: brute-force blocks {split.pairs()} "
                                    f"differ from analytic {dec}")
                elif not oracle_mod.verify_split(split):
                    failures.append(f"{label}: brute-force split fails verify_split")
    for line in failures:
        print("MISMATCH " + line)
    for label in skipped:
        print(f"SKIP {label}: p divides |G| = {G.order} (modular case)")
    checked = cells - len(skipped)
    suffix = f" ({oracle_cells} with brute-force cross-check)" if args.with_oracle else ""
    print(f"checked {checked} cells{suffix}: {checked - len(failures)} ok, "
          f"{len(failures)} mismatches, {len(skipped)} skipped")
    return EXIT_MISMATCH if failures else EXIT_OK


_COMMANDS = {
    "classes": cmd_classes,
    "decompose": cmd_decompose,
    "oracle": cmd_oracle,
    "units": cmd_units,
    "check": cmd_check,
}


def main(argv=None) -> int:
    """Run one command and return its exit code.  main can be called any
    number of times in one process; each call reads the one cached parser,
    which is read-only after it is built, and keeps no other state.

    argv (sys.argv[1:] when None) is parsed once.  When its first token names
    a command, the rest goes straight to that command's subparser, which is
    what the top-level parser would do after classifying every token itself.
    Tokens the subparser leaves over, and any argv that does not start with a
    command (none, -h, an unknown command, an option first), go to the
    top-level parser, which prints its usage and help or error and exits."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.command_parsers.get(argv[0]) if argv else None
    if sub is None:
        args = parser.parse_args(argv)
    else:
        args, extras = sub.parse_known_args(argv[1:])
        args.command = argv[0]
        if extras:  # the top-level parser reports them, with its own usage line, and exits
            args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader that closed stdout early shows here at the latest
        return code
    except BrokenPipeError:  # fd 1 to devnull, so the final flush at exit reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ModularCaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODULAR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (AssertionError, RuntimeError, ArithmeticError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
