"""Steadiness of one workload: run it N times and summarise every metric.

    python3 bench/steady.py --workload sl32_oracle --runs 10 [--first-seed 0] [--seconds S] [--trace 0|1]

Runs ``bench/run.py`` N times in a row with seeds
first-seed .. first-seed+N-1 and the run length from BENCHMARK.json unless
--seconds is given.  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median, the
max/min ratio and, for end-to-end metrics, the bound from BENCHMARK.json;
``ok`` means the spread is below a third of the bound.  The same table for
the raw, unscaled times shows the drift that scaling removes.  The share of
failed ops must be the same in every run.  The summary is also written to
``bench/out/steady-<workload>-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "max_min": max(values) / min(values) if min(values) > 0 else float("inf"),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results, raws, shares = [], [], set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{proc.stderr}", file=sys.stderr)
            return 1
        results.append(result)
        raws.append(detail["raw"])
        shares.add((result["failed"] * 10**6) // result["attempted"])
        print(f"seed {seed}: {result['attempted']} ops, {result['failed']} failed, "
              f"{detail['rounds']} rounds, ref {detail['ref_us']['median']:.1f} us", flush=True)

    table = {name: summarise([r["metrics"][name]["value"] for r in results])
             for name in results[0]["metrics"]}
    raw_table = {name: summarise([r[name]["value"] for r in raws])
                 for name in ("ops_per_s", "op_p50_ms", "op_tail_ms")}
    raw_table["setup_s"] = summarise([statistics.median(r["setup_s"]) for r in raws])
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, failed share per run "
          f"{'identical' if len(shares) == 1 else 'DIFFERS'}: {sorted(shares)} ppm")
    header = f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'max/min':>8}"
    for title, tab in (("scaled (reported)", table), ("raw", raw_table)):
        print(f"\n{title}\n{header} {'bound':>6}  ok")
        for name, s in tab.items():
            bound = bounds.get(name) if tab is table else None
            ok = "" if bound is None else ("yes" if s["spread"] < bound / 3 else "NO")
            print(f"{name:28} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:8.3f} {s['max_min']:8.3f} {bound if bound is not None else '':>6}  {ok}")
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}-{args.first_seed}.json").write_text(json.dumps(
        {"workload": args.workload, "runs": args.runs, "seconds": seconds, "trace": args.trace,
         "first_seed": args.first_seed, "failed_share_ppm": sorted(shares),
         "scaled": table, "raw": raw_table}, indent=1))
    return 0 if len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
