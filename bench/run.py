"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {sl32_grid,sl32_oracle,zoo} --seed N --seconds S --trace 0|1

A run is a fixed number of whole rounds of the workload's op list; the
round count follows from ``--seconds`` and the workload's nominal round time
alone, so no clock decides which ops run.  Each round is cut into the
workload's fixed number of chunks, and each chunk runs in a fresh worker
process that imports the package from ``src/`` of this checkout, sets up
(import, group construction, one warm-up op) and then runs its ops one at a
time, checking every output.  Workers run one after another: there is one
caller at a time and no extra thread.  Spreading a run over several
processes averages out how fast a single process happens to be (see
README.md).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``tracing.PER_LAYER`` with ``--trace 1``.  The line
before it holds the raw (unscaled) figures and any failures.  Both are also
written under ``bench/out/``.

Times are scaled to a fixed reference speed.  In each worker a timer signal
runs a tiny reference loop every REF_PERIOD_S, in the worker's only thread;
its time is taken out of the op that it interrupted.  Each op's time is
multiplied by REF_NOMINAL_S / (trimmed mean of the reference samples taken
during the op, or within REF_WINDOW_S around a shorter op).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

REF_NOMINAL_S = 50e-6  # reference time that scaled figures are quoted at (a fast processor)
REF_PERIOD_S = 0.005  # one reference sample per this much wall time
REF_WINDOW_S = 0.05  # an op shorter than this is scaled by the samples in a window this wide
MIN_TAIL_OPS = 40
WORKER_TIMEOUT_S = 170


def _reference_work() -> int:
    """A fixed sliver of interpreter work: small-int arithmetic, tuple keys,
    dict lookups."""
    table: dict = {}
    acc = 0
    for i in range(150):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i * i % 11
        acc += len(table) ^ (acc >> 3)
    return acc


class SpeedSampler:
    """Times ``_reference_work`` from a SIGALRM handler every REF_PERIOD_S.

    The handler runs in the main thread between bytecodes, so it needs no
    extra thread; ``spent`` adds up the time it took, so that callers can
    take it out of what they measure."""

    def __init__(self):
        self.stamps: list[float] = []
        self.values: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _reference_work()
        t1 = time.perf_counter()
        self.stamps.append(t0)
        self.values.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def level(self, t0: float, t1: float) -> float:
        """Mean reference time over [t0, t1], widened to REF_WINDOW_S when
        shorter, and to the whole run when that window holds no sample.  A
        tenth of the samples (at least one, from three on) is dropped at each
        end, so that a sample stretched by a preemption does not count."""
        pad = max(0.0, (REF_WINDOW_S - (t1 - t0)) / 2)
        lo = bisect.bisect_left(self.stamps, t0 - pad)
        hi = bisect.bisect_right(self.stamps, t1 + pad)
        window = sorted(self.values[lo:hi] or self.values)
        trim = max(1, len(window) // 10) if len(window) >= 3 else 0
        return statistics.fmean(window[trim:len(window) - trim])


def _spin(until: float):
    """Stay busy until ``until``, so that the samples taken meanwhile see
    the processor as the ops do, not waking from idle."""
    while time.perf_counter() < until:
        pass


def scale(raw: float, level: float) -> float:
    """A time measured while the reference took ``level`` seconds, quoted at
    the speed where it takes REF_NOMINAL_S."""
    return raw * REF_NOMINAL_S / level


def tail_percentile(ops_per_round: int) -> int | None:
    """Highest whole percentile with at least ten of a round's ops beyond it;
    None below MIN_TAIL_OPS ops, where there is no tail to speak of."""
    if ops_per_round < MIN_TAIL_OPS:
        return None
    return 100 - math.ceil(1000 / ops_per_round)


def nearest_rank(sorted_values: list[float], percentile: int) -> float:
    rank = math.ceil(percentile / 100 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def e2e_metrics(times: list[float], ops_per_round: int) -> dict:
    """Throughput over every op; median and tail over the ops of one round,
    each op taken as the lower median of its times over the rounds, so that
    a burst of slowness that hits one repetition does not move them."""
    per_op = sorted(statistics.median_low(times[i::ops_per_round]) for i in range(ops_per_round))
    p50 = statistics.median(per_op)
    pct = tail_percentile(ops_per_round)
    tail = nearest_rank(per_op, pct) if pct is not None else p50
    return {
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_p50_ms": {"value": p50 * 1000, "unit": "ms"},
        "op_tail_ms": {"value": tail * 1000, "unit": "ms"},
    }


def peak_rss(parts: list[dict], chunks: int) -> float:
    """The largest, over the slices of a round, of the lower median over the
    rounds of the peak resident set of the worker that ran the slice.  The
    same slice peaks a few MB apart from one process to the next, as the
    allocator happens to reuse or map fresh memory."""
    peaks = [part["rss_mb"] for part in parts]
    return max(statistics.median_low(peaks[c::chunks]) for c in range(chunks))


def rounds_for(workload, seconds: float) -> int:
    """Whole rounds of the op list that fill about ``seconds``.  The count
    depends only on ``seconds`` and the workload's nominal round time
    (worker start-up included), never on a clock."""
    return max(1, round(seconds / workload.round_s))


def chunk(ops: list, index: int, count: int) -> list:
    """The index-th of ``count`` contiguous, nearly equal slices of ``ops``."""
    return ops[index * len(ops) // count:(index + 1) * len(ops) // count]


# -- one worker: set up, run a chunk of a round ------------------------------


def measure_setup(workload) -> tuple[float, float]:
    """(raw set-up seconds, mean reference seconds during it)."""
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        spent = sampler.spent
        _spin(t1 + REF_WINDOW_S)  # samples after set-up
    return t1 - t0 - spent, sampler.level(t0, t1)


def run_ops(workload, ops: list, tracer=None) -> dict:
    """Each op once, timed without the reference samples that interrupted
    it; returns raw times, the reference level around each op, failures and
    wrong outputs."""
    spans, failures, problems = [], [], []
    with SpeedSampler() as sampler:
        for op in ops:
            if tracer is not None:
                tracer.op = len(spans)
            spent = sampler.spent
            t0 = time.perf_counter()
            try:
                result = workload.run_op(op)
            except Exception:  # an op that raises is counted as failed, and the run goes on
                result, error = None, traceback.format_exc(limit=3)
            else:
                error = None
            t1 = time.perf_counter()
            spans.append((t0, t1, sampler.spent - spent))
            if error is not None or workload.failed(result):
                failures.append(f"{op}: {error or _failure_text(result)}")
            else:
                found = workload.check(op, result)
                if found:
                    problems.append(f"{op}: {'; '.join(found)}")
        _spin(time.perf_counter() + REF_WINDOW_S)  # samples after the last op
    return {"raw": [t1 - t0 - spent for t0, t1, spent in spans],
            "levels": [sampler.level(t0, t1) for t0, t1, _ in spans],
            "refs": sampler.values, "failures": failures, "problems": problems}


def _failure_text(result) -> str:
    """The stderr text of the first CLI call that failed, for the report."""
    for part in result if isinstance(result[0], tuple) else (result,):
        if part is not None and part[0] not in (0, 4):
            return f"exit {part[0]}: {part[2].strip()[:120]}"
    return "failed"


def worker(workload_name: str, seed: int, round_index: int, chunk_index: int, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    setup = measure_setup(workload)
    import wedderburn

    if Path(wedderburn.__file__).resolve().parent != SRC / "wedderburn":
        raise RuntimeError(f"imported {wedderburn.__file__}, not the checkout's package")
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(keep_spans=round_index == 0)
        tracer.install()
    try:
        out = run_ops(workload, chunk(workload.ops, chunk_index, workload.chunks), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["setup"] = setup
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        factor = sum(map(scale, out["raw"], out["levels"])) / sum(out["raw"])
        out["trace"] = tracer.table(factor)
        out["spans"] = tracer.spans
    return out


def spawn_worker(args, round_index: int, chunk_index: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--trace", str(args.trace),
         "--worker", f"{round_index}:{chunk_index}"],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {round_index}:{chunk_index} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the run: spawn the workers, gather their figures -------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", metavar="ROUND:CHUNK",
                        help="run one chunk of one round in this process (used by the run itself)")
    args = parser.parse_args(argv)

    # one caller, no extra threads: numpy's BLAS pool is capped before numpy
    # loads, here and in the workers, which inherit the environment
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (SRC / "wedderburn" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'wedderburn'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.worker:
        round_index, chunk_index = map(int, args.worker.split(":"))
        print(json.dumps(worker(args.workload, args.seed, round_index, chunk_index, bool(args.trace))))
        return 0

    workload = WORKLOADS[args.workload](args.seed)
    start = time.perf_counter()
    parts = [spawn_worker(args, r, c)
             for r in range(rounds_for(workload, args.seconds)) for c in range(workload.chunks)]
    wall_s = time.perf_counter() - start

    def gather(key):
        return [x for part in parts for x in part[key]]

    raw, levels, failures, problems = gather("raw"), gather("levels"), gather("failures"), gather("problems")
    times = list(map(scale, raw, levels))
    ops_per_round = len(workload.ops)
    attempted = len(times)
    e2e = e2e_metrics(times, ops_per_round)
    setups = [part["setup"] for part in parts]
    if args.trace:
        from tracing import merge_tables, per_layer

        layers = merge_tables(part["trace"] for part in parts)
        metrics = per_layer(layers, attempted)
    else:
        metrics = dict(e2e)
        metrics["peak_rss_mb"] = {"value": peak_rss(parts, workload.chunks), "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(scale(*s) for s in setups), "unit": "s"}
    for line in problems:
        print(f"WRONG {line}", file=sys.stderr)
    refs = gather("refs")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": attempted // ops_per_round, "ops_per_round": ops_per_round,
        "workers": len(parts), "wall_s": wall_s,
        "tail_percentile": tail_percentile(ops_per_round),
        "ref_us": {"median": statistics.median(refs) * 1e6, "min": min(refs) * 1e6,
                   "max": max(refs) * 1e6, "samples": len(refs)},
        "scale": sum(times) / sum(raw),
        "raw": {**e2e_metrics(raw, ops_per_round), "setup_s": [s for s, _ in setups]},
        "scaled_e2e": e2e,
        "peak_rss_mb": [part["rss_mb"] for part in parts],
        "failures": failures,
        "problems": problems,
    }
    result = {"correct": not problems, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"detail": detail, "result": result, "ops": [repr(op) for op in workload.ops],
         "op_raw_s": raw, "op_level_s": levels, "setup_levels_s": [lv for _, lv in setups]}))
    if args.trace:
        names = ("id", "parent", "op", "name", "start", "end")
        spans = [dict(zip(names, s), worker=i) for i, part in enumerate(parts) for s in part["spans"]]
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"ops": attempted, "layers": layers, "spans": spans}))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
