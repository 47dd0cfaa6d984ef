"""meanrisk benchmark: time to a proven optimum, end to end and per layer.

    python3 perfbench/run.py --workload {screen,tight,wide} --seed N --seconds S --trace {0,1}

Runs single-process through the public API (``instances.generate_instance``
then ``bnb.solve``), checks every answer (``answer.py``) and prints each
metric by name and unit; the last line of stdout is one JSON object.

``--trace 0`` solves whole passes of the workload's seeded, stratified pool
(``workloads.py``) for about ``--seconds`` and reports the end-to-end
metrics. ``--trace 1`` solves for half of ``--seconds`` untraced, then solves
the same cells again with every layer wrapped (``tracing.py``) and reports
the per-layer metrics, including the tracing overhead (traced minus untraced
solve time). Spans are written to ``perfbench/out/``.
Before either, the workload's untimed probes (``workloads.py``) are solved
for the answer check only.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import (
    SOLVE_TIME_LIMIT_S,
    WORKLOADS,
    draw_pass,
    draw_probes,
    universe_cells,
    use_checkout_source,
)

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
PASSES = 3  # pre-drawn passes; a run that gets through all of them cycles
# x --seconds: a whole pass is cut short only after this long, so that a run
# on a slower commit takes at most a quarter longer; the golden-ratio order of
# a pass keeps a cut pass spread over every stratum
HARD_STOP = 1.25
WARMUP_N = 4


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown (OPENBLAS_NUM_THREADS=" + os.environ.get("OPENBLAS_NUM_THREADS", "") + ")"


def process_threads() -> str:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return line.split()[1]
    except OSError:
        pass
    return "unknown"


class Pool:
    """The run's instances: ``PASSES`` stratified passes and the probes, drawn from the seed."""

    def __init__(self, w, seed: int):
        from meanrisk import instances
        from meanrisk.model import risk_from_dict

        rng = random.Random(f"{w.name}:{seed}")
        cells = universe_cells(w)
        self.passes = [draw_pass(w, cells, rng) for _ in range(PASSES)]
        self.probes = draw_probes(w, cells, rng)
        self.risks = [risk_from_dict(spec) for spec in w.risks]
        self.instances = {
            s: instances.generate_instance(w.n, w.integer_fraction, w.budget_multiplier, seed=s)
            for s in sorted({c.seed for cells in self.passes + [self.probes] for c in cells})
        }
        # warm-up: one small instance of the same shape, one solve per risk,
        # so lazy imports and first-call costs land in set-up, not in a solve;
        # the instance is fixed so that set-up does the same work in every run
        warm = instances.generate_instance(WARMUP_N, w.integer_fraction, w.budget_multiplier,
                                           seed=0)
        for h in self.risks:
            solve_cell(warm, h, None)


def solve_cell(inst, h, reference):
    """(seconds, report or None, failure reason or None) for one timed solve."""
    from meanrisk import bnb

    from answer import check_answer

    cfg = bnb.BnbConfig(time_limit=SOLVE_TIME_LIMIT_S)
    t0 = time.perf_counter()
    try:
        report = bnb.solve(inst, h, cfg)
    except Exception as exc:  # a crashing solve is a failed solve, not a crashed run
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return elapsed, report, check_answer(inst, h, report, reference)


def solve_record(pool: Pool, cell):
    """(cell, seconds, report, failure reason) of one solve; a failure is printed."""
    elapsed, report, reason = solve_cell(
        pool.instances[cell.seed], pool.risks[cell.risk], cell.objective_max)
    if reason is not None:
        print(f"FAILED seed {cell.seed} risk {cell.risk}: {reason}", flush=True)
    return cell, elapsed, report, reason


def measure(pool: Pool, passes, seconds: float, whole_passes: bool):
    """Solve ``passes`` (cycling) for about ``seconds``; at least one solve.

    With ``whole_passes`` every pass is finished, so each stratum is solved
    equally often and the percentiles sit on the same strata in every run;
    another pass starts only if one more of the same length ends by the
    deadline, and a pass is cut only at ``HARD_STOP`` times ``seconds``.
    Otherwise the run stops at the deadline, mid-pass.
    """
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    hard_stop = start + HARD_STOP * seconds
    for cells in itertools.cycle(passes):
        pass_start = time.perf_counter()
        for cell in cells:
            now = time.perf_counter()
            if records and (now >= hard_stop or (not whole_passes and now >= deadline)):
                return records
            records.append(solve_record(pool, cell))
        now = time.perf_counter()
        if whole_passes and 2.0 * now - pass_start > deadline:
            return records


def hd_quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``xs``.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics instead
    of the one or two the sample quantile uses. On a shared 2-vCPU machine a
    single solve's time moves by 10-50% between runs, and with ~60 solves the
    sample median then moves with the one solve that lands in the middle; the
    weighted mean averages that noise over the neighbouring solves.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(xs, dtype=float))
    n = x.size
    cdf = betainc((n + 1) * p, (n + 1) * (1.0 - p), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


def end_to_end(records, probes, setup_s: float) -> dict:
    """Metrics of the timed ``records``; ``solved_frac`` counts the untimed ``probes`` too."""
    times = [r[1] for r in records]
    solved = sum(1 for r in records if r[3] is None)
    checked = records + probes
    return {
        "solves_per_s": (solved / sum(times), "1/s"),
        "solve_s.p50": (hd_quantile(times, 0.5), "s"),
        "solve_s.p75": (hd_quantile(times, 0.75), "s"),
        "solved_frac": (sum(1 for r in checked if r[3] is None) / len(checked), "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(pool: Pool, records, w):
    """Re-solve the cells of ``records`` traced; (tracer, traced records, metrics)."""
    from meanrisk import instances

    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        # generation goes through the wrapped generate_instance once more so
        # that its cost shows as instances.generate.s
        for s in pool.instances:
            instances.generate_instance(w.n, w.integer_fraction, w.budget_multiplier, seed=s)
        traced = [solve_record(pool, cell) for cell, *_ in records]
    metrics = tracer.layer_metrics()
    untraced_s = sum(r[1] for r in records)
    nodes = sum(r[2].nodes for r in records if r[2] is not None)
    metrics.update({
        "bnb.nodes": (nodes, "count"),
        "bnb.nodes_per_s": (nodes / untraced_s, "nodes/s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_s": (metrics["trace.solve_s"][0] - untraced_s, "s"),
    })
    return tracer, traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="meanrisk end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")

    t0 = time.perf_counter()
    use_checkout_source()
    import meanrisk  # noqa: F401  (timed: part of set-up)
    import numpy
    import scipy

    import_s = time.perf_counter() - t0
    print(f"env: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"blas_threads={blas_threads()} process_threads={process_threads()}", flush=True)

    w = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = Pool(w, args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    # answer-only solves, untimed: see ``probes`` in workloads.py
    probes = [solve_record(pool, cell) for cell in pool.probes]
    if args.trace:
        records = measure(pool, pool.passes, args.seconds / 2.0, whole_passes=False)
        tracer, traced, metrics = per_layer(pool, records, w)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{w.name}-{args.seed}.jsonl")
        total = metrics["trace.solve_s"][0]
        print("share of traced solve time (self): " + ", ".join(
            f"{name[:-2]} {value / total:.1%}" for name, (value, unit) in metrics.items()
            if name.endswith(".s") and name != "instances.generate.s")
            + f", bnb.self {metrics['bnb.self_s'][0] / total:.1%}"
            + " (fw.line_search is part of fw.relax)")
        checked = records + traced + probes
    else:
        records = measure(pool, pool.passes, args.seconds, whole_passes=True)
        metrics = end_to_end(records, probes, setup_s)
        checked = records + probes

    failed = sum(1 for r in checked if r[3] is not None)
    solve_count = len(checked)
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "solve_s.p75":
            beyond = sum(1 for r in records if r[1] > value)
            note = f"  (n={len(records)} timed solves, {beyond} beyond)"
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"solves: {solve_count} attempted ({len(probes)} untimed probes), {failed} failed",
          flush=True)
    result = {
        "correct": failed == 0,
        "attempted": solve_count,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
