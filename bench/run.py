"""cmpdp benchmark: one workload, one process, one caller, closed loop.

    python3 bench/run.py --workload train-er --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
``--trace 0`` repeats the workload's unit while the next one still fits in
``--seconds`` (at least ``min_units`` times) and reports the end-to-end
metrics.
``--trace 1`` runs the workload's first units untraced, then the same units
traced, and reports the per-layer metrics. The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from spans import Patches, Recorder  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-ups repeat until they cover this many seconds (and at least
# SETUP_MIN_REPEATS times), once before the units and once after.
SETUP_SECONDS = 1.0
SETUP_MIN_REPEATS = 3

# (name, unit) of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("unit_s", "s"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_p75", "ms"),
    ("solves_per_s", "1/s"),
    ("mis_ratio_cmp", "ratio"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def set_up(workload, seed: int, times: list[float]):
    """Set the workload up until the set-ups cover SETUP_SECONDS, appending
    each duration to ``times``, and return the last inputs. The machine's
    speed drifts over seconds, so the run sets up both before and after its
    units."""
    spent, repeats = 0.0, 0
    while spent < SETUP_SECONDS or repeats < SETUP_MIN_REPEATS:
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
        repeats += 1
    return inputs


def end_to_end(setup_s: float, outcomes: list) -> dict[str, float]:
    """The END_TO_END metrics; the solve metrics are left out when a failed
    check stopped the workload before its first learned solve."""
    solves = [s for o in outcomes for s in o.solve_seconds]
    ratios = [r for o in outcomes for r in o.ratios["mis", "cmp"] if math.isfinite(r)]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(len(o.failures) for o in outcomes)
    metrics = {"setup_s": setup_s, "unit_s": statistics.median(o.seconds for o in outcomes)}
    if solves:
        metrics.update({
            "solve_ms_p50": 1e3 * statistics.median(solves),
            "solve_ms_p75": 1e3 * (statistics.quantiles(solves, n=4)[2] if len(solves) > 1
                                   else solves[0]),
            "solves_per_s": len(solves) / sum(solves),
        })
    if ratios:
        metrics["mis_ratio_cmp"] = statistics.fmean(ratios)
    metrics["ok_frac"] = 1.0 - failed / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def traced_units(workload, inputs) -> tuple[list, dict[str, float]]:
    """The workload's first ``trace_units`` units untraced, then the same
    units traced. Returns the outcomes and the per-layer metrics."""
    count = workload.trace_units
    plain = [workload.unit(inputs, k) for k in range(count)]
    rec = Recorder()
    with Patches() as patches:
        layers.install(rec, patches)
        with rec.span("bench.unit"):
            traced = [workload.unit(inputs, k) for k in range(count)]
    seconds: dict = defaultdict(float)
    ratios: dict = defaultdict(list)
    for o in traced:
        for key, value in o.method_seconds.items():
            seconds[key] += value
        for key, values in o.ratios.items():
            ratios[key] += [v for v in values if math.isfinite(v)]
    overhead = sum(o.seconds for o in traced) / sum(o.seconds for o in plain) - 1.0
    mean_ratios = {key: statistics.fmean(values) for key, values in ratios.items() if values}
    metrics = layers.layer_metrics(rec, seconds, mean_ratios, overhead)
    return plain + traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cmpdp benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cmpdp" / "__init__.py").is_file():
        print(f"error: cmpdp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cmpdp

    if Path(cmpdp.__file__).resolve().parent != SRC / "cmpdp":
        print(f"error: imported cmpdp from {cmpdp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))

    from cmpdp.net import WeightFileError

    setup_times: list[float] = []
    try:
        inputs = set_up(workload, args.seed, setup_times)
    except (OSError, WeightFileError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    outcomes = []
    try:
        if args.trace:
            outcomes, metrics = traced_units(workload, inputs)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            with Patches() as patches:
                timer = layers.SolveTimer(patches)
                started = time.perf_counter()
                while True:
                    t0 = time.perf_counter()
                    outcomes.append(workload.unit(inputs, len(outcomes)))
                    outcomes[-1].solve_seconds = timer.take()
                    last = time.perf_counter() - t0
                    if (len(outcomes) >= workload.min_units
                            and time.perf_counter() - started + last > args.seconds):
                        break
            set_up(workload, args.seed, setup_times)
            metrics = end_to_end(statistics.median(setup_times), outcomes)
            units = dict(END_TO_END)
    except Exception as exc:  # a crash in the library is a failed run, not a timing
        traceback.print_exc()
        print(f"failure: {type(exc).__name__}: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    for what in failures[:20]:
        print(f"failure: {what}")
    solves = sum(len(o.solve_seconds) for o in outcomes)
    print(f"info workload={workload.name} seed={args.seed} units={len(outcomes)} "
          f"learned_solves={solves} setups={len(setup_times)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
