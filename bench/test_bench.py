"""Self-check of the benchmark on tiny inputs (seconds, not minutes):

    python3 -m pytest -q bench

A rename in cmpdp must fail here rather than silently zero a layer.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import layers
import run
from spans import Patches, Recorder
from workloads import WORKLOADS, er_graphs

from cmpdp import evaluate
from cmpdp.classic import exact_mis
from cmpdp.config import RunConfig
from cmpdp.net import init_params

HERE = Path(__file__).resolve().parent


def tiny_inputs():
    graphs = er_graphs(6, 0.3, seed=5)
    cfg = RunConfig(total_epochs=2, epochs_per_refresh=1, graphs_per_refresh=3, pairs_per_graph=2,
                    batch_size=4, mixed=True, num_rollouts=1, rounds=1, width=4, head_layers=2,
                    consistency_pairs=4, seed=3, local_search_seconds=5.0, local_search_moves=50)
    params = init_params(1, 4, 2, seed=4)
    g, pool = er_graphs(1, 0.2, seed=9)[0], WORKLOADS["solve-large"].pool
    return {
        "train-er": {"train": graphs[:4], "held": graphs[4:], "cfg": cfg, "eval_seed": 1},
        "solve-large": {"params": params, "cfg": cfg, "seed": 2, "graphs": [g] * pool,
                        "optima": [exact_mis(g, cfg.exact_budget)] * pool},
        "eval-mixed": {"params": params, "held": graphs[4:], "cfg": cfg, "eval_seed": 1},
    }


def traced_tiny_run():
    """Every workload's unit once on tiny inputs, traced, with a plain call
    counter under each wrapped name."""
    rec = Recorder()
    by_name: Counter[str] = Counter()

    def counting(name):
        def make(fn):
            def counted(*args, **kwargs):
                by_name[name] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    outcomes = []
    with Patches() as patches:
        for name, _ in layers.CALL_NAMES:
            patches.replace(name, counting(name))
        for name in layers.COMPARATOR_FACTORIES:
            patches.replace(name, counting(name))
        layers.install(rec, patches)
        t0 = time.perf_counter()
        with rec.span("bench.unit"):
            for name, inputs in tiny_inputs().items():
                outcomes.append(WORKLOADS[name].unit(inputs, 0))
        wall = time.perf_counter() - t0
    return rec, by_name, outcomes, wall


@pytest.fixture(scope="module")
def tiny():
    return traced_tiny_run()


def test_every_wrapped_name_is_called(tiny):
    _, by_name, _, _ = tiny
    names = [name for name, _ in layers.CALL_NAMES] + list(layers.COMPARATOR_FACTORIES)
    assert [name for name in names if by_name[name] == 0] == []


def test_every_layer_has_spans(tiny):
    rec, _, _, _ = tiny
    spans = rec.per_layer()
    assert [layer for layer in layers.LAYERS if spans.get(layer, {}).get("calls", 0) == 0] == []


def test_outputs_pass_their_checks(tiny):
    _, _, outcomes, _ = tiny
    assert all(o.attempted > 0 for o in outcomes)
    assert [f for o in outcomes for f in o.failures] == []


def test_layers_account_for_the_traced_time(tiny):
    """The library's layers, not the benchmark's root span, hold the traced
    wall time: the root keeps only what no wrapped name covers (the
    benchmark's own checks and glue), at most a tenth of it."""
    rec, _, _, wall = tiny
    spans = rec.per_layer()
    assert all(row["self_s"] >= -1e-9 for row in spans.values())
    assert spans["bench.unit"]["self_s"] <= 0.1 * wall


def test_counts_repeat_exactly(tiny):
    rec, by_name, _, _ = tiny
    again, by_name_again, _, _ = traced_tiny_run()
    calls = {layer: row["calls"] for layer, row in rec.per_layer().items()}
    calls_again = {layer: row["calls"] for layer, row in again.per_layer().items()}
    assert calls == calls_again
    assert rec.counts == again.counts
    assert by_name == by_name_again


def test_layer_metrics_cover_per_layer(tiny):
    rec, _, _, _ = tiny
    metrics = layers.layer_metrics(rec, {("mis", "cmp"): 1.0}, {("mvc", "cmp"): 1.1}, 0.01)
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert all(math.isfinite(v) for v in metrics.values())


def test_spans_nest_and_self_time_excludes_children():
    rec = Recorder()
    inner = rec.wrap(lambda: time.sleep(0.02), "inner")
    outer = rec.wrap(lambda: (time.sleep(0.01), inner()), "outer")
    outer()
    rows = rec.per_layer()
    assert list(rec.parent) == [-1, 0]
    assert rows["outer"]["calls"] == rows["inner"]["calls"] == 1
    assert rows["outer"]["self_s"] == pytest.approx(rows["outer"]["s"] - rows["inner"]["s"])
    assert 0.005 < rows["outer"]["self_s"] < rows["inner"]["self_s"]


def test_missing_name_fails_loudly():
    with Patches() as patches, pytest.raises(LookupError):
        patches.replace("cmpdp.dpsolve.no_such_function", lambda fn: fn)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-er", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_solve_timer_times_learned_recursions_only():
    inputs = tiny_inputs()
    for name in WORKLOADS:
        with Patches() as patches:
            timer = layers.SolveTimer(patches)
            WORKLOADS[name].unit(inputs[name], 0)
            samples = timer.take()
        assert samples and all(s > 0 for s in samples), name
    cfg = inputs["eval-mixed"]["cfg"]
    with Patches() as patches:
        timer = layers.SolveTimer(patches)
        evaluate.run_method(inputs["eval-mixed"]["held"][0], "random-cmp", "mis", cfg, 1)
        assert timer.take() == []


def test_seed_fixes_inputs():
    a = WORKLOADS["solve-large"].setup(3)["graphs"]
    b = WORKLOADS["solve-large"].setup(3)["graphs"]
    c = WORKLOADS["solve-large"].setup(4)["graphs"]
    assert a == b and a != c
    assert [g.n for g in a] == [g.n for g in c]
    assert all(g.m == 3 * g.n // 2 for g in a)
