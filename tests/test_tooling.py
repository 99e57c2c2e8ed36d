"""The benchmark's wrapped names still exist in the library, and still see
the work they time.

``bench/layers.py`` wraps library functions at the module attributes the
library calls them through, and the benchmark raises LookupError on a name
that no longer resolves. These tests import the bench files as they stand:
one resolves every name ``layers`` lists, so a rename in ``src/`` fails here
first; the other checks that its solve timer still gets samples from
training and from a learned solve, which a refactor could route around the
wrapped names without any error.
"""

import importlib
from pathlib import Path

from cmpdp import evaluate, selftrain
from cmpdp.config import RunConfig
from cmpdp.generators import GenSpec, generate

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_bench_wrapped_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    names = [name for name, _ in layers.CALL_NAMES] + list(layers.COMPARATOR_FACTORIES)
    missing = []
    for target in names:
        module_name, _, attr = target.rpartition(".")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(target)
    assert names
    assert missing == []


def test_bench_solve_timer_sees_training_and_learned_solves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    graphs = [generate(GenSpec("er", n=10, p=0.3, seed=s)) for s in range(3)]
    cfg = RunConfig(total_epochs=2, batch_size=8, num_rollouts=1, graphs_per_refresh=3,
                    pairs_per_graph=2, epochs_per_refresh=1, rounds=1, width=4,
                    head_layers=2, consistency_pairs=4)
    with spans.Patches() as patches:
        timer = layers.SolveTimer(patches)
        params, _ = selftrain.train(graphs, cfg)
        assert timer.take()
        evaluate.run_method(graphs[0], "cmp", "mis", cfg, seed=0, params=params)
        assert timer.take()
