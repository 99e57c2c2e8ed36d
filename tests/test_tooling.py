"""The benchmark's wrapped names still exist in the library, and still see
the work they time.

``bench/layers.py`` wraps library functions at the module attributes the
library calls them through, and the benchmark raises LookupError on a name
that no longer resolves. These tests import the bench files as they stand:
one resolves every name ``layers`` lists, so a rename in ``src/`` fails here
first; one checks that its solve timer still gets samples from training and
from a learned solve, which a refactor could route around the wrapped names
without any error; one checks that its data hooks still find the records
they count (solver steps, buffer pairs, exact-search nodes, cache misses);
one builds every ``RunConfig`` the bench files construct; one checks
that the package, a three-round forward and a default-geometry mini-batch
gradient do not load ``scipy.sparse``, whose import alone adds about 2 MB to
the benchmark's peak memory; and one checks that the installed numpy and
scipy meet the floors ``pyproject.toml`` declares.
"""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cmpdp import evaluate, selftrain
from cmpdp.config import RunConfig
from cmpdp.generators import GenSpec, generate

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def tiny_cfg() -> RunConfig:
    return RunConfig(total_epochs=2, batch_size=8, num_rollouts=1, graphs_per_refresh=3,
                     pairs_per_graph=2, epochs_per_refresh=1, rounds=1, width=4,
                     head_layers=2, consistency_pairs=4, local_search_moves=50)


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
    cfg = tiny_cfg()
    with spans.Patches() as patches:
        timer = layers.SolveTimer(patches)
        params, _ = selftrain.train(graphs, cfg)
        assert timer.take()
        evaluate.run_method(graphs[0], "cmp", "mis", cfg, seed=0, params=params)
        assert timer.take()


def test_bench_data_hooks_see_positive_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    graphs = [generate(GenSpec("er", n=10, p=0.3, seed=s)) for s in range(3)]
    cfg = tiny_cfg()
    rec = spans.Recorder()
    with spans.Patches() as patches:
        layers.install(rec, patches)
        params, _ = selftrain.train(graphs, cfg)
        for problem in ("mis", "mvc"):
            evaluate.eval_dataset(graphs, evaluate.METHODS, problem, cfg, seed=0, params=params)
    for key in ("dpsolve.steps", "selftrain.pairs", "selftrain.capacity",
                "classic.exact.expanded", "dpsolve.score_cache.misses"):
        assert rec.counts[key] > 0, key


def bench_run_configs() -> list[tuple[str, dict]]:
    """(file:line, keyword values) of every ``RunConfig(...)`` call in the
    bench files. A value that is not a literal stands as the field's default."""
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    calls = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RunConfig":
                kwargs = {}
                for kw in node.keywords:
                    try:
                        kwargs[kw.arg] = ast.literal_eval(kw.value)
                    except ValueError:
                        kwargs[kw.arg] = defaults.get(kw.arg)
                calls.append((f"{path.name}:{node.lineno}", kwargs))
    return calls


def test_every_bench_run_config_builds():
    calls = bench_run_configs()
    assert any(kwargs for _, kwargs in calls)
    for where, kwargs in calls:
        try:
            RunConfig(**kwargs).validate()
        except (TypeError, ValueError) as exc:
            raise AssertionError(f"{where}: {exc}") from None


def test_package_and_a_three_round_forward_leave_scipy_sparse_unloaded():
    # a fresh process: this test session may have loaded it already
    script = ("import sys, cmpdp\n"
              "from cmpdp.graph import build_graph\n"
              "from cmpdp.net import init_params, pair_loss_and_grad, score_graph\n"
              "g = build_graph(6, [(0, 1), (1, 2), (2, 3), (0, 4)])\n"
              "h = build_graph(4, [(0, 1), (2, 3)])\n"
              "score_graph(init_params(3, 8, 4, seed=0), g)\n"
              "pair_loss_and_grad(init_params(3, 32, 4, seed=0), [(g, h, 1), (h, g, 0), (g, g, 1)])\n"
              "print('scipy.sparse' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


def release(version: str) -> tuple[int, ...]:
    """The leading numeric release of a version string: "2.4.6" -> (2, 4, 6)."""
    return tuple(int(part) for part in re.match(r"\d+(\.\d+)*", version).group().split("."))


def test_installed_numpy_and_scipy_meet_the_declared_floors():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    dependencies = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    floors = dict(re.fullmatch(r"(\w+)>=([\d.]+)", dep).groups() for dep in dependencies)
    assert set(floors) == {"numpy", "scipy"}
    for name, floor in floors.items():
        assert release(importlib.import_module(name).__version__) >= release(floor), name
    # the scorer's backward pass uses ndarray.mT, which numpy 2.0 added
    assert release(floors["numpy"]) >= (2, 0)
