"""The benchmark's wrapped names still exist in the library, and still see
the work they time.

``bench/layers.py`` wraps library functions at the module attributes the
library calls them through, and the benchmark raises LookupError on a name
that no longer resolves. These tests import the bench files as they stand:
one resolves every name ``layers`` lists, so a rename in ``src/`` fails here
first; one checks that its solve timer still gets samples from training and
from a learned solve, which a refactor could route around the wrapped names
without any error; one checks that it times every roll-out of a training
run, one sample per ``solve_mis`` call; one checks that every row of an
all-method eval passes the benchmark's row checks, which see only sets
returned by ``run_method``,
and that its solve timer sees exactly one set of learned roll-outs per
graph; one checks that its data hooks still find the records
they count (solver steps, buffer pairs, exact-search nodes, cache misses)
and that an eval still makes spans for graph builds, MVC gadgets and local
search;
one checks that a warm learned decision runs only the folded inference
pass, which the timed solves are meant to measure;
one builds every ``RunConfig`` the bench files construct; one checks
that the package, a three-round forward and a default-geometry mini-batch
gradient do not load ``scipy.sparse``, whose import alone adds about 2 MB to
the benchmark's peak memory; and one checks that the installed numpy and
scipy meet the floors ``pyproject.toml`` declares. The last pins the
forward passes, solves, solver steps, buffer pairs, eval set sizes, exact
oracle branch nodes and greedy calls of a tiny seeded train and eval, so a change meant to keep every decision shows
here if it does not.
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

from cmpdp import classic, dpsolve, evaluate, net, selftrain
from cmpdp.config import RunConfig
from cmpdp.generators import GenSpec, generate
from cmpdp.graph import build_graph, relabel

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


def test_bench_solve_timer_times_every_training_rollout(monkeypatch):
    # a shortcut that answered a roll-out without a solve_mis call would
    # move the timed solves' median without making any solve faster
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    graphs = [generate(GenSpec("er", n=10, p=0.3, seed=s)) for s in range(3)]
    cfg = dataclasses.replace(tiny_cfg(), num_rollouts=2, mixed=True)
    estimates = []
    for module in (dpsolve, selftrain):  # harvest with mixed estimates; consistency
        def counting(*args, _real=module.rollout_estimate, **kwargs):
            estimates.append(args[0])
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, "rollout_estimate", counting)
    with spans.Patches() as patches:
        timer = layers.SolveTimer(patches)
        _, rows = selftrain.train(graphs, cfg)
        samples = timer.take()
    harvests = cfg.graphs_per_refresh * len({row.refresh_index for row in rows})
    assert estimates and harvests == 6
    assert len(samples) == cfg.num_rollouts * len(estimates) + harvests


def test_bench_eval_rows_pass_their_checks_and_time_one_set_of_rollouts(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    graphs = [generate(GenSpec("er", n=10, p=0.3, seed=s)) for s in range(3)]
    cfg = tiny_cfg()
    params, _ = selftrain.train(graphs, cfg)
    with spans.Patches() as patches:
        timer = layers.SolveTimer(patches)
        for problem in ("mis", "mvc"):
            out = workloads.Outcome()
            workloads.evaluate_checked(out, graphs, evaluate.METHODS, problem, cfg, 0, params)
            assert out.failures == []
            assert out.attempted == len(graphs) * len(evaluate.METHODS) + 1
            assert len(timer.take()) == cfg.num_rollouts * len(graphs), problem


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
    # the eval layers time the library's calls through the wrapped names: a
    # gadget builder that stopped calling cmpdp.dpsolve.build_graph would
    # empty the build_graph layer while every wrapped name still resolves
    spans = rec.per_layer()
    for layer in ("graph.build_graph", "dpsolve.mvc_gadgets", "classic.local_search"):
        assert spans[layer]["calls"] > 0, layer


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


def test_a_warm_learned_decision_runs_only_the_folded_pass(monkeypatch):
    params = net.init_params(3, 32, 4, seed=0)
    compare = dpsolve.learned_mis_comparator(params)
    g0 = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6)])
    g1 = build_graph(6, [(0, 1), (0, 2), (2, 3), (3, 4)])
    compare(g0, g1)  # fills the class table
    # the same degree classes, but new graphs to the score cache
    h0, h1 = relabel(g0, [6, 5, 4, 3, 2, 1, 0]), relabel(g1, [5, 4, 3, 2, 1, 0])
    assert (h0, h1) != (g0, g1)
    calls = {"score_graph": 0, "score_graphs": 0, "_block": 0}
    for module, name in ((dpsolve, "score_graph"), (net, "score_graphs"), (net, "_block")):
        def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    compare(h0, h1)
    # two forwards, neither a traced pass nor a block of one
    assert calls == {"score_graph": 2, "score_graphs": 0, "_block": 0}


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


def test_a_tiny_seeded_run_makes_the_pinned_decisions(monkeypatch):
    # forward passes, solves, solver steps and buffer pairs of a fixed tiny
    # train and all-method eval. A change that should keep every decision
    # must keep these integers; one that moves decisions on purpose updates
    # the literals and says so
    counts = dict.fromkeys(("forwards", "solves", "steps", "pairs", "label1", "sampled"), 0)
    real_score = dpsolve.score_graph

    def counting_score(*args, **kwargs):
        counts["forwards"] += 1
        return real_score(*args, **kwargs)

    monkeypatch.setattr(dpsolve, "score_graph", counting_score)
    for module in (dpsolve, selftrain, evaluate):
        def counting_solve(*args, _real=module.solve_mis, **kwargs):
            vs, traj = _real(*args, **kwargs)
            counts["solves"] += 1
            counts["steps"] += len(traj.steps)
            return vs, traj
        monkeypatch.setattr(module, "solve_mis", counting_solve)
    real_refresh = selftrain.refresh_buffer

    def counting_refresh(*args, **kwargs):
        buffer = real_refresh(*args, **kwargs)
        counts["pairs"] += len(buffer)
        counts["label1"] += sum(s.label for s in buffer.train + buffer.val)
        counts["sampled"] += buffer.sampled
        return buffer

    monkeypatch.setattr(selftrain, "refresh_buffer", counting_refresh)
    oracle = dict.fromkeys(("expanded", "greedy"), 0)
    real_exact = classic.exact_mis

    def counting_exact(*args, **kwargs):
        result = real_exact(*args, **kwargs)
        oracle["expanded"] += result.expanded
        return result

    # exact_mvc reaches the oracle through classic.exact_mis
    monkeypatch.setattr(classic, "exact_mis", counting_exact)
    monkeypatch.setattr(evaluate, "exact_mis", counting_exact)
    for module in (classic, dpsolve, evaluate):
        def counting_greedy(*args, _real=module.greedy_mis, **kwargs):
            oracle["greedy"] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, "greedy_mis", counting_greedy)
    graphs = [generate(GenSpec("er", n=n, p=0.25, seed=i)) for i, n in enumerate(range(10, 50, 2))]
    held_out = [generate(GenSpec("er", n=n, p=0.25, seed=100 + i)) for i, n in enumerate((24, 32, 40, 48))]
    cfg = RunConfig(total_epochs=17, epochs_per_refresh=3, graphs_per_refresh=12, pairs_per_graph=4, batch_size=8,
                    num_rollouts=2, mixed=True, rounds=3, width=8, head_layers=3, consistency_pairs=6, seed=11,
                    local_search_moves=50)
    params, rows = selftrain.train(graphs, cfg)
    sizes = {problem: [r.size for r in evaluate.eval_dataset(held_out, evaluate.METHODS, problem, cfg, seed=3,
                                                               params=params).rows]
             for problem in ("mis", "mvc")}
    observed = (counts, sizes, oracle)
    assert len(rows) == 17, observed
    assert counts == {
        "forwards": 2194, "solves": 1326, "steps": 1192, "pairs": 162, "label1": 76, "sampled": 279,
    }, observed
    assert sizes == {
        "mis": [8, 8, 8, 6, 7, 8, 10, 10, 10, 8, 9, 10, 12, 12, 12, 8, 9, 13, 11, 13, 13, 10, 10, 14],
        "mvc": [16, 16, 17, 17, 17, 16, 22, 22, 23, 25, 23, 22, 28, 28, 28, 31, 31, 27, 37, 34, 34, 38, 38, 34],
    }, observed
    # the exact oracle's branch nodes over both problems, and every greedy
    # call: the exact solver's seed, the mixed estimates' floors, the rows
    assert oracle == {"expanded": 822, "greedy": 574}, observed
