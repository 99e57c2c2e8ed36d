"""Dataset evaluation: ratios, aggregates, bound handling, determinism."""

import math
import random

import pytest

from cmpdp import evaluate
from cmpdp.classic import exact_mis_size
from cmpdp.config import RunConfig
from cmpdp.evaluate import (
    METHOD_CMP,
    METHOD_CMP_MIXED,
    METHOD_EXACT,
    METHOD_GREEDY,
    METHOD_LOCAL,
    METHOD_RANDOM,
    METHODS,
    eval_dataset,
    report_rows_csv,
    report_summary_csv,
    run_method,
)
from cmpdp.generators import GenSpec, generate
from cmpdp.graph import VERTEX_COVER, GraphError, build_graph
from cmpdp.net import init_params

from helpers import random_chordal, random_forest, random_graph


def cfg(**overrides) -> RunConfig:
    # the move cap, not the generous time limit, bounds local search here
    base = RunConfig(num_rollouts=2, local_search_seconds=5.0, local_search_moves=50)
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


def test_edgeless_all_methods_ratio_one():
    graphs = [build_graph(4, []), build_graph(7, [])]
    params = init_params(1, 2, 2, seed=0)
    methods = [METHOD_GREEDY, METHOD_LOCAL, METHOD_EXACT, METHOD_RANDOM, METHOD_CMP]
    for problem in ("mis", "mvc"):
        report = eval_dataset(graphs, methods, problem, cfg(), seed=0, params=params)
        assert all(r.ratio == 1.0 for r in report.rows)
        assert all(agg[0] == 1.0 for agg in report.aggregates.values())


def test_special_greedy_ratio():
    graphs = [generate(GenSpec("special", n=20, surplus=3, seed=s)) for s in range(3)]
    report = eval_dataset(graphs, [METHOD_GREEDY], "mis", cfg(), seed=0)
    for row in report.rows:
        assert row.optimum == 20
        assert math.isclose(row.ratio, 0.15)
    mean, std, count = report.aggregates[METHOD_GREEDY]
    assert math.isclose(mean, 0.15) and std == 0.0 and count == 3


def test_triangle_random_cmp_optimal():
    report = eval_dataset(
        [build_graph(3, [(0, 1), (1, 2), (0, 2)])], [METHOD_RANDOM], "mis", cfg(), seed=0
    )
    assert report.rows[0].ratio == 1.0


def test_mvc_ratios_at_least_one():
    rng = random.Random(0)
    graphs = [random_graph(rng, rng.randint(2, 12), 0.4) for _ in range(5)]
    report = eval_dataset(graphs, [METHOD_GREEDY, METHOD_RANDOM], "mvc", cfg(), seed=1)
    assert all(r.ratio >= 1.0 for r in report.rows)


def test_mis_ratios_at_most_one():
    rng = random.Random(1)
    graphs = [random_graph(rng, rng.randint(2, 12), 0.4) for _ in range(5)]
    params = init_params(2, 4, 3, seed=0)
    report = eval_dataset(
        graphs,
        [METHOD_GREEDY, METHOD_RANDOM, METHOD_CMP, METHOD_CMP_MIXED, METHOD_LOCAL],
        "mis",
        cfg(),
        seed=1,
        params=params,
    )
    assert all(0.0 < r.ratio <= 1.0 for r in report.rows)


def test_mixed_at_least_greedy():
    rng = random.Random(2)
    graphs = [random_graph(rng, 14, 0.3) for _ in range(4)]
    params = init_params(2, 4, 3, seed=0)
    report = eval_dataset(graphs, [METHOD_GREEDY, METHOD_CMP_MIXED], "mis", cfg(), seed=3, params=params)
    by_graph = {}
    for r in report.rows:
        by_graph.setdefault(r.graph_id, {})[r.method] = r.size
    for sizes in by_graph.values():
        assert sizes[METHOD_CMP_MIXED] >= sizes[METHOD_GREEDY]


def eval_sets(monkeypatch, graphs, methods, problem, params):
    """(graph id, method) -> (row size, members) of one eval_dataset call, the
    members taken from the run_method call that made the row (None for the
    exact rows, which come from the oracle)."""
    made = {}
    run_method = evaluate.run_method

    def recording(g, method, *args, **kwargs):
        vs, status = run_method(g, method, *args, **kwargs)
        made[id(g), method] = vs.members
        return vs, status

    with monkeypatch.context() as m:
        m.setattr(evaluate, "run_method", recording)
        report = eval_dataset(graphs, methods, problem, cfg(num_rollouts=3), seed=3, params=params)
    return {(r.graph_id, r.method): (r.size, made.get((id(graphs[int(r.graph_id[1:])]), r.method)))
            for r in report.rows}


@pytest.mark.parametrize("problem", ["mis", "mvc"])
def test_cmp_mixed_is_the_better_of_cmp_and_greedy(monkeypatch, problem):
    rng = random.Random(8)
    graphs = [random_graph(rng, rng.randint(1, 18), rng.uniform(0.1, 0.6)) for _ in range(25)]
    params = init_params(2, 4, 3, seed=4)
    sets = eval_sets(monkeypatch, graphs, [METHOD_CMP, METHOD_GREEDY, METHOD_CMP_MIXED],
                     problem, params)
    better = max if problem == "mis" else min
    for i in range(len(graphs)):
        gid = f"g{i:04d}"
        cmp_row, greedy_row = sets[gid, METHOD_CMP], sets[gid, METHOD_GREEDY]
        # greedy is listed first, so it wins ties
        assert sets[gid, METHOD_CMP_MIXED] == better(greedy_row, cmp_row, key=lambda r: r[0])


@pytest.mark.parametrize("problem", ["mis", "mvc"])
def test_learned_rows_do_not_depend_on_the_other_methods_requested(monkeypatch, problem):
    rng = random.Random(9)
    graphs = [random_graph(rng, rng.randint(4, 16), rng.uniform(0.1, 0.5)) for _ in range(8)]
    params = init_params(2, 4, 3, seed=5)
    requests = [[METHOD_CMP_MIXED], [METHOD_CMP], [METHOD_CMP_MIXED, METHOD_CMP],
                [METHOD_CMP, METHOD_CMP_MIXED], list(METHODS)]
    runs = [eval_sets(monkeypatch, graphs, methods, problem, params) for methods in requests]
    for method in (METHOD_CMP, METHOD_CMP_MIXED):
        rows = [{k: v for k, v in run.items() if k[1] == method} for run in runs]
        rows = [r for r in rows if r]
        assert len(rows) == 4 and len(rows[0]) == len(graphs)
        assert all(r == rows[0] for r in rows)


@pytest.mark.parametrize("problem", ["mis", "mvc"])
def test_learned_rows_share_one_set_of_rollouts(monkeypatch, problem):
    calls = []
    solve_mis = evaluate.solve_mis

    def counting(g, *args, **kwargs):
        calls.append(g)
        return solve_mis(g, *args, **kwargs)

    monkeypatch.setattr(evaluate, "solve_mis", counting)
    rng = random.Random(10)
    graphs = [random_graph(rng, rng.randint(3, 12), 0.4) for _ in range(4)]
    run_cfg = cfg(num_rollouts=3)
    eval_dataset(graphs, [METHOD_CMP, METHOD_CMP_MIXED], problem, run_cfg, seed=0,
                 params=init_params(2, 4, 3, seed=6))
    assert len(calls) == run_cfg.num_rollouts * len(graphs)
    for g in graphs:
        assert sum(c is g for c in calls) == run_cfg.num_rollouts


def test_budget_exhaustion_marks_and_excludes():
    rng = random.Random(3)
    graphs = [random_graph(rng, 16, 0.5), random_graph(rng, 4, 0.5)]
    report = eval_dataset(graphs, [METHOD_GREEDY], "mis", cfg(exact_budget=1), seed=0)
    statuses = {r.graph_id: r.status for r in report.rows}
    assert statuses["g0000"] == "bound"
    assert statuses["g0001"] == "ok"
    assert report.skipped_bound == 1
    _, _, count = report.aggregates[METHOD_GREEDY]
    assert count == 1


def test_aggregates_match_rows():
    rng = random.Random(4)
    graphs = [random_graph(rng, rng.randint(3, 12), 0.4) for _ in range(6)]
    report = eval_dataset(graphs, [METHOD_GREEDY, METHOD_RANDOM], "mis", cfg(), seed=5)
    for method, (mean, std, count) in report.aggregates.items():
        ratios = [r.ratio for r in report.rows if r.method == method and r.status == "ok"]
        assert count == len(ratios)
        assert math.isclose(mean, sum(ratios) / len(ratios))
        recomputed = (sum((x - mean) ** 2 for x in ratios) / len(ratios)) ** 0.5
        assert math.isclose(std, recomputed, abs_tol=1e-12)


def test_eval_deterministic():
    rng = random.Random(5)
    graphs = [random_graph(rng, 12, 0.3) for _ in range(3)]
    params = init_params(2, 4, 3, seed=1)
    kwargs = dict(problem="mis", cfg=cfg(), seed=42, params=params)
    a = eval_dataset(graphs, [METHOD_CMP, METHOD_RANDOM, METHOD_LOCAL], **kwargs)
    b = eval_dataset(graphs, [METHOD_CMP, METHOD_RANDOM, METHOD_LOCAL], **kwargs)
    assert [(r.method, r.size) for r in a.rows] == [(r.method, r.size) for r in b.rows]


def test_learned_method_requires_weights():
    with pytest.raises(GraphError, match="weights"):
        run_method(build_graph(2, [(0, 1)]), METHOD_CMP, "mis", cfg(), seed=0)


def no_oracle(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the exact oracle ran before the request was checked")

    monkeypatch.setattr(evaluate, "exact_mis", fail)
    monkeypatch.setattr(evaluate, "exact_mvc", fail)


@pytest.mark.parametrize("method", [METHOD_CMP, METHOD_CMP_MIXED])
def test_eval_without_weights_fails_before_any_solve(monkeypatch, method):
    no_oracle(monkeypatch)
    graphs = [build_graph(3, [(0, 1), (1, 2)])]
    with pytest.raises(GraphError, match=f"{method!r}.*weights"):
        eval_dataset(graphs, [METHOD_GREEDY, method], "mis", cfg(), seed=0)


@pytest.mark.parametrize("problem", ["MIS", "cover", ""])
def test_eval_rejects_an_unknown_problem(monkeypatch, problem):
    no_oracle(monkeypatch)
    graphs = [build_graph(3, [(0, 1), (1, 2)])]
    with pytest.raises(GraphError, match="problem must be 'mis' or 'mvc'"):
        eval_dataset(graphs, [METHOD_EXACT], problem, cfg(), seed=0)
    with pytest.raises(GraphError, match="problem must be 'mis' or 'mvc'"):
        run_method(graphs[0], METHOD_EXACT, problem, cfg(), seed=0)


def test_unknown_method_rejected():
    with pytest.raises(GraphError, match="unknown method"):
        eval_dataset([build_graph(1, [])], ["magic"], "mis", cfg(), seed=0)


@pytest.mark.parametrize("ids", [["a"], ["a", "b", "c", "d"]])
def test_graph_id_count_must_match_graph_count(ids):
    graphs = [build_graph(2, [(0, 1)]), build_graph(3, []), build_graph(1, [])]
    with pytest.raises(ValueError, match=f"{len(ids)} graph ids for 3 graphs"):
        eval_dataset(graphs, [METHOD_GREEDY], "mis", cfg(), seed=0, graph_ids=ids)


def test_run_method_outputs_valid_sets():
    rng = random.Random(6)
    params = init_params(2, 4, 3, seed=2)
    for trial in range(10):
        g = random_graph(rng, rng.randint(1, 14), rng.random())
        for problem in ("mis", "mvc"):
            for method in (METHOD_GREEDY, METHOD_LOCAL, METHOD_RANDOM, METHOD_CMP, METHOD_EXACT):
                vs, status = run_method(g, method, problem, cfg(), seed=trial, params=params)
                assert vs.valid_for(g), (method, problem)
                assert status == "ok"


def test_random_cmp_gets_no_degree_1_rule():
    # roll-out estimates solve a forest exactly by the degree-1 rule alone,
    # and a chordal graph without degree-1 vertices by the domination rule;
    # evaluation solves must leave every decision to the comparator, so the
    # coin still misses the optimum of each graph for some seed
    for g in (random_forest(random.Random(13), 30, 0.9), random_chordal(random.Random(13), 30)):
        best = exact_mis_size(g)
        sizes = []
        for seed in range(20):
            vs, _ = run_method(g, METHOD_RANDOM, "mis", cfg(), seed=seed)
            assert vs.valid_for(g)
            sizes.append(len(vs))
        assert min(sizes) < best


def test_learned_mvc_is_the_complement_of_learned_mis():
    rng = random.Random(7)
    params = init_params(2, 4, 3, seed=3)
    for trial in range(20):
        g = random_graph(rng, rng.randint(1, 16), rng.uniform(0.1, 0.6))
        mis, _ = run_method(g, METHOD_CMP, "mis", cfg(), seed=trial, params=params)
        mvc, _ = run_method(g, METHOD_CMP, "mvc", cfg(), seed=trial, params=params)
        assert mvc.members == frozenset(range(g.n)) - mis.members
        assert mvc.valid_for(g) and mvc.kind == VERTEX_COVER
        mixed, _ = run_method(g, METHOD_CMP_MIXED, "mvc", cfg(), seed=trial, params=params)
        greedy, _ = run_method(g, METHOD_GREEDY, "mvc", cfg(), seed=trial)
        assert len(mixed) == min(len(greedy), len(mvc))


def test_csv_emission():
    graphs = [build_graph(3, [(0, 1)])]
    report = eval_dataset(graphs, [METHOD_GREEDY], "mis", cfg(), seed=0)
    rows_csv = report_rows_csv(report)
    assert rows_csv.splitlines()[0] == "graph_id,n,m,method,size,optimum,ratio,seconds,status"
    assert len(rows_csv.strip().splitlines()) == 2
    summary_csv = report_summary_csv(report)
    assert summary_csv.splitlines()[0] == "method,mean_ratio,std_ratio,rows,excluded_bound"
    assert summary_csv.strip().splitlines()[1].startswith("greedy,")
