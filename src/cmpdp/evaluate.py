"""Dataset evaluation: per-graph solution sizes and approximation ratios
against the internal exact oracle, aggregated per method."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from .classic import (
    complement_cover,
    exact_mis,
    exact_mvc,
    greedy_mis,
    greedy_mvc,
    local_search_mis,
)
from .config import RunConfig
from .dpsolve import (
    derive_seed,
    learned_mis_comparator,
    learned_mvc_comparator,  # unused: kept because bench/layers.py wraps this name
    random_comparator,
    solve_mis,
    solve_mvc,
)
from .graph import Graph, GraphError, VertexSet
from .net import CmpParams

MIS = "mis"
MVC = "mvc"

METHOD_CMP = "cmp"
METHOD_CMP_MIXED = "cmp-mixed"
METHOD_GREEDY = "greedy"
METHOD_RANDOM = "random-cmp"
METHOD_LOCAL = "local-search"
METHOD_EXACT = "exact"

METHODS = (
    METHOD_CMP,
    METHOD_CMP_MIXED,
    METHOD_GREEDY,
    METHOD_RANDOM,
    METHOD_LOCAL,
    METHOD_EXACT,
)

STATUS_OK = "ok"
STATUS_BOUND = "bound"


@dataclass
class EvalRow:
    graph_id: str
    n: int
    m: int
    method: str
    size: int
    optimum: int
    ratio: float
    seconds: float
    status: str


@dataclass
class EvalReport:
    problem: str
    rows: list[EvalRow] = field(default_factory=list)
    # method -> (mean ratio, population std, row count); bound rows excluded
    aggregates: dict[str, tuple[float, float, int]] = field(default_factory=dict)
    skipped_bound: int = 0


LEARNED_METHODS = (METHOD_CMP, METHOD_CMP_MIXED)


def run_method(
    g: Graph,
    method: str,
    problem: str,
    cfg: RunConfig,
    seed: int,
    params: CmpParams | None = None,
    *,
    _learned: VertexSet | None = None,
) -> tuple[VertexSet, str]:
    """Solve one graph with one method. Learned and random comparator methods
    run ``cfg.num_rollouts`` solver passes and keep the best set; cmp-mixed
    is the cmp solution unless greedy's is at least as good. For MVC the
    learned methods keep the complement of the best MIS pass (the scorer is
    trained on MIS sizes only), while the random coin runs the copy-vertex
    recursion. ``_learned`` is the cmp solution when the caller has already
    solved it.
    Returns the vertex set and "ok" or "bound" (exact method only)."""
    _check_request([method], problem, params)
    if method == METHOD_EXACT:
        r = exact_mis(g, cfg.exact_budget) if problem == MIS else exact_mvc(g, cfg.exact_budget)
        return r.vertex_set, STATUS_OK if r.optimal else STATUS_BOUND
    if method == METHOD_GREEDY:
        return (greedy_mis(g) if problem == MIS else greedy_mvc(g)), STATUS_OK
    if method == METHOD_LOCAL:
        vs = local_search_mis(g, cfg.local_search_seconds, seed, cfg.local_search_moves or None)
        return (vs if problem == MIS else complement_cover(g, vs)), STATUS_OK
    if method == METHOD_RANDOM:
        return _best_coin_rollout(g, problem, cfg, seed), STATUS_OK
    best = _learned if _learned is not None else _best_learned_rollout(g, problem, cfg, seed, params)
    if method == METHOD_CMP_MIXED:
        greedy = greedy_mis(g) if problem == MIS else greedy_mvc(g)
        best = (max if problem == MIS else min)((greedy, best), key=len)  # greedy wins ties
    return best, STATUS_OK


def _check_request(methods: Sequence[str], problem: str, params: CmpParams | None) -> None:
    if problem not in (MIS, MVC):
        raise GraphError(f"problem must be 'mis' or 'mvc', got {problem!r}")
    for method in methods:
        if method not in METHODS:
            raise GraphError(f"unknown method {method!r}")
        if method in LEARNED_METHODS and params is None:
            raise GraphError(f"method {method!r} needs comparator weights")


def _best_coin_rollout(g: Graph, problem: str, cfg: RunConfig, seed: int) -> VertexSet:
    comparator = random_comparator(derive_seed(seed, "coin"))
    solve = solve_mis if problem == MIS else solve_mvc
    runs = [solve(g, comparator, derive_seed(seed, "run", i))[0] for i in range(cfg.num_rollouts)]
    return max(runs, key=len) if problem == MIS else min(runs, key=len)


def _best_learned_rollout(
    g: Graph, problem: str, cfg: RunConfig, seed: int, params: CmpParams
) -> VertexSet:
    comparator = learned_mis_comparator(params)
    runs = [solve_mis(g, comparator, derive_seed(seed, "run", i))[0] for i in range(cfg.num_rollouts)]
    best = max(runs, key=len)
    return best if problem == MIS else complement_cover(g, best)


def eval_dataset(
    graphs: Sequence[Graph],
    methods: Sequence[str],
    problem: str,
    cfg: RunConfig,
    seed: int,
    params: CmpParams | None = None,
    graph_ids: Sequence[str] | None = None,
) -> EvalReport:
    """One row per graph x method. The optimum comes from the exact oracle
    under ``cfg.exact_budget``; graphs whose oracle run exhausts the budget
    are marked "bound" and left out of the aggregates (counted in
    ``skipped_bound``). The cmp and cmp-mixed rows of a graph share one set
    of learned roll-outs, seeded as cmp's, and each row's seconds include
    them."""
    _check_request(methods, problem, params)
    if graph_ids is None:
        graph_ids = [f"g{i:04d}" for i in range(len(graphs))]
    if len(graph_ids) != len(graphs):
        raise ValueError(f"{len(graph_ids)} graph ids for {len(graphs)} graphs")
    report = EvalReport(problem=problem)
    for gid, g in zip(graph_ids, graphs):
        t0 = time.perf_counter()
        oracle = exact_mis(g, cfg.exact_budget) if problem == MIS else exact_mvc(g, cfg.exact_budget)
        oracle_seconds = time.perf_counter() - t0
        optimum = oracle.size
        status = STATUS_OK if oracle.optimal else STATUS_BOUND
        if status == STATUS_BOUND:
            report.skipped_bound += 1
        learned, learned_seconds = None, 0.0
        if any(method in LEARNED_METHODS for method in methods):
            t0 = time.perf_counter()
            learned = _best_learned_rollout(g, problem, cfg, derive_seed(seed, gid, METHOD_CMP), params)
            learned_seconds = time.perf_counter() - t0
        for method in methods:
            if method == METHOD_EXACT:
                vs, seconds = oracle.vertex_set, oracle_seconds
            else:
                shared = method in LEARNED_METHODS
                method_seed = derive_seed(seed, gid, METHOD_CMP if shared else method)
                t0 = time.perf_counter()
                vs, _ = run_method(g, method, problem, cfg, method_seed, params, _learned=learned)
                seconds = time.perf_counter() - t0 + (learned_seconds if shared else 0.0)
            ratio = _ratio(len(vs), optimum)
            report.rows.append(
                EvalRow(gid, g.n, g.m, method, len(vs), optimum, ratio, seconds, status)
            )
    for method in methods:
        ratios = [r.ratio for r in report.rows if r.method == method and r.status == STATUS_OK]
        if ratios:
            mean = sum(ratios) / len(ratios)
            std = (sum((x - mean) ** 2 for x in ratios) / len(ratios)) ** 0.5
            report.aggregates[method] = (mean, std, len(ratios))
    return report


def _ratio(size: int, optimum: int) -> float:
    if optimum == 0:
        return 1.0 if size == 0 else float("inf")
    return size / optimum


def report_rows_csv(report: EvalReport) -> str:
    lines = ["graph_id,n,m,method,size,optimum,ratio,seconds,status"]
    for r in report.rows:
        lines.append(
            f"{r.graph_id},{r.n},{r.m},{r.method},{r.size},{r.optimum},"
            f"{r.ratio:.6f},{r.seconds:.6f},{r.status}"
        )
    return "\n".join(lines) + "\n"


def report_summary_csv(report: EvalReport) -> str:
    lines = ["method,mean_ratio,std_ratio,rows,excluded_bound"]
    for method, (mean, std, count) in report.aggregates.items():
        lines.append(f"{method},{mean:.6f},{std:.6f},{count},{report.skipped_bound}")
    return "\n".join(lines) + "\n"
