"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (visible with ``pytest -s``).

The two training-based criteria share module-scoped fixtures; the whole module
is designed to finish on a laptop CPU well inside the stated budgets.
"""

import csv
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cmpdp.classic import exact_mis, exact_mis_size, exact_mvc, exact_mvc_size
from cmpdp.config import RunConfig
from cmpdp.dpsolve import (
    oracle_mis_comparator,
    oracle_mvc_comparator,
    random_comparator,
    solve_mis,
    solve_mvc,
)
from cmpdp.evaluate import (
    METHOD_CMP,
    METHOD_CMP_MIXED,
    METHOD_GREEDY,
    METHOD_RANDOM,
    eval_dataset,
)
from cmpdp.generators import GenSpec, generate
from cmpdp.graph import relabel, remove_neighbors, remove_vertex
from cmpdp.graphio import parse_graph, write_graph
from cmpdp.net import init_params, pair_loss_and_grad, params_from_bytes, params_to_bytes, score_graph
from cmpdp.selftrain import metrics_to_csv, train

from helpers import (
    brute_force_mis_size,
    finite_difference_grads,
    random_graph,
    relative_mismatch,
)
from test_lpformat import parse_lp


@contextmanager
def criterion(num: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] {name}: FAIL")
        raise
    print(f"[acceptance {num:02d}] {name}: PASS ({time.perf_counter() - started:.1f}s)")


def er_graphs(count: int, n_lo: int, n_hi: int, p, seed: int):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        prob = p if isinstance(p, float) else rng.choice(p)
        out.append(generate(GenSpec("er", n=rng.randint(n_lo, n_hi), p=prob, seed=seed + 1000 + i)))
    return out


@pytest.fixture(scope="module")
def er_run(tmp_path_factory):
    """Criterion 8/10 training: mixed roll-outs on sparse ER graphs."""
    train_graphs = er_graphs(50, 15, 35, 0.15, seed=81)
    cfg = RunConfig(total_epochs=100, mixed=True, seed=7, num_rollouts=3)
    params, rows = train(train_graphs, cfg)
    csv_path = tmp_path_factory.mktemp("metrics") / "er_metrics.csv"
    csv_path.write_text(metrics_to_csv(rows))
    return params, rows, csv_path, cfg


@pytest.fixture(scope="module")
def special_run():
    """Criterion 9 training: plain roll-outs on the greedy-adversarial family."""
    rng = random.Random(91)
    train_graphs = [
        generate(GenSpec("special", n=rng.randint(10, 25), surplus=3, seed=9000 + i))
        for i in range(50)
    ]
    cfg = RunConfig(total_epochs=100, mixed=False, seed=11, num_rollouts=3)
    params, _ = train(train_graphs, cfg)
    return params, cfg


def test_criterion_01_branching_identity():
    with criterion(1, "branching identity on 200 ER graphs"):
        started = time.perf_counter()
        graphs = er_graphs(200, 4, 14, [0.2, 0.4, 0.6], seed=11)
        assert len(graphs) == 200
        for g in graphs:
            whole = exact_mis_size(g)
            for v in range(g.n):
                if g.degree(v) == 0:
                    continue
                keep_v, _ = remove_neighbors(g, v)
                drop_v, _ = remove_vertex(g, v)
                assert whole == max(exact_mis_size(keep_v), exact_mis_size(drop_v))
        assert time.perf_counter() - started < 60.0


def test_criterion_02_oracle_comparator_optimality():
    with criterion(2, "exact-comparator runs are always optimal"):
        started = time.perf_counter()
        rng = random.Random(22)
        comparator = oracle_mis_comparator()
        matches = 0
        for i in range(300):
            g = random_graph(rng, rng.randint(1, 18), rng.uniform(0.1, 0.7))
            best = exact_mis_size(g)
            for seed in range(5):
                vs, _ = solve_mis(g, comparator, seed=seed * 997 + i)
                assert len(vs) == best
                matches += 1
        assert matches == 1500
        comparator = oracle_mvc_comparator()
        matches = 0
        for i in range(200):
            g = random_graph(rng, rng.randint(1, 14), rng.uniform(0.1, 0.7))
            best = exact_mvc_size(g)
            for seed in range(5):
                vs, _ = solve_mvc(g, comparator, seed=seed * 991 + i)
                assert len(vs) == best
                matches += 1
        assert matches == 1000
        assert time.perf_counter() - started < 300.0


def test_criterion_03_validity_under_random_comparator():
    with criterion(3, "random-comparator outputs always valid"):
        rng = random.Random(33)
        for i in range(1000):
            g = random_graph(rng, rng.randint(0, 16), rng.random())
            vs, _ = solve_mis(g, random_comparator(i), seed=i)
            assert vs.valid_for(g)
        for i in range(1000):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            vs, _ = solve_mvc(g, random_comparator(i), seed=i)
            assert vs.valid_for(g)


def test_criterion_04_complement_identity():
    with criterion(4, "MIS + MVC sizes partition the vertices"):
        rng = random.Random(44)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 16), rng.random())
            assert exact_mis(g).size + exact_mvc(g).size == g.n


def test_criterion_05_brute_force_equivalence():
    with criterion(5, "branch and bound equals subset enumeration"):
        rng = random.Random(55)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            assert exact_mis(g).size == brute_force_mis_size(g)


def test_criterion_06_gradient_check():
    with criterion(6, "analytic gradients match finite differences"):
        rng = random.Random(66)
        bad = 0
        total = 0
        for t in range(20):
            params = init_params(2, 4, 4, seed=700 + t)
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.7))
            gp = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.7))
            label = rng.randrange(2)
            _, analytic = pair_loss_and_grad(params, g, gp, label)
            numeric = finite_difference_grads(params, g, gp, label, step=1e-5)
            for (_, a), (_, f) in zip(analytic.tensors(), numeric.tensors()):
                bad += int(relative_mismatch(a, f, tol=1e-4).sum())
                total += a.size
        assert total > 0
        assert bad / total <= 0.01, f"{bad}/{total} components off"


def test_criterion_07_permutation_invariance():
    with criterion(7, "scores invariant under vertex relabeling"):
        rng = random.Random(77)
        params = init_params(3, 32, 4, seed=0)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 20), rng.random())
            perm = list(range(g.n))
            rng.shuffle(perm)
            za, _ = score_graph(params, g)
            zb, _ = score_graph(params, relabel(g, perm))
            assert abs(za - zb) <= 1e-6 * (1.0 + abs(za))


def test_criterion_08_er_training_beats_random(er_run):
    with criterion(8, "trained mixed roll-outs on held-out ER"):
        params, _, _, cfg = er_run
        held = er_graphs(50, 15, 35, 0.15, seed=82)
        report = eval_dataset(
            held, [METHOD_CMP_MIXED, METHOD_RANDOM], "mis", cfg, seed=83, params=params
        )
        mixed_mean = report.aggregates[METHOD_CMP_MIXED][0]
        random_mean = report.aggregates[METHOD_RANDOM][0]
        print(f"    mixed={mixed_mean:.3f} random={random_mean:.3f}")
        assert report.skipped_bound == 0
        assert mixed_mean >= 0.92
        assert mixed_mean - random_mean >= 0.05


def test_learned_comparator_beats_the_coin_and_greedy(er_run):
    """The learned-model gate that criterion 08 is not: cmp-mixed is floored at
    greedy, and greedy alone clears 08's bounds. Pure cmp must beat the coin
    on MIS, and on MVC (the complement of its MIS recursion) beat both the
    coin and greedy."""
    params, _, _, cfg = er_run
    held = er_graphs(50, 15, 35, 0.15, seed=82)
    methods = [METHOD_CMP, METHOD_GREEDY, METHOD_RANDOM]
    mis = eval_dataset(held, methods, "mis", cfg, seed=83, params=params)
    mvc = eval_dataset(held, methods, "mvc", cfg, seed=83, params=params)
    assert mis.skipped_bound == 0 and mvc.skipped_bound == 0
    mis_mean = {m: agg[0] for m, agg in mis.aggregates.items()}
    mvc_mean = {m: agg[0] for m, agg in mvc.aggregates.items()}
    print(f"    mis={mis_mean} mvc={mvc_mean}")
    assert mis_mean[METHOD_CMP] >= mis_mean[METHOD_RANDOM] + 0.05
    assert mvc_mean[METHOD_CMP] <= mvc_mean[METHOD_GREEDY]
    assert mvc_mean[METHOD_CMP] <= mvc_mean[METHOD_RANDOM] - 0.05


def test_criterion_09_special_family(special_run):
    with criterion(9, "greedy trap and trained model on the special family"):
        params, cfg = special_run
        tests = [generate(GenSpec("special", n=20, surplus=3, seed=9500 + i)) for i in range(20)]
        report = eval_dataset(
            tests, [METHOD_GREEDY, METHOD_CMP], "mis", cfg, seed=95, params=params
        )
        for row in report.rows:
            if row.method == METHOD_GREEDY:
                assert row.size == 3 and row.optimum == 20
                assert row.ratio == 3 / 20
        greedy_mean = report.aggregates[METHOD_GREEDY][0]
        model_mean = report.aggregates[METHOD_CMP][0]
        print(f"    greedy={greedy_mean:.3f} model={model_mean:.3f}")
        # every row is exactly 3/20; the mean only accumulates float rounding
        assert math.isclose(greedy_mean, 3 / 20, rel_tol=0.0, abs_tol=1e-12)
        assert model_mean >= 0.90


def test_criterion_10_consistency_rises(er_run):
    with criterion(10, "consistency ends above its random-init value"):
        _, rows, csv_path, _ = er_run
        assert rows[0].refresh_index == 0
        with open(csv_path, newline="") as fh:
            logged = list(csv.DictReader(fh))
        first = float(logged[0]["consistency"])
        last = float(logged[-1]["consistency"])
        print(f"    initial={first:.3f} final={last:.3f}")
        assert math.isclose(first, rows[0].consistency, abs_tol=1e-6)
        assert math.isclose(last, rows[-1].consistency, abs_tol=1e-6)
        assert last > first


def test_criterion_11_round_trips():
    with criterion(11, "weight and graph files round-trip exactly"):
        rng = random.Random(111)
        for t in range(30):
            params = init_params(rng.randint(1, 3), rng.randint(2, 8), rng.randint(2, 5), seed=t)
            back = params_from_bytes(params_to_bytes(params))
            for (_, a), (_, b) in zip(params.tensors(), back.tensors()):
                assert np.array_equal(a, b)
        for t in range(100):
            g = random_graph(rng, rng.randint(0, 25), rng.random())
            assert parse_graph(write_graph(g)) == g


def test_criterion_12_lp_emitter():
    with criterion(12, "LP files carry one correctly-sensed row per edge"):
        from cmpdp.lpformat import emit_lp

        rng = random.Random(122)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 20), rng.random())
            for problem, sense, op in (("mis", "Maximize", "<="), ("mvc", "Minimize", ">=")):
                parsed_sense, objective, constraints, binaries = parse_lp(emit_lp(g, problem))
                assert parsed_sense == sense
                assert len(constraints) == g.m
                assert all(c[2] == op for c in constraints)
                assert sorted((a - 1, b - 1) for a, b, _ in constraints) == g.edges()
                assert objective == list(range(1, g.n + 1))
                assert len(binaries) == g.n
