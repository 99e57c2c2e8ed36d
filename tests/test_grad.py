"""Analytic gradients against central finite differences."""

import random

import numpy as np
import pytest

from cmpdp.net import init_params, pair_loss_and_grad, zeros_like_params

from helpers import degree_class_graphs, finite_difference_grads, random_graph, relative_mismatch


def check_triple(seed: int, rounds: int = 2, width: int = 4, head_layers: int = 4, g=None):
    rng = random.Random(seed)
    params = init_params(rounds, width, head_layers, seed=seed)
    if g is None:
        g = random_graph(rng, rng.randint(2, 8), 0.3 + 0.4 * rng.random())
    gp = random_graph(rng, rng.randint(2, 8), 0.3 + 0.4 * rng.random())
    label = rng.randrange(2)
    _, analytic = pair_loss_and_grad(params, g, gp, label)
    numeric = finite_difference_grads(params, g, gp, label)
    bad = 0
    total = 0
    for (_, a), (_, f) in zip(analytic.tensors(), numeric.tensors()):
        mask = relative_mismatch(a, f, tol=1e-4)
        bad += int(mask.sum())
        total += a.size
    return bad, total


def test_gradients_match_finite_differences():
    bad = total = 0
    for seed in range(4):
        b, t = check_triple(seed)
        bad += b
        total += t
    assert total > 0
    assert bad / total <= 0.01, f"{bad}/{total} components off"


def test_gradients_match_minimal_head():
    bad, total = check_triple(seed=17, rounds=1, width=3, head_layers=2)
    assert bad / total <= 0.01


def test_gradients_match_deeper_head():
    bad, total = check_triple(seed=23, rounds=3, width=3, head_layers=5)
    assert bad / total <= 0.01


@pytest.mark.parametrize("rounds", [2, 4, 5])
@pytest.mark.parametrize("shape", ["random"] + sorted(degree_class_graphs()))
def test_gradients_match_on_degree_class_shapes(shape, rounds):
    # round 1 runs per degree class, round 2 on class counts, later rounds on the sparse adjacency
    bad, total = check_triple(seed=rounds, rounds=rounds, width=3, head_layers=3,
                              g=degree_class_graphs().get(shape))
    assert bad / total <= 0.01, f"{bad}/{total} components off"


def test_gradient_accumulates_into_a_given_total():
    rng = random.Random(4)
    params = init_params(3, 4, 3, seed=4)
    pairs = [(random_graph(rng, 7, 0.4), random_graph(rng, 9, 0.3), label) for label in (0, 1)]
    total = zeros_like_params(params)
    for g, gp, label in pairs:
        _, out = pair_loss_and_grad(params, g, gp, label, grads=total)
        assert out is total
    fresh = sum(pair_loss_and_grad(params, g, gp, label)[1].flat for g, gp, label in pairs)
    assert np.allclose(total.flat, fresh, rtol=1e-12, atol=1e-15)


def test_gradient_sign_reduces_loss():
    # one tiny step along the negative gradient lowers the loss
    rng = random.Random(5)
    params = init_params(2, 4, 3, seed=5)
    g = random_graph(rng, 6, 0.4)
    gp = random_graph(rng, 7, 0.4)
    loss0, grads = pair_loss_and_grad(params, g, gp, 1)
    stepped = params.copy()
    for (_, t), (_, d) in zip(stepped.tensors(), grads.tensors()):
        t -= 1e-4 * d
    loss1, _ = pair_loss_and_grad(stepped, g, gp, 1)
    assert loss1 < loss0


def test_gradient_is_zero_only_for_symmetric_pairs():
    rng = random.Random(9)
    params = init_params(2, 4, 3, seed=9)
    g = random_graph(rng, 6, 0.5)
    gp = random_graph(rng, 5, 0.5)
    _, grads = pair_loss_and_grad(params, g, gp, 0)
    norms = [np.abs(t).max() for _, t in grads.tensors()]
    assert max(norms) > 0.0
