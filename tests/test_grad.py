"""Analytic gradients against central finite differences."""

import random

import numpy as np
import pytest

from cmpdp.graph import build_graph
from cmpdp.net import init_params, pair_loss_and_grad

from helpers import degree_class_graphs, finite_difference_grads, random_graph, relative_mismatch


def mixed_batch(rng: random.Random):
    """Three pairs of mixed sizes: an empty graph, a graph with isolated
    vertices, and one graph on both sides of a pair and again in another."""
    shared = random_graph(rng, 6, 0.5)
    isolated = build_graph(7, [(0, 1), (1, 2), (0, 2), (4, 5)])
    return [(build_graph(0, []), shared, 1), (isolated, random_graph(rng, 9, 0.3), 0), (shared, shared, 1)]


def check_triple(seed: int, rounds: int = 2, width: int = 4, head_layers: int = 4, g=None, batch=None):
    """Mismatched and total gradient components for one random pair (with
    ``g`` as its first graph when given) or for ``batch``."""
    rng = random.Random(seed)
    params = init_params(rounds, width, head_layers, seed=seed)
    if batch is None:
        if g is None:
            g = random_graph(rng, rng.randint(2, 8), 0.3 + 0.4 * rng.random())
        gp = random_graph(rng, rng.randint(2, 8), 0.3 + 0.4 * rng.random())
        batch = [(g, gp, rng.randrange(2))]
    _, analytic = pair_loss_and_grad(params, batch)
    numeric = finite_difference_grads(params, batch)
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


@pytest.mark.parametrize("geometry", [(1, 3, 2), (2, 3, 5), (3, 3, 4), (4, 3, 3), (5, 3, 2)],
                         ids=lambda geometry: "-".join(map(str, geometry)))
def test_gradients_match_on_a_mixed_batch(geometry):
    # one forward and one backward over the batch's disjoint union
    bad, total = check_triple(seed=geometry[0], rounds=geometry[0], width=geometry[1],
                              head_layers=geometry[2], batch=mixed_batch(random.Random(geometry[0])))
    assert bad / total <= 0.01, f"{bad}/{total} components off"


def test_batch_gradient_is_the_sum_of_its_pairs():
    rng = random.Random(4)
    params = init_params(3, 4, 3, seed=4)
    batch = [(random_graph(rng, 7, 0.4), random_graph(rng, 9, 0.3), label) for label in (0, 1)]
    batch += mixed_batch(rng)
    losses, grads = pair_loss_and_grad(params, batch)
    singles = [pair_loss_and_grad(params, [pair]) for pair in batch]
    assert np.allclose(losses, [loss for (loss,), _ in singles], rtol=1e-12, atol=0.0)
    total = sum(g.flat for _, g in singles)
    assert np.abs(grads.flat - total).max() <= 1e-12 * np.abs(total).max()


def test_batch_gradient_ignores_pair_order():
    rng = random.Random(6)
    params = init_params(3, 5, 4, seed=6)
    batch = mixed_batch(rng) + [(random_graph(rng, n, 0.3), random_graph(rng, n + 3, 0.3), n % 2) for n in (4, 11)]
    losses, grads = pair_loss_and_grad(params, batch)
    order = [3, 0, 4, 2, 1]
    shuffled_losses, shuffled = pair_loss_and_grad(params, [batch[i] for i in order])
    assert shuffled_losses == [losses[i] for i in order]
    assert np.abs(grads.flat - shuffled.flat).max() <= 1e-12 * np.abs(grads.flat).max()


def test_gradient_sign_reduces_loss():
    # one tiny step along the negative gradient lowers the loss
    rng = random.Random(5)
    params = init_params(2, 4, 3, seed=5)
    g = random_graph(rng, 6, 0.4)
    gp = random_graph(rng, 7, 0.4)
    (loss0,), grads = pair_loss_and_grad(params, [(g, gp, 1)])
    stepped = params.copy()
    for (_, t), (_, d) in zip(stepped.tensors(), grads.tensors()):
        t -= 1e-4 * d
    (loss1,), _ = pair_loss_and_grad(stepped, [(g, gp, 1)])
    assert loss1 < loss0


def test_gradient_is_zero_only_for_symmetric_pairs():
    rng = random.Random(9)
    params = init_params(2, 4, 3, seed=9)
    g = random_graph(rng, 6, 0.5)
    gp = random_graph(rng, 5, 0.5)
    _, grads = pair_loss_and_grad(params, [(g, gp, 0)])
    norms = [np.abs(t).max() for _, t in grads.tensors()]
    assert max(norms) > 0.0
