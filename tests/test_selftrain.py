"""Pair harvesting, buffer refresh, the training loop, and consistency."""

import math
import random

import numpy as np
import pytest

from cmpdp import dpsolve, selftrain
from cmpdp.classic import exact_mis_size, greedy_mis
from cmpdp.config import RunConfig
from cmpdp.dpsolve import derive_seed, oracle_mis_comparator, random_comparator
from cmpdp.generators import GenSpec, generate
from cmpdp.graph import build_graph
from cmpdp.net import adam_step, init_adam, init_params, pair_loss_and_grad, score_graph
from cmpdp.selftrain import (
    PairSample,
    consistency_fraction,
    harvest_pairs,
    measure_consistency,
    metrics_to_csv,
    refresh_buffer,
    train,
)

from helpers import mixed_pairs, random_graph, reference_pair_loss


def small_cfg(**overrides) -> RunConfig:
    base = dict(
        total_epochs=4,
        batch_size=8,
        num_rollouts=2,
        graphs_per_refresh=4,
        pairs_per_graph=3,
        epochs_per_refresh=2,
        rounds=1,
        width=4,
        head_layers=2,
        seed=0,
        consistency_pairs=8,
    )
    base.update(overrides)
    return RunConfig(**base)


def er_dataset(count: int, n: int, p: float, seed: int):
    return [generate(GenSpec("er", n=n, p=p, seed=seed + i)) for i in range(count)]


class TestHarvest:
    def test_edgeless_yields_nothing(self):
        params = init_params(1, 2, 2, seed=0)
        assert harvest_pairs(build_graph(5, []), params, small_cfg(), seed=1) == []

    def test_triangle_first_step(self):
        params = init_params(1, 2, 2, seed=0)
        # every branch pair of a triangle ties at optimum 1 (an edge against a
        # lone vertex, then, on the edge, a lone vertex against a lone vertex),
        # and tied pairs are never stored
        assert harvest_pairs(build_graph(3, [(0, 1), (1, 2), (0, 2)]), params, small_cfg(), 3) == []

    def test_pairs_per_graph_cap(self):
        # a harvest may drop its one sampled pair as an estimate tie, so the
        # cap is checked over several seeds: never above 1, and reached
        params = init_params(1, 2, 2, seed=0)
        g = random_graph(random.Random(4), 14, 0.4)
        cfg = small_cfg(pairs_per_graph=1)
        stored = [len(harvest_pairs(g, params, cfg, seed)) for seed in range(2, 8)]
        assert max(stored) == 1

    def test_label_law(self):
        params = init_params(1, 3, 2, seed=1)
        rng = random.Random(9)
        for trial in range(10):
            g = random_graph(rng, rng.randint(4, 12), 0.4)
            for s in harvest_pairs(g, params, small_cfg(), seed=trial):
                assert s.label == int(s.est_g < s.est_gp)

    def test_mixed_estimates_floor_at_greedy(self):
        params = init_params(1, 3, 2, seed=1)
        g = random_graph(random.Random(3), 12, 0.3)
        for s in harvest_pairs(g, params, small_cfg(mixed=True), seed=5):
            assert s.est_g >= len(greedy_mis(s.g))
            assert s.est_gp >= len(greedy_mis(s.g_prime))

    def test_drop_ties(self):
        params = init_params(1, 3, 2, seed=1)
        g = random_graph(random.Random(3), 12, 0.3)
        kept = harvest_pairs(g, params, small_cfg(pairs_per_graph=8), seed=5)
        assert kept
        assert all(s.est_g != s.est_gp for s in kept)


class TestRefreshBuffer:
    def test_size_bound(self):
        params = init_params(1, 2, 2, seed=0)
        cfg = small_cfg(graphs_per_refresh=2, pairs_per_graph=3)
        buf = refresh_buffer(er_dataset(5, 12, 0.3, seed=0), params, cfg, seed=1)
        assert buf.capacity == 6
        assert 0 < len(buf) <= buf.capacity

    def test_deterministic(self):
        params = init_params(1, 2, 2, seed=0)
        data = er_dataset(5, 12, 0.3, seed=0)
        a = refresh_buffer(data, params, small_cfg(), seed=7)
        b = refresh_buffer(data, params, small_cfg(), seed=7)
        assert a.train == b.train and a.val == b.val

    def test_validation_fraction(self):
        params = init_params(1, 2, 2, seed=0)
        cfg = small_cfg(graphs_per_refresh=5, pairs_per_graph=2)
        # force exactly 10 samples by harvesting from dense graphs
        data = er_dataset(5, 14, 0.6, seed=3)
        buf = refresh_buffer(data, params, cfg, seed=2)
        if len(buf) == 10:
            assert len(buf.val) == 2
        assert len(buf.val) == int(len(buf) * 0.2)
        assert not set(map(id, buf.val)) & set(map(id, buf.train))

    def test_sampled_counts_the_dropped_ties(self):
        params = init_params(1, 2, 2, seed=0)
        buf = refresh_buffer(er_dataset(5, 12, 0.3, seed=0), params, small_cfg(), seed=1)
        assert len(buf) <= buf.sampled <= buf.capacity
        # every branch pair of a triangle ties, so all sampled steps are dropped
        triangles = [build_graph(3, [(0, 1), (1, 2), (0, 2)])] * 3
        buf = refresh_buffer(triangles, params, small_cfg(), seed=1)
        assert len(buf) == 0 < buf.sampled

    @pytest.mark.parametrize(
        "seed, exact_ties, right, rest",
        # per seed, with the degree-1 rule alone: stored pairs whose exact
        # optima tie, and labels right out of the other stored pairs
        [(0, 8, 53, 56), (1, 4, 45, 45), (2, 3, 35, 35)],
    )
    def test_plain_labels_no_worse_against_exact(self, seed, exact_ties, right, rest):
        # one plain refresh at initial weights, its stored pairs checked
        # against the exact solver; the reductions may only make the
        # roll-out estimates behind the labels more exact
        rng = random.Random(81)
        data = [generate(GenSpec("er", n=rng.randint(12, 24), p=0.3, seed=1081 + i)) for i in range(20)]
        cfg = RunConfig(mixed=False, seed=seed, graphs_per_refresh=16)
        params = init_params(cfg.rounds, cfg.width, cfg.head_layers, cfg.seed)
        buffer = refresh_buffer(data, params, cfg, derive_seed(seed, "refresh", 0))
        optima = [(exact_mis_size(s.g), exact_mis_size(s.g_prime), s.label) for s in buffer.train + buffer.val]
        decided = [label == int(a < b) for a, b, label in optima if a != b]
        assert len(optima) - len(decided) <= exact_ties
        assert sum(decided) / len(decided) >= right / rest

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            refresh_buffer([], init_params(1, 2, 2, seed=0), small_cfg(), seed=0)


class TestConsistency:
    def test_identical_pairs_fully_consistent(self):
        params = init_params(1, 3, 2, seed=2)
        g = random_graph(random.Random(1), 9, 0.4)
        pairs = [(g, g)] * 5
        assert measure_consistency(params, pairs, num_rollouts=2, seed=0) == 1.0

    def test_oracle_with_exact_estimates(self):
        rng = random.Random(5)
        pairs = [
            (random_graph(rng, rng.randint(2, 10), 0.4), random_graph(rng, rng.randint(2, 10), 0.4))
            for _ in range(20)
        ]
        comparator = oracle_mis_comparator()
        assert consistency_fraction(pairs, comparator, exact_mis_size) == 1.0

    def test_random_comparator_near_half(self):
        rng = random.Random(6)
        pairs = []
        while len(pairs) < 200:
            a = random_graph(rng, rng.randint(2, 9), 0.5)
            b = random_graph(rng, rng.randint(2, 9), 0.5)
            if exact_mis_size(a) != exact_mis_size(b):
                pairs.append((a, b))
        value = consistency_fraction(pairs, random_comparator(11), exact_mis_size)
        assert 0.35 < value < 0.65

    def test_empty_pairs_vacuous(self):
        params = init_params(1, 2, 2, seed=0)
        assert measure_consistency(params, [], 1, seed=0) == 1.0


class TestValidate:
    def test_loss_and_accuracy_equal_the_reference_exactly(self):
        params = init_params(2, 3, 3, seed=5)
        split = [PairSample(g, gp, label, 0, 0) for g, gp, label in mixed_pairs()]
        z = [(score_graph(params, s.g)[0], score_graph(params, s.g_prime)[0]) for s in split]
        loss = sum(reference_pair_loss(a, b, s.label) for (a, b), s in zip(z, split)) / len(split)
        accuracy = sum(int(a < b) == s.label for (a, b), s in zip(z, split)) / len(split)
        result = selftrain._validate(params, split)
        assert result == (loss, accuracy)
        assert [type(x) for x in result] == [float, float]
        assert selftrain._validate(params, []) == (0.0, 0.0)


class TestTrain:
    def test_zero_epochs_returns_initial(self):
        data = er_dataset(3, 10, 0.3, seed=0)
        cfg = small_cfg(total_epochs=0)
        params, rows = train(data, cfg)
        fresh = init_params(cfg.rounds, cfg.width, cfg.head_layers, cfg.seed)
        assert rows == []
        for (_, a), (_, b) in zip(params.tensors(), fresh.tensors()):
            assert (a == b).all()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            train([], small_cfg())

    def test_single_pair_overfit_drops_below_ln2(self):
        # one distinguishable pair, trained repeatedly: loss must fall under
        # the coin-flip level
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        gp = build_graph(3, [(0, 1), (1, 2)])
        params = init_params(2, 4, 2, seed=0)
        state = init_adam(params)
        for _ in range(60):
            _, grads = pair_loss_and_grad(params, [(g, gp, 1)])
            params, state = adam_step(params, grads, state, lr=1e-3)
        (final,), _ = pair_loss_and_grad(params, [(g, gp, 1)])
        assert final < math.log(2.0)

    def test_one_adam_step_decreases_pair_loss(self):
        g = random_graph(random.Random(1), 7, 0.4)
        gp = random_graph(random.Random(2), 8, 0.4)
        params = init_params(2, 4, 2, seed=3)
        (loss0,), grads = pair_loss_and_grad(params, [(g, gp, 0)])
        params2, _ = adam_step(params, grads, init_adam(params), lr=1e-4)
        (loss1,), _ = pair_loss_and_grad(params2, [(g, gp, 0)])
        assert loss1 < loss0

    def test_smoke_run_beats_random_guessing(self):
        data = er_dataset(20, 15, 0.2, seed=10)
        cfg = RunConfig(
            total_epochs=50,
            batch_size=16,
            num_rollouts=2,
            mixed=True,
            graphs_per_refresh=10,
            pairs_per_graph=6,
            epochs_per_refresh=10,
            rounds=2,
            width=8,
            head_layers=3,
            seed=1,
            consistency_pairs=8,
        )
        params, rows = train(data, cfg)
        assert len(rows) == 50
        assert rows[-1].val_pair_accuracy > 0.5
        # rows are clean: epoch-monotone and finite
        assert [r.epoch for r in rows] == list(range(50))
        for r in rows:
            for value in (r.train_loss, r.val_loss, r.val_pair_accuracy, r.consistency):
                assert math.isfinite(value)
        assert all(b.wall_seconds >= a.wall_seconds for a, b in zip(rows, rows[1:]))

    def test_metrics_csv_schema(self):
        data = er_dataset(3, 10, 0.3, seed=0)
        _, rows = train(data, small_cfg(total_epochs=2))
        text = metrics_to_csv(rows)
        header, *body = text.strip().splitlines()
        assert header == "epoch,refresh_index,train_loss,val_loss,val_pair_accuracy,consistency,wall_seconds"
        assert len(body) == 2

    def test_returns_the_last_adam_step(self, monkeypatch):
        # validation loss rises every epoch, so a pick by lowest val_loss
        # would return the parameters of epoch 0
        validated = []

        def rising_validate(params, split):
            validated.append(params.copy())
            return float(len(validated)), 0.5

        stepped = []
        real_adam_step = selftrain.adam_step

        def recording_adam_step(*args, **kwargs):
            out = real_adam_step(*args, **kwargs)
            stepped.append(out[0])
            return out

        monkeypatch.setattr(selftrain, "_validate", rising_validate)
        monkeypatch.setattr(selftrain, "adam_step", recording_adam_step)
        params, rows = train(er_dataset(3, 10, 0.3, seed=0), small_cfg(total_epochs=4))
        assert [r.val_loss for r in rows] == [1.0, 2.0, 3.0, 4.0]
        assert not np.array_equal(validated[0].flat, stepped[-1].flat)
        assert np.array_equal(params.flat, stepped[-1].flat)

    def test_logs_the_tie_share_of_every_refresh(self, caplog):
        data = er_dataset(3, 10, 0.3, seed=0)
        with caplog.at_level("INFO", logger="cmpdp.selftrain"):
            train(data, small_cfg(total_epochs=4))
        lines = [rec.getMessage() for rec in caplog.records if "estimate ties" in rec.getMessage()]
        assert [line.split(":")[0] for line in lines] == ["refresh 0", "refresh 1"]
        assert all("capacity 12" in line for line in lines)

    def test_roll_outs_take_reductions_without_a_forward(self, monkeypatch):
        # forward passes of the learned comparator over fixed tiny runs. At
        # p=0.15: 453 before roll-outs took degree-1 vertices for free, 114
        # after, with or without the domination rule. At p=0.35: 195 with the
        # degree-1 rule alone, 147 with the domination rule too
        calls = []
        real = dpsolve.score_graph

        def counting(params, g, table=None):
            calls.append(g.n)
            return real(params, g, table)

        monkeypatch.setattr(dpsolve, "score_graph", counting)
        for p, bound in ((0.15, 453 // 2), (0.35, 170)):
            calls.clear()
            train(er_dataset(6, 15, p, seed=0), small_cfg(mixed=True))
            assert 0 < len(calls) <= bound, p

    def test_one_gradient_call_per_adam_step(self, monkeypatch):
        # a mini-batch is one forward and one backward over all its pairs
        batches, steps = [], []
        real_grad, real_adam_step = selftrain.pair_loss_and_grad, selftrain.adam_step

        def counting_grad(params, batch):
            batches.append(len(batch))
            return real_grad(params, batch)

        def counting_adam_step(*args, **kwargs):
            steps.append(len(batches))
            return real_adam_step(*args, **kwargs)

        monkeypatch.setattr(selftrain, "pair_loss_and_grad", counting_grad)
        monkeypatch.setattr(selftrain, "adam_step", counting_adam_step)
        train(er_dataset(6, 15, 0.15, seed=0), small_cfg(batch_size=4))
        assert steps == list(range(1, len(batches) + 1))
        assert max(batches) == 4

    def test_degenerate_buffer_warns_but_trains(self, caplog):
        # triangles only: every harvested pair ties at estimate 1
        data = [build_graph(3, [(0, 1), (1, 2), (0, 2)])] * 3
        with caplog.at_level("WARNING"):
            _, rows = train(data, small_cfg(total_epochs=2))
        assert len(rows) == 2
        assert any("tie" in rec.message for rec in caplog.records)
