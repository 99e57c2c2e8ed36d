"""Scorer network: forward against a straight-line oracle, invariances,
loss values, Adam, and the weight-file format."""

import hashlib
import math
import platform
import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpdp import net
from cmpdp.dpsolve import learned_mis_comparator
from cmpdp.graph import build_graph, relabel
from cmpdp.net import (
    MAGIC,
    ClassTable,
    CmpParams,
    NonFiniteError,
    WeightChecksumError,
    WeightDimensionError,
    WeightFileError,
    WeightFormatError,
    WeightTruncatedError,
    adam_step,
    head_dims,
    init_adam,
    init_params,
    load_params,
    pair_loss_and_grad,
    param_count,
    params_from_bytes,
    params_to_bytes,
    save_params,
    score_graph,
    score_graphs,
    zeros_like_params,
)

from helpers import (
    HOSTILE_GEOMETRIES,
    degree_class_graphs,
    hostile_header,
    mixed_pairs,
    pairwise_loss_value,
    random_graph,
    reference_adam,
    reference_pair_loss,
    sparse_graph,
    straight_line_logit,
)


def zeroed(params: CmpParams) -> CmpParams:
    out = params.copy()
    for _, tensor in out.tensors():
        tensor[...] = 0.0
    return out


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def path3():
    return build_graph(3, [(0, 1), (1, 2)])


class TestInit:
    def test_default_geometry(self):
        p = init_params(3, 32, 4, seed=0)
        assert [w.shape for w in p.head_w] == [(32, 96), (32, 32), (32, 32), (1, 64)]
        assert p.self_w[0].shape == (32, 96)
        assert len(p.self_w) == 3
        p.check_shapes()

    def test_minimal_geometry(self):
        p = init_params(1, 2, 2, seed=0)
        assert head_dims(2, 2) == [(6, 2), (4, 1)]
        assert [w.shape for w in p.head_w] == [(2, 6), (1, 4)]
        p.check_shapes()

    def test_seed_reproducibility(self):
        a = init_params(2, 4, 3, seed=9)
        b = init_params(2, 4, 3, seed=9)
        for (_, x), (_, y) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(x, y)

    def test_norms_start_at_identity(self):
        p = init_params(2, 4, 3, seed=1)
        assert np.array_equal(p.norm_scale[0], np.ones(12))
        assert np.array_equal(p.head_norm_shift[0], np.zeros(4))

    def test_param_count_matches_tensors(self):
        for geometry in ((1, 1, 2), (1, 2, 2), (2, 4, 3), (3, 5, 5), (3, 32, 4)):
            p = init_params(*geometry, seed=0)
            assert param_count(*geometry) == sum(a.size for _, a in p.tensors())

    def test_serialized_init_is_stable(self):
        # pins the canonical tensor order and the per-seed initial draws
        digest = hashlib.sha256(params_to_bytes(init_params(2, 4, 3, seed=9))).hexdigest()
        assert digest == "cbbf38e58ce178306047e5f30891956d1c690030eed6aa3bd68bf5f72c0c9feb"

    def test_bad_geometry(self):
        with pytest.raises(WeightDimensionError):
            init_params(0, 4, 3, seed=0)
        with pytest.raises(WeightDimensionError):
            init_params(1, 4, 1, seed=0)

    @pytest.mark.parametrize("geometry", [(3, 100_000, 4), (10**9, 32, 4), (3, 32, 10**9)])
    def test_geometry_above_the_cap_rejected_before_building(self, geometry):
        # a layout of 10**9 rounds would take minutes and gigabytes to list
        assert param_count(*geometry) > net.MAX_PARAMS
        with pytest.raises(WeightDimensionError, match="parameters"):
            net.param_layout(*geometry)


class TestFlatStorage:
    def test_wrong_length_or_dtype_rejected(self):
        n = param_count(2, 4, 3)
        for flat in (np.zeros(n - 1), np.zeros(n + 1), np.zeros(0), np.zeros((1, n)), np.zeros(n, np.float32)):
            with pytest.raises(WeightDimensionError, match="flat"):
                CmpParams(2, 4, 3, flat)

    def test_views_write_through_and_copy_does_not_alias(self):
        p = init_params(2, 4, 3, seed=1)
        q = p.copy()
        p.head_b[0][0] = 7.0
        assert np.array_equal(p.flat, np.concatenate([t.ravel() for _, t in p.tensors()]))
        assert params_from_bytes(params_to_bytes(p)).head_b[0][0] == 7.0
        assert q.head_b[0][0] != 7.0
        assert not np.shares_memory(p.flat, q.flat)


class TestForward:
    def test_zero_params_score_zero(self):
        p = zeroed(init_params(2, 4, 3, seed=0))
        for g in (triangle(), path3(), build_graph(5, [])):
            logit, _ = score_graph(p, g)
            assert logit == 0.0

    def test_empty_graph_scores_zero(self):
        p = init_params(2, 4, 3, seed=0)
        logit, trace = score_graph(p, build_graph(0, []))
        assert logit == 0.0 and trace.live == []
        logits, trace = score_graphs(p, [build_graph(0, [])] * 2)
        assert logits.tolist() == [0.0, 0.0] and trace.live == []

    @pytest.mark.parametrize("head_layers", [2, 4, 5])
    def test_straight_line_oracle(self, head_layers):
        # at 2 the final layer's skip half is the single hidden layer itself
        graphs = [triangle(), path3(), build_graph(6, [(0, 3), (1, 4), (2, 5), (0, 5)])]
        graphs += degree_class_graphs().values()
        # a batch mixes sizes, holds an empty graph and repeats a graph
        batch = graphs + [build_graph(0, []), graphs[0], build_graph(1, [])]
        for rounds in (2, 4, 5):
            p = init_params(rounds, 3, head_layers, seed=rounds)
            for g in graphs:
                fast, _ = score_graph(p, g)
                slow = straight_line_logit(p, g)
                assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-12), (rounds, g)
            batched, _ = score_graphs(p, batch)
            for z, g in zip(batched, batch):
                assert math.isclose(z, straight_line_logit(p, g), rel_tol=1e-12, abs_tol=1e-12), (rounds, g)

    def test_seed0_k3_vs_p3_reproducible(self):
        p = init_params(3, 4, 4, seed=0)
        a1, _ = score_graph(p, triangle())
        a2, _ = score_graph(p, triangle())
        b, _ = score_graph(p, path3())
        assert a1 == a2
        assert math.isclose(a1, straight_line_logit(p, triangle()), rel_tol=1e-9)
        assert math.isclose(b, straight_line_logit(p, path3()), rel_tol=1e-9)

    def test_permutation_invariance(self):
        rng = random.Random(31)
        p = init_params(2, 6, 3, seed=4)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            perm = list(range(g.n))
            rng.shuffle(perm)
            za, _ = score_graph(p, g)
            zb, _ = score_graph(p, relabel(g, perm))
            assert abs(za - zb) <= 1e-6 * (1.0 + abs(za))

    def test_single_round_carries_no_structure(self):
        # zero initial embeddings mean the first round sees only biases, so
        # every graph of any size gets the same logit; structure enters from
        # round two onward through the degree-weighted sums
        p = init_params(1, 4, 3, seed=6)
        za, _ = score_graph(p, triangle())
        zb, _ = score_graph(p, build_graph(7, [(0, 1)]))
        assert math.isclose(za, zb, rel_tol=1e-12)
        p2 = init_params(2, 4, 3, seed=6)
        zc, _ = score_graph(p2, triangle())
        zd, _ = score_graph(p2, path3())
        assert abs(zc - zd) > 1e-6

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("tensor", ["self_w", "neigh_w", "anti_w", "norm_scale", "norm_shift", "head_w", "head_b",
                                        "head_norm_scale", "head_norm_shift"])
    def test_non_finite_params_detected(self, tensor, value, rounds):
        # round 0 multiplies zero inputs, so only the product 0 * inf = nan
        # carries a bad round-0 weight into the embeddings
        p = init_params(rounds, 2, 2, seed=0)
        getattr(p, tensor)[0].flat[0] = value
        layer = "head layer 0" if tensor.startswith("head") else "round 0"
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match=layer) as traced:
            score_graph(p, triangle())
        # the comparator's forwards run the folded pass, where a norm's
        # scale and shift become the next layer's weights and bias, and
        # still name the same layer
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as untraced:
            learned_mis_comparator(p)(triangle(), path3())
        assert str(untraced.value) == str(traced.value)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("tensor", ["head_w", "head_b"])
    def test_non_finite_final_layer_named_on_every_path(self, tensor, value):
        p = init_params(2, 2, 3, seed=0)
        getattr(p, tensor)[-1].flat[0] = value
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="final head layer") as traced:
            score_graph(p, triangle())
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as untraced:
            learned_mis_comparator(p)(triangle(), path3())
        assert str(untraced.value) == str(traced.value)


class TestClassTable:
    @settings(max_examples=40, deadline=None)
    @given(rounds=st.integers(1, 5), head_layers=st.integers(2, 4), width=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_logits_match_the_traced_pass_in_any_order(self, rounds, head_layers, width, seed):
        rng = random.Random(seed)
        p = init_params(rounds, width, head_layers, seed=seed)
        # the empty graph, edgeless graphs, isolated vertices beside edges
        corpus = [build_graph(0, []), build_graph(1, []), build_graph(9, []), build_graph(6, [(0, 1), (1, 2)])]
        corpus += [random_graph(rng, rng.randint(0, 60), 0.4 * rng.random()) for _ in range(10)]
        corpus += [random_graph(rng, corpus[-1].n, 0.2) for _ in range(2)]  # sizes repeat, so classes are shared
        want = score_graphs(p, corpus)[0]
        order = list(range(len(corpus)))
        rng.shuffle(order)
        table = ClassTable(p)
        got = {}
        for i in order:
            got[i], trace = score_graph(p, corpus[i], table)
            assert trace is None
            assert abs(got[i] - want[i]) <= 1e-12, (i, got[i], want[i])
        classes = {(g.n, len(row)) for g in corpus for row in g.adjacency}
        assert len(table.rows) == (len(classes) if rounds > 1 else 0)
        # another table meeting the graphs in the opposite order gives the same bits
        other = ClassTable(p)
        assert [score_graph(p, corpus[i], other)[0] for i in reversed(order)] == [got[i] for i in reversed(order)]

    @pytest.mark.parametrize("head_layers", [2, 3, 4, 5])
    @pytest.mark.parametrize("rounds", [1, 2, 3, 4, 5])
    def test_single_graphs_score_bit_for_bit_as_traced(self, rounds, head_layers):
        # a single graph's folded logit keeps its bits whatever the table
        # holds, and lies within 1e-12 of the traced logit: the folds reorder
        # the arithmetic, so it may move in its last bits, and a learned
        # decision moves only where the traced gap is this small
        rng = random.Random(12)
        for width in range(1, 9):
            p = init_params(rounds, width, head_layers, seed=width)
            table = ClassTable(p)
            corpus = [build_graph(1, []), build_graph(7, []), build_graph(6, [(0, 1), (1, 2)])]
            corpus += [random_graph(rng, rng.randint(1, 60), 0.3 * rng.random()) for _ in range(12)]
            got = [score_graph(p, g, table)[0] for g in corpus]
            for g, zf in zip(corpus, got):
                z = score_graph(p, g)[0]
                assert abs(zf - z) <= 1e-12 * max(1.0, abs(z)), (width, g)
                assert score_graph(p, g, table)[0] == zf  # the table warmed by the whole corpus
                assert score_graph(p, g, ClassTable(p))[0] == zf  # a cold table

    def test_stays_within_its_cap(self, monkeypatch):
        rng = random.Random(8)
        p = init_params(3, 4, 3, seed=5)
        monkeypatch.setattr(net, "TABLE_VALUES", 12 * 3 * 4)  # 12 classes of 3w values
        table = ClassTable(p)
        assert table.cap == 12
        corpus = [random_graph(rng, rng.randint(1, 40), 0.3) for _ in range(40)]
        want = score_graphs(p, corpus)[0]
        for g, z in zip(corpus, want):
            assert abs(score_graph(p, g, table)[0] - z) <= 1e-12
            assert len(table.rows) <= 12

    def test_store_policy_at_a_cap_of_three_classes(self, monkeypatch):
        # a graph with more classes than the cap leaves the store as it is;
        # one whose new classes would overflow it empties it first
        p = init_params(3, 4, 3, seed=2)
        monkeypatch.setattr(net, "TABLE_VALUES", 3 * 3 * 4)  # 3 classes of 3w values
        table = ClassTable(p)
        assert table.cap == 3
        calls = []
        real_new_rows = ClassTable._new_rows

        def counting(self, *args):
            calls.append(args)
            return real_new_rows(self, *args)

        monkeypatch.setattr(ClassTable, "_new_rows", counting)
        path = build_graph(4, [(0, 1), (1, 2), (2, 3)])  # classes (4, 1), (4, 2)
        four = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2)])  # degrees 3, 2, 1, 0
        three = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])  # degrees 1, 2, 0
        cumulative = []
        for g in (path, four, path, three, path):
            z = score_graph(p, g, table)[0]
            assert abs(z - score_graphs(p, [g])[0][0]) <= 1e-12
            cumulative.append(len(calls))
        assert cumulative == [1, 2, 2, 3, 4]

    def test_kept_with_the_parameters_until_they_change(self):
        p = init_params(2, 3, 2, seed=0)
        table = net.class_table(p)
        assert net.class_table(p) is table
        p.self_b[0][0] += 1.0
        changed = net.class_table(p)
        assert changed is not table
        assert score_graph(p, triangle(), changed)[0] == score_graph(p, triangle())[0]
        assert net.class_table(p.copy()) is not changed


class TestMemory:
    # a dense n x n float64 adjacency alone is 800 MB at n = 10,000
    GRAPHS = {"sparse": lambda: sparse_graph(10_000, 15_000, seed=3),
              "star": lambda: build_graph(10_000, [(0, v) for v in range(1, 10_000)])}

    def check_peak(self, geometry, shape, folded: bool) -> None:
        import tracemalloc

        g = self.GRAPHS[shape]()
        p = init_params(*geometry, seed=0)
        table = ClassTable(p) if folded else None
        tracemalloc.start()
        try:
            score_graph(p, g, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200e6, f"{peak / 1e6:.0f} MB"

    @pytest.mark.parametrize("geometry", [(3, 32, 4), (4, 32, 4)])
    @pytest.mark.parametrize("shape", ["sparse", "star"])
    def test_forward_peak_stays_linear_in_the_graph(self, geometry, shape):
        self.check_peak(geometry, shape, folded=False)

    @pytest.mark.parametrize("geometry", [(3, 32, 4), (4, 32, 4)])
    @pytest.mark.parametrize("shape", ["sparse", "star"])
    def test_folded_peak_stays_linear_in_the_graph(self, geometry, shape):
        # the pass that solves run, from a class table that starts empty
        self.check_peak(geometry, shape, folded=True)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
class TestHeap:
    @pytest.fixture(autouse=True)
    def no_malloc_settings(self, monkeypatch):
        for key in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES"):
            monkeypatch.delenv(key, raising=False)

    def test_repeated_forwards_do_not_fault_pages_back_in(self):
        # the arrays of one forward at n = 110 are about 1 MB; handed back to
        # the kernel after each pass, they cost hundreds of faults per pass
        import resource

        assert net._keep_freed_heap()
        p = init_params(3, 32, 4, seed=0)
        g = random_graph(random.Random(5), 110, 0.03)
        for _ in range(5):
            score_graph(p, g)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            score_graph(p, g)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500

    @pytest.mark.parametrize("key, value", [("MALLOC_TRIM_THRESHOLD_", "131072"),
                                            ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072")])
    def test_malloc_settings_in_the_environment_win(self, monkeypatch, key, value):
        monkeypatch.setenv(key, value)
        assert not net._keep_freed_heap()


class TestCmp:
    def test_zero_params_never_prefer_second(self):
        compare = learned_mis_comparator(zeroed(init_params(1, 2, 2, seed=0)))
        assert compare(triangle(), path3()) == 0
        assert compare(path3(), triangle()) == 0

    def test_irreflexive(self):
        compare = learned_mis_comparator(init_params(2, 4, 3, seed=2))
        g = random_graph(random.Random(0), 8, 0.4)
        assert compare(g, g) == 0

    def test_antisymmetric_when_scores_differ(self):
        p = init_params(2, 4, 3, seed=2)
        compare = learned_mis_comparator(p)
        g, h = triangle(), path3()
        za, _ = score_graph(p, g)
        zb, _ = score_graph(p, h)
        assert za != zb
        assert compare(g, h) + compare(h, g) == 1


class TestPairLoss:
    def test_identical_graphs_give_ln2(self):
        p = init_params(2, 4, 3, seed=7)
        g = triangle()
        for label in (0, 1):
            (loss,), _ = pair_loss_and_grad(p, [(g, g, label)])
            assert math.isclose(loss, math.log(2.0), rel_tol=1e-12)
            assert math.isclose(pairwise_loss_value(p, g, g, label), math.log(2.0), rel_tol=1e-12)

    def test_zero_params_give_ln2(self):
        p = zeroed(init_params(2, 4, 3, seed=7))
        for label in (0, 1):
            (loss,), grads = pair_loss_and_grad(p, [(triangle(), path3(), label)])
            assert math.isclose(loss, math.log(2.0), rel_tol=1e-12)

    def test_identical_graphs_have_zero_gradient(self):
        p = init_params(2, 4, 3, seed=7)
        _, grads = pair_loss_and_grad(p, [(triangle(), triangle(), 0)])
        assert all(np.allclose(t, 0.0, atol=1e-12) for _, t in grads.tensors())

    @pytest.mark.parametrize("geometry", [(1, 4, 2), (3, 5, 3)])
    def test_round0_weight_gradients_are_exact_zeros(self, geometry):
        # round 0 sees only the zero initial embeddings
        p = init_params(*geometry, seed=3)
        rng = random.Random(8)
        _, grads = pair_loss_and_grad(p, [(random_graph(rng, 9, 0.3), random_graph(rng, 12, 0.4), 1)])
        for name in ("self_w", "neigh_w", "anti_w"):
            assert not getattr(grads, name)[0].any()
            assert getattr(grads, name.replace("_w", "_b"))[0].any()
            assert all(w.any() for w in getattr(grads, name)[1:])

    @pytest.mark.parametrize("geometry", [(1, 4, 2), (3, 5, 3), (4, 6, 4)])
    def test_the_backward_pass_reuses_the_forwards_phi(self, monkeypatch, geometry):
        # one normal CDF per block, taken in the forward pass: the message
        # rounds, then the hidden head layers
        calls, real = [], net.ndtr

        def counting(x):
            calls.append(x.shape)
            return real(x)

        monkeypatch.setattr(net, "ndtr", counting)
        p = init_params(*geometry, seed=4)
        rng = random.Random(9)
        pair_loss_and_grad(p, [(random_graph(rng, 9, 0.3), random_graph(rng, 12, 0.4), 1), (triangle(), path3(), 0)])
        assert len(calls) == geometry[0] + geometry[2] - 1

    def test_label_validated(self):
        p = init_params(1, 2, 2, seed=0)
        with pytest.raises(ValueError):
            pair_loss_and_grad(p, [(triangle(), path3(), 2)])
        # every label is checked before any forward pass, which these
        # parameters would fail with a NonFiniteError
        p.self_w[0][0, 0] = np.nan
        batch = [(triangle(), path3(), 0), (path3(), triangle(), 1), (triangle(), path3(), 2)]
        with pytest.raises(ValueError, match="got 2 at index 2"):
            pair_loss_and_grad(p, batch)

    def test_loss_matches_forward_only_path(self):
        p = init_params(2, 3, 3, seed=5)
        for label in (0, 1):
            (loss,), _ = pair_loss_and_grad(p, [(triangle(), path3(), label)])
            reference = pairwise_loss_value(p, triangle(), path3(), label)
            assert math.isclose(loss, reference, rel_tol=1e-12)
        # on the batch's own logits, each loss is the reference exactly
        batch = mixed_pairs()
        losses, _ = pair_loss_and_grad(p, batch)
        logits, _ = score_graphs(p, [g for g, _, _ in batch] + [gp for _, gp, _ in batch])
        z0, z1 = logits[: len(batch)].tolist(), logits[len(batch) :].tolist()
        assert losses == [reference_pair_loss(a, b, label) for a, b, (_, _, label) in zip(z0, z1, batch)]


class TestAdam:
    def test_zero_grads_leave_params(self):
        p = init_params(1, 3, 2, seed=3)
        state = init_adam(p)
        updated, new_state = adam_step(p, zeros_like_params(p), state, lr=0.1)
        assert new_state.step == 1
        for (_, a), (_, b) in zip(p.tensors(), updated.tensors()):
            assert np.array_equal(a, b)

    def test_first_step_magnitude(self):
        p = init_params(1, 2, 2, seed=0)
        grads = zeros_like_params(p)
        grads.self_w[0][0, 0] = 1.0
        before = p.self_w[0][0, 0]
        updated, _ = adam_step(p, grads, init_adam(p), lr=0.001)
        # bias correction makes the first step exactly lr (up to eps)
        assert math.isclose(updated.self_w[0][0, 0], before - 0.001, abs_tol=1e-9)
        assert updated.self_w[0][0, 1] == p.self_w[0][0, 1]

    def test_inputs_not_mutated_and_deterministic(self):
        p = init_params(1, 2, 2, seed=1)
        snapshot = p.copy()
        grads = zeros_like_params(p)
        grads.head_b[0][0] = 0.5
        s0 = init_adam(p)
        a, sa = adam_step(p, grads, s0, lr=0.01)
        b, sb = adam_step(p, grads, s0, lr=0.01)
        for (_, x), (_, y) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(x, y)
        assert sa.step == sb.step == 1
        for (_, x), (_, y) in zip(p.tensors(), snapshot.tensors()):
            assert np.array_equal(x, y)


    def test_matches_per_tensor_reference(self):
        p = init_params(2, 4, 3, seed=5)
        rng = np.random.default_rng(0)
        grads_seq = [CmpParams(2, 4, 3, rng.normal(size=p.flat.size)) for _ in range(3)]
        q, state = p, init_adam(p)
        for grads in grads_seq:
            q, state = adam_step(q, grads, state, lr=0.01)
        want = reference_adam(p, grads_seq, lr=0.01)
        assert state.step == 3
        for name, tensor in q.tensors():
            assert np.array_equal(tensor, want[name]), name


class TestWeightFile:
    def test_roundtrip_bitwise(self):
        for seed in range(3):
            p = init_params(2, 5, 3, seed=seed)
            q = params_from_bytes(params_to_bytes(p))
            assert (q.rounds, q.width, q.head_layers) == (2, 5, 3)
            for (na, a), (nb, b) in zip(p.tensors(), q.tensors()):
                assert na == nb
                assert np.array_equal(a, b)

    def test_wrong_magic(self):
        data = b"NOTANET" + params_to_bytes(init_params(1, 2, 2, seed=0))[7:]
        with pytest.raises(WeightFormatError, match="magic"):
            params_from_bytes(data)

    def test_truncation(self):
        data = params_to_bytes(init_params(1, 2, 2, seed=0))
        with pytest.raises(WeightTruncatedError):
            params_from_bytes(data[:-10])

    def test_trailing_bytes(self):
        data = params_to_bytes(init_params(1, 2, 2, seed=0))
        with pytest.raises(WeightFormatError, match="trailing"):
            params_from_bytes(data + b"x")

    def test_checksum(self):
        data = bytearray(params_to_bytes(init_params(1, 2, 2, seed=0)))
        data[40] ^= 0xFF
        with pytest.raises(WeightChecksumError):
            params_from_bytes(bytes(data))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_body_is_format_error(self, value):
        p = init_params(1, 2, 2, seed=0)
        p.flat[5] = value
        data = params_to_bytes(p)  # the checksum covers the bad value
        with pytest.raises(WeightFormatError, match="non-finite"):
            params_from_bytes(data)

    def test_file_roundtrip(self, tmp_path):
        p = init_params(2, 3, 4, seed=11)
        path = tmp_path / "weights.cmp"
        save_params(p, path)
        q = load_params(path)
        assert (q.rounds, q.width, q.head_layers) == (2, 3, 4)
        for (_, a), (_, b) in zip(p.tensors(), q.tensors()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("geometry", HOSTILE_GEOMETRIES)
    def test_huge_declared_geometry_rejected_by_length(self, geometry):
        data = hostile_header(geometry)
        assert len(data) == 35
        with pytest.raises(WeightTruncatedError):
            params_from_bytes(data)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_and_mutated_bytes_raise_only_weight_file_errors(self, data):
        valid = bytearray(params_to_bytes(init_params(1, 2, 2, seed=0)))
        kind = data.draw(st.sampled_from(("random", "flip", "header")))
        if kind == "random":
            blob = data.draw(st.binary(max_size=2 * len(valid)))
        elif kind == "flip":
            for pos, xor in data.draw(
                st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)), max_size=6)
            ):
                valid[pos] ^= xor
            cut = data.draw(st.integers(0, len(valid)))
            blob = bytes(valid[:cut]) + data.draw(st.binary(max_size=16))
        else:
            int64 = st.integers(-(2**63), 2**63 - 1)
            geometry = data.draw(st.tuples(int64 | st.integers(0, 4), int64 | st.integers(0, 4),
                                           int64 | st.integers(0, 4)))
            body = MAGIC + np.array(geometry, dtype="<i8").tobytes() + bytes(valid[31:-4])
            blob = body + np.array([zlib.crc32(body)], dtype="<u4").tobytes()
        try:
            params = params_from_bytes(blob)
        except WeightFileError:
            return
        assert params_to_bytes(params) == blob

