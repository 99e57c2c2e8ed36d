"""Exact branch-and-bound against brute force, greedy traces, local search,
and the complementation identity; the exact and greedy solvers against
their rescanning references, on every generator family."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpdp.classic import (
    EXACT_VERTEX_LIMIT,
    GraphTooLargeError,
    exact_mis,
    exact_mis_size,
    exact_mvc,
    greedy_mis,
    greedy_mvc,
    local_search_mis,
)
from cmpdp.generators import GenSpec, generate
from cmpdp.graph import build_graph

from helpers import (
    brute_force_mis_size,
    brute_force_mvc_size,
    random_chordal,
    random_forest,
    random_graph,
    reference_exact_mis,
    reference_greedy_mis,
    reference_greedy_mvc,
    reference_local_search_mis,
    sparse_graph,
)


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


FAMILIES = ("er", "ba", "forest", "chordal", "special")


@st.composite
def family_graphs(draw, max_n=40):
    """A graph of one generator family: ER (edgeless and complete included),
    BA, a random forest, a chordal graph or a special instance."""
    family = draw(st.sampled_from(FAMILIES))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(0, max_n))
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    rng = random.Random(seed)
    if family == "er":
        return random_graph(rng, n, p)
    if family == "ba":
        n = max(n, 2)
        return generate(GenSpec("ba", n=n, attach=1 + seed % min(3, n - 1), seed=seed))
    if family == "forest":
        return random_forest(rng, n, p)
    if family == "chordal":
        return random_chordal(rng, max(n, 3))
    return generate(GenSpec("special", n=1 + n % 12, surplus=seed % 6, seed=seed))


@st.composite
def budgeted_graphs(draw):
    """(graph, budget): no budget up to 40 vertices, a budget of 0, 1, 3 or
    50 branch nodes up to 120."""
    budget = draw(st.sampled_from([None, 0, 1, 3, 50]))
    return draw(family_graphs(40 if budget is None else 120)), budget


class TestExactMis:
    def test_triangle(self):
        assert exact_mis(triangle()).size == 1

    def test_five_cycle(self):
        assert exact_mis(cycle(5)).size == 2

    def test_special_instance(self):
        g = generate(GenSpec("special", n=5, surplus=2, seed=0))
        r = exact_mis(g)
        assert r.size == 5 and r.optimal

    def test_matches_brute_force(self):
        rng = random.Random(77)
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            r = exact_mis(g)
            assert r.optimal
            assert r.size == brute_force_mis_size(g)
            assert r.vertex_set.valid_for(g)

    def test_deterministic(self):
        g = random_graph(random.Random(5), 14, 0.4)
        assert exact_mis(g).vertex_set == exact_mis(g).vertex_set

    def test_limit_enforced_without_budget(self):
        g = build_graph(EXACT_VERTEX_LIMIT + 1, [])
        with pytest.raises(GraphTooLargeError):
            exact_mis(g)

    def test_budget_exhaustion_is_explicit(self):
        g = random_graph(random.Random(3), 30, 0.5)
        r = exact_mis(g, budget=1)
        assert not r.optimal
        assert r.vertex_set.valid_for(g)  # the incumbent is still a real set
        full = exact_mis(g)
        assert full.optimal
        assert full.size >= r.size

    def test_size_cache_agrees(self):
        g = random_graph(random.Random(8), 13, 0.3)
        assert exact_mis_size(g) == exact_mis(g).size

    @settings(max_examples=300, deadline=None)
    @given(case=budgeted_graphs())
    def test_returns_the_rescanning_reference_result(self, case):
        # members, optimal and expanded: the same peel and branch order
        g, budget = case
        assert exact_mis(g, budget) == reference_exact_mis(g, budget)

    def test_branch_order_is_pinned_at_n_110(self):
        # the solve-large shape, G(110, 165): sizes and the branch nodes it
        # took to prove them, as measured with the rescanning solver
        results = [exact_mis(sparse_graph(110, 165, s), 2_000_000) for s in range(12)]
        assert all(r.optimal for r in results)
        assert [r.size for r in results] == [56, 56, 58, 58, 56, 59, 60, 56, 63, 57, 60, 60]
        assert sum(r.expanded for r in results) == 59

    def test_budgeted_run_at_n_2000_equals_the_reference(self):
        g = sparse_graph(2000, 3000, 1)
        r = exact_mis(g, 50)
        assert not r.optimal and r.expanded == 51
        assert r == reference_exact_mis(g, 50)


class TestExactMvc:
    def test_triangle(self):
        assert exact_mvc(triangle()).size == 2

    def test_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        r = exact_mvc(g)
        assert r.size == 1 and r.vertex_set.members == {1}

    def test_complement_identity(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 14), rng.random())
            assert exact_mis(g).size + exact_mvc(g).size == g.n

    def test_matches_brute_force(self):
        rng = random.Random(42)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            r = exact_mvc(g)
            assert r.size == brute_force_mvc_size(g)
            assert r.vertex_set.valid_for(g)


class TestGreedyMis:
    def test_path_endpoints(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert greedy_mis(g).members == {0, 2}

    def test_edgeless(self):
        g = build_graph(4, [])
        assert len(greedy_mis(g)) == 4

    def test_special_trap(self):
        # the low-degree attachments and one clique vertex: size 3, not n
        for seed in (0, 1, 2):
            g = generate(GenSpec("special", n=7, surplus=2, seed=seed))
            assert len(greedy_mis(g)) == 3

    def test_always_valid(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 20), rng.random())
            assert greedy_mis(g).valid_for(g)

    def test_deterministic(self):
        g = random_graph(random.Random(1), 15, 0.3)
        assert greedy_mis(g).members == greedy_mis(g).members

    @settings(max_examples=300, deadline=None)
    @given(g=family_graphs(120))
    def test_returns_the_rescanning_reference_set(self, g):
        assert greedy_mis(g) == reference_greedy_mis(g)


class TestGreedyMvc:
    def test_star_center(self):
        g = build_graph(5, [(0, i) for i in range(1, 5)])
        assert greedy_mvc(g).members == {0}

    def test_triangle(self):
        assert len(greedy_mvc(triangle())) == 2

    def test_path4_trace(self):
        # picks vertex 1 (degree 2, smallest id), then one endpoint of (2,3)
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert greedy_mvc(g).members == {1, 2}

    def test_always_valid(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 20), rng.random())
            assert greedy_mvc(g).valid_for(g)

    @settings(max_examples=300, deadline=None)
    @given(g=family_graphs(120))
    def test_returns_the_rescanning_reference_set(self, g):
        assert greedy_mvc(g) == reference_greedy_mvc(g)


class TestLocalSearch:
    def test_edgeless_returns_everything(self):
        g = build_graph(6, [])
        assert len(local_search_mis(g, 0.0, seed=0)) == 6

    def test_triangle(self):
        assert len(local_search_mis(triangle(), 0.05, seed=1)) == 1

    def test_path_reaches_two(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        sizes = {len(local_search_mis(g, 0.05, seed=s)) for s in range(10)}
        assert sizes <= {1, 2}
        assert 2 in sizes

    def test_always_valid(self):
        rng = random.Random(17)
        for s in range(20):
            g = random_graph(rng, rng.randint(1, 15), rng.random())
            assert local_search_mis(g, 0.01, seed=s).valid_for(g)

    def test_move_budget_is_deterministic(self):
        g = random_graph(random.Random(3), 12, 0.3)
        a = local_search_mis(g, 10.0, seed=5, max_moves=200)
        b = local_search_mis(g, 10.0, seed=5, max_moves=200)
        assert a.members == b.members

    @settings(max_examples=150, deadline=None)
    @given(graph_seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
           p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), isolated=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1), cap=st.sampled_from([0, 1, 7, 200, 2000, None]))
    def test_returns_the_rebuilding_reference_set(self, graph_seed, n, p, isolated, seed, cap):
        # edgeless (p = 0), complete (p = 1) and isolated vertices beside
        # edges; with no move cap, a zero time limit allows no move at all
        g = random_graph(random.Random(graph_seed), n, p)
        g = build_graph(g.n + isolated, g.edges())
        time_limit = 0.0 if cap is None else 60.0
        want = reference_local_search_mis(g, time_limit, seed, cap)
        assert local_search_mis(g, time_limit, seed, cap) == want
