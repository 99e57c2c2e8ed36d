"""Comparator-guided solvers: validity under arbitrary comparators, optimality
under exact comparators, gadget construction, and roll-out estimates."""

import dataclasses
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpdp import dpsolve
from cmpdp.classic import exact_mis_size, exact_mvc_size, greedy_mis
from cmpdp.dpsolve import (
    build_mvc_gadgets,
    derive_seed,
    learned_mis_comparator,
    learned_mvc_comparator,
    mixed_estimate,
    oracle_mis_comparator,
    oracle_mvc_comparator,
    random_comparator,
    rollout_estimate,
    solve_mis,
    solve_mvc,
)
from cmpdp.generators import GenSpec, generate
from cmpdp.graph import GraphError, build_graph, remove_neighbors, remove_vertex, remove_vertices
from cmpdp.net import init_params, score_graph

from helpers import (
    degree_class_graphs,
    random_chordal,
    random_forest,
    random_graph,
    reference_mvc_gadgets,
    reference_solve_mvc,
)


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def path3():
    return build_graph(3, [(0, 1), (1, 2)])


def k6_minus_edge():
    return build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) != (0, 1)])


def always(value):
    return lambda g0, g1: value


def recording(comparator):
    """The comparator, and the list of the branch graphs it picks, in order."""
    picked = []

    def compare(g0, g1):
        choice = comparator(g0, g1)
        picked.append(g1 if choice else g0)
        return choice

    return compare, picked


def lowest_pendant(g):
    return next((v for v in range(g.n) if g.degree(v) == 1), None)


def lowest_dominated(g):
    """The lowest-id vertex u with a neighbour v such that N[v] ⊆ N[u], or None."""
    closed = [set(g.adjacency[v]) | {v} for v in range(g.n)]
    return next((u for u in range(g.n) if any(closed[v] <= closed[u] for v in g.adjacency[u])), None)


def lowest_foldable(g):
    """The lowest-id vertex of degree 2 whose two neighbours are not adjacent, or None."""
    return next((v for v, row in enumerate(g.adjacency) if len(row) == 2 and row[1] not in g.adjacency[row[0]]), None)


def fold(g, v):
    """``g`` with v, a and b merged into one vertex at v's place, adjacent to
    N(a) ∪ N(b) − {v}, where a and b are v's two neighbours; and the
    surviving ids of ``g``."""
    a, b = g.adjacency[v]
    merged = (set(g.adjacency[a]) | set(g.adjacency[b])) - {v}
    return remove_vertices(build_graph(g.n, g.edges() + [(v, x) for x in merged]), (a, b))


def unfolded(members, folds):
    """The members with the fold records ``(v, a, b)`` undone newest first:
    a merged vertex in the set gives way to a and b, else v joins."""
    members = set(members)
    for v, a, b in reversed(folds):
        members = members - {v} | {a, b} if v in members else members | {v}
    return frozenset(members)


def reduced(g):
    """The reference for the reduction ``solve_mis(..., reduce=True)`` makes
    before a decision, one deleted vertex or one fold per graph edit: the
    neighbour of the lowest-id degree-1 vertex until none is left, then the
    lowest-id dominated vertex until none is left, then a fold of the
    lowest-id foldable vertex until none is left, and again from the start
    until none applies.
    Returns the reduced graph, the ids of ``g`` its vertices stand for, and
    the fold records ``(v, a, b)`` in ids of ``g``, oldest first."""
    kept = list(range(g.n))
    folds = []

    def edit(result):
        nonlocal g, kept
        g, survivors = result
        kept = [kept[old] for old in survivors]

    while True:
        while (pendant := lowest_pendant(g)) is not None:
            edit(remove_vertex(g, g.adjacency[pendant][0]))
        while (u := lowest_dominated(g)) is not None:
            edit(remove_vertex(g, u))
        if lowest_foldable(g) is None:
            return g, kept, folds
        while (v := lowest_foldable(g)) is not None:
            folds.append(tuple(kept[x] for x in (v, *g.adjacency[v])))
            edit(fold(g, v))


def solve_mis_one_vertex_per_edit(g, comparator, seed):
    """The reference for ``solve_mis(..., reduce=True)``: :func:`reduced`
    before every decision, and every fold undone at the end. Returns the
    members in original ids and the recorded branch pairs."""
    rng = random.Random(seed)
    cur = g
    to_original = list(range(g.n))
    folds = []
    steps = []
    while True:
        cur, kept, new_folds = reduced(cur)
        folds += [tuple(to_original[x] for x in record) for record in new_folds]
        to_original = [to_original[old] for old in kept]
        if cur.m == 0:
            return unfolded(to_original, folds), steps
        candidates = [v for v, row in enumerate(cur.adjacency) if row]
        v = candidates[rng.randrange(len(candidates))]
        g0, kept0 = remove_vertex(cur, v)
        g1, kept1 = remove_neighbors(cur, v)
        steps.append((g0, g1))
        cur, kept = (g0, kept0) if comparator(g0, g1) == 0 else (g1, kept1)
        to_original = [to_original[old] for old in kept]


def min_degree_graph(rng, n, p, k=2):
    """A random graph on n > k vertices in which each vertex short of k
    neighbours is joined to random others until it has k."""
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    for v in range(n):
        while len(adj[v]) < k:
            u = rng.choice([x for x in range(n) if x != v and x not in adj[v]])
            adj[v].add(u)
            adj[u].add(v)
    return build_graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def k33():
    return build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def petersen():
    return build_graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def random_cubic(rng, n):
    """A uniform-ish simple cubic graph on an even n >= 4: random pairings of
    three stubs per vertex until one has no loop and no repeated edge."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            return build_graph(n, pairs)


def refuse(g0, g1):
    raise AssertionError("the comparator was asked")


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, "a", 1) == derive_seed(5, "a", 1)

    def test_parts_matter(self):
        seeds = {derive_seed(5, "a", i) for i in range(100)}
        assert len(seeds) == 100


class TestSolveMis:
    def test_edgeless_returns_all(self):
        g = build_graph(5, [])
        for comparator in (always(0), always(1), random_comparator(0)):
            vs, traj = solve_mis(g, comparator, seed=0)
            assert vs.members == set(range(5))
            assert traj.steps == []

    def test_triangle_any_comparator(self):
        for comparator in (always(0), always(1), random_comparator(3)):
            for seed in range(6):
                vs, _ = solve_mis(triangle(), comparator, seed)
                assert len(vs) == 1

    def test_path_oracle_always_optimal(self):
        comparator = oracle_mis_comparator()
        for seed in range(12):
            vs, _ = solve_mis(path3(), comparator, seed)
            assert vs.members == {0, 2}

    def test_validity_fuzz_random_comparator(self):
        rng = random.Random(100)
        for trial in range(150):
            g = random_graph(rng, rng.randint(0, 16), rng.random())
            compare, picked = recording(random_comparator(trial))
            vs, traj = solve_mis(g, compare, seed=trial)
            assert vs.valid_for(g)
            assert len(traj.steps) == len(picked) <= g.n
            cur = g
            for step, chosen in zip(traj.steps, picked):
                # each step's branches are those of one vertex of positive
                # degree of the graph the recursion stood on
                branches = {
                    (remove_vertex(cur, v)[0], remove_neighbors(cur, v)[0])
                    for v in range(cur.n) if cur.degree(v) > 0
                }
                assert step in branches
                cur = chosen
            assert cur.m == 0 and cur.n == len(vs)

    def test_validity_fuzz_random_comparator_reduced(self):
        rng = random.Random(101)
        for trial in range(150):
            g = random_graph(rng, rng.randint(0, 16), rng.random())
            compare, picked = recording(random_comparator(trial))
            vs, traj = solve_mis(g, compare, seed=trial, reduce=True)
            assert vs.valid_for(g)
            assert len(traj.steps) == len(picked)
            cur, _, folds = reduced(g)
            for step, chosen in zip(traj.steps, picked):
                # a step is recorded only where no vertex is dominated, so
                # none has degree 1 either, and no vertex can fold
                assert lowest_dominated(cur) is None and lowest_pendant(cur) is None
                assert lowest_foldable(cur) is None
                branches = {
                    (remove_vertex(cur, v)[0], remove_neighbors(cur, v)[0])
                    for v in range(cur.n) if cur.degree(v) > 0
                }
                assert step in branches
                cur, _, more = reduced(chosen)
                folds += more
            # each fold leaves one vertex in place of three and adds one to the set
            assert cur.m == 0 and cur.n + len(folds) == len(vs)

    def test_reduction_runs_match_one_vertex_per_edit(self):
        rng = random.Random(102)
        graphs = [k6_minus_edge()]
        for trial in range(350):
            make = random_forest if trial % 3 == 0 else random_graph
            graphs.append(make(rng, rng.randint(0, 24), rng.random() if trial % 2 else 0.3 * rng.random()))
        for trial, g in enumerate(graphs):
            for seed in range(3):
                vs, traj = solve_mis(g, random_comparator(seed), seed=trial + seed, reduce=True)
                members, steps = solve_mis_one_vertex_per_edit(g, random_comparator(seed), trial + seed)
                assert vs.members == members
                assert traj.steps == steps

    def test_a_pendant_run_is_one_graph_edit(self, monkeypatch):
        edits = []
        real = dpsolve.remove_vertices

        def counting(g, drop):
            edits.append(sorted(drop))
            return real(g, drop)

        monkeypatch.setattr(dpsolve, "remove_vertices", counting)
        # a path peels from its lowest-id end: every vertex it deletes was a
        # pendant's neighbour in the graph the run had left. The runs clear
        # every edge, so the survivors are returned with no graph edit.
        path = build_graph(9, [(v, v + 1) for v in range(8)])
        vs, traj = solve_mis(path, refuse, seed=0, reduce=True)
        assert edits == []
        assert vs.members == {0, 2, 4, 6, 8} and traj.steps == []
        # K6 minus the edge 0-1 has no degree-1 vertex, so the domination run
        # takes it: 2..5 each contain N[0], and the last of them to go is
        # the only neighbour left to 0 and 1
        vs, traj = solve_mis(k6_minus_edge(), refuse, seed=0, reduce=True)
        assert edits == []
        assert vs.members == {0, 1} and traj.steps == []
        # beside it, the path 6-7-8: the pendant run deletes 7, the
        # domination run 2..5
        both = build_graph(9, list(k6_minus_edge().edges()) + [(6, 7), (7, 8)])
        vs, traj = solve_mis(both, refuse, seed=0, reduce=True)
        assert edits == []
        assert vs.members == {0, 1, 6, 8} and traj.steps == []
        # a disjoint K3,3 has no pendant, no dominated vertex and no vertex
        # of degree 2, so an edge survives the runs, and what they deleted
        # goes in one edit before the first decision. Either branch leaves
        # K2,3, which one fold and a pendant run clear with no graph edit
        for g, first_edit, kept in ((path, [1, 3, 5, 7], {0, 2, 4, 6, 8}), (k6_minus_edge(), [2, 3, 4, 5], {0, 1})):
            k = [(g.n + u, g.n + v) for u, v in k33().edges()]
            edits.clear()
            compare, picked = recording(always(0))
            vs, traj = solve_mis(build_graph(g.n + 6, list(g.edges()) + k), compare, seed=0, reduce=True)
            assert edits == [first_edit]
            assert len(traj.steps) == len(picked) == 1
            assert kept < vs.members and len(vs) == len(kept) + 3

    def test_a_decision_free_reducing_solve_draws_and_edits_nothing(self, monkeypatch):
        made, edits = [], []

        class CountingRandom(random.Random):
            def __init__(self, seed):
                made.append(seed)
                super().__init__(seed)

        def counting(g, drop):
            edits.append(drop)
            return remove_vertices(g, drop)

        monkeypatch.setattr(dpsolve, "random", types.SimpleNamespace(Random=CountingRandom))
        monkeypatch.setattr(dpsolve, "remove_vertices", counting)
        rng = random.Random(105)
        # forests, and cycles, which folds shrink to a triangle or an edge
        graphs = [random_forest(rng, rng.randint(1, 20), rng.random()) for _ in range(60)]
        graphs += [cycle(n) for n in range(3, 16)]
        for trial, g in enumerate(graphs):
            vs, traj = solve_mis(g, refuse, seed=trial, reduce=True)
            assert vs.valid_for(g) and len(vs) == exact_mis_size(g) and traj.steps == []
        assert made == [] and edits == []
        # the counters see a solve that decides: one stream, seeded at its
        # first draw with the solve's seed
        vs, traj = solve_mis(k33(), always(0), seed=3, reduce=True)
        assert made == [3] and len(traj.steps) == 1

    def test_runs_that_clear_the_graph_after_decisions_match_one_vertex_per_edit(self):
        # minimum degree 3 and no dominated vertex: no run applies before
        # the first decision, and the runs clear what the decisions leave
        rng = random.Random(106)
        graphs = [k33(), petersen()] + [random_cubic(rng, rng.choice(range(6, 20, 2))) for _ in range(40)]
        graphs += [min_degree_graph(rng, rng.randint(6, 18), 0.3 * rng.random(), k=3) for _ in range(120)]
        graphs = [g for g in graphs if lowest_dominated(g) is None]
        assert len(graphs) > 60
        for trial, g in enumerate(graphs):
            for seed in range(3):
                vs, traj = solve_mis(g, random_comparator(seed), seed=trial + seed, reduce=True)
                members, steps = solve_mis_one_vertex_per_edit(g, random_comparator(seed), trial + seed)
                assert traj.steps, "each graph here needs at least one decision"
                assert vs.members == members
                assert traj.steps == steps

    def test_oracle_optimality_taking_pendants(self):
        rng = random.Random(201)
        comparator = oracle_mis_comparator()
        for trial in range(40):
            g = random_graph(rng, rng.randint(1, 14), rng.random())
            vs, _ = solve_mis(g, comparator, seed=trial, reduce=True)
            assert vs.valid_for(g) and len(vs) == exact_mis_size(g)

    def test_oracle_optimality_reduced_without_degree_1_vertices(self):
        # graphs the pendant run leaves alone, so only the domination run
        # and folds reduce them before the oracle decides
        rng = random.Random(202)
        comparator = oracle_mis_comparator()
        graphs = [min_degree_graph(rng, rng.randint(3, 14), rng.uniform(0.05, 0.6)) for _ in range(60)]
        assert sum(len(reduced(g)[2]) for g in graphs) > 10  # folds are taken
        for trial, g in enumerate(graphs):
            vs, _ = solve_mis(g, comparator, seed=trial, reduce=True)
            assert vs.valid_for(g) and len(vs) == exact_mis_size(g)

    def test_oracle_optimality_small(self):
        rng = random.Random(200)
        comparator = oracle_mis_comparator()
        for trial in range(40):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            vs, _ = solve_mis(g, comparator, seed=trial)
            assert len(vs) == exact_mis_size(g)

    def test_result_in_original_ids(self):
        # a graph whose optimum contains the last vertex, so compaction must
        # be undone correctly
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        comparator = oracle_mis_comparator()
        for seed in range(8):
            vs, _ = solve_mis(g, comparator, seed)
            assert vs.members == {0, 2} or vs.members == {0, 3} or vs.members == {1, 3}

    def test_learned_comparator_runs(self):
        params = init_params(1, 2, 2, seed=0)
        g = random_graph(random.Random(1), 10, 0.3)
        vs, _ = solve_mis(g, learned_mis_comparator(params), seed=4)
        assert vs.valid_for(g)


class TestFold:
    @given(st.integers(0, 2**32), st.integers(3, 40), st.floats(0.0, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_a_fold_lowers_the_independence_number_by_one(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        foldable = [v for v, row in enumerate(g.adjacency) if len(row) == 2 and row[1] not in g.adjacency[row[0]]]
        for v in foldable[:3]:
            assert exact_mis_size(g) == exact_mis_size(fold(g, v)[0]) + 1

    @given(st.integers(0, 2**32), st.integers(0, 40), st.floats(0.0, 0.5))
    @settings(max_examples=80, deadline=None)
    def test_a_reducing_solve_is_valid_and_exact_without_steps(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        vs, traj = solve_mis(g, random_comparator(seed), seed=seed, reduce=True)
        assert vs.valid_for(g)
        if not traj.steps:
            assert len(vs) == exact_mis_size(g)


class TestComparatorFactories:
    def test_each_factory_follows_its_rule(self):
        # every ordered pair of a fixed corpus, identical pairs included: MIS
        # factories take branch 1 only on a strictly higher score, MVC
        # factories only on a strictly lower one, so a tie keeps branch 0
        rng = random.Random(21)
        corpus = [random_graph(rng, rng.randint(2, 9), 0.4) for _ in range(12)]
        pairs = [(a, b) for a in corpus for b in corpus]
        params = init_params(2, 4, 3, seed=5)

        def logit(g):
            return score_graph(params, g)[0]

        cases = [
            (learned_mis_comparator(params), lambda g0, g1: int(logit(g1) > logit(g0))),
            (learned_mvc_comparator(params), lambda g0, g1: int(logit(g1) < logit(g0))),
            (oracle_mis_comparator(), lambda g0, g1: int(exact_mis_size(g1) > exact_mis_size(g0))),
            (oracle_mvc_comparator(), lambda g0, g1: int(exact_mvc_size(g1) < exact_mvc_size(g0))),
        ]
        for comparator, rule in cases:
            decisions = [comparator(g0, g1) for g0, g1 in pairs]
            assert decisions == [rule(g0, g1) for g0, g1 in pairs]
            assert set(decisions) == {0, 1}

    def test_random_comparator_draws_are_unchanged(self):
        coin = random_comparator(17)
        reference = random.Random(17)
        g = triangle()
        assert [coin(g, g) for _ in range(50)] == [reference.randrange(2) for _ in range(50)]


class TestMvcGadgets:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        gad = build_mvc_gadgets(g, 0)
        assert gad.g0.n == 2 and gad.g0.edges() == [(0, 1)]
        assert gad.g0_source == (1, 1)
        assert gad.g1.n == 3 and gad.g1.edges() == [(0, 2)]
        assert gad.g1_source == (0, 1, 0)
        assert gad.g1.degree(1) == 0

    def test_star_center(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        gad = build_mvc_gadgets(g, 0)
        assert gad.g0.n == 6 and gad.g0.m == 3
        assert all(gad.g0.degree(v) == 1 for v in range(6))
        # each leaf is paired with its own copy, numbered after the kept vertices
        for u, v in gad.g0.edges():
            assert gad.g0_source[u] == gad.g0_source[v]
            assert u < 3 <= v

    def test_path_endpoint(self):
        g = path3()
        gad = build_mvc_gadgets(g, 0)  # neighbor is 1, whose edge (1,2) must go
        assert gad.g0.n == 3 and gad.g0.m == 1
        sources = {frozenset((gad.g0_source[u], gad.g0_source[v])) for u, v in gad.g0.edges()}
        assert sources == {frozenset({1})}

    def test_isolated_vertex_rejected(self):
        g = build_graph(2, [])
        with pytest.raises(GraphError):
            build_mvc_gadgets(g, 0)

    @given(st.integers(0, 2**32), st.integers(2, 11), st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_cover_identity_under_exact_oracle(self, seed, n, p):
        """MVC(g0) = deg(v) + MVC(g - N[v]) and MVC(g1) = 1 + MVC(g - v) at
        every vertex of positive degree: the MVC counterpart of criterion 01."""
        g = random_graph(random.Random(seed), n, p)
        for v in range(g.n):
            if g.degree(v) == 0:
                continue
            gad = build_mvc_gadgets(g, v)
            outside_closed, _ = remove_vertices(g, (v, *g.adjacency[v]))
            without_v, _ = remove_vertex(g, v)
            mvc0 = exact_mvc_size(gad.g0)
            mvc1 = exact_mvc_size(gad.g1)
            assert mvc0 == g.degree(v) + exact_mvc_size(outside_closed)
            assert mvc1 == 1 + exact_mvc_size(without_v)
            assert min(mvc0, mvc1) == exact_mvc_size(g)

    def test_fields_equal_the_edge_list_reference(self):
        # the corpus includes the gadget graphs a recursion goes on to
        # split, whose pendant copies sit above every original id
        for g in gadget_corpus():
            for v in range(g.n):
                if not g.adjacency[v]:
                    continue
                got, want = build_mvc_gadgets(g, v), reference_mvc_gadgets(g, v)
                for name in (f.name for f in dataclasses.fields(want)):
                    assert getattr(got, name) == getattr(want, name), (g, v, name)


def gadget_corpus() -> list:
    """Random, forest, chordal, complete and degree-class graphs, plus every
    branch graph of a random-coin MVC recursion on the random ones."""
    rng = random.Random(21)
    corpus = [random_graph(rng, rng.randint(0, 30), rng.random()) for _ in range(40)]
    corpus += [random_forest(rng, rng.randint(1, 30), 0.8) for _ in range(5)]
    corpus += [random_chordal(rng, rng.randint(3, 20)) for _ in range(5)]
    corpus += [random_graph(rng, n, 1.0) for n in (2, 3, 7)]
    corpus += list(degree_class_graphs().values())
    for i, g in enumerate(corpus[:8]):
        _, traj = solve_mvc(g, random_comparator(i), seed=i)
        corpus += [graph for step in traj.steps for graph in step]
    return corpus


class TestSolveMvc:
    def test_edgeless_empty_cover(self):
        g = build_graph(4, [])
        vs, traj = solve_mvc(g, always(0), seed=0)
        assert vs.members == set()
        assert traj.steps == []

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        vs, _ = solve_mvc(g, always(0), seed=0)
        assert len(vs) == 1

    def test_triangle_oracle(self):
        comparator = oracle_mvc_comparator()
        for seed in range(8):
            vs, _ = solve_mvc(triangle(), comparator, seed)
            assert len(vs) == 2

    def test_validity_fuzz_random_comparator(self):
        rng = random.Random(300)
        for trial in range(120):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            compare, picked = recording(random_comparator(trial))
            vs, traj = solve_mvc(g, compare, seed=trial)
            assert vs.valid_for(g)
            assert len(traj.steps) == len(picked)
            # cover size equals the number of edges of the base case, the
            # last branch chosen
            base = picked[-1] if picked else g
            assert base.max_degree() <= 1
            assert len(vs) == base.m

    def test_matches_a_recursion_on_the_reference_gadgets(self):
        rng = random.Random(500)
        for trial in range(60):
            g = random_graph(rng, rng.randint(0, 30), rng.random())
            vs, traj = solve_mvc(g, random_comparator(trial), seed=trial)
            want, steps = reference_solve_mvc(g, random_comparator(trial), seed=trial)
            assert vs == want
            assert traj.steps == steps

    def test_oracle_covers_match_the_reference_recursion(self):
        # the reference still prefers originals over pendant copies; the
        # oracle takes the branches a coin rarely does
        rng = random.Random(501)
        comparator = oracle_mvc_comparator()
        for trial in range(40):
            g = random_graph(rng, rng.randint(0, 14), rng.random())
            vs, traj = solve_mvc(g, comparator, seed=trial)
            want, steps = reference_solve_mvc(g, comparator, seed=trial)
            assert vs == want
            assert traj.steps == steps

    def test_oracle_optimality_small(self):
        rng = random.Random(400)
        comparator = oracle_mvc_comparator()
        for trial in range(30):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            vs, _ = solve_mvc(g, comparator, seed=trial)
            assert len(vs) == exact_mvc_size(g)


class TestEstimates:
    def test_edgeless_single_rollout(self):
        g = build_graph(4, [])
        assert rollout_estimate(g, random_comparator(0), 1, seed=0) == 4

    def test_triangle_always_one(self):
        assert rollout_estimate(triangle(), random_comparator(1), 5, seed=2) == 1

    def test_path_random_bounded(self):
        values = {rollout_estimate(path3(), random_comparator(s), 1, seed=s) for s in range(30)}
        assert values <= {1, 2}
        assert rollout_estimate(path3(), random_comparator(0), 30, seed=1) == 2

    def test_monotone_in_rollout_count(self):
        g = random_graph(random.Random(7), 12, 0.3)
        comparator = random_comparator(9)
        values = [rollout_estimate(g, random_comparator(9), m, seed=5) for m in range(1, 8)]
        assert values == sorted(values)

    def test_never_exceeds_optimum(self):
        rng = random.Random(8)
        for trial in range(25):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            est = rollout_estimate(g, random_comparator(trial), 3, seed=trial)
            assert est <= exact_mis_size(g)

    def test_forest_needs_no_comparator(self):
        # every forest with an edge has a degree-1 vertex, and every chordal
        # graph with an edge has a simplicial vertex of positive degree, which
        # every neighbour's closed neighbourhood contains; deleting vertices
        # keeps both families, so roll-outs solve them exactly by the
        # reductions alone and never score a graph
        rng = random.Random(12)
        for trial in range(60):
            g = random_forest(rng, rng.randint(0, 30), rng.uniform(0.3, 1.0))
            assert rollout_estimate(g, refuse, 2, seed=trial) == exact_mis_size(g)
            assert mixed_estimate(g, refuse, 1, seed=trial) == exact_mis_size(g)
        for trial in range(40):
            g = random_chordal(rng, rng.randint(3, 30))
            assert min(g.degree(v) for v in range(g.n)) >= 2
            assert rollout_estimate(g, refuse, 2, seed=trial) == exact_mis_size(g)
            assert mixed_estimate(g, refuse, 1, seed=trial) == exact_mis_size(g)

    def test_mixed_zero_rollouts_is_greedy(self):
        g = random_graph(random.Random(9), 12, 0.3)
        assert mixed_estimate(g, random_comparator(0), 0, seed=0) == len(greedy_mis(g))

    def test_mixed_floors_at_greedy(self):
        rng = random.Random(10)
        for trial in range(20):
            g = random_graph(rng, rng.randint(1, 14), rng.random())
            est = mixed_estimate(g, random_comparator(trial), 2, seed=trial)
            assert est >= len(greedy_mis(g))

    def test_special_oracle_beats_greedy(self):
        g = generate(GenSpec("special", n=5, surplus=2, seed=0))
        assert len(greedy_mis(g)) == 3
        assert mixed_estimate(g, oracle_mis_comparator(), 1, seed=0) == 5

    def test_path_mixed_already_optimal(self):
        assert mixed_estimate(path3(), random_comparator(0), 1, seed=0) == 2
