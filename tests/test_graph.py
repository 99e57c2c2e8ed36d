"""Graph construction, mutation primitives, and vertex-set checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpdp.graph import (
    INDEPENDENT_SET,
    VERTEX_COVER,
    Graph,
    GraphError,
    VertexSet,
    build_graph,
    graph_fingerprint,
    is_independent_set,
    is_vertex_cover,
    relabel,
    remove_neighbors,
    remove_vertex,
    remove_vertices,
)

from helpers import random_graph


@st.composite
def graph_and_drop(draw):
    """A random graph on up to 24 vertices and a drop list over its ids,
    repeats allowed."""
    n = draw(st.integers(0, 24))
    if n == 0:
        return build_graph(0, []), []
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=80)) if pairs else []
    drop = draw(st.lists(st.integers(0, n - 1), max_size=n + 3))
    return build_graph(n, edges), drop


def path3() -> Graph:
    return build_graph(3, [(0, 1), (1, 2)])


def triangle() -> Graph:
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestBuildGraph:
    def test_path(self):
        g = path3()
        assert g.n == 3 and g.m == 2
        assert g.adjacency == ((1,), (0, 2), (1,))
        g.check()

    def test_empty(self):
        g = build_graph(2, [])
        assert g.n == 2 and g.m == 0

    def test_duplicate_edges_dedup(self):
        g = build_graph(3, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match=r"\(0,3\)"):
            build_graph(3, [(0, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match=r"\(1,1\)"):
            build_graph(3, [(1, 1)])

    def test_negative_count_rejected(self):
        with pytest.raises(GraphError):
            build_graph(-1, [])

    def test_edges_listing(self):
        assert triangle().edges() == [(0, 1), (0, 2), (1, 2)]


class TestRemove:
    def test_remove_middle_of_path(self):
        g, kept = remove_vertex(path3(), 1)
        assert g.n == 2 and g.m == 0
        assert kept == [0, 2]

    def test_remove_from_triangle(self):
        g, _ = remove_vertex(triangle(), 2)
        assert g.n == 2 and g.m == 1

    def test_remove_last_vertex(self):
        g, kept = remove_vertex(build_graph(1, []), 0)
        assert g.n == 0 and g.m == 0 and kept == []

    def test_remove_invalid(self):
        with pytest.raises(GraphError):
            remove_vertex(path3(), 3)
        with pytest.raises(GraphError):
            remove_neighbors(path3(), -1)

    def test_remove_neighbors_of_path_middle(self):
        g, _ = remove_neighbors(path3(), 1)
        assert g.n == 1 and g.m == 0

    def test_remove_neighbors_in_triangle(self):
        g, _ = remove_neighbors(triangle(), 0)
        assert g.n == 1 and g.m == 0

    def test_remove_neighbors_star(self):
        # center keeps only itself; a leaf keeps everything but the center
        g_center, _ = remove_neighbors(star(4), 0)
        assert g_center.n == 1 and g_center.m == 0
        g_leaf, _ = remove_neighbors(star(4), 1)
        assert g_leaf.n == 4 and g_leaf.m == 0

    @given(st.integers(0, 2**32), st.integers(2, 12), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_removal_counts(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        v = random.Random(seed + 1).randrange(n)
        removed, _ = remove_vertex(g, v)
        assert removed.n == g.n - 1
        left, kept = remove_neighbors(g, v)
        assert left.n == g.n - g.degree(v)
        assert left.degree(kept.index(v)) == 0
        removed.check()
        left.check()

    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_remove_vertices_mapping_contiguous(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, 10, 0.3)
        drop = [v for v in range(g.n) if rng.random() < 0.4]
        out, kept = remove_vertices(g, drop)
        assert len(kept) == out.n
        assert all(a < b for a, b in zip(kept, kept[1:]))
        for new, old in enumerate(kept):
            assert g.degree(old) >= out.degree(new)

    @given(graph_and_drop())
    @settings(max_examples=200, deadline=None)
    def test_remove_vertices_properties(self, case):
        g, drop = case
        out, kept = remove_vertices(g, drop)
        out.check()
        dropped = set(drop)
        assert kept == [v for v in range(g.n) if v not in dropped]
        assert out.n == len(kept)
        new_id = {old: new for new, old in enumerate(kept)}
        for u, v in g.edges():
            if u in new_id and v in new_id:
                assert new_id[v] in out.adjacency[new_id[u]]
        for a, b in out.edges():
            assert kept[b] in g.adjacency[kept[a]]


class TestRelabelAndFingerprint:
    def test_relabel_roundtrip(self):
        g = triangle()
        perm = [2, 0, 1]
        h = relabel(g, perm)
        assert h.m == g.m
        inverse = [perm.index(i) for i in range(3)]
        assert relabel(h, inverse) == g

    def test_relabel_requires_permutation(self):
        with pytest.raises(GraphError):
            relabel(path3(), [0, 0, 1])

    def test_fingerprint_distinguishes_labelings(self):
        assert graph_fingerprint(path3()) != graph_fingerprint(triangle())
        assert graph_fingerprint(path3()) == graph_fingerprint(build_graph(3, [(1, 2), (0, 1)]))


class TestVertexSet:
    def test_kinds_checked(self):
        with pytest.raises(GraphError):
            VertexSet(frozenset(), "nonsense")

    def test_independent_set_check(self):
        g = path3()
        assert is_independent_set(g, {0, 2})
        assert not is_independent_set(g, {0, 1})

    def test_cover_check(self):
        g = path3()
        assert is_vertex_cover(g, {1})
        assert not is_vertex_cover(g, {0})

    def test_valid_for_range(self):
        vs = VertexSet(frozenset({5}), INDEPENDENT_SET)
        assert not vs.valid_for(path3())

    def test_valid_for_dispatch(self):
        g = path3()
        assert VertexSet(frozenset({0, 2}), INDEPENDENT_SET).valid_for(g)
        assert not VertexSet(frozenset({0, 1}), INDEPENDENT_SET).valid_for(g)
        assert VertexSet(frozenset({1}), VERTEX_COVER).valid_for(g)
        assert not VertexSet(frozenset({0}), VERTEX_COVER).valid_for(g)
