"""Comparator-guided recursive solvers for MIS and MVC, plus roll-out
estimators.

A comparator is any total function (g0, g1) -> {0, 1}; 0 keeps the first
branch. The solvers are valid for arbitrary comparators: the MIS recursion
always ends in an independent set of the original graph, and the MVC
recursion (with its copy-vertex gadgets) always ends in a vertex cover. With
an exact comparator both are optimal on every run.

The learned scorer is trained on MIS sizes only, so learned evaluation solves
MVC as the complement of ``solve_mis``; ``solve_mvc`` runs under the exact
oracle and the random coin.

Roll-out estimates (``rollout_estimate``, ``mixed_estimate``) reduce the
graph before each comparator decision: they delete the neighbour of every
degree-1 vertex, then every vertex u with a neighbour v whose closed
neighbourhood lies inside u's (the domination rule). Both reductions are
exact, because swapping u for v in a maximum independent set gives another
(see ``solve_mis``), and they spare most of the estimates' forward passes.
Evaluation solves never reduce, so their quality stays the comparator's own
and no reduction is credited to the learned part.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import random
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable

from .classic import exact_mis_size, exact_mvc_size, greedy_mis
from .graph import (
    INDEPENDENT_SET,
    VERTEX_COVER,
    Graph,
    GraphError,
    VertexSet,
    build_graph,
    remove_neighbors,
    remove_vertex,
    remove_vertices,
)
from .net import CmpParams, class_table, score_graph

Comparator = Callable[[Graph, Graph], int]


def derive_seed(seed: int, *parts: int | str) -> int:
    """Stable 64-bit stream seed for (seed, parts); independent-ish streams
    for roll-outs and workers."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((seed,) + parts).encode())
    return int.from_bytes(h.digest(), "little")


_SCORE_CACHE_LIMIT = 200_000


def _cached_scorer(params: CmpParams) -> Callable[[Graph], float]:
    """Parameters are fixed for the closure's lifetime, so logits can be
    memoized; recursion tails revisit the same small subgraphs constantly.
    Each miss reads rounds 0 and 1 from the parameters' class table."""
    table = class_table(params)

    @functools.lru_cache(maxsize=_SCORE_CACHE_LIMIT)
    def score(g: Graph) -> float:
        return score_graph(params, g, table)[0]

    return score


def _keep_unless_better(score: Callable[[Graph], float], higher_is_better: bool) -> Comparator:
    """Keep branch 0 unless branch 1 scores strictly better; ties keep branch 0."""
    if higher_is_better:
        return lambda g0, g1: int(score(g0) < score(g1))
    return lambda g0, g1: int(score(g0) > score(g1))


def learned_mis_comparator(params: CmpParams) -> Comparator:
    return _keep_unless_better(_cached_scorer(params), higher_is_better=True)


def learned_mvc_comparator(params: CmpParams) -> Comparator:
    """A flipped MIS score, which does not estimate the gadget branches' cover
    sizes. No library path calls it; it is kept only because the benchmark
    wraps this name."""
    return _keep_unless_better(_cached_scorer(params), higher_is_better=False)


def oracle_mis_comparator() -> Comparator:
    return _keep_unless_better(exact_mis_size, higher_is_better=True)


def oracle_mvc_comparator() -> Comparator:
    return _keep_unless_better(exact_mvc_size, higher_is_better=False)


def random_comparator(seed: int) -> Comparator:
    """Seeded fair coin; the sanity-check baseline."""
    rng = random.Random(seed)

    def compare(g0: Graph, g1: Graph) -> int:
        return rng.randrange(2)

    return compare


@dataclass(frozen=True)
class RecursionStep:
    """One branching decision: the two candidate subgraphs the comparator
    chose between, in the order it saw them."""

    g0: Graph
    g1: Graph


@dataclass
class Trajectory:
    """A solve's branching decisions in order; harvest samples its pairs from them."""

    steps: list[RecursionStep] = field(default_factory=list)


def solve_mis(
    g: Graph, comparator: Comparator, seed: int, *, reduce: bool = False
) -> tuple[VertexSet, Trajectory]:
    """Recursive MIS: while edges remain, pick a random vertex v of positive
    degree, compare (g minus v) against (g minus neighbors of v), and keep the
    winner. The surviving vertices, mapped back to original ids, are always an
    independent set of ``g``.

    With ``reduce``, a step first deletes vertices that some maximum
    independent set of the current graph excludes, without a random draw,
    asking the comparator or recording a step. Two runs, one graph edit
    between them, do this in order:

    - a pendant run (:func:`_pendant_neighbours`): while a degree-1 vertex is
      left, the lowest-id one loses its neighbour;
    - a domination run (:func:`_dominated_vertices`): while some vertex u has
      a neighbour v with N[v] ⊆ N[u] (closed neighbourhoods), the lowest-id
      such u goes.

    Both are exact. If a maximum independent set holds u, it holds no other
    vertex of N[u] ⊇ N[v], so swapping u for v gives another maximum
    independent set, which excludes u. A pendant's neighbour is the case
    N[v] = {v, u}. A domination run ends with no dominated vertex, hence no
    degree-1 vertex, so neither run needs repeating before the comparator is
    asked.
    """
    rng = random.Random(seed)
    cur = g
    to_original = list(range(g.n))
    traj = Trajectory()
    while cur.m > 0:
        if reduce:
            drop, dead, degree = _pendant_neighbours(cur)
            drop += _dominated_vertices(cur, dead, degree)
            if drop:
                cur, kept = remove_vertices(cur, drop)
                to_original = [to_original[old] for old in kept]
            if cur.m == 0:
                break
        candidates = [v for v, row in enumerate(cur.adjacency) if row]
        v = candidates[rng.randrange(len(candidates))]
        g0, kept0 = remove_vertex(cur, v)
        g1, kept1 = remove_neighbors(cur, v)
        choice = 1 if comparator(g0, g1) else 0
        traj.steps.append(RecursionStep(g0, g1))
        cur, kept = (g0, kept0) if choice == 0 else (g1, kept1)
        to_original = [to_original[old] for old in kept]
    return VertexSet(frozenset(to_original), INDEPENDENT_SET), traj


def _pendant_neighbours(g: Graph) -> tuple[list[int], list[bool], list[int]]:
    """The neighbours that a run of pendant steps deletes from ``g``: while
    a degree-1 vertex is left, the lowest-id one loses its neighbour.
    Deletions keep the survivors' order, so the lowest id here is the lowest
    id in the graph each single deletion would leave. The run keeps degree
    counts and a min-heap of the degree-1 vertices instead of rebuilding the
    graph after each deletion. Returns the deleted vertices, which vertices
    are deleted, and the degree each vertex is left with (0 once deleted)."""
    degree = [len(row) for row in g.adjacency]
    pendants = [v for v, d in enumerate(degree) if d == 1]
    dead = [False] * g.n
    drop = []
    while pendants:
        v = heapq.heappop(pendants)
        if dead[v] or degree[v] != 1:
            continue  # its neighbour went, or it did, after it was pushed
        u = next(x for x in g.adjacency[v] if not dead[x])
        dead[u] = True
        degree[u] = 0
        drop.append(u)
        for x in g.adjacency[u]:
            if not dead[x]:
                degree[x] -= 1
                if degree[x] == 1:
                    heapq.heappush(pendants, x)
    return drop, dead, degree


def _dominated_vertices(g: Graph, dead: list[bool], degree: list[int]) -> list[int]:
    """The vertices that a run of domination steps deletes from what is
    left of ``g`` once the ``dead`` vertices are gone, each vertex v keeping
    ``degree[v]`` neighbours: while some vertex u has a neighbour v
    with N[v] ⊆ N[u], the lowest-id such u goes. Closed neighbourhoods are
    int bitmasks, and a min-heap worklist holds the vertices that may be
    dominated. Deleting u shrinks only the neighbourhoods of u's neighbours,
    so only they and their neighbours can become dominated, and only they go
    back on the worklist. A vertex leaves the worklist only to be checked, so
    every dominated vertex is on it, and the first dominated vertex popped is
    the graph's lowest. Marks the deleted vertices in ``dead``."""
    if not any(degree):
        return []  # no edge is left
    queued = list(map(bool, degree))
    worklist = list(compress(range(g.n), degree))  # ascending: a heap
    adjacency = g.adjacency
    bit = [1 << v for v in range(g.n)]
    closed = [sum([bit[x] for x in row], bit[v]) for v, row in enumerate(adjacency)]
    for u in compress(range(g.n), dead):
        for x in adjacency[u]:
            closed[x] &= ~bit[u]
    drop = []
    while worklist:
        u = heapq.heappop(worklist)
        queued[u] = False
        cu = closed[u]
        for v in adjacency[u]:
            if not dead[v] and (closed[v] | cu) == cu:
                break
        else:
            continue  # no neighbour's closed neighbourhood lies inside u's
        dead[u] = True
        drop.append(u)
        for x in adjacency[u]:
            if dead[x]:
                continue
            closed[x] ^= bit[u]
            for y in (x, *adjacency[x]):
                if not (dead[y] or queued[y]):
                    queued[y] = True
                    heapq.heappush(worklist, y)
    return drop


@dataclass(frozen=True)
class MvcGadgets:
    """The two MVC branch graphs for a vertex v, with bookkeeping.

    ``g0`` drops v, clears every edge incident to a neighbor of v, and gives
    each neighbor u a pendant copy u' (edge u'-u): the branch where all
    neighbors of v join the cover. ``g1`` keeps all vertices, clears the edges
    at v, and adds a pendant copy v': the branch where v itself joins.

    ``*_source[i]`` is the vertex of the input graph that vertex i stands
    for; ``*_is_copy[i]`` marks the pendant copies.
    """

    g0: Graph
    g0_source: tuple[int, ...]
    g0_is_copy: tuple[bool, ...]
    g1: Graph
    g1_source: tuple[int, ...]
    g1_is_copy: tuple[bool, ...]


def build_mvc_gadgets(g: Graph, v: int) -> MvcGadgets:
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range for {g.n} vertices")
    neigh = g.adjacency[v]
    if not neigh:
        raise GraphError(f"vertex {v} is isolated; the MVC branch step needs degree >= 1")
    neigh_set = set(neigh)

    keep = [u for u in range(g.n) if u != v]
    old_to_new = {old: new for new, old in enumerate(keep)}
    base = len(keep)
    edges0 = [
        (old_to_new[a], old_to_new[b])
        for a, b in g.edges()
        if a != v and b != v and a not in neigh_set and b not in neigh_set
    ]
    source0 = list(keep)
    copy0 = [False] * base
    for i, u in enumerate(neigh):
        edges0.append((old_to_new[u], base + i))
        source0.append(u)
        copy0.append(True)
    g0 = build_graph(base + len(neigh), edges0)

    edges1 = [(a, b) for a, b in g.edges() if a != v and b != v]
    edges1.append((v, g.n))
    g1 = build_graph(g.n + 1, edges1)
    source1 = list(range(g.n)) + [v]
    copy1 = [False] * g.n + [True]

    return MvcGadgets(g0, tuple(source0), tuple(copy0), g1, tuple(source1), tuple(copy1))


def solve_mvc(g: Graph, comparator: Comparator, seed: int) -> tuple[VertexSet, Trajectory]:
    """Recursive MVC via the copy-vertex gadgets.

    Base case: when every degree is <= 1, the graph is isolated vertices and
    isolated edges; the cover takes one endpoint per edge (preferring an
    original vertex over a copy, then the smaller original id). Otherwise a
    random vertex of positive degree is picked and the comparator chooses
    between its two gadget branches (0 keeps g0, i.e. the branch whose cover
    is estimated no larger).
    """
    rng = random.Random(seed)
    cur = g
    source = list(range(g.n))
    is_copy = [False] * g.n
    traj = Trajectory()
    while cur.max_degree() >= 2:
        candidates = [v for v in range(cur.n) if cur.degree(v) >= 1]
        v = candidates[rng.randrange(len(candidates))]
        gad = build_mvc_gadgets(cur, v)
        choice = 1 if comparator(gad.g0, gad.g1) else 0
        traj.steps.append(RecursionStep(gad.g0, gad.g1))
        gsel, sel_source, sel_copy = (
            (gad.g0, gad.g0_source, gad.g0_is_copy)
            if choice == 0
            else (gad.g1, gad.g1_source, gad.g1_is_copy)
        )
        source = [source[sel_source[i]] for i in range(gsel.n)]
        is_copy = [sel_copy[i] or is_copy[sel_source[i]] for i in range(gsel.n)]
        cur = gsel
    cover: set[int] = set()
    for x, y in cur.edges():
        picked = min(x, y, key=lambda t: (is_copy[t], source[t], t))
        cover.add(source[picked])
    return VertexSet(frozenset(cover), VERTEX_COVER), traj


def rollout_estimate(g: Graph, comparator: Comparator, num_rollouts: int, seed: int) -> int:
    """Best independent-set size over ``num_rollouts`` independent solver runs
    that reduce the graph before each decision (0 when no roll-outs are
    requested)."""
    best = 0
    for i in range(num_rollouts):
        vs, _ = solve_mis(g, comparator, derive_seed(seed, "rollout", i), reduce=True)
        best = max(best, len(vs))
    return best


def mixed_estimate(g: Graph, comparator: Comparator, num_rollouts: int, seed: int) -> int:
    """Roll-out estimate floored by the degree-greedy heuristic."""
    return max(len(greedy_mis(g)), rollout_estimate(g, comparator, num_rollouts, seed))
