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
neighbourhood lies inside u's (the domination rule), then fold a degree-2
vertex with non-adjacent neighbours into one vertex, and repeat until none
applies. Deletions are exact, because swapping u for v in a maximum
independent set gives another, and a fold lowers the independence number by
exactly one and is undone at the end (see ``solve_mis``). Together they spare
most of the estimates' forward passes. A solve draws no random stream before
its first decision and builds no graph once the reductions have cleared
every edge, which most roll-outs reach first.
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
from typing import Callable, Collection, Iterable, Sequence

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
    Each miss runs the folded inference pass on the parameters' class table."""
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


@dataclass
class Trajectory:
    """A solve's branching decisions in order, each the pair ``(g0, g1)`` of
    candidate subgraphs in the order the comparator saw them; harvest
    samples its pairs from them."""

    steps: list[tuple[Graph, Graph]] = field(default_factory=list)


def solve_mis(
    g: Graph, comparator: Comparator, seed: int, *, reduce: bool = False
) -> tuple[VertexSet, Trajectory]:
    """Recursive MIS: while edges remain, pick a random vertex v of positive
    degree, compare (g minus v) against (g minus neighbors of v), and keep the
    winner. The surviving vertices, mapped back to original ids, are always an
    independent set of ``g``.

    With ``reduce``, a step first shrinks the graph to one with the same
    independence number, up to a known offset, without a random draw, asking
    the comparator or recording a step. Three runs do this, in order:

    - a pendant run (:func:`_pendant_neighbours`): while a degree-1 vertex is
      left, the lowest-id one loses its neighbour;
    - a domination run (:func:`_dominated_vertices`): while some vertex u has
      a neighbour v with N[v] ⊆ N[u] (closed neighbourhoods), the lowest-id
      such u goes;
    - a fold run (:func:`_fold_to_fixed_point`): while some vertex v of
      degree 2 has non-adjacent neighbours a and b, the lowest-id such v
      merges with them into one vertex, which keeps v's id and is adjacent
      to N(a) ∪ N(b) − {v}.

    Deletions are exact. If a maximum independent set holds u, it holds no
    other vertex of N[u] ⊇ N[v], so swapping u for v gives another maximum
    independent set, which excludes u. A pendant's neighbour is the case
    N[v] = {v, u}. A fold lowers the independence number by exactly one
    (Chen, Kanj & Jia 2001): an independent set of the folded graph that
    holds the merged vertex gives one of the graph before with a and b in
    its place, and one that does not gives one with v added. Each fold is
    recorded, and the records are undone newest first once the recursion
    ends, so the result is an independent set of ``g`` for any comparator
    and a maximum one under the exact oracle.

    A domination run ends with no dominated vertex, hence no degree-1
    vertex and no degree-2 vertex with adjacent neighbours, so every
    degree-2 vertex it leaves can fold. After a fold run all three runs
    repeat, on mutable adjacency rows, until none applies; only then is the
    comparator asked. Runs that leave no edge end the solve without a graph
    edit, a graph is built only for a decision, and the stream of vertex
    draws is seeded at the first draw, not on entry.
    """
    rng = None  # seeded at the first draw: a solve that never draws needs none
    cur = g
    to_original = list(range(g.n))
    folds: list[tuple[int, int, int]] = []
    traj = Trajectory()
    while cur.m > 0:
        if reduce:
            drop, dead, degree = _pendant_neighbours(cur.adjacency)
            drop += _dominated_vertices(cur.adjacency, dead, degree)
            if not any(degree):  # no edge is left: the survivors are the set
                to_original = [x for x, gone in zip(to_original, dead) if not gone]
                break
            if 2 in degree:  # every degree-2 vertex a domination run leaves can fold
                cur, to_original = _fold_to_fixed_point(cur.adjacency, dead, degree, to_original, folds)
                if cur is None:  # the runs cleared every edge
                    break
            elif drop:
                cur, kept = remove_vertices(cur, drop)
                to_original = [to_original[old] for old in kept]
        rng = rng or random.Random(seed)
        candidates = [v for v, row in enumerate(cur.adjacency) if row]
        v = candidates[rng.randrange(len(candidates))]
        g0, kept0 = remove_vertex(cur, v)
        g1, kept1 = remove_neighbors(cur, v)
        choice = 1 if comparator(g0, g1) else 0
        traj.steps.append((g0, g1))
        cur, kept = (g0, kept0) if choice == 0 else (g1, kept1)
        to_original = [to_original[old] for old in kept]
    members = _unfold(to_original, folds) if folds else frozenset(to_original)
    return VertexSet(members, INDEPENDENT_SET), traj


def _unfold(members: list[int], folds: list[tuple[int, int, int]]) -> frozenset[int]:
    """Undo the fold records ``(v, a, b)`` newest first, since a record may
    name a vertex merged by an older one: a merged vertex v in the set gives
    way to a and b, and otherwise v joins."""
    result = set(members)
    for v, a, b in reversed(folds):
        if v in result:
            result.remove(v)
            result.update((a, b))
        else:
            result.add(v)
    return frozenset(result)


def _fold_to_fixed_point(
    adjacency: tuple[tuple[int, ...], ...],
    dead: list[bool],
    degree: list[int],
    labels: list[int],
    folds: list[tuple[int, int, int]],
) -> tuple[Graph | None, list[int]]:
    """Continue a reduction whose pendant and domination runs on
    ``adjacency`` left ``dead`` and ``degree`` and some vertex of degree 2.
    A fold run folds, while a vertex of degree 2 with non-adjacent
    neighbours is left, the lowest-id one; then both other runs go again,
    and the three repeat until a domination run leaves no vertex of degree
    2. The runs work on mutable rows of live neighbours, and a min-heap
    worklist holds the vertices that may be foldable. A fold of v with
    neighbours a and b deletes a and b, gives v the row N(a) ∪ N(b) − {v},
    and appends ``(labels[v], labels[a], labels[b])`` to ``folds``. Marks
    every vertex it deletes in ``dead``. Returns the reduced graph, or None
    if no edge is left, and the labels of its vertices."""
    rows = [set() if out else {x for x in row if not dead[x]} for row, out in zip(adjacency, dead)]

    def delete(vertices: Iterable[int]) -> None:
        for u in vertices:
            dead[u] = True
            for x in rows[u]:
                rows[x].discard(u)
            rows[u] = set()

    while 2 in degree:
        foldable = [v for v, d in enumerate(degree) if d == 2]  # ascending: a heap
        while foldable:
            v = heapq.heappop(foldable)
            if len(rows[v]) != 2:
                continue  # deleted, or its degree moved, after it was pushed
            a, b = rows[v]
            if b in rows[a]:
                continue
            folds.append((labels[v], labels[a], labels[b]))
            merged = (rows[a] | rows[b]) - {v}
            delete((a, b))
            rows[v] = merged
            for x in merged:
                rows[x].add(v)
            # only v and its new neighbours changed rows, and every edge added
            # or lost touches v, a or b, so only they can have become foldable
            for x in (v, *merged):
                if len(rows[x]) == 2:
                    heapq.heappush(foldable, x)
        drop, run_dead, degree = _pendant_neighbours(rows)
        delete(drop + _dominated_vertices(rows, run_dead, degree))
    keep = [v for v, out in enumerate(dead) if not out]
    labels = [labels[v] for v in keep]
    if not any(degree):
        return None, labels
    new_id = dict(zip(keep, range(len(keep))))
    adjacency = tuple([tuple(sorted([new_id[x] for x in rows[v]])) for v in keep])
    return Graph(len(keep), adjacency, sum(map(len, adjacency)) // 2), labels


def _pendant_neighbours(adjacency: Sequence[Collection[int]]) -> tuple[list[int], list[bool], list[int]]:
    """The neighbours that a run of pendant steps deletes from the graph
    with rows ``adjacency``: while a degree-1 vertex is left, the lowest-id
    one loses its neighbour. Deletions keep the survivors' order, so the
    lowest id here is the lowest id in the graph each single deletion would
    leave. The run keeps degree counts and a min-heap of the degree-1
    vertices instead of rebuilding the graph after each deletion. Returns the deleted vertices, which vertices
    are deleted, and the degree each vertex is left with (0 once deleted)."""
    degree = [len(row) for row in adjacency]
    pendants = [v for v, d in enumerate(degree) if d == 1]
    dead = [False] * len(adjacency)
    drop = []
    while pendants:
        v = heapq.heappop(pendants)
        if dead[v] or degree[v] != 1:
            continue  # its neighbour went, or it did, after it was pushed
        u = next(x for x in adjacency[v] if not dead[x])
        dead[u] = True
        degree[u] = 0
        drop.append(u)
        for x in adjacency[u]:
            if not dead[x]:
                degree[x] -= 1
                if degree[x] == 1:
                    heapq.heappush(pendants, x)
    return drop, dead, degree


def _dominated_vertices(adjacency: Sequence[Collection[int]], dead: list[bool], degree: list[int]) -> list[int]:
    """The vertices that a run of domination steps deletes from what is
    left of the graph with rows ``adjacency`` once the ``dead`` vertices are
    gone, each vertex v keeping ``degree[v]`` neighbours: while some vertex u
    has a neighbour v with N[v] ⊆ N[u], the lowest-id such u goes. Closed neighbourhoods are
    int bitmasks, and a min-heap worklist holds the vertices that may be
    dominated. Deleting u shrinks only the neighbourhoods of u's neighbours,
    so only they and their neighbours can become dominated, and only they go
    back on the worklist. A vertex leaves the worklist only to be checked, so
    every dominated vertex is on it, and the first dominated vertex popped is
    the graph's lowest. Updates ``dead`` and ``degree`` like the pendant run."""
    if not any(degree):
        return []  # no edge is left
    n = len(adjacency)
    queued = list(map(bool, degree))
    worklist = list(compress(range(n), degree))  # ascending: a heap
    bit = [1 << v for v in range(n)]
    closed = [sum([bit[x] for x in row], bit[v]) for v, row in enumerate(adjacency)]
    for u in compress(range(n), dead):
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
        degree[u] = 0
        drop.append(u)
        for x in adjacency[u]:
            if dead[x]:
                continue
            degree[x] -= 1
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
    for. A copy's only edge joins it to the vertex it copies, so both ends of
    that edge have the same source.
    """

    g0: Graph
    g0_source: tuple[int, ...]
    g1: Graph
    g1_source: tuple[int, ...]


def build_mvc_gadgets(g: Graph, v: int) -> MvcGadgets:
    """Both branch graphs for ``v``, their edge lists read off the adjacency
    rows in one pass: ``g0`` renumbers the vertices above v down by one."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range for {g.n} vertices")
    neigh = g.adjacency[v]
    if not neigh:
        raise GraphError(f"vertex {v} is isolated; the MVC branch step needs degree >= 1")
    cleared = [False] * g.n  # g0 drops every edge at v or at a neighbour of v
    cleared[v] = True
    for u in neigh:
        cleared[u] = True
    edges0, edges1 = [], []
    for a, row in enumerate(g.adjacency):
        if a == v:
            continue
        for b in row:
            if a < b != v:
                edges1.append((a, b))
                if not (cleared[a] or cleared[b]):
                    edges0.append((a - (a > v), b - (b > v)))
    base = g.n - 1
    edges0 += [(u - (u > v), base + i) for i, u in enumerate(neigh)]
    edges1.append((v, g.n))
    g0 = build_graph(base + len(neigh), edges0)
    g1 = build_graph(g.n + 1, edges1)
    return MvcGadgets(g0, (*range(v), *range(v + 1, g.n), *neigh), g1, (*range(g.n), v))


def solve_mvc(g: Graph, comparator: Comparator, seed: int) -> tuple[VertexSet, Trajectory]:
    """Recursive MVC via the copy-vertex gadgets.

    Base case: when every degree is <= 1, the graph is isolated vertices and
    isolated edges; the cover takes the endpoint with the smaller source of
    each edge (the smaller id on equal sources, which is a copy's edge and
    adds the same original vertex either way). Otherwise a
    random vertex of positive degree is picked and the comparator chooses
    between its two gadget branches (0 keeps g0, i.e. the branch whose cover
    is estimated no larger).
    """
    rng = random.Random(seed)
    cur = g
    source = list(range(g.n))
    traj = Trajectory()
    while cur.max_degree() >= 2:
        candidates = [v for v, row in enumerate(cur.adjacency) if row]
        v = candidates[rng.randrange(len(candidates))]
        gad = build_mvc_gadgets(cur, v)
        choice = 1 if comparator(gad.g0, gad.g1) else 0
        traj.steps.append((gad.g0, gad.g1))
        cur, sel_source = (gad.g0, gad.g0_source) if choice == 0 else (gad.g1, gad.g1_source)
        source = [source[s] for s in sel_source]
    cover: set[int] = set()
    for x, y in cur.edges():
        picked = min(x, y, key=lambda t: (source[t], t))
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
