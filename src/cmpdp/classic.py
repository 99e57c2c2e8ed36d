"""Exact and heuristic baselines: branch-and-bound MIS/MVC, degree-greedy
heuristics, and a randomized insert-and-evict local search."""

from __future__ import annotations

import random
import time
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from .graph import (
    INDEPENDENT_SET,
    VERTEX_COVER,
    Graph,
    GraphError,
    VertexSet,
)

# Largest graph the exact solvers accept without an explicit budget.
EXACT_VERTEX_LIMIT = 60


class GraphTooLargeError(GraphError):
    """Exact solve requested above EXACT_VERTEX_LIMIT without a budget."""


@dataclass(frozen=True)
class ExactResult:
    """Outcome of a branch-and-bound run.

    ``optimal`` is False when the node budget ran out; the vertex set is then
    the best incumbent found (a bound, still valid for its role), never a
    silently suboptimal answer presented as exact.
    """

    vertex_set: VertexSet
    optimal: bool
    expanded: int

    @property
    def size(self) -> int:
        return len(self.vertex_set)


def exact_mis(g: Graph, budget: int | None = None) -> ExactResult:
    """Maximum independent set by branch and bound.

    Branches on a maximum-degree vertex (in / out), after greedily taking all
    vertices of degree <= 1, which some optimum always contains. Deterministic
    for a fixed graph. ``budget`` caps the number of branch nodes expanded.
    """
    if budget is None and g.n > EXACT_VERTEX_LIMIT:
        raise GraphTooLargeError(
            f"{g.n} vertices exceeds the exact limit {EXACT_VERTEX_LIMIT}; pass a budget"
        )
    masks = [sum(1 << u for u in g.adjacency[v]) for v in range(g.n)]
    closed = [masks[v] | (1 << v) for v in range(g.n)]

    seed = greedy_mis(g)
    best_size = len(seed)
    best_mask = sum(1 << v for v in seed.members)
    expanded = 0
    exhausted = False

    def search(avail: int, size: int, chosen: int) -> None:
        nonlocal best_size, best_mask, expanded, exhausted
        if exhausted:
            return
        while avail:
            low_v = -1
            high_v = -1
            low_d = high_d = -1
            rest = avail
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                d = (masks[v] & avail).bit_count()
                if low_v < 0 or d < low_d:
                    low_v, low_d = v, d
                if d > high_d:
                    high_v, high_d = v, d
            if low_d <= 1:
                chosen |= 1 << low_v
                size += 1
                avail &= ~closed[low_v]
                continue
            break
        if avail == 0:
            if size > best_size:
                best_size = size
                best_mask = chosen
            return
        if size + avail.bit_count() <= best_size:
            return
        expanded += 1
        if budget is not None and expanded > budget:
            exhausted = True
            return
        v = high_v
        search(avail & ~closed[v], size + 1, chosen | (1 << v))
        search(avail & ~(1 << v), size, chosen)

    search((1 << g.n) - 1, 0, 0)
    members = frozenset(v for v in range(g.n) if best_mask >> v & 1)
    return ExactResult(VertexSet(members, INDEPENDENT_SET), not exhausted, expanded)


def exact_mvc(g: Graph, budget: int | None = None) -> ExactResult:
    """Minimum vertex cover as the complement of a maximum independent set.

    The complement of any independent set covers every edge, so even a
    budget-exhausted result is a valid (if possibly oversized) cover.
    """
    r = exact_mis(g, budget)
    return ExactResult(complement_cover(g, r.vertex_set), r.optimal, r.expanded)


def complement_cover(g: Graph, vs: VertexSet) -> VertexSet:
    """The vertices outside an independent set, which cover every edge."""
    return VertexSet(frozenset(range(g.n)) - vs.members, VERTEX_COVER)


@lru_cache(maxsize=65536)
def exact_mis_size(g: Graph) -> int:
    """Cached optimum size; graphs are hashable so repeat queries are free."""
    return exact_mis(g).size


def exact_mvc_size(g: Graph) -> int:
    return g.n - exact_mis_size(g)


def greedy_mis(g: Graph) -> VertexSet:
    """Repeatedly take a minimum-degree vertex (smallest id on ties) and
    delete it together with its neighbors."""
    alive = [True] * g.n
    deg = [g.degree(v) for v in range(g.n)]
    remaining = g.n
    chosen: list[int] = []
    while remaining:
        v = min((u for u in range(g.n) if alive[u]), key=lambda u: (deg[u], u))
        chosen.append(v)
        for u in (v, *g.adjacency[v]):
            if not alive[u]:
                continue
            alive[u] = False
            remaining -= 1
            for w in g.adjacency[u]:
                if alive[w]:
                    deg[w] -= 1
    return VertexSet(frozenset(chosen), INDEPENDENT_SET)


def greedy_mvc(g: Graph) -> VertexSet:
    """Repeatedly move a maximum-degree vertex (smallest id on ties) into the
    cover and delete it, until no edges remain."""
    alive = [True] * g.n
    deg = [g.degree(v) for v in range(g.n)]
    edges_left = g.m
    cover: list[int] = []
    while edges_left:
        v = min((u for u in range(g.n) if alive[u]), key=lambda u: (-deg[u], u))
        cover.append(v)
        alive[v] = False
        edges_left -= deg[v]
        for u in g.adjacency[v]:
            if alive[u]:
                deg[u] -= 1
        deg[v] = 0
    return VertexSet(frozenset(cover), VERTEX_COVER)


def local_search_mis(
    g: Graph,
    time_limit: float,
    seed: int,
    max_moves: int | None = None,
) -> VertexSet:
    """Randomized local search: start from a maximal independent set built in
    random order, then repeatedly insert a random non-member and evict its
    neighbors. Returns the largest set observed.

    ``max_moves`` additionally caps the number of moves, which makes the
    result independent of wall-clock speed.

    The non-members stay in one ascending list, kept up to date move by move
    (as in Andrade, Resende & Werneck, J. Heuristics 2012): a move pops the
    drawn entry and inserts each evicted neighbour in order, so it costs
    O(degree log n) comparisons and one list shift per edit instead of an
    O(n) rebuild. Draws index that list, so the moves do not depend on how
    it is kept.
    """
    rng = random.Random(seed)
    order = list(range(g.n))
    rng.shuffle(order)
    member = [False] * g.n
    for v in order:
        if not any(member[u] for u in g.adjacency[v]):
            member[v] = True
    outside = [v for v in range(g.n) if not member[v]]
    best = frozenset(compress(range(g.n), member))
    deadline = time.monotonic() + max(0.0, time_limit)
    moves = 0
    while time.monotonic() < deadline:
        if max_moves is not None and moves >= max_moves:
            break
        if not outside:
            break
        v = outside.pop(rng.randrange(len(outside)))
        member[v] = True
        for u in g.adjacency[v]:
            if member[u]:
                member[u] = False
                insort(outside, u)
        if g.n - len(outside) > len(best):
            best = frozenset(compress(range(g.n), member))
        moves += 1
    return VertexSet(best, INDEPENDENT_SET)
