"""Exact and heuristic baselines: branch-and-bound MIS/MVC, degree-greedy
heuristics, and a randomized insert-and-evict local search.

The exact solver holds a node's available vertices in one int bitmask. A
branch node scans them once and takes each degree as a popcount: O(a)
big-int operations of O(n / 64) words for a available vertices. Its peel
adds O(log a) per vertex it takes and one operation per degree that falls,
and it rescans only to find a new branch vertex when the peel removed the
scan's choice or cut its degree. The greedy heuristics keep degrees up to
date in a heap: O((n + m) log n) per run."""

from __future__ import annotations

import random
import time
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush, heapreplace
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
    """Maximum independent set by branch and bound, seeded with
    :func:`greedy_mis`. Deterministic for a fixed graph.

    A branch node first peels: while some available vertex has degree <= 1
    (some optimum contains it), it takes the one of least degree, then
    lowest id, and removes its closed neighbourhood. Then it returns if
    nothing is left or if ``size + popcount(avail) <= best``, and otherwise
    counts itself in ``expanded`` and branches on the lowest-id vertex of
    highest degree, include branch first. ``budget`` caps ``expanded``.
    """
    if budget is None and g.n > EXACT_VERTEX_LIMIT:
        raise GraphTooLargeError(
            f"{g.n} vertices exceeds the exact limit {EXACT_VERTEX_LIMIT}; pass a budget"
        )
    masks = [sum(1 << u for u in g.adjacency[v]) for v in range(g.n)]
    closed = [masks[v] | (1 << v) for v in range(g.n)]
    # degrees within the current node's available set; a node writes the
    # entries of its own vertices before it reads any
    deg = [0] * g.n

    seed = greedy_mis(g)
    best_size = len(seed)
    best_mask = sum(1 << v for v in seed.members)
    expanded = 0
    exhausted = False

    def search(avail: int, size: int, chosen: int) -> None:
        nonlocal best_size, best_mask, expanded, exhausted
        if exhausted:
            return
        isolated = 0
        pendant: list[int] = []
        high_v = high_d = -1
        rest = avail
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            deg[v] = d = (masks[v] & avail).bit_count()
            if d > 1:
                if d > high_d:
                    high_v, high_d = v, d
            elif d:
                pendant.append(v)
            else:
                isolated |= bit
        # a degree-0 vertex is taken as soon as it appears, which changes no
        # other degree; the degree-1 vertices wait in a heap of ids (the scan
        # appends them in ascending order), and one that has left is skipped
        chosen |= isolated
        size += isolated.bit_count()
        avail ^= isolated
        while pendant:
            v = heappop(pendant)
            if not avail >> v & 1:
                continue
            u = (masks[v] & avail).bit_length() - 1
            chosen |= 1 << v
            size += 1
            avail &= ~closed[v]
            rest = masks[u] & avail
            while rest:
                bit = rest & -rest
                rest ^= bit
                w = bit.bit_length() - 1
                deg[w] -= 1
                if deg[w] == 1:
                    heappush(pendant, w)
                elif deg[w] == 0:
                    chosen |= bit
                    size += 1
                    avail ^= bit
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
        if not (avail >> high_v & 1 and deg[high_v] == high_d):
            # the peel took the scan's pick or one of its neighbours; degrees
            # only fall, so otherwise the pick still stands
            high_d = -1
            rest = avail
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                if deg[v] > high_d:
                    high_v, high_d = v, deg[v]
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
    delete it together with its neighbors.

    A heap holds int keys ``degree * n + id``, which order as (degree, id).
    Each pick lowers the keys of the vertices that lost neighbours and pushes
    one new key for each, or rebuilds the heap from its live keys when the
    pick touched at least half as many vertices as the heap holds; pops skip
    keys of deleted vertices and outdated degrees. A run costs
    O((n + m) log n).
    """
    n = g.n
    adjacency = g.adjacency
    key = [len(row) * n + v for v, row in enumerate(adjacency)]
    heap = key[:]
    heapify(heap)
    chosen: list[int] = []
    while heap:
        k = heappop(heap)
        v = k % n
        if k != key[v]:
            continue
        chosen.append(v)
        key[v] = -1
        touched = set()
        for u in adjacency[v]:
            if key[u] >= 0:
                key[u] = -1
                for w in adjacency[u]:
                    if key[w] >= 0:
                        key[w] -= n
                        touched.add(w)
        if 2 * len(touched) >= len(heap):
            heap = [k for k in heap if k == key[k % n]]
            heap += [key[w] for w in touched if key[w] >= 0]
            heapify(heap)
        else:
            for w in touched:
                if key[w] >= 0:
                    heappush(heap, key[w])
    return VertexSet(frozenset(chosen), INDEPENDENT_SET)


def greedy_mvc(g: Graph) -> VertexSet:
    """Repeatedly move a maximum-degree vertex (smallest id on ties) into the
    cover and delete it, until no edges remain.

    A heap holds one int key ``id - degree * n`` per live vertex, which
    orders as (-degree, id). Degrees only fall, so a key at the top that is
    out of date is replaced by its vertex's current key, and a run costs
    O((n + m) log n).
    """
    n = g.n
    adjacency = g.adjacency
    key = [v - len(row) * n for v, row in enumerate(adjacency)]
    heap = key[:]
    heapify(heap)
    edges_left = g.m
    cover: list[int] = []
    while edges_left:
        k = heap[0]
        v = k % n
        if k != key[v]:
            heapreplace(heap, key[v])
            continue
        heappop(heap)
        cover.append(v)
        edges_left -= (v - k) // n
        # a covered neighbour has no key left in the heap, so its key is
        # never read again
        for u in adjacency[v]:
            key[u] += n
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
