"""Immutable undirected simple graphs and the vertex-set checks used by every solver."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

INDEPENDENT_SET = "independent-set"
VERTEX_COVER = "vertex-cover"


class GraphError(ValueError):
    """Invalid graph construction or vertex argument."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertex ids 0..n-1.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v`` and ``m`` is the
    edge count. Instances are immutable and hashable, so they can be shared
    across workers and used as cache keys.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, ascending."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def max_degree(self) -> int:
        return max((len(row) for row in self.adjacency), default=0)

    def check(self) -> None:
        """Verify structural invariants; raises GraphError on violation."""
        if self.n < 0:
            raise GraphError("negative vertex count")
        if len(self.adjacency) != self.n:
            raise GraphError("adjacency length does not match vertex count")
        total = 0
        for v, row in enumerate(self.adjacency):
            if list(row) != sorted(set(row)):
                raise GraphError(f"adjacency of {v} is not a sorted set")
            for u in row:
                if u == v:
                    raise GraphError(f"self-loop at {v}")
                if not 0 <= u < self.n:
                    raise GraphError(f"neighbor {u} of {v} out of range")
                if v not in self.adjacency[u]:
                    raise GraphError(f"edge ({v},{u}) not symmetric")
            total += len(row)
        if total != 2 * self.m:
            raise GraphError("edge count does not match adjacency")


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges (in either orientation)
    are dropped silently, self-loops and out-of-range ids are rejected."""
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop ({u},{v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for {n} vertices")
        adj[u].add(v)
        adj[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in adj)
    m = sum(len(s) for s in adjacency) // 2
    return Graph(n, adjacency, m)


def remove_vertices(g: Graph, drop: Iterable[int]) -> tuple[Graph, list[int]]:
    """Delete ``drop`` and their incident edges. Returns the new graph and
    ``kept``, the surviving old ids in ascending order: new vertex i is old
    vertex ``kept[i]``."""
    alive = [True] * g.n
    for v in drop:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range for {g.n} vertices")
        alive[v] = False
    keep = list(compress(range(g.n), alive))
    new_id = [-1] * g.n
    for new, old in enumerate(keep):
        new_id[old] = new
    # tuple() of a list allocates once at the exact size; from a generator it
    # grows and shrinks, which is slower and fragments the heap that cached graphs live on
    adjacency = tuple([tuple([new_id[u] for u in g.adjacency[old] if alive[u]]) for old in keep])
    m = sum(map(len, adjacency)) // 2
    return Graph(len(keep), adjacency, m), keep


def remove_vertex(g: Graph, v: int) -> tuple[Graph, list[int]]:
    """Delete one vertex; see remove_vertices."""
    return remove_vertices(g, (v,))


def remove_neighbors(g: Graph, v: int) -> tuple[Graph, list[int]]:
    """Delete all neighbors of ``v``; ``v`` itself survives and ends isolated."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range for {g.n} vertices")
    return remove_vertices(g, g.adjacency[v])


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a permutation of vertex ids: old id v becomes perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("not a permutation of 0..n-1")
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def graph_fingerprint(g: Graph) -> int:
    """64-bit digest of the labeled graph; stable across processes."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(g.n).encode())
    for u, v in g.edges():
        h.update(f",{u}-{v}".encode())
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class VertexSet:
    """A set of vertex ids tagged with its role: independent set or vertex cover."""

    members: frozenset[int]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (INDEPENDENT_SET, VERTEX_COVER):
            raise GraphError(f"unknown vertex-set kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.members)

    def valid_for(self, g: Graph) -> bool:
        """Range check plus the role-specific condition against ``g``."""
        if not all(0 <= v < g.n for v in self.members):
            return False
        if self.kind == INDEPENDENT_SET:
            return is_independent_set(g, self.members)
        return is_vertex_cover(g, self.members)


def is_independent_set(g: Graph, members: Iterable[int]) -> bool:
    mset = set(members)
    return all(u not in mset or v not in mset for u, v in g.edges())


def is_vertex_cover(g: Graph, members: Iterable[int]) -> bool:
    mset = set(members)
    return all(u in mset or v in mset for u, v in g.edges())
