"""Independent oracles and shared helpers for the test suite.

Everything here is deliberately written as a second implementation, separate
from the package code paths it checks: subset enumeration instead of branch
and bound, vertex-by-vertex loops instead of matrix message passing, and
central finite differences instead of the analytic backward pass.
"""

from __future__ import annotations

import math
import random
import time
import zlib

import numpy as np

from cmpdp.classic import EXACT_VERTEX_LIMIT, ExactResult, GraphTooLargeError
from cmpdp.dpsolve import MvcGadgets, learned_mis_comparator, solve_mis
from cmpdp.graph import INDEPENDENT_SET, VERTEX_COVER, Graph, VertexSet, build_graph
from cmpdp.net import MAGIC, CmpParams, score_graph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def sparse_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform random graph with exactly n vertices and m edges."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return build_graph(n, edges)


def random_forest(rng: random.Random, n: int, p: float) -> Graph:
    """Each vertex after the first joins a uniformly drawn earlier vertex with
    probability ``p``, so every component is a tree."""
    edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < p]
    return build_graph(n, edges)


def random_chordal(rng: random.Random, n: int) -> Graph:
    """A triangle, then each further vertex joins two or more vertices of a
    clique built so far, so that cliques glue on cliques. Every vertex's
    earlier neighbours form a clique, so the reversed insertion order is a
    perfect elimination order: the graph is chordal, and for n >= 3 every
    degree is at least 2."""
    cliques = [(0, 1, 2)]
    edges = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, n):
        base = rng.choice(cliques)
        joined = rng.sample(base, rng.randint(2, len(base)))
        edges.extend((u, v) for u in joined)
        cliques.append((*joined, v))
    return build_graph(n, edges)


def degree_class_graphs() -> dict[str, Graph]:
    """Shapes that stress the scorer's grouping of vertices by degree: few
    classes, a single class, empty neighbour runs first and last in the edge
    list, and degree values with gaps between them."""
    return {
        "star": build_graph(7, [(0, v) for v in range(1, 7)]),
        "edgeless": build_graph(5, []),
        "isolated": build_graph(8, [(1, 2), (2, 3), (1, 3), (3, 5)]),
        "degree-gap": build_graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (2, 6)]),
    }


def brute_force_mis_size(g: Graph) -> int:
    """Enumerate all 2^n subsets; usable up to n ~ 16."""
    masks = [sum(1 << u for u in g.adjacency[v]) for v in range(g.n)]
    best = 0
    for subset in range(1 << g.n):
        ok = True
        rest = subset
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            if masks[v] & subset:
                ok = False
                break
        if ok:
            best = max(best, subset.bit_count())
    return best


def brute_force_mvc_size(g: Graph) -> int:
    """Smallest subset touching every edge, by enumeration."""
    edges = g.edges()
    best = g.n
    for subset in range(1 << g.n):
        if subset.bit_count() >= best:
            continue
        if all((subset >> u & 1) or (subset >> v & 1) for u, v in edges):
            best = subset.bit_count()
    return best


def straight_line_logit(params: CmpParams, g: Graph) -> float:
    """Forward pass re-derived from the architecture description, computed
    with per-vertex loops and explicit non-neighbor sums (no global-sum
    shortcut)."""
    n = g.n
    if n == 0:
        return 0.0
    w = params.width
    eps = 1e-5

    def gelu_scalar(x: float) -> float:
        return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))

    def layer_norm(vec: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
        mean = float(np.mean(vec))
        var = float(np.mean((vec - mean) ** 2))
        return scale * ((vec - mean) / math.sqrt(var + eps)) + shift

    emb = [np.zeros(3 * w) for _ in range(n)]
    for k in range(params.rounds):
        nxt = []
        for v in range(n):
            neigh = np.zeros(3 * w)
            for u in g.adjacency[v]:
                neigh += emb[u]
            anti = np.zeros(3 * w)
            for u in range(n):
                if u != v and u not in g.adjacency[v]:
                    anti += emb[u]
            a = params.self_w[k] @ emb[v] + params.self_b[k]
            b = params.neigh_w[k] @ neigh + params.neigh_b[k]
            c = params.anti_w[k] @ anti + params.anti_b[k]
            pre = np.concatenate((a, b, c))
            act = np.array([gelu_scalar(x) for x in pre])
            nxt.append(layer_norm(act, params.norm_scale[k], params.norm_shift[k]))
        emb = nxt
    pooled = sum(emb) / n
    x = pooled
    hidden = []
    for i in range(params.head_layers - 1):
        z = params.head_w[i] @ x + params.head_b[i]
        act = np.array([gelu_scalar(t) for t in z])
        x = layer_norm(act, params.head_norm_scale[i], params.head_norm_shift[i])
        hidden.append(x)
    final_input = np.concatenate((hidden[-1], hidden[0]))
    return float((params.head_w[-1] @ final_input + params.head_b[-1])[0])


def reference_pair_loss(z0: float, z1: float, label: int) -> float:
    """The pair loss of one pair on Python floats: cross-entropy of the
    two-way softmax over (z0, z1), label 1 meaning the second graph is the
    larger."""
    return float(np.logaddexp(0, z1 - z0) - label * (z1 - z0))


def mixed_pairs() -> list[tuple[Graph, Graph, int]]:
    """(g, g_prime, label) triples with both labels, a graph repeated within
    and across pairs, and the empty graph on either side."""
    empty = build_graph(0, [])
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    path = build_graph(3, [(0, 1), (1, 2)])
    star = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    return [(tri, path, 0), (path, tri, 1), (tri, tri, 1), (empty, star, 1), (star, empty, 0), (star, path, 1)]


def decisions_against_the_traced_rule(
    params: CmpParams, graphs: list[Graph], seeds: list[int], tol: float = 1e-12
) -> tuple[int, int, list[tuple[Graph, Graph, int, float, float]]]:
    """Walk ``solve_mis`` on every graph at every seed under the learned
    comparator of ``params``, and hold each decision it makes against the
    rule on the traced pass's logits: keep branch 0 unless z1 > z0. Returns
    the number of decisions, how many had a traced gap |z0 - z1| of at most
    ``tol``, and the decisions outside that gap that broke the rule, as
    (g0, g1, choice, z0, z1)."""
    decisions, near_ties, broken = 0, 0, []
    for g in graphs:
        for seed in seeds:
            compare, seen = learned_mis_comparator(params), []

            def recording(g0: Graph, g1: Graph) -> int:
                choice = compare(g0, g1)
                seen.append((g0, g1, choice))
                return choice

            solve_mis(g, recording, seed)
            for g0, g1, choice in seen:
                z0, z1 = score_graph(params, g0)[0], score_graph(params, g1)[0]
                decisions += 1
                if abs(z0 - z1) <= tol:
                    near_ties += 1
                elif choice != int(z0 < z1):
                    broken.append((g0, g1, choice, z0, z1))
    return decisions, near_ties, broken


def pairwise_loss_value(params: CmpParams, g: Graph, gp: Graph, label: int) -> float:
    """Loss recomputed from two independent single-graph forward calls (for
    finite differences)."""
    return reference_pair_loss(score_graph(params, g)[0], score_graph(params, gp)[0], label)


# Weight-file geometries far too large for any real file: a loader that sizes
# memory from the header before checking the file length runs out of memory
HOSTILE_GEOMETRIES = [(3, 10**6, 4), (10**9, 1, 2), (1, 2**40, 2)]


def hostile_header(geometry: tuple[int, int, int]) -> bytes:
    """A 35-byte weight file: MAGIC, the declared geometry and a valid CRC,
    with no tensor payload."""
    body = MAGIC + np.array(geometry, dtype="<i8").tobytes()
    return body + np.array([zlib.crc32(body)], dtype="<u4").tobytes()


def finite_difference_grads(
    params: CmpParams, batch: list[tuple[Graph, Graph, int]], step: float = 1e-5
) -> CmpParams:
    """Central differences of the summed pair loss of a batch of
    (g, g_prime, label) triples for every parameter component, each pair
    scored graph by graph."""
    from cmpdp.net import zeros_like_params

    def loss() -> float:
        return sum(pairwise_loss_value(params, g, gp, label) for g, gp, label in batch)

    grads = zeros_like_params(params)
    grad_map = dict(grads.tensors())
    for name, tensor in params.tensors():
        out = grad_map[name]
        flat = tensor.reshape(-1)
        gflat = out.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = loss()
            flat[i] = keep - step
            lo = loss()
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * step)
    return grads


def reference_adam(params: CmpParams, grads_seq, lr: float, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> dict[str, np.ndarray]:
    """Bias-corrected Adam written tensor by tensor, with one moment pair per
    tensor: {name: tensor} after one update per gradient in ``grads_seq``."""
    tensors = {name: t.copy() for name, t in params.tensors()}
    m = {name: np.zeros_like(t) for name, t in tensors.items()}
    v = {name: np.zeros_like(t) for name, t in tensors.items()}
    for t, grads in enumerate(grads_seq, start=1):
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        for name, gr in grads.tensors():
            m[name] *= beta1
            m[name] += (1.0 - beta1) * gr
            v[name] *= beta2
            v[name] += (1.0 - beta2) * gr * gr
            tensors[name] -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)
    return tensors


def relative_mismatch(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Boolean mask of components whose relative difference exceeds tol;
    components tiny on both sides pass."""
    denom = np.maximum(np.abs(a), np.abs(b))
    tiny = denom < 1e-10
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(a - b) / denom
    rel = np.where(tiny, 0.0, rel)
    return rel > tol


def reference_local_search_mis(g: Graph, time_limit: float, seed: int, max_moves: int | None = None) -> VertexSet:
    """``classic.local_search_mis`` as first written: the same random
    maximal start and the same moves, with the list of non-members rebuilt
    from scratch before every move."""
    rng = random.Random(seed)
    order = list(range(g.n))
    rng.shuffle(order)
    current: set[int] = set()
    for v in order:
        if all(u not in current for u in g.adjacency[v]):
            current.add(v)
    best = set(current)
    deadline = time.monotonic() + max(0.0, time_limit)
    moves = 0
    while time.monotonic() < deadline:
        if max_moves is not None and moves >= max_moves:
            break
        outside = [v for v in range(g.n) if v not in current]
        if not outside:
            break
        v = outside[rng.randrange(len(outside))]
        for u in g.adjacency[v]:
            current.discard(u)
        current.add(v)
        if len(current) > len(best):
            best = set(current)
        moves += 1
    return VertexSet(frozenset(best), INDEPENDENT_SET)


def reference_mvc_gadgets(g: Graph, v: int) -> MvcGadgets:
    """``dpsolve.build_mvc_gadgets`` as first written: both branch graphs
    filtered from ``g.edges()``, renumbered through an old-to-new dict."""
    neigh = g.adjacency[v]
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
    for i, u in enumerate(neigh):
        edges0.append((old_to_new[u], base + i))
        source0.append(u)
    g0 = build_graph(base + len(neigh), edges0)
    edges1 = [(a, b) for a, b in g.edges() if a != v and b != v]
    edges1.append((v, g.n))
    g1 = build_graph(g.n + 1, edges1)
    source1 = list(range(g.n)) + [v]
    return MvcGadgets(g0, tuple(source0), g1, tuple(source1))


def reference_solve_mvc(g: Graph, comparator, seed: int) -> tuple[VertexSet, list[tuple[Graph, Graph]]]:
    """``dpsolve.solve_mvc``'s recursion as first written, on
    :func:`reference_mvc_gadgets`, with its bookkeeping remapped index by
    index and a flag on every pendant copy (g0's vertices from n - 1 on,
    g1's vertex n) and its descendants, which the base case picks last: the
    cover and the (g0, g1) pairs the comparator saw."""
    rng = random.Random(seed)
    cur = g
    source = list(range(g.n))
    is_copy = [False] * g.n
    steps = []
    while cur.max_degree() >= 2:
        candidates = [v for v in range(cur.n) if cur.degree(v) >= 1]
        v = candidates[rng.randrange(len(candidates))]
        gad = reference_mvc_gadgets(cur, v)
        choice = 1 if comparator(gad.g0, gad.g1) else 0
        steps.append((gad.g0, gad.g1))
        if choice == 0:
            gsel, sel_source, sel_copy = gad.g0, gad.g0_source, [i >= cur.n - 1 for i in range(gad.g0.n)]
        else:
            gsel, sel_source, sel_copy = gad.g1, gad.g1_source, [i == cur.n for i in range(gad.g1.n)]
        source = [source[sel_source[i]] for i in range(gsel.n)]
        is_copy = [sel_copy[i] or is_copy[sel_source[i]] for i in range(gsel.n)]
        cur = gsel
    cover = set()
    for x, y in cur.edges():
        picked = min(x, y, key=lambda t: (is_copy[t], source[t], t))
        cover.add(source[picked])
    return VertexSet(frozenset(cover), VERTEX_COVER), steps


def reference_exact_mis(g: Graph, budget: int | None = None) -> ExactResult:
    """``classic.exact_mis`` as it stood before its peel took vertices from a
    heap: every peeled vertex of degree <= 1 rescans the available vertices.
    Maximum independent set by branch and bound.

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

    seed = reference_greedy_mis(g)
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


def reference_greedy_mis(g: Graph) -> VertexSet:
    """``classic.greedy_mis`` as first written, with a scan of every live
    vertex per pick: repeatedly take a minimum-degree vertex (smallest id on ties) and
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


def reference_greedy_mvc(g: Graph) -> VertexSet:
    """``classic.greedy_mvc`` as first written, with a scan of every live
    vertex per pick: repeatedly move a maximum-degree vertex (smallest id on ties) into the
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
