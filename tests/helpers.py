"""Independent oracles and shared helpers for the test suite.

Everything here is deliberately written as a second implementation, separate
from the package code paths it checks: subset enumeration instead of branch
and bound, vertex-by-vertex loops instead of matrix message passing, and
central finite differences instead of the analytic backward pass.
"""

from __future__ import annotations

import math
import random
import zlib

import numpy as np

from cmpdp.graph import Graph, build_graph
from cmpdp.net import MAGIC, CmpParams, score_graph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def random_forest(rng: random.Random, n: int, p: float) -> Graph:
    """Each vertex after the first joins a uniformly drawn earlier vertex with
    probability ``p``, so every component is a tree."""
    edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < p]
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
